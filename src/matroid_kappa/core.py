"""Ground sets, element sets, independence oracles and finite matroids.

Element sets are stored as bitmasks over a fixed, ordered ground set.  The
order in which labels were first listed is the canonical order; every
greedy choice and every enumeration in the package breaks ties by it,
which makes all results reproducible.

A :class:`Matroid` is an independence oracle, a pure function from element
sets to booleans.  Each concrete representation (uniform, graphic, binary
linear, explicit family) is a subclass that owns its data and oracle and
builds its dual and minors from that data: uniform duals and minors stay
uniform, graphic minors and circuits come from the graph's vertex numbers,
graphic and binary duals and binary minors are binary matrices again, and
explicit minors filter the family.  Only a matroid given by a bare oracle,
and the dual of an explicit one, wrap the source oracle.  Every minor is
taken in one step by :meth:`Matroid._minor`, and the functions of
:mod:`matroid_kappa.constructions` are its only callers.  Every matroid
keeps its dual and its canonical basis once built; the dual of the dual is
the matroid itself, and the rank is the size of that basis.

Greedy bases come from one pass of a representation's own kernel where it
has one: a graphic matroid runs one union-find over its vertices, which
also merges them for a minor, and a binary one one GF(2) elimination over
its columns.  The same kernels, kept open, are the span of an independent
set (:meth:`Matroid._span`): it answers whether an element can be added
and gives fundamental circuits, from a union-find with tree paths or from
an elimination that records which columns sum to each pivot, and it reads
the exchange-graph arcs of matroid intersection off those circuits.
Binary circuits are the minimal supports of the cycle space, found with
2^(n - r) rank checks; graphic circuits are the graph's simple cycles.
Components (:meth:`Matroid._component_masks`) are the blocks of the graph
for a graphic matroid, found by one depth-first search, and for binary,
explicit and derived matroids the fundamental circuits of the canonical
basis joined with union-find; a binary matroid reads those circuits off
one elimination pass over its columns, the greedy pass itself.  A uniform
matroid has greedy bases, circuits and components in closed form and asks
its oracle for spans; explicit and derived matroids ask their oracle for
all of these.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Container, Hashable, Iterable, Iterator

from . import budgets
from .errors import DomainError, PreconditionError, UniverseMismatchError


class GroundSet:
    """An ordered collection of distinct element labels.

    Iteration order is the canonical order and is stable for the lifetime
    of the object.  Two ground sets compare equal when they carry the same
    labels in the same order, so element sets built from equal ground sets
    are interchangeable.
    """

    __slots__ = ("labels", "_index")

    def __init__(self, labels: Iterable[str]):
        self.labels = tuple(str(x) for x in labels)
        self._index = {lab: i for i, lab in enumerate(self.labels)}
        if len(self._index) != len(self.labels):
            seen: set[str] = set()
            for lab in self.labels:
                if lab in seen:
                    raise DomainError(f"duplicate element label {lab!r}")
                seen.add(lab)

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self) -> Iterator[str]:
        return iter(self.labels)

    def __contains__(self, label: object) -> bool:
        return label in self._index

    def __eq__(self, other: object) -> bool:
        # the identity test first: universe checks mostly compare a ground
        # set with itself, and a label-tuple comparison costs O(n)
        return self is other or (isinstance(other, GroundSet) and self.labels == other.labels)

    def __hash__(self) -> int:
        return hash(self.labels)

    def __repr__(self) -> str:
        return f"GroundSet({list(self.labels)!r})"

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise DomainError(f"unknown element label {label!r}") from None

    @property
    def full_mask(self) -> int:
        return (1 << len(self.labels)) - 1

    def empty(self) -> "ElementSet":
        return ElementSet(self, 0)

    def full(self) -> "ElementSet":
        return ElementSet(self, self.full_mask)

    def set_of(self, labels: Iterable[str]) -> "ElementSet":
        if isinstance(labels, ElementSet) and labels.ground == self:
            return labels
        mask = 0
        for lab in labels:
            mask |= 1 << self.index(lab)
        return ElementSet(self, mask)

    def from_mask(self, mask: int) -> "ElementSet":
        if mask & ~self.full_mask:
            raise DomainError("mask has bits outside the ground set")
        return ElementSet(self, mask)


class ElementSet:
    """An immutable subset of a ground set.

    Equality is extensional within a universe; set algebra between
    different universes raises :class:`UniverseMismatchError`.
    """

    __slots__ = ("ground", "mask")

    def __init__(self, ground: GroundSet, mask: int):
        self.ground = ground
        self.mask = mask

    def _require_same(self, other: "ElementSet") -> None:
        if self.ground != other.ground:
            raise UniverseMismatchError(
                "element sets live over different ground sets"
            )

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __iter__(self) -> Iterator[str]:
        labels = self.ground.labels
        for i in _bit_indices(self.mask):
            yield labels[i]

    def __contains__(self, label: object) -> bool:
        if not isinstance(label, str) or label not in self.ground:
            return False
        return bool(self.mask >> self.ground.index(label) & 1)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ElementSet)
            and self.ground == other.ground
            and self.mask == other.mask
        )

    def __hash__(self) -> int:
        return hash((self.ground, self.mask))

    def __repr__(self) -> str:
        return "{" + ",".join(self) + "}"

    def __or__(self, other: "ElementSet") -> "ElementSet":
        self._require_same(other)
        return ElementSet(self.ground, self.mask | other.mask)

    def __and__(self, other: "ElementSet") -> "ElementSet":
        self._require_same(other)
        return ElementSet(self.ground, self.mask & other.mask)

    def __sub__(self, other: "ElementSet") -> "ElementSet":
        self._require_same(other)
        return ElementSet(self.ground, self.mask & ~other.mask)

    def __le__(self, other: "ElementSet") -> bool:
        self._require_same(other)
        return self.mask & ~other.mask == 0

    def __lt__(self, other: "ElementSet") -> bool:
        return self <= other and self.mask != other.mask

    def isdisjoint(self, other: "ElementSet") -> bool:
        self._require_same(other)
        return self.mask & other.mask == 0

    def complement(self) -> "ElementSet":
        return ElementSet(self.ground, self.ground.full_mask & ~self.mask)

    def with_element(self, label: str) -> "ElementSet":
        return ElementSet(self.ground, self.mask | 1 << self.ground.index(label))

    @property
    def is_empty(self) -> bool:
        return self.mask == 0

    def labels(self) -> tuple[str, ...]:
        return tuple(self)

    def indices(self) -> tuple[int, ...]:
        return tuple(_bit_indices(self.mask))

    def in_universe(self, ground: GroundSet) -> "ElementSet":
        """The same labels as a set over another ground set."""
        return ground.set_of(self)


def _bit_indices(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def iter_submasks_lex(mask: int) -> Iterator[int]:
    """All submasks of ``mask`` in canonical subset order.

    Canonical subset order is lexicographic over increasing index tuples:
    {} < {0} < {0,1} < {0,1,2} < {0,2} < {1} < ...
    """
    bits = [1 << i for i in _bit_indices(mask)]
    n = len(bits)

    def rec(acc: int, start: int) -> Iterator[int]:
        yield acc
        for i in range(start, n):
            yield from rec(acc | bits[i], i + 1)

    return rec(0, 0)


def iter_submasks_binary(mask: int) -> Iterator[int]:
    """All submasks of ``mask`` in binary counting order.

    Bit i of the counter toggles the i-th lowest set bit of ``mask``; the
    empty set comes first.  ``windows.rung_partition_counterexample``
    scans its rung splits in this order.
    """
    positions = tuple(_bit_indices(mask))
    for counter in range(1 << len(positions)):
        yield _spread(counter, positions)


def submasks_of_size(mask: int, size: int) -> Iterator[int]:
    """All submasks of ``mask`` with ``size`` bits, canonical combination order."""
    bits = [1 << i for i in _bit_indices(mask)]
    for combo in itertools.combinations(bits, size):
        yield sum(combo)  # distinct bits, so the sum is their union


class Matroid:
    """A finite matroid given by an independence oracle over a ground set.

    The oracle must be pure: deterministic and side-effect free.  Verdicts
    are memoised on the instance; the memo only grows and recomputation is
    idempotent, so instances are safe to share read-only across workers.

    This class is also the generic representation: its greedy bases
    (:meth:`_greedy_basis_mask`) and spans (:meth:`_span`) ask its oracle,
    its dual (:meth:`_dual`) and minors (:meth:`_contracted`) wrap its
    oracle, its circuits (:meth:`_circuit_masks`) are enumerated from the
    oracle, and its components (:meth:`_component_masks`) join the
    fundamental circuits of its span.  The concrete representations below
    subclass it and override those hooks where their own data gives the
    answer directly; a kernel that answers from the data makes no oracle
    call and leaves the memo untouched.  The class attribute ``rep`` names
    the representation; ``"derived"`` marks an oracle wrapper.
    """

    rep = "derived"
    __slots__ = ("ground", "_oracle", "_memo", "_cache")

    def __init__(self, ground: GroundSet, oracle: Callable[[int], bool]):
        self.ground = ground
        self._oracle = oracle
        self._memo: dict[int, bool] = {}
        self._cache: dict[str, object] = {}

    def __repr__(self) -> str:
        return f"Matroid({self.rep}, n={len(self.ground)})"

    def __len__(self) -> int:
        return len(self.ground)

    # -- oracle ----------------------------------------------------------

    def _indep(self, mask: int) -> bool:
        memo = self._memo
        hit = memo.get(mask)
        if hit is None:
            hit = memo[mask] = self._oracle(mask)
        return hit

    def _check_universe(self, s: ElementSet) -> None:
        if s.ground != self.ground:
            raise UniverseMismatchError("set does not live over this matroid's ground set")

    def is_independent(self, s: ElementSet) -> bool:
        self._check_universe(s)
        return self._indep(s.mask)

    # -- bases and rank --------------------------------------------------

    def _greedy_basis_mask(self, within: int, start: int = 0) -> int:
        """Grow ``start`` to a maximal independent subset of ``within``.

        Candidates are scanned in canonical order, so the result is
        deterministic.  Exchange guarantees all maximal independent
        subsets of a set have equal size, hence this computes rank.  A
        dependent ``start`` admits no candidate and comes back unchanged.

        An override must return exactly this set, the start plus every
        candidate of ``within`` that is independent of those taken before,
        and must return a dependent ``start`` unchanged.
        """
        cur = start
        rest = within & ~start
        indep = self._indep
        while rest:
            low = rest & -rest
            rest ^= low
            if indep(cur | low):
                cur |= low
        return cur

    def rank(self, s: ElementSet | None = None) -> int:
        """Size of a maximal independent subset of ``s`` (default: the ground set)."""
        if s is None:
            return self.full_rank
        self._check_universe(s)
        return self._greedy_basis_mask(s.mask).bit_count()

    @property
    def full_rank(self) -> int:
        return self.basis().mask.bit_count()

    def basis(self) -> ElementSet:
        """The canonical (greedy, first-fit) basis of the whole matroid."""
        b = self._cache.get("basis_mask")
        if b is None:
            b = self._cache["basis_mask"] = self._greedy_basis_mask(self.ground.full_mask)
        return ElementSet(self.ground, b)

    def extend_to_basis(
        self, independent: ElementSet, within: ElementSet | None = None
    ) -> ElementSet:
        """Extend an independent set to one maximal inside ``within``.

        Raises ``PreconditionError`` when the start set is dependent and
        ``DomainError`` when it is not contained in ``within``.
        """
        self._check_universe(independent)
        if within is None:
            within = self.ground.full()
        else:
            self._check_universe(within)
        if independent.mask & ~within.mask:
            raise DomainError("start set is not contained in the extension range")
        if not self._indep(independent.mask):
            raise PreconditionError("cannot extend a dependent set")
        return ElementSet(
            self.ground, self._greedy_basis_mask(within.mask, independent.mask)
        )

    def _span(self, independent: int) -> "_Span":
        """The span of the independent set ``independent``, to grow it and
        read fundamental circuits off it (see :class:`_Span`).  This one
        asks the oracle; a representation with a kernel overrides it."""
        return _Span(self._indep, independent)

    def _fundamental_circuits(self) -> list[int]:
        """The fundamental circuit of every element outside the canonical
        basis, in canonical order of those elements."""
        basis = self.basis().mask
        span = self._span(basis)
        outside = self.ground.full_mask & ~basis
        return [span.circuit(e) for e in _bit_indices(outside)]

    def _component_masks(self) -> Iterable[int]:
        """Every component mask once, in any order.

        Here the fundamental circuits of the canonical basis are joined
        with union-find (Krogdahl), with no circuit enumeration.  They come
        from :meth:`_fundamental_circuits`: a binary matroid reads them off
        one elimination pass and makes no oracle call; other matroids ask
        their oracle about B + e and each B - b + e.
        """
        parent = list(range(len(self.ground)))
        for circuit in self._fundamental_circuits():
            # the finds run inline, with path halving: a call per element
            # would cost more than the walk itself
            low = circuit & -circuit
            rest = circuit ^ low
            root = low.bit_length() - 1
            while parent[root] != root:
                parent[root] = root = parent[parent[root]]
            while rest:
                low = rest & -rest
                rest ^= low
                b = low.bit_length() - 1
                while parent[b] != b:
                    parent[b] = b = parent[parent[b]]
                parent[b] = root
        by_root: dict[int, int] = {}
        for i in range(len(parent)):
            root = i
            while parent[root] != root:
                parent[root] = root = parent[parent[root]]
            by_root[root] = by_root.get(root, 0) | 1 << i
        return by_root.values()

    # -- circuits --------------------------------------------------------

    def circuits(self, budget: int | None = None) -> list[ElementSet]:
        """All inclusion-minimal dependent sets, in canonical subset order.

        Raises ``CapacityError`` when the ground set exceeds the
        enumeration budget (default from :mod:`matroid_kappa.budgets`).
        """
        budgets.check_scan(
            "circuit enumeration", len(self.ground), budget, budgets.CIRCUIT_ENUMERATION
        )
        masks = self._cache.get("circuit_masks")
        if masks is None:
            masks = tuple(
                sorted(self._circuit_masks(), key=lambda m: tuple(_bit_indices(m)))
            )
            self._cache["circuit_masks"] = masks
        return [ElementSet(self.ground, m) for m in masks]

    def _circuit_masks(self) -> Iterable[int]:
        """Every circuit mask once, in any order; here by scanning the oracle."""
        found: list[int] = []
        for size in range(1, len(self.ground) + 1):
            for mask in submasks_of_size(self.ground.full_mask, size):
                if any(c & mask == c for c in found):
                    continue
                if not self._indep(mask):
                    found.append(mask)
        return found

    def is_circuit(self, s: ElementSet) -> bool:
        """True when ``s`` is dependent and every proper subset is independent."""
        self._check_universe(s)
        mask = s.mask
        if mask == 0 or self._indep(mask):
            return False
        for i in _bit_indices(mask):
            if not self._indep(mask & ~(1 << i)):
                return False
        return True

    def find_circuit_in(self, s: ElementSet) -> ElementSet | None:
        """A canonical circuit inside ``s``, or None when ``s`` is independent.

        Elements are dropped in canonical order while the set stays
        dependent, which lands on a minimal dependent subset.
        """
        self._check_universe(s)
        mask = s.mask
        if self._indep(mask):
            return None
        for i in _bit_indices(mask):
            trial = mask & ~(1 << i)
            if not self._indep(trial):
                mask = trial
        return ElementSet(self.ground, mask)

    def fundamental_circuit(self, base: ElementSet, x: str) -> ElementSet:
        """The unique circuit inside ``base + x`` for a basis ``base``."""
        self._check_universe(base)
        e = self.ground.index(x)
        if base.mask >> e & 1:
            raise PreconditionError(f"element {x!r} already lies in the basis")
        if (
            base.mask.bit_count() != self.full_rank
            or self._greedy_basis_mask(base.mask) != base.mask
        ):
            raise PreconditionError("the given set is not a basis")
        return ElementSet(self.ground, self._span(base.mask).circuit(e))

    def cocircuits(self, budget: int | None = None) -> list[ElementSet]:
        return self.dual().circuits(budget)

    # -- derived matroids ------------------------------------------------

    def dual(self) -> "Matroid":
        """The dual: S is independent iff the complement of S spans this matroid.

        Built once by :meth:`_dual` and kept on both sides, so the dual of
        the dual is this very object.
        """
        d = self._cache.get("dual")
        if d is None:
            d = self._cache["dual"] = self._dual()
            d._cache["dual"] = self
        return d

    def _dual(self) -> "Matroid":
        """A new dual.  The generic version asks the rank oracle: a set is
        coindependent exactly when removing it does not lower the rank of
        the ground set."""
        full_mask = self.ground.full_mask
        target = self.full_rank
        basis = self._greedy_basis_mask
        return Matroid(
            self.ground, lambda mask: basis(full_mask & ~mask).bit_count() == target
        )

    def _minor(self, away_mask: int, drop_mask: int) -> "Matroid":
        """Contract ``away_mask`` and delete the disjoint ``drop_mask`` in one
        step: the elements left keep their canonical order, and the greedy
        basis of ``away_mask`` is what gets contracted."""
        keep_mask = self.ground.full_mask & ~(away_mask | drop_mask)
        labels = self.ground.labels
        ground = GroundSet(labels[i] for i in _bit_indices(keep_mask))
        base_mask = self._greedy_basis_mask(away_mask) if away_mask else 0
        return self._contracted(ground, keep_mask, base_mask)

    def _contracted(
        self, ground: GroundSet, keep_mask: int, base_mask: int
    ) -> "Matroid":
        """The elements of ``keep_mask``, relabelled onto ``ground``, after
        contracting the independent set ``base_mask`` and deleting the rest.
        With ``base_mask`` 0 this is the restriction to ``keep_mask``."""
        positions = tuple(_bit_indices(keep_mask))
        indep = self._indep
        return Matroid(ground, lambda mask: indep(_spread(mask, positions) | base_mask))


class _Span:
    """An independent set I that can grow, answered by the oracle.

    Elements are indices and sets are masks.  ``adds(e)`` tells whether
    I + e is independent and ``add(e)`` puts e into I; ``circuit(e)`` is
    the mask of the fundamental circuit of e in I + e, or 0 when I + e is
    independent.  Matroid intersection asks three more questions of a
    pair of spans, on I + base_x and I + base_y:

    - ``grow_common(other, candidates)`` adds to both spans each
      candidate, in canonical order, that both can add, and returns the
      set of those added;
    - ``entering(b, candidates, seen)``, for b in I, lists the candidates
      e outside ``seen`` for which I - b + e is independent;
    - ``leaving(e, candidates, seen)``, for candidates inside I, lists
      those b outside ``seen`` for which I - b + e is independent.

    The two arc lists are in canonical order and take only elements e
    with I + e dependent.  This span answers them with ``swaps(b, e)``,
    one oracle call per element not yet seen.  A representation's kernel
    (:class:`_KernelSpan`) answers every question from its own data, with
    no oracle call, and reads both arc lists off circuits.
    """

    __slots__ = ("mask", "_indep")

    def __init__(self, indep: Callable[[int], bool], independent: int):
        self.mask = independent
        self._indep = indep

    def adds(self, e: int) -> bool:
        return self._indep(self.mask | 1 << e)

    def add(self, e: int) -> None:
        self.mask |= 1 << e

    def circuit(self, e: int) -> int:
        # with I + e dependent, b lies on the circuit iff I - b + e is independent
        if self.adds(e):
            return 0
        found = 1 << e
        for b in _bit_indices(self.mask):
            if self.swaps(b, e):
                found |= 1 << b
        return found

    def swaps(self, b: int, e: int) -> bool:
        return self._indep(self.mask ^ 1 << b | 1 << e)

    def grow_common(self, other: "_Span", candidates: int) -> int:
        common = 0
        for e in _bit_indices(candidates):
            if self.adds(e) and other.adds(e):
                self.add(e)
                other.add(e)
                common |= 1 << e
        return common

    def entering(self, b: int, candidates: int, seen: Container[int]) -> list[int]:
        return [e for e in _bit_indices(candidates) if e not in seen and self.swaps(b, e)]

    def leaving(self, e: int, candidates: int, seen: Container[int]) -> list[int]:
        return [b for b in _bit_indices(candidates) if b not in seen and self.swaps(b, e)]


class _KernelSpan:
    """What the kernel spans share: both arc lists read off circuits.

    b lies on the fundamental circuit of e exactly when I - b + e is
    independent, so ``leaving(e)`` is the circuit of e, and ``entering``
    inverts the circuits of all candidates once, into per-b lists in the
    candidates' canonical order, kept until the span grows.  Each kernel
    fuses its greedy pass: ``grow_common`` runs both spans' own data in one
    loop over the candidates, and a kernel span grows nowhere else.
    """

    __slots__ = ("_entering",)

    def entering(self, b: int, candidates: int, seen: Container[int]) -> list[int]:
        arcs = self._entering
        if arcs is None or arcs[0] != candidates:
            lists: dict[int, list[int]] = {}
            for e in _bit_indices(candidates):
                for j in _bit_indices(self.circuit(e) & ~(1 << e)):
                    lists.setdefault(j, []).append(e)
            arcs = self._entering = (candidates, lists)
        return [e for e in arcs[1].get(b, ()) if e not in seen]

    def leaving(self, e: int, candidates: int, seen: Container[int]) -> list[int]:
        return [b for b in _bit_indices(self.circuit(e) & candidates) if b not in seen]


def _spread(mask: int, positions: tuple[int, ...]) -> int:
    """Move bit j of ``mask`` to bit ``positions[j]``."""
    out = 0
    for j, pos in enumerate(positions):
        if mask >> j & 1:
            out |= 1 << pos
    return out


# ---------------------------------------------------------------------------
# concrete representations
# ---------------------------------------------------------------------------


def _as_ground(labels: Iterable[str]) -> GroundSet:
    return labels if isinstance(labels, GroundSet) else GroundSet(labels)


class UniformMatroid(Matroid):
    """U(k, n): a set is independent iff it has at most ``k`` elements.

    Its greedy bases, circuits and components come in closed form, and its
    dual and minors are uniform again.  A bound above the ground set's
    size is lowered to it, which leaves the independent sets unchanged.
    """

    rep = "uniform"
    __slots__ = ("k",)

    def __init__(self, ground: GroundSet, k: int):
        if k < 0:
            raise DomainError("uniform rank bound must be non-negative")
        k = min(k, len(ground))
        super().__init__(ground, lambda mask: mask.bit_count() <= k)
        self.k = k

    def _greedy_basis_mask(self, within: int, start: int = 0) -> int:
        room = self.k - start.bit_count()
        if room < 0:
            return start
        rest = within & ~start
        while room and rest:
            low = rest & -rest
            rest ^= low
            start |= low
            room -= 1
        return start

    def _circuit_masks(self) -> Iterable[int]:
        return submasks_of_size(self.ground.full_mask, self.k + 1)

    def _component_masks(self) -> Iterable[int]:
        # every (k + 1)-set is a circuit, so 0 < k < n joins all elements;
        # otherwise each element is a loop (k = 0) or a coloop (k = n)
        n = len(self.ground)
        if 0 < self.k < n:
            return (self.ground.full_mask,)
        return (1 << i for i in range(n))

    def _dual(self) -> Matroid:
        return UniformMatroid(self.ground, len(self.ground) - self.k)

    def _contracted(self, ground: GroundSet, keep_mask: int, base_mask: int) -> Matroid:
        return UniformMatroid(ground, self.k - base_mask.bit_count())


def uniform_matroid(labels: Iterable[str], k: int) -> Matroid:
    """Uniform matroid: a set is independent iff it has at most ``k`` elements."""
    return UniformMatroid(_as_ground(labels), k)


def free_matroid(labels: Iterable[str]) -> Matroid:
    """Every subset independent."""
    ground = _as_ground(labels)
    return UniformMatroid(ground, len(ground))


class GraphicMatroid(Matroid):
    """Finite-cycle matroid of a multigraph, one edge per element.

    ``ends`` gives the endpoints of each edge, in element order, as vertex
    numbers 0 .. ``nv`` - 1; no answer depends on how the vertices are
    numbered.  A set of edges is independent iff it contains no cycle.
    The oracle, the greedy basis, the span and the minors share one
    union-find kernel over the vertices: a basis is one pass over the
    candidates, fundamental circuits are paths in a forest, and a minor
    merges the ends of the contracted edges, drops the deleted ones and
    numbers the roots anew.  The dual is the binary dual of the
    vertex-edge incidence matrix.
    """

    rep = "graphic"
    __slots__ = ("_ends", "_nv")

    def __init__(self, ground: GroundSet, ends: tuple[tuple[int, int], ...], nv: int):
        super().__init__(
            ground, lambda mask: _grow_forest(ends, list(range(nv)), mask, 0) is not None
        )
        self._ends = ends
        self._nv = nv

    def _greedy_basis_mask(self, within: int, start: int = 0) -> int:
        grown = _grow_forest(self._ends, list(range(self._nv)), start, within & ~start)
        return start if grown is None else grown

    def _span(self, independent: int) -> "_ForestSpan":
        return _ForestSpan(self._ends, self._nv, independent)

    def _circuit_masks(self) -> Iterable[int]:
        """Edge masks of all simple cycles.

        Each cycle is found exactly once, keyed by its lowest edge index:
        for edge e = (u, v) we enumerate simple paths from v back to u that
        use only higher-indexed edges.
        """
        adjacency: dict[int, list[tuple[int, int]]] = {}
        for i, (u, v) in enumerate(self._ends):
            adjacency.setdefault(u, []).append((v, i))
            if u != v:
                adjacency.setdefault(v, []).append((u, i))
        cycles: list[int] = []
        for i, (u, v) in enumerate(self._ends):
            if u == v:
                cycles.append(1 << i)
                continue
            # paths v -> u through edges with index > i, vertices not revisited;
            # visited masks use vertex ids as bit positions
            stack = [(v, 1 << i, (1 << u) | (1 << v))]
            while stack:
                at, used_edges, seen = stack.pop()
                for nxt, j in adjacency.get(at, ()):
                    if j <= i or used_edges >> j & 1:
                        continue
                    if nxt == u:
                        cycles.append(used_edges | 1 << j)
                        continue
                    if seen >> nxt & 1:
                        continue
                    stack.append((nxt, used_edges | 1 << j, seen | 1 << nxt))
        return cycles

    def _component_masks(self) -> Iterator[int]:
        """The blocks (2-connected pieces) of the graph, each loop a block
        of its own, from one depth-first search that stacks the edges it
        walks (Hopcroft and Tarjan).  When the subtree of v reaches no
        vertex above its parent u, the edges stacked since the tree edge
        u-v form a block.  The search keeps its own stack of vertices, so
        a long path does not recurse."""
        adjacency: list[list[tuple[int, int]]] = [[] for _ in range(self._nv)]
        for i, (u, v) in enumerate(self._ends):
            if u == v:
                yield 1 << i
            else:
                adjacency[u].append((v, i))
                adjacency[v].append((u, i))
        order = [0] * self._nv  # 1 + discovery number; 0 while unvisited
        low = [0] * self._nv  # least order reached by a back edge below
        count = 0
        edges: list[int] = []
        for root in range(self._nv):
            if order[root]:
                continue
            count += 1
            order[root] = low[root] = count
            path = [(root, -1, iter(adjacency[root]))]
            while path:
                v, into, arcs = path[-1]
                for w, i in arcs:
                    if not order[w]:
                        count += 1
                        order[w] = low[w] = count
                        edges.append(i)
                        path.append((w, i, iter(adjacency[w])))
                        break
                    # a back edge to an ancestor; a parallel edge to the
                    # parent is one too, only the tree edge itself is not
                    if order[w] < order[v] and i != into:
                        edges.append(i)
                        if order[w] < low[v]:
                            low[v] = order[w]
                else:
                    path.pop()
                    if path:
                        u = path[-1][0]
                        if low[v] < low[u]:
                            low[u] = low[v]
                        if low[v] >= order[u]:
                            block = 0
                            i = -1
                            while i != into:
                                i = edges.pop()
                                block |= 1 << i
                            yield block

    def _contracted(
        self, ground: GroundSet, keep_mask: int, base_mask: int
    ) -> Matroid:
        # contracting the forest base_mask merges its endpoints; every other
        # edge outside keep_mask is deleted
        parent = list(range(self._nv))
        _grow_forest(self._ends, parent, base_mask, 0)

        def root(v: int) -> int:
            while parent[v] != v:
                v = parent[v]
            return v

        kept = (self._ends[i] for i in _bit_indices(keep_mask))
        return GraphicMatroid(ground, *_numbered((root(u), root(v)) for u, v in kept))

    def _dual(self) -> Matroid:
        # the incidence matrix over GF(2) represents the graph; a loop is
        # the zero column
        columns = tuple((1 << u) ^ (1 << v) for u, v in self._ends)
        return BinaryMatroid(self.ground, columns)._dual()


def _numbered(
    pairs: Iterable[tuple[Hashable, Hashable]],
) -> tuple[tuple[tuple[int, int], ...], int]:
    """The endpoint pairs on vertex numbers 0 .. nv - 1, given in order of
    first appearance, and nv."""
    number: dict[Hashable, int] = {}
    ends = tuple(
        (number.setdefault(u, len(number)), number.setdefault(v, len(number))) for u, v in pairs
    )
    return ends, len(number)


def _grow_forest(
    ends: tuple[tuple[int, int], ...], parent: list[int], start: int, rest: int
) -> int | None:
    """Union-find over the vertices, ``parent`` being its forest of
    vertices: joins ``start`` and then every edge of ``rest`` (disjoint
    from it), in canonical order, that closes no cycle with those joined
    before, and returns those edges; None when ``start`` closes a cycle."""
    for mask in (start, rest):
        while mask:
            low = mask & -mask
            mask ^= low
            u, v = ends[low.bit_length() - 1]
            while parent[u] != u:
                parent[u] = u = parent[parent[u]]
            while parent[v] != v:
                parent[v] = v = parent[parent[v]]
            if u == v:
                if start & low:
                    return None
                continue
            parent[u] = v
            start |= low
    return start


class _ForestSpan(_KernelSpan):
    """The span of a forest, as :class:`_Span` describes it.

    A union-find over the vertices, grown by :func:`_grow_forest`, answers
    ``adds``; the forest grows only in ``grow_common``, which runs the
    union-finds of both spans in one loop.  The first ``circuit`` after the
    forest grows roots it; the circuit of an edge is then the edge with the
    tree path between its ends, kept per edge until the forest grows again.
    """

    __slots__ = ("mask", "_ends", "_parent", "_up", "_circuits")

    def __init__(self, ends: tuple[tuple[int, int], ...], nv: int, independent: int):
        self._ends = ends
        self._parent = list(range(nv))
        _grow_forest(ends, self._parent, independent, 0)
        self.mask = independent
        # per vertex: (depth, parent vertex, edge to it), built on demand
        self._up: list[tuple[int, int, int]] | None = None
        self._circuits: dict[int, int] = {}
        self._entering = None

    def adds(self, e: int) -> bool:
        u, v = self._ends[e]
        parent = self._parent
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return u != v

    def _grown(self, edges: int) -> None:
        self.mask |= edges
        self._up = None
        self._circuits = {}
        self._entering = None

    def grow_common(self, other: "_ForestSpan", candidates: int) -> int:
        ends = self._ends
        mine, theirs = self._parent, other._parent
        grown = 0
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            a, b = u, v = ends[low.bit_length() - 1]
            while mine[u] != u:
                mine[u] = u = mine[mine[u]]
            while mine[v] != v:
                mine[v] = v = mine[mine[v]]
            if u == v:
                continue
            while theirs[a] != a:
                theirs[a] = a = theirs[theirs[a]]
            while theirs[b] != b:
                theirs[b] = b = theirs[theirs[b]]
            if a == b:
                continue
            mine[u] = v
            theirs[a] = b
            grown |= low
        if grown:
            self._grown(grown)
            other._grown(grown)
        return grown

    def circuit(self, e: int) -> int:
        found = self._circuits.get(e)
        if found is None:
            found = self._circuits[e] = 0 if self.adds(e) else self._tree_path(e)
        return found

    def _tree_path(self, e: int) -> int:
        up = self._up
        if up is None:
            up = self._up = self._rooted()
        u, v = self._ends[e]
        found = 1 << e
        while u != v:
            if up[u][0] < up[v][0]:
                u, v = v, u
            _, u, bit = up[u]
            found |= bit
        return found

    def _rooted(self) -> list[tuple[int, int, int]]:
        adjacency: list[list[tuple[int, int]]] = [[] for _ in self._parent]
        for i in _bit_indices(self.mask):
            u, v = self._ends[i]
            adjacency[u].append((v, 1 << i))
            adjacency[v].append((u, 1 << i))
        up: list = [None] * len(adjacency)
        for root in range(len(up)):
            if up[root] is not None:
                continue
            up[root] = (0, root, 0)
            stack = [root]
            while stack:
                at = stack.pop()
                depth = up[at][0] + 1
                for nxt, bit in adjacency[at]:
                    if up[nxt] is None:
                        up[nxt] = (depth, at, bit)
                        stack.append(nxt)
        return up


def graphic_matroid(edges: Iterable[tuple[str, str, str]]) -> Matroid:
    """Finite-cycle matroid of a multigraph.

    ``edges`` are (label, endpoint, endpoint) triples in canonical order.
    Parallel edges are allowed and a loop (equal endpoints) is a
    one-element circuit.
    """
    edges = tuple(edges)
    ground = GroundSet(lab for lab, _, _ in edges)
    return GraphicMatroid(ground, *_numbered((str(u), str(v)) for _, u, v in edges))


class BinaryMatroid(Matroid):
    """Linear matroid over the two-element field.

    ``columns`` holds one integer per element, bit i being the entry in
    row i.  The oracle, the greedy basis and the span run incremental
    GF(2) elimination over the columns, so a basis is one pass over them
    and a fundamental circuit is read off the pivots; the circuits are
    walked in the cycle space.  A contraction maps the kept columns into
    the quotient by the span of the contracted ones, and the dual is the
    standard-form dual, so both are binary again.
    """

    rep = "gf2"
    __slots__ = ("columns",)

    def __init__(self, ground: GroundSet, columns: tuple[int, ...]):
        super().__init__(ground, lambda mask: _grow_span(columns, mask, 0) is not None)
        self.columns = columns

    def _greedy_basis_mask(self, within: int, start: int = 0) -> int:
        grown = _grow_span(self.columns, start, within & ~start)
        return start if grown is None else grown

    def _span(self, independent: int) -> "_EliminationSpan":
        return _EliminationSpan(self.columns, independent)

    def _fundamental_circuits(self) -> list[int]:
        # the greedy pass itself, with combos: a column that reduces to zero
        # does so against the canonical basis elements before it
        return _eliminate(self.columns, self.ground.full_mask, {})

    def _circuit_masks(self) -> Iterable[int]:
        """Minimal supports in the cycle space, walked in Gray-code order.

        The fundamental circuits of the canonical basis span the space of
        element sets whose columns sum to zero, and every circuit is such
        a set.  A nonzero member S is a circuit exactly when r(S) = |S| - 1,
        that is when S minus any one element is independent; so the scan
        makes 2^(n - r) rank checks instead of 2^n oracle calls.
        """
        spanning = self._fundamental_circuits()
        columns = self.columns
        found: list[int] = []
        cycle = 0
        for step in range(1, 1 << len(spanning)):
            cycle ^= spanning[(step & -step).bit_length() - 1]
            if _grow_span(columns, cycle & (cycle - 1), 0) is not None:
                found.append(cycle)
        return found

    def _contracted(self, ground: GroundSet, keep_mask: int, base_mask: int) -> Matroid:
        # reducing a column to zero at every pivot row of the contracted
        # columns' echelon form is a linear map whose kernel is their span
        pivots = _EliminationSpan(self.columns, base_mask).pivots
        order = sorted(((h, p) for h, (p, _) in pivots.items()), reverse=True)
        columns = []
        for i in _bit_indices(keep_mask):
            v = self.columns[i]
            for h, p in order:
                if v >> (h - 1) & 1:
                    v ^= p
            columns.append(v)
        return BinaryMatroid(ground, tuple(columns))

    def _dual(self) -> Matroid:
        # with B the canonical basis, M = M[I_B | A] and M* = M[A^T | I]:
        # dual row j is the fundamental circuit of the j-th element outside B
        columns = [0] * len(self.columns)
        for j, circuit in enumerate(self._fundamental_circuits()):
            for i in _bit_indices(circuit):
                columns[i] |= 1 << j
        return BinaryMatroid(self.ground, tuple(columns))


def _grow_span(columns: tuple[int, ...], start: int, rest: int) -> int | None:
    """Column elimination over GF(2): ``start`` plus every column of
    ``rest`` (disjoint from it), in canonical order, outside the span of
    those taken before; None when the columns of ``start`` are dependent."""
    pivots: dict[int, int] = {}
    for mask in (start, rest):
        while mask:
            low = mask & -mask
            mask ^= low
            v = columns[low.bit_length() - 1]
            while v:
                h = v.bit_length()
                p = pivots.get(h)
                if p is None:
                    pivots[h] = v
                    start |= low
                    break
                v ^= p
            else:
                if start & low:
                    return None
    return start


class _EliminationSpan(_KernelSpan):
    """The span of independent columns, as :class:`_Span` describes it.

    ``pivots`` maps a leading bit to a vector of the span together with
    the mask of the columns that sum to it, built by :func:`_eliminate`.
    A column reduces to zero against the pivots exactly when it is
    spanned, and then the columns it was reduced by are, with it, its
    fundamental circuit.  Reductions are kept per column until the span
    grows, which it does only in ``grow_common``: each candidate is
    reduced against both spans' pivots in turn, and becomes a pivot of
    both when neither reduction is zero.
    """

    __slots__ = ("pivots", "_columns", "_reduced")

    def __init__(self, columns: tuple[int, ...], independent: int):
        self._columns = columns
        self.pivots: dict[int, tuple[int, int]] = {}
        self._reduced: dict[int, tuple[int, int]] = {}
        self._entering = None
        _eliminate(columns, independent, self.pivots)

    def adds(self, e: int) -> bool:
        return self._reduce(e)[0] != 0

    def grow_common(self, other: "_EliminationSpan", candidates: int) -> int:
        columns = self._columns
        mine, theirs = self.pivots, other.pivots
        grown = 0
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            u = v = columns[low.bit_length() - 1]
            mine_combo = theirs_combo = low
            while u:
                p = mine.get(u.bit_length())
                if p is None:
                    break
                u ^= p[0]
                mine_combo ^= p[1]
            else:
                continue
            while v:
                p = theirs.get(v.bit_length())
                if p is None:
                    break
                v ^= p[0]
                theirs_combo ^= p[1]
            else:
                continue
            mine[u.bit_length()] = (u, mine_combo)
            theirs[v.bit_length()] = (v, theirs_combo)
            grown |= low
        if grown:
            for span in (self, other):
                span._reduced.clear()
                span._entering = None
        return grown

    def circuit(self, e: int) -> int:
        v, combo = self._reduce(e)
        return 0 if v else combo

    def _reduce(self, e: int) -> tuple[int, int]:
        """Column ``e`` reduced against the pivots, and the mask of the
        columns summed into it, ``e`` included."""
        hit = self._reduced.get(e)
        if hit is None:
            v = self._columns[e]
            combo = 1 << e
            pivots = self.pivots
            while v:
                p = pivots.get(v.bit_length())
                if p is None:
                    break
                v ^= p[0]
                combo ^= p[1]
            hit = self._reduced[e] = (v, combo)
        return hit


def _eliminate(
    columns: tuple[int, ...], mask: int, pivots: dict[int, tuple[int, int]]
) -> list[int]:
    """Reduce the columns of ``mask``, in canonical order, against
    ``pivots`` (leading bit to vector and the mask of the columns summed
    into it), and make each nonzero remainder a pivot.  Returns, in
    canonical order, the column masks summed into those that reduce to
    zero: from empty pivots over all columns, that is the fundamental
    circuit of each element outside the canonical basis."""
    circuits = []
    while mask:
        low = mask & -mask
        mask ^= low
        v = columns[low.bit_length() - 1]
        combo = low
        while v:
            h = v.bit_length()
            p = pivots.get(h)
            if p is None:
                pivots[h] = (v, combo)
                break
            v ^= p[0]
            combo ^= p[1]
        else:
            circuits.append(combo)
    return circuits


def gf2_matroid(labels: Iterable[str], rows: Iterable[Iterable[int]]) -> Matroid:
    """Binary linear matroid of a 0/1 matrix, columns in element order.

    A set of columns is independent iff they are linearly independent over
    the two-element field.
    """
    ground = _as_ground(labels)
    matrix = [list(row) for row in rows]
    for row in matrix:
        if len(row) != len(ground):
            raise DomainError("matrix rows must have one entry per element")
        if any(x not in (0, 1) for x in row):
            raise DomainError("matrix entries must be 0 or 1")
    columns = []
    for j in range(len(ground)):
        col = 0
        for i, row in enumerate(matrix):
            if row[j]:
                col |= 1 << i
        columns.append(col)
    return BinaryMatroid(ground, tuple(columns))


class ExplicitMatroid(Matroid):
    """Matroid given by the set of masks of its independent sets.

    Contracting an independent set B and keeping K leaves the members f
    with B <= f <= B | K, relabelled as f - B onto K; a restriction is the
    case B = {}.  The dual is the generic oracle wrapper.
    """

    rep = "explicit"
    __slots__ = ("family",)

    def __init__(self, ground: GroundSet, family: frozenset[int]):
        super().__init__(ground, family.__contains__)
        self.family = family

    def _contracted(self, ground: GroundSet, keep_mask: int, base_mask: int) -> Matroid:
        positions = tuple(_bit_indices(keep_mask))
        inside = keep_mask | base_mask
        family = frozenset(
            sum(1 << j for j, pos in enumerate(positions) if f >> pos & 1)
            for f in self.family
            if f & base_mask == base_mask and f & ~inside == 0
        )
        return ExplicitMatroid(ground, family)


def explicit_matroid(
    labels: Iterable[str],
    independent: Iterable[Iterable[str]],
    check: bool = True,
) -> Matroid:
    """Matroid given by an explicit list of independent sets.

    With ``check=True`` (the default) the family is checked against the
    independence axioms I1-I3 only, as ``check_axioms`` checks them (the
    circuit axioms follow from those), and a ``DomainError`` naming the
    first failed axiom and its witness is raised for non-matroids.  The
    check keeps the axiom checker's ground-set budget.
    """
    ground = _as_ground(labels)
    family = frozenset(ground.set_of(s).mask for s in independent)
    if check:
        from .axioms import AxiomReport, _independence_checks, _table

        budgets.check_scan("axiom check", len(ground), None, budgets.AXIOM_GROUND)
        report = AxiomReport(ground, _independence_checks(ground, _table(family)))
        if not report.ok:
            raise DomainError(f"family is not a matroid: {report.first_failure()}")
    return ExplicitMatroid(ground, family)
