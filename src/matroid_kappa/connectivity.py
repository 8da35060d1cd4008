"""The rank-free connectivity function and separations.

For independent sets I and J, ``del_count(M, I, J)`` is the least number
of elements whose removal from I union J restores independence.  The
connectivity value ``kappa(M, X)`` is del_count applied to a basis of the
restriction to X and a basis of the rest of the matroid; the verdict does
not depend on which bases are picked.  On a finite matroid this equals
r(X) + r(E minus X) - r(E), which the suite checks exhaustively.

``kappa_between(M, X, Y)`` is the minimum of kappa over all sets nested
between X and the complement of Y.  By Edmonds' matroid-intersection
theorem it equals nu + r(X) + r(Y) - r(E), where nu is the size of a
largest common independent set of M/X and M/Y on the free elements, so
it is computed in polynomial time with Cunningham's shortest augmenting
paths.  The exchange graph is read off two spans (``Matroid._span``): a
graphic or binary matroid reads its arcs off fundamental circuits in its
union-find or elimination kernel and makes no oracle call; other
matroids test one swap per arc with their oracle.  This module owns
that intersection: ``_intersection`` runs it once per pair of sides and
keeps the bases, the common set, the value and the last round's reach on
the matroid; ``linking_partition``, ``_joining_circuit`` and
``constructive_linking`` read their answers off it.
``find_separation`` promises the first split in canonical order.  For
k = 1 it reads that split off the components, since kappa(X) = 0 exactly
when X is a union of components; for larger k it stays an exhaustive,
budget-guarded scan over the sets that hold the first element.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

from . import budgets
from .constructions import components
from .core import ElementSet, Matroid, _bit_indices, iter_submasks_lex
from .errors import PreconditionError


def del_count(m: Matroid, left: ElementSet, right: ElementSet) -> int:
    """Minimum number of removals from ``left | right`` to reach independence.

    Both arguments must be independent.  Growing a greedy maximal
    independent subset of the union and discarding the rest realises an
    inclusion-minimal removal set, and every inclusion-minimal removal
    set attains the minimum, so the count is the union's size minus its
    rank.
    """
    m._check_universe(left)
    m._check_universe(right)
    if not m._indep(left.mask):
        raise PreconditionError("left set is dependent")
    if not m._indep(right.mask):
        raise PreconditionError("right set is dependent")
    union = left.mask | right.mask
    kept = m._greedy_basis_mask(union)
    return union.bit_count() - kept.bit_count()


def _kappa_mask(m: Matroid, xmask: int) -> int:
    """del_count of the canonical bases of X and of E - X.

    Together the two bases span E, so a maximal independent subset of
    their union has r(E) elements and del_count is the union's size minus
    ``m.full_rank``; no third basis is grown.
    """
    basis_x = m._greedy_basis_mask(xmask)
    basis_rest = m._greedy_basis_mask(m.ground.full_mask & ~xmask)
    return (basis_x | basis_rest).bit_count() - m.full_rank


def kappa(m: Matroid, x: ElementSet) -> int:
    """Connectivity of the split (X, E minus X).

    Computed as del_count over the canonical greedy bases of the two
    sides; any other basis choice gives the same value.
    """
    m._check_universe(x)
    return _kappa_mask(m, x.mask)


def kappa_rank_formula(m: Matroid, x: ElementSet) -> int:
    """r(X) + r(E minus X) - r(E); the classical form, used as a cross-check."""
    m._check_universe(x)
    return m.rank(x) + m.rank(x.complement()) - m.full_rank


class _Record(NamedTuple):
    """What one intersection keeps for the disjoint sides (X, Y): the
    canonical bases of X and of Y, a largest common independent set of
    M/X and M/Y on the free elements, kappa(X, Y), and the free elements
    that the search's last round reaches from its sources (see
    :func:`_largest_common_independent` for what the reach proves)."""

    base_x: int
    base_y: int
    common: int
    value: int
    reach: int


def _intersection(m: Matroid, x: ElementSet, y: ElementSet) -> _Record:
    """The record of the disjoint sides X and Y, memoised on ``m`` per
    pair of sides: :func:`kappa_between` reads its value,
    ``linking.linking_partition`` its common set and
    ``linking.constructive_linking`` its bases, common set and reach."""
    # checked here, not by a helper call: every memo hit runs these lines
    m._check_universe(x)
    m._check_universe(y)
    if not x.isdisjoint(y):
        raise PreconditionError("the two sides overlap")
    memo = m._cache.setdefault("intersections", {})
    hit = memo.get((x.mask, y.mask))
    if hit is None:
        free = m.ground.full_mask & ~x.mask & ~y.mask
        base_x = m._greedy_basis_mask(x.mask)
        base_y = m._greedy_basis_mask(y.mask)
        common, reach = _largest_common_independent(m, free, base_x, base_y)
        value = common.bit_count() + base_x.bit_count() + base_y.bit_count() - m.full_rank
        hit = memo[x.mask, y.mask] = _Record(base_x, base_y, common, value, reach)
    return hit


def _joining_circuit(m: Matroid, s: ElementSet, e: int) -> int:
    """The mask of a circuit through ``e`` (the index of an element outside
    S) that meets S, or 0 when e shares no component with S, that is when
    kappa(S, {e}) is 0.  At 1, the record's I + B_S is a basis and I + e
    is independent, so e's fundamental circuit there meets S, and its part
    outside S is a circuit of M/S."""
    record = _intersection(m, s, ElementSet(m.ground, 1 << e))
    return m._span(record.base_x | record.common).circuit(e) if record.value else 0


def kappa_between(m: Matroid, x: ElementSet, y: ElementSet) -> int:
    """Minimum of kappa(U) over all U with X inside U inside E minus Y.

    For U = X + A with A among the free elements Z, kappa(U) is
    r(X) + r(Y) - r(E) + r_{M/X}(A) + r_{M/Y}(Z - A), and the minimum of
    the last two terms is the largest common independent set of M/X and
    M/Y on Z (Edmonds).  Polynomial in the number of elements; memoised
    on ``m`` per pair of sides.
    """
    return _intersection(m, x, y).value


def _largest_common_independent(
    m: Matroid, free: int, base_x: int, base_y: int
) -> tuple[int, int]:
    """A largest subset I of ``free`` independent in both M/X and M/Y, and
    the reach R of the search's last round.

    S is independent in M/X when S + base_x is independent in ``m``, and
    likewise for Y, so the spans of I + base_x and I + base_y answer every
    question about I.  A greedy pass in canonical order, one span
    operation (``grow_common``), finds a first common independent set I;
    then each round searches the exchange graph breadth-first: sources
    are the outside elements addable in M/X and sinks those addable in
    M/Y, arcs run from an element b of I to an outside e when I - b + e
    is independent in M/X (``entering``) and from e to b when it is
    independent in M/Y (``leaving``).  A kernel span reads both off
    fundamental circuits: b -> e when b lies on e's circuit in
    I + base_x, e -> b when b lies on e's circuit in I + base_y.  The
    search names elements by index and keeps I and R as masks.
    Neighbours come in canonical order, so the search, and with it I,
    does not depend on the representation.  A round ends at the first
    sink it reaches, and flipping that shortest path grows I by one; a
    round with no source, or no path, ends the search, and I is largest
    (Cunningham).  Once |I| + |base_x| is r(E), I + base_x is a basis of
    ``m``, so no element is addable in M/X and a round would find no
    source: the search stops there without scanning for one.

    R is the set of elements that last round reaches from its sources
    (the keys of ``parent``), empty when it has no source, and so when
    I + base_x is a basis.  With Z the free elements, X + (Z - R) is the
    greatest minimiser of kappa(U) over X inside U inside E - Y: it
    attains kappa(X, Y) (Edmonds' min-max; Schrijver, *Combinatorial
    Optimization*, ch. 41) and holds every minimiser.  Sketch: for a
    minimiser X + A, the bound |I| <= r_{M/X}(A) + r_{M/Y}(Z - A) is
    tight, so I & A spans A in M/X and I - A spans Z - A in M/Y.  Then
    no source lies in A, no ``entering`` arc runs from I - A into A, and
    no ``leaving`` arc from Z - A - I into A, so R avoids A.  As
    kappa(U) = kappa(E - U), the least minimiser is E minus the greatest
    one of the swapped sides (Y, X), that is X + R' with R' the reach of
    the (Y, X) record.
    """
    span_x = m._span(base_x)
    span_y = m._span(base_y)
    common = span_x.grow_common(span_y, free)
    room = m.full_rank - base_x.bit_count()
    while common.bit_count() < room:
        parent: dict[int, int | None] = {}
        blocked = 0
        for e in _bit_indices(free & ~common):
            if span_x.adds(e):
                parent[e] = None
            else:
                blocked |= 1 << e
        if not parent:
            return common, 0
        queue = deque(parent)
        end = None
        while queue:
            at = queue.popleft()
            if common >> at & 1:
                reached = span_x.entering(at, blocked, parent)
            elif span_y.adds(at):
                end = at
                break
            else:
                reached = span_y.leaving(at, common, parent)
            for e in reached:
                parent[e] = at
            queue.extend(reached)
        if end is None:
            # distinct indices, so the sum of their bits is their union
            return common, sum(1 << e for e in parent)
        while end is not None:
            common ^= 1 << end
            end = parent[end]
        if common.bit_count() < room:  # no spans for a round that will not run
            span_x = m._span(base_x | common)
            span_y = m._span(base_y | common)
    return common, 0


@dataclass(frozen=True)
class Separation:
    """A split (left, right) of the ground set with its connectivity value.

    ``order`` is the least k for which this is a k-separation: kappa is at
    most k - 1 and both sides have at least k elements.
    """

    left: ElementSet
    right: ElementSet
    kappa: int
    order: int

    def to_jsonable(self) -> dict:
        return {
            "left": sorted(self.left),
            "right": sorted(self.right),
            "kappa": self.kappa,
            "order": self.order,
        }


def _separation(m: Matroid, umask: int, value: int) -> Separation:
    """The split (U, E minus U) whose connectivity is ``value``."""
    rest = ElementSet(m.ground, m.ground.full_mask & ~umask)
    return Separation(ElementSet(m.ground, umask), rest, value, value + 1)


def find_separation(
    m: Matroid, k: int, budget: int | None = None
) -> Separation | None:
    """First split that is an l-separation for some l at most ``k``.

    A qualifying split (X, Y) has kappa(X) + 1 at most min(|X|, |Y|, k).
    For k = 1 that is the first nonempty proper union of components (see
    :func:`_first_separator`), on any size; for larger k subsets are
    scanned in canonical order under ``budget``.  None when nothing
    qualifies.  U qualifies exactly when E - U does, so the scan ends at
    the first set without element 0, once every set with it is tried.
    """
    if k < 1:
        return None
    if k == 1:
        xmask = _first_separator(m)
        return None if xmask is None else _separation(m, xmask, 0)
    n = len(m.ground)
    budgets.check_scan("separation scan", n, budget, budgets.SEPARATION_SCAN)
    full = m.ground.full_mask
    for xmask in iter_submasks_lex(full):
        if xmask and not xmask & 1:
            break
        size_x = xmask.bit_count()
        cap = min(size_x, n - size_x, k)
        if cap < 1:
            continue
        value = _kappa_mask(m, xmask)
        if value + 1 <= cap:
            return _separation(m, xmask, value)
    return None


def _first_separator(m: Matroid) -> int | None:
    """The first nonempty proper union of components in canonical order.

    Such a set contains element 0, so it starts as the component of 0.
    Taking the other components in the order of their first elements, a
    component whose first element lies below some element of U makes an
    earlier set, so U takes it whenever that leaves something outside;
    once U lies wholly below a component's first element, every later
    candidate extends U, and U is the answer.
    """
    blocks = [block.mask for block in components(m).blocks]
    if len(blocks) < 2:
        return None
    full = m.ground.full_mask
    umask = blocks[0]
    for block in blocks[1:]:
        if umask < block & -block:
            break
        if umask | block != full:
            umask |= block
    return umask


def is_k_connected(m: Matroid, k: int, budget: int | None = None) -> bool:
    """No l-separation exists for any l below ``k``.

    A 1-separation exists exactly when the matroid has more than one
    component, so k = 2 is answered by :func:`components` alone; only
    k of 3 or more scans for separations, under ``budget``.
    """
    if k <= 1:
        return True
    if len(components(m)) > 1:
        return False
    return k == 2 or find_separation(m, k - 1, budget) is None

