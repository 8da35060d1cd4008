"""Duality, restriction, contraction, minors, direct sums and components.

Each representation in :mod:`matroid_kappa.core` builds its own dual and
minors: uniform matroids stay uniform, graphic minors are taken on the
graph, graphic and binary duals and binary minors are binary matrices,
explicit minors filter the family, and a direct sum works part by part.
Only a matroid given by a bare oracle, and the dual of an explicit one,
wrap the oracle of the source matroid.  ``restrict``, ``delete``,
``contract`` and ``take_minor`` are the one implementation of minors:
each checks that its sets live over the matroid's ground set and takes
the minor in one step (``Matroid._minor``).  The test suite checks every
representation's own route against the generic wrappers.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from .core import ElementSet, GroundSet, Matroid
from .errors import DomainError, InvariantViolation, PreconditionError


@dataclass(frozen=True)
class MinorSpec:
    """A disjoint pair (contract set, delete set) identifying a minor."""

    contract: ElementSet
    delete: ElementSet

    def __post_init__(self):
        if self.contract.ground != self.delete.ground:
            raise DomainError("contract and delete sets live over different grounds")
        if not self.contract.isdisjoint(self.delete):
            raise DomainError("contract and delete sets overlap")

    def to_jsonable(self) -> dict:
        return {
            "contract": sorted(self.contract),
            "delete": sorted(self.delete),
        }


def dual(m: Matroid) -> Matroid:
    """The dual matroid: S is independent iff the complement of S spans ``m``."""
    return m.dual()


def restrict(m: Matroid, keep: ElementSet) -> Matroid:
    """The matroid on ``keep`` whose independent sets are those of ``m``."""
    m._check_universe(keep)
    return m._minor(0, m.ground.full_mask & ~keep.mask)


def delete(m: Matroid, drop: ElementSet) -> Matroid:
    """Restriction to the complement of ``drop``."""
    m._check_universe(drop)
    return m._minor(0, drop.mask)


def contract(m: Matroid, away: ElementSet) -> Matroid:
    """The contraction of ``m`` by ``away``: S is independent iff S plus the
    greedy canonical basis of ``away`` is independent in ``m`` (any basis
    of ``away`` gives the same verdict; an empty one makes it a deletion)."""
    m._check_universe(away)
    return m._minor(away.mask, 0)


def take_minor(m: Matroid, spec: MinorSpec) -> Matroid:
    """M / C \\ D, built in one step; either order of contracting and
    deleting gives the same oracle."""
    m._check_universe(spec.contract)
    return m._minor(spec.contract.mask, spec.delete.mask)


class _DirectSum(Matroid):
    """Disjoint union: independent iff each part's slice is independent.

    Its circuits are the circuits of the parts, its dual is the sum of
    their duals, and its minors are sums of their minors.
    """

    __slots__ = ("_parts",)

    def __init__(self, ground: GroundSet, parts: tuple[tuple[Matroid, int], ...]):
        def oracle(mask: int) -> bool:
            for part, off in parts:
                if not part._indep(mask >> off & part.ground.full_mask):
                    return False
            return True

        super().__init__(ground, oracle)
        self._parts = parts

    def _circuit_masks(self) -> Iterable[int]:
        for part, off in self._parts:
            for c in part._circuit_masks():
                yield c << off

    def _component_masks(self) -> Iterable[int]:
        for part, off in self._parts:
            for block in part._component_masks():
                yield block << off

    def _dual(self) -> Matroid:
        return _DirectSum(self.ground, tuple((p.dual(), off) for p, off in self._parts))

    def _contracted(self, ground: GroundSet, keep_mask: int, base_mask: int) -> Matroid:
        parts = []
        at = 0
        for part, off in self._parts:
            full = part.ground.full_mask
            keep = keep_mask >> off & full
            if keep:
                count = keep.bit_count()
                sub = GroundSet(ground.labels[at : at + count])
                parts.append((part._contracted(sub, keep, base_mask >> off & full), at))
                at += count
        return _DirectSum(ground, tuple(parts))


def direct_sum(parts: Sequence[Matroid]) -> Matroid:
    """Disjoint union of ``parts``, their labels concatenated in order."""
    labels: list[str] = []
    seen: set[str] = set()
    placed = []
    for part in parts:
        placed.append((part, len(labels)))
        for lab in part.ground.labels:
            if lab in seen:
                raise DomainError(f"element label {lab!r} appears in two summands")
            seen.add(lab)
            labels.append(lab)
    return _DirectSum(GroundSet(labels), tuple(placed))


@dataclass(frozen=True)
class ComponentPartition:
    """The ground set split into connected components.

    Two elements share a block exactly when some circuit contains both, so
    loops and coloops are singleton blocks.  Blocks are listed in the
    canonical order of their first elements.  The matroid is connected
    when it has at most one block, that is no 1-separation: the empty
    matroid is connected.
    """

    blocks: tuple[ElementSet, ...]

    def __len__(self) -> int:
        return len(self.blocks)

    @property
    def is_connected(self) -> bool:
        return len(self.blocks) <= 1

    def to_jsonable(self) -> list[list[str]]:
        return [sorted(b) for b in self.blocks]


def components(m: Matroid) -> ComponentPartition:
    """Connected components of ``m``, from its representation.

    The blocks come from ``Matroid._component_masks``: the blocks of the
    graph for a graphic matroid, a closed form for a uniform one, each
    part's blocks for a direct sum, and otherwise the fundamental circuits
    of the canonical basis joined with union-find (Krogdahl).  Each block
    must lie inside one component; the ranks of the blocks must then sum
    to r(E), which makes every block a separator and the partition exact.
    A block equal to E takes its rank from the canonical basis.  A failing
    sum is reported as an invariant violation.  The partition is kept on
    ``m``.
    """
    cached = m._cache.get("components")
    if cached is not None:
        return cached
    full = m.ground.full_mask
    blocks = sorted(m._component_masks(), key=lambda mask: (mask & -mask).bit_length())
    rank_sum = sum(
        m.full_rank if mask == full else m._greedy_basis_mask(mask).bit_count()
        for mask in blocks
    )
    if rank_sum != m.full_rank:
        raise InvariantViolation(
            f"component ranks sum to {rank_sum}, not to the rank {m.full_rank}: "
            "the blocks are not separators"
        )
    found = m._cache["components"] = ComponentPartition(
        tuple(ElementSet(m.ground, b) for b in blocks)
    )
    return found


def lift_circuit(m: Matroid, away: ElementSet, circuit: ElementSet) -> ElementSet:
    """Lift a circuit of ``m`` contracted by ``away`` back to a circuit of ``m``.

    Returns the only circuit inside C plus the greedy basis of ``away``
    (:func:`_lift`), which is the only lift when ``away`` is independent.
    """
    contracted = contract(m, away)
    local = circuit.in_universe(contracted.ground)
    if not contracted.is_circuit(local):
        raise PreconditionError("the given set is not a circuit of the contraction")
    return ElementSet(m.ground, _lift(m, away.mask, m.ground.set_of(circuit).mask))


def _lift(m: Matroid, away: int, circuit: int) -> int:
    """The circuit inside D + B_Z, for a circuit D of M/Z (Z = ``away``)
    and the greedy basis B_Z of Z.  D - d + B_Z is independent for every d
    in D, so that circuit is unique: the fundamental circuit of any d."""
    d = circuit & -circuit
    return m._span(m._greedy_basis_mask(away) | circuit ^ d).circuit(d.bit_length() - 1)
