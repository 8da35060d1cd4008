"""Duality, restriction, contraction, minors, direct sums and components.

Each representation in :mod:`matroid_kappa.core` builds its own dual and
minors: uniform matroids stay uniform, graphic minors are taken on the
graph, explicit restrictions filter the family, and everything else wraps
the oracle of the source matroid instead of materialising independence
families, so chains of constructions stay cheap.  The functions here are
the public spellings of those methods; the test suite checks every
representation's own route against the generic wrappers.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from .core import ElementSet, GroundSet, Matroid, _bit_indices, iter_submasks_lex
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
    return m.restrict(keep)


def delete(m: Matroid, drop: ElementSet) -> Matroid:
    """Restriction to the complement of ``drop``."""
    return m.delete(drop)


def contract(m: Matroid, away: ElementSet) -> Matroid:
    """The contraction of ``m`` by ``away``."""
    return m.contract(away)


def take_minor(m: Matroid, spec: MinorSpec) -> Matroid:
    """Contract then delete; the opposite order gives the same oracle."""
    if spec.contract.ground != m.ground:
        raise DomainError("minor spec does not match the matroid's ground set")
    contracted = m.contract(spec.contract)
    return contracted.delete(spec.delete.in_universe(contracted.ground))


class _DirectSum(Matroid):
    """Disjoint union: independent iff each part's slice is independent.

    Its circuits are the circuits of the parts.
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

    Two elements share a block exactly when some circuit contains both;
    elements lying on no circuit form singleton blocks.
    """

    blocks: tuple[ElementSet, ...]

    def __len__(self) -> int:
        return len(self.blocks)

    @property
    def is_connected(self) -> bool:
        return len(self.blocks) == 1

    def to_jsonable(self) -> list[list[str]]:
        return [sorted(b) for b in self.blocks]


def components(m: Matroid, budget: int | None = None) -> ComponentPartition:
    """Connected components of ``m`` via the shared-circuit relation.

    The implementation takes the transitive closure of "lies in a common
    circuit" with union-find, then asserts the closure added nothing: any
    two elements of a block must already share a single circuit.  A
    failure of that assertion would mean the relation is not transitive
    and is reported as an invariant violation.
    """
    circuit_masks = [c.mask for c in m.circuits(budget)]
    n = len(m.ground)
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for cmask in circuit_masks:
        ids = list(_bit_indices(cmask))
        head = find(ids[0])
        for other in ids[1:]:
            parent[find(other)] = head

    by_root: dict[int, int] = {}
    for i in range(n):
        root = find(i)
        by_root[root] = by_root.get(root, 0) | 1 << i

    blocks = sorted(by_root.values(), key=lambda mask: (mask & -mask).bit_length())
    for mask in blocks:
        ids = list(_bit_indices(mask))
        for a in range(len(ids)):
            for b in range(a + 1, len(ids)):
                pair = (1 << ids[a]) | (1 << ids[b])
                if not any(c & pair == pair for c in circuit_masks):
                    raise InvariantViolation(
                        "shared-circuit relation is not transitive: "
                        f"{m.ground.labels[ids[a]]} and {m.ground.labels[ids[b]]} "
                        "share a block but no circuit"
                    )
    return ComponentPartition(tuple(ElementSet(m.ground, b) for b in blocks))


def lift_circuit(m: Matroid, away: ElementSet, circuit: ElementSet) -> ElementSet:
    """Lift a circuit of ``m`` contracted by ``away`` back to a circuit of ``m``.

    Returns C united with the canonically first subset of ``away`` that
    makes a circuit of ``m``; such a subset always exists.
    """
    m._check_universe(away)
    contracted = m.contract(away)
    local = circuit.in_universe(contracted.ground)
    if not contracted.is_circuit(local):
        raise PreconditionError("the given set is not a circuit of the contraction")
    base = m.ground.set_of(circuit)
    for extra in iter_submasks_lex(away.mask):
        candidate = ElementSet(m.ground, base.mask | extra)
        if m.is_circuit(candidate):
            return candidate
    raise InvariantViolation("no lift found although one must exist")
