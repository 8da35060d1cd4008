"""Connectivity-preserving minors.

For disjoint X and Y in a finite matroid there is always a partition
(C, D) of the remaining elements with kappa(X, Y) unchanged after
contracting C and deleting D (Tutte's linking theorem).
``linking_partition`` reads one off the intersection record that
:mod:`connectivity` keeps for kappa(X, Y): it contracts the record's
largest common independent set of M/X and M/Y and deletes the other
free elements, with no search of its own.
``constructive_linking`` follows the paper's construction instead: it
shrinks X and Y to cores of size k, read off the kappa(X, Y) record by
two greedy passes (``_cores``), and grows a small restriction until its
inner connectivity reaches k.  Each step blocks one exact low-order
separation between the cores, read off the intersection record of the
restriction with no search: the least minimiser of kappa between the
cores (see ``connectivity._largest_common_independent``).  It adds the
pair of circuits that blocks that separation, and checks the block, in
``_breaking_core``; a blocked separation stays blocked in every larger
restriction.  It then solves inside the restriction with
``linking_partition`` and deletes everything outside, so no stage of the
construction searches.
``extends_to_separation`` and ``breaking_circuits`` stay public with all
their checks: the first answers the canonical-first question, the second
builds the circuit pair for any caller.

The construction needs some circuits, not the first in canonical order,
so it enumerates none: each comes from one intersection
(``connectivity._joining_circuit``), lifted through a contraction by one
span (``constructions._lift``).  A split (X, Y) with k elements per side
extends to a k-separation exactly when kappa(X, Y) <= k - 1, so nothing
here takes a budget.

Every witness is re-verified on its minor before being returned;
auditability beats speed throughout this module.
"""

from __future__ import annotations

from dataclasses import dataclass

from .connectivity import (
    _Record,
    _intersection,
    _joining_circuit,
    _kappa_mask,
    _separation,
    kappa_between,
)
from .constructions import MinorSpec, _lift, components, contract, restrict, take_minor
from .core import ElementSet, Matroid, _bit_indices
from .errors import InvariantViolation, PreconditionError


@dataclass(frozen=True)
class LinkingResult:
    """A partition witness and the connectivity it preserves."""

    spec: MinorSpec
    achieved: int
    target: int
    trace: tuple[dict, ...] = ()

    def to_jsonable(self) -> dict:
        return {
            "spec": self.spec.to_jsonable(),
            "achieved": self.achieved,
            "target": self.target,
            "trace": list(self.trace),
        }


def _check_disjoint_sides(m: Matroid, x: ElementSet, y: ElementSet) -> None:
    m._check_universe(x)
    m._check_universe(y)
    if not x.isdisjoint(y):
        raise PreconditionError("the two sides overlap")


def extends_to_separation(m: Matroid, x: ElementSet, y: ElementSet, k: int):
    """First k-separation (U, E minus U) of ``m`` with X inside U and Y outside.

    Returns the first such U in canonical subset order, or None.  With k
    elements per side, U qualifies when kappa(U) <= k - 1, and one
    exists when kappa(X, Y) <= k - 1.  The order is walked greedily:
    until U qualifies, each free element in index order joins U if a
    qualifying set still lies between U plus it and Y plus the elements
    passed over (one :func:`kappa_between`), and is passed over if not.

    A public query for the canonical-first separation, and the checker
    of criterion 8; the library itself calls it nowhere.
    ``constructive_linking`` needs some exact separation, not the first,
    and reads one off its intersection record.
    """
    _check_disjoint_sides(m, x, y)
    if len(x) < k or len(y) < k:
        raise PreconditionError("both sides need at least k elements")
    if kappa_between(m, x, y) > k - 1:
        return None
    umask, ymask = x.mask, y.mask
    for e in _bit_indices(m.ground.full_mask & ~x.mask & ~y.mask):
        if _kappa_mask(m, umask) <= k - 1:
            break
        bit = 1 << e
        grown = ElementSet(m.ground, umask | bit)
        if kappa_between(m, grown, ElementSet(m.ground, ymask)) <= k - 1:
            umask |= bit
        else:
            ymask |= bit
    value = _kappa_mask(m, umask)
    if value > k - 1:
        raise InvariantViolation("the greedy walk lost a separation that exists")
    return _separation(m, umask, value)


def linking_partition(m: Matroid, x: ElementSet, y: ElementSet) -> LinkingResult:
    """A partition (C, D) of the free elements preserving kappa(X, Y).

    C is the common set I of the record that :func:`kappa_between` keeps
    for (X, Y), a largest common independent set of M/X and M/Y on the
    free elements, and D is the rest.  X + Y + I spans E: an element
    outside its closure could join I in both contractions.  So in
    N = M/I minus D, r_N(X) = r(X) and r_N(Y) = r(Y), as I is independent
    in M/X and in M/Y, and r(N) = r(E) - |I|, which makes
    kappa_N(X) = |I| + r(X) + r(Y) - r(E) = kappa(X, Y).  The intersection
    visits neighbours in canonical order, so the answer does not depend
    on the representation.  It is re-verified on the minor before it is
    returned.
    """
    record = _intersection(m, x, y)
    free = m.ground.full_mask & ~x.mask & ~y.mask
    common = record.common
    spec = MinorSpec(ElementSet(m.ground, common), ElementSet(m.ground, free & ~common))
    _verify_partition(m, x, spec, record.value, "linking partition")
    return LinkingResult(spec, record.value, record.value)


def _verify_partition(
    m: Matroid, x: ElementSet, spec: MinorSpec, target: int, what: str
) -> None:
    """Raise unless kappa(X, Y) is ``target`` in the minor ``spec`` of ``m``.

    ``spec`` must contract or delete everything outside X union Y, so
    kappa(X, Y) in the minor is just kappa of the X side.
    """
    minor = take_minor(m, spec)
    achieved = _kappa_mask(minor, x.in_universe(minor.ground).mask)
    if achieved != target:
        raise InvariantViolation(f"{what} achieves {achieved}, expected {target}")


def _breaking_core(
    m: Matroid, x: ElementSet, y: ElementSet, k: int
) -> tuple[ElementSet, ElementSet, Matroid]:
    """Build the circuit pair of the separation-breaking construction.

    Looks at the components of the contractions by X and by Y and takes
    the first element e outside both component unions (and outside X and
    Y).  C1 is the joining circuit of Y through e in M/X
    (``connectivity._joining_circuit``), lifted through X: it holds e,
    meets Y, C1 - X is a circuit of M/X and C1 - X - Y one of
    M/(X union Y).  C2 is built symmetrically, with the roles of X and Y
    swapped.  When no such e exists, the separation would extend into the
    host matroid, which the caller has ruled out, so that raises an
    invariant violation: :func:`breaking_circuits` checks
    kappa_between(M, X, Y) >= k, and in :func:`constructive_linking` it
    holds because X and Y contain the cores, whose value is the target.

    Returns (C1, C2, grown), grown the restriction to X + Y + C1 + C2,
    after the module's one check that the pair blocks the extension:
    kappa_between(grown, X, Y) >= k, or an invariant violation.
    """
    mx = contract(m, x)
    my = contract(m, y)

    def blocks_avoiding(cmp_partition, avoid: ElementSet) -> int:
        union = 0
        for block in cmp_partition.blocks:
            if not any(lab in avoid for lab in block):
                union |= m.ground.set_of(block).mask
        return union

    comp_x_union = blocks_avoiding(components(mx), y)
    comp_y_union = blocks_avoiding(components(my), x)
    covered = comp_x_union | comp_y_union | x.mask | y.mask
    uncovered = m.ground.full_mask & ~covered
    if uncovered == 0:
        raise InvariantViolation(
            "component unions cover the ground set although extension was ruled out"
        )
    e_label = m.ground.labels[(uncovered & -uncovered).bit_length() - 1]

    def lifted(away: ElementSet, toward: ElementSet, m_away: Matroid) -> ElementSet:
        # e lies in a component of M/away that meets ``toward``
        e_bit = 1 << m_away.ground.index(e_label)
        local = _joining_circuit(m_away, toward.in_universe(m_away.ground), e_bit)
        if not local:
            raise InvariantViolation("required breaking circuits do not exist")
        circuit = ElementSet(m_away.ground, local).in_universe(m.ground)
        return ElementSet(m.ground, _lift(m, away.mask, circuit.mask))

    first, second = lifted(x, y, mx), lifted(y, x, my)
    grown = restrict(m, x | y | first | second)
    gx, gy = x.in_universe(grown.ground), y.in_universe(grown.ground)
    if kappa_between(grown, gx, gy) <= k - 1:
        raise InvariantViolation("breaking circuits failed to block the separation")
    return first, second, grown


def breaking_circuits(
    m: Matroid, x: ElementSet, y: ElementSet, k: int
) -> tuple[ElementSet, ElementSet]:
    """Circuits C1, C2 blocking the extension of an exact separation.

    Preconditions, verified here: (X, Y) is an exact k-separation of the
    restriction to X union Y (its connectivity value is exactly k - 1 and
    both sides have at least k elements), and it does not extend to a
    k-separation of ``m``.  The returned circuits guarantee that (X, Y)
    does not extend to a k-separation of the restriction to
    X union Y union C1 union C2 either.  Both extension questions are
    answered by :func:`kappa_between` (exact, as both sides have at least
    k elements).  The circuits come from :func:`_breaking_core`, two
    matroid intersections and two spans, with no circuit enumeration; it
    also checks the second question on the grown restriction.
    """
    _check_disjoint_sides(m, x, y)
    sub = restrict(m, x | y)
    value = _kappa_mask(sub, x.in_universe(sub.ground).mask)
    if value != k - 1:
        raise PreconditionError(
            f"the separation is not exact at order {k}: restriction value {value}"
        )
    if len(x) < k or len(y) < k:
        raise PreconditionError("both sides need at least k elements")
    if kappa_between(m, x, y) <= k - 1:
        raise PreconditionError("the separation already extends to the host matroid")

    first, second, _ = _breaking_core(m, x, y, k)
    return first, second


def constructive_linking(m: Matroid, x: ElementSet, y: ElementSet) -> LinkingResult:
    """Build a connectivity-preserving partition constructively.

    Stage 1 reads cores X', Y' of size k with kappa(X', Y') = k off the
    record that the target query has built (:func:`_cores`).  Stage 2
    grows a finite restriction Z, starting from X', Y' and, for each
    element y of Y' in canonical order, a circuit through y that meets X'
    (each from one intersection).  At stage t, while the restricted
    kappa(X', Y') is below t, one exact t-separation (U, Z - U) between
    the cores gets its pair of breaking circuits (``_breaking_core``).
    Both come off one record of the restriction, keyed (Y', X'): its
    value is the restricted kappa(X', Y'), as kappa is symmetric, and
    U = X' + R, with R its reach, is the least minimiser, so kappa(U) is
    t - 1 and each side holds a core of k >= t elements.  The host
    precondition of :func:`breaking_circuits` needs no check here:
    kappa_between never falls as its sides grow, so
    kappa_between(M, U, Z - U) >= kappa(X', Y') = k >= t.  The grown
    restriction comes back from ``_breaking_core`` already checked to
    block (U, Z - U) and becomes the next Z; a blocked separation stays
    blocked in every larger restriction, and each step adds at
    least one element, so after stage t = k the restriction carries the
    full value.  Stage 3 solves inside the restriction with
    :func:`linking_partition` on the same record, deletes everything
    outside, and trims the answer back to the original X, Y.  Each stage
    records a trace entry and every intermediate claim is asserted.
    """
    target = kappa_between(m, x, y)
    free = m.ground.full_mask & ~x.mask & ~y.mask
    trace: list[dict] = []

    if target == 0:
        spec = MinorSpec(m.ground.empty(), ElementSet(m.ground, free))
        _verify_partition(m, x, spec, 0, "deleting all free elements")
        trace.append({"stage": "solve", "contract": [], "delete": sorted(spec.delete)})
        return LinkingResult(spec, 0, 0, tuple(trace))

    x_core, y_core = _cores(m, x, y)
    trace.append(
        {
            "stage": "cores",
            "x_core": sorted(x_core),
            "y_core": sorted(y_core),
            "kappa": target,
        }
    )

    # every element of Y' shares a component with X', or a union of
    # components would separate the cores below the target
    zone = x_core | y_core
    for bit in _bit_indices(y_core.mask):
        joining = _joining_circuit(m, x_core, 1 << bit)
        if not joining:
            raise InvariantViolation("no circuit joins a core element to the other core")
        zone = zone | ElementSet(m.ground, joining)
    sub = restrict(m, zone)
    record = _zone_record(sub, x_core, y_core)
    trace.append({"stage": "window", "t": 1, "zone": sorted(zone), "kappa": record.value})

    for t in range(2, target + 1):
        while record.value < t:
            if record.value != t - 1:
                raise InvariantViolation(
                    "a separation below the current level contradicts the last stage"
                )
            left = x_core | m.ground.set_of(sub.ground.from_mask(record.reach))
            right = zone - left
            c1, c2, sub = _breaking_core(m, left, right, t)
            zone = zone | c1 | c2
            record = _zone_record(sub, x_core, y_core)
        trace.append(
            {"stage": "window", "t": t, "zone": sorted(zone), "kappa": record.value}
        )

    if record.value != target:
        raise InvariantViolation(
            f"restriction reached {record.value} instead of the target {target}"
        )

    inner = linking_partition(
        sub, y_core.in_universe(sub.ground), x_core.in_universe(sub.ground)
    )
    contract_host = m.ground.set_of(inner.spec.contract)
    delete_host = m.ground.set_of(inner.spec.delete) | zone.complement()
    final_contract = contract_host - x - y
    final_delete = delete_host - x - y
    spec = MinorSpec(final_contract, final_delete)
    _verify_partition(m, x, spec, target, "constructive partition")
    trace.append(
        {
            "stage": "solve",
            "contract": sorted(final_contract),
            "delete": sorted(final_delete),
        }
    )
    return LinkingResult(spec, target, target, tuple(trace))


def _cores(m: Matroid, x: ElementSet, y: ElementSet) -> tuple[ElementSet, ElementSet]:
    """Cores X' inside X and Y' inside Y, of k = kappa(X, Y) elements each
    and with kappa(X', Y') = k, read off the (X, Y) record.

    Let B_X, B_Y and I be the record's bases and common set.  X + Y + I
    spans E (see :func:`linking_partition`), so the greedy pass over
    I + B_X + B_Y from I + B_Y ends in a basis: it adds some K inside
    B_X with |K| = r(E) - |I| - |B_Y| = |B_X| - k.  The pass from I + B_X
    likewise adds J inside B_Y with |J| = |B_Y| - k.  The cores are
    X' = B_X - K and Y' = B_Y - J.  I + K + J avoids both cores, and it
    is independent in M/X' and in M/Y', since I + B_X + J and I + K + B_Y
    are independent.  So kappa(X', Y') >= |I| + |K| + |J| + 2k - r(E)
    = |I| + |B_X| + |B_Y| - r(E) = k, and kappa(X', Y') <= kappa(X, Y) = k,
    as kappa_between never rises when its sides shrink.  Two greedy
    passes and no intersection beyond the record's.
    """
    record = _intersection(m, x, y)
    common, base_x, base_y = record.common, record.base_x, record.base_y
    within = common | base_x | base_y
    x_core = ElementSet(m.ground, base_x & ~m._greedy_basis_mask(within, common | base_y))
    y_core = ElementSet(m.ground, base_y & ~m._greedy_basis_mask(within, common | base_x))
    if not len(x_core) == len(y_core) == record.value:
        raise InvariantViolation("the cores do not have kappa(X, Y) elements each")
    return x_core, y_core


def _zone_record(sub: Matroid, x_core: ElementSet, y_core: ElementSet) -> _Record:
    """The intersection record of the restriction ``sub`` keyed (Y', X'),
    whose reach gives the least minimiser on the X' side; its value, its
    separation and the final solve all read this one record."""
    return _intersection(
        sub, y_core.in_universe(sub.ground), x_core.in_universe(sub.ground)
    )


@dataclass(frozen=True)
class CircuitChain:
    """Disjoint circuits hopping between two sides through successive contractions."""

    circuits: tuple[ElementSet, ...]
    x_part: ElementSet
    y_part: ElementSet
    contracted: ElementSet
    x_part_independent: bool
    y_part_independent: bool

    def to_jsonable(self) -> dict:
        return {
            "circuits": [sorted(c) for c in self.circuits],
            "x_part": sorted(self.x_part),
            "y_part": sorted(self.y_part),
            "contracted": sorted(self.contracted),
            "x_part_independent": self.x_part_independent,
            "y_part_independent": self.y_part_independent,
        }


def infinite_kappa_chain(
    window: Matroid, x: ElementSet, y: ElementSet, t_max: int
) -> CircuitChain:
    """Chain of disjoint circuits, each meeting both residual sides.

    The first circuit lives in the window itself; circuit i + 1 is a
    circuit of the window contracted by the union of the first i, and
    must meet what is left of X and of Y.  Each step takes the circuit
    joining the residual X to the first residual y that shares a
    component with it (``connectivity._joining_circuit``); a circuit
    meets both residual sides exactly when such a y exists.  When none
    does, the chain has stalled (the window is too small or the sides
    separate early), which raises a precondition error.  Alongside the
    chain, the sets it claims from X and from Y are reported together
    with their independence in the contraction by the chain's middle
    part.
    """
    _check_disjoint_sides(window, x, y)
    if t_max < 0:
        raise PreconditionError("chain length must be non-negative")
    if t_max > 0 and kappa_between(window, x, y) < t_max:
        raise PreconditionError(
            "the window's connectivity is below the requested chain length"
        )
    taken = window.ground.empty()
    chain: list[ElementSet] = []
    for _ in range(t_max):
        current = contract(window, taken)
        residual_x = (x - taken).in_universe(current.ground)
        residual_y = (y - taken).in_universe(current.ground)
        found = 0
        for b in _bit_indices(residual_y.mask):
            found = _joining_circuit(current, residual_x, 1 << b)
            if found:
                break
        if not found:
            raise PreconditionError(
                "chain stalled: window too small or connectivity too low"
            )
        lifted = ElementSet(current.ground, found).in_universe(window.ground)
        chain.append(lifted)
        taken = taken | lifted
    union = taken
    x_part = union & x
    y_part = union & y
    middle = union - x - y
    contracted = contract(window, middle)
    x_ok = contracted.is_independent(x_part.in_universe(contracted.ground))
    y_ok = contracted.is_independent(y_part.in_universe(contracted.ground))
    return CircuitChain(tuple(chain), x_part, y_part, middle, x_ok, y_ok)
