"""Exhaustive axiom checking for candidate set families.

Given a family of "independent" sets (or a family of candidate circuits)
over a small ground set, :func:`check_axioms` verifies each independence
axiom and each circuit axiom and reports, for every failure, a minimal
witness found in canonical scan order.

Each check works from tables of the 2^n subsets, not from pairs of sets.
A table is one int with bit s set for each chosen subset s, so a pass over
all 2^n subsets is one shift per element:

* I2 fails exactly when some member lies one element above a non-member:
  one upward pass over the non-members, ANDed with the members.
* I3 finds the maximal members from one downward pass ("s lies inside a
  member").  A non-maximal I fails against a maximal I' exactly when no
  e in I' gives a member I + e.  The sets s without e for which s + e is a
  member form one shifted table per element, so a maximal I' leaves a
  failing I exactly when I lies outside the union of the tables of the
  elements of I': one OR per element of each maximal member.
* I1 is bit 0, and the I2 and I3 witnesses are read off the same tables:
  the first failing set in canonical order names each.
* The candidate circuits of an independence family, its minimal
  non-members, come from one upward pass: s is one exactly when s is not
  a member and every s - e is a member whose subsets all are.  Given
  circuits, the induced family is every set outside one upward pass, and
  C2 scans pairs of circuits only when one pass finds a nested pair.
* C3 holds whenever the candidates are the circuits of a matroid, that
  is, whenever I1-I3, C1 and C2 pass.  Take C, X, the C_x and z in C
  outside every C_x, and let A = (C united with the C_x) - X.  Each
  C_x - x lies inside A - z, so X lies in cl(A - z), and z lies in
  cl(C - z), which is inside cl(A - z); so z lies on a circuit inside A.
  For such a family the scan could find no witness, so it is not run: only
  whether it would run to completion is computed, by counting its tuples.
  With has[e] the set of circuits through e, the tuples number

      sum over S with |S| >= 2 of N(S) * sum over z in S of
          product over x in S - z of k_x(S),

  where N(S) counts the circuits containing S and k_x(S) the circuits
  that meet S in x alone; S is X + z, and the C_x are independent choices
  once S is fixed.  The sum walks the sets S inside some circuit and stops
  as soon as it passes the cap.  Any other family is scanned: C3 takes the
  options for each C_x from a per-element circuit index and memoises, for
  each set it searches, the union of the circuits inside it (at most 2^n
  entries), so "a circuit through z" is one bit test.

The strong circuit-exchange check (C3) quantifies over tuples
(C, X, (C_x for x in X), z); the number of such tuples can explode, so the
scan is capped and the report records whether it ran to completion.  The
cap counts every (C, X, family, z) tuple visited in the same order as a
one-at-a-time scan would, so the truncation point and ``exhaustive`` do
not depend on how the tuples are tested, or whether they are only counted.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from dataclasses import dataclass

from . import budgets
from .core import GroundSet, _bit_indices, iter_submasks_lex
from .errors import DomainError


@dataclass(frozen=True)
class AxiomCheck:
    """Outcome of one axiom: pass/fail, a witness on failure, scan coverage."""

    name: str
    passed: bool
    witness: str | None = None
    exhaustive: bool = True
    note: str = ""

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        extra = f"  [{self.witness}]" if self.witness else ""
        cover = "" if self.exhaustive else "  (scan truncated by budget)"
        note = f"  ({self.note})" if self.note else ""
        return f"{self.name:4s} {status}{extra}{cover}{note}"


@dataclass(frozen=True)
class AxiomReport:
    """Result of checking a candidate family against all axioms."""

    ground: GroundSet
    checks: tuple[AxiomCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def independence_ok(self) -> bool:
        return all(c.passed for c in self.checks if c.name in ("I1", "I2", "I3", "IM"))

    def __getitem__(self, name: str) -> AxiomCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def first_failure(self) -> str | None:
        for c in self.checks:
            if not c.passed:
                return f"{c.name}: {c.witness}"
        return None

    def __str__(self) -> str:
        return "\n".join(str(c) for c in self.checks)

    def to_jsonable(self) -> dict:
        return {
            "ground": list(self.ground.labels),
            "ok": self.ok,
            "checks": [
                {
                    "axiom": c.name,
                    "passed": c.passed,
                    "witness": c.witness,
                    "exhaustive": c.exhaustive,
                    "note": c.note,
                }
                for c in self.checks
            ],
        }


def _fmt(ground: GroundSet, mask: int) -> str:
    return "{" + ",".join(ground.labels[i] for i in _bit_indices(mask)) + "}"


def check_axioms(
    ground: GroundSet | Iterable[str],
    independent: Iterable[Iterable[str]] | None = None,
    *,
    circuits: Iterable[Iterable[str]] | None = None,
    independent_masks: Iterable[int] | None = None,
    budget: int | None = None,
    c3_budget: int | None = None,
) -> AxiomReport:
    """Check a candidate family against the matroid axioms.

    The candidate is either a family of independent sets or a family of
    circuits (exactly one must be given).  When circuits are given, the
    induced independence family (sets containing no circuit) is checked
    too; when independent sets are given, the circuit checks run on the
    inclusion-minimal non-members.  The ground set is checked against
    ``budget`` before any family is read, so a lazily generated family
    over too many elements is never enumerated.  A mask in
    ``independent_masks`` outside the ground set, or a negative
    ``c3_budget``, raises ``DomainError``.
    """
    if c3_budget is None:
        c3_budget = budgets.AXIOM_C3_TUPLES
    if c3_budget < 0:
        raise DomainError(f"c3_budget must be non-negative, got {c3_budget}")
    if not isinstance(ground, GroundSet):
        ground = GroundSet(ground)
    budgets.check_scan("axiom check", len(ground), budget, budgets.AXIOM_GROUND)

    given = sum(x is not None for x in (independent, circuits, independent_masks))
    if given != 1:
        raise DomainError("give exactly one of independent sets or circuits")

    # the family as one subset table: bit s is set when s is a member
    if circuits is not None:
        circuit_masks = list({ground.set_of(c).mask for c in circuits})
        return _report(ground, _without(ground, circuit_masks), c3_budget, circuit_masks)
    if independent_masks is not None:
        members, full = 0, ground.full_mask
        for mask in independent_masks:
            if not 0 <= mask <= full:
                raise DomainError("a mask in the family lies outside the ground set")
            members |= 1 << mask
    else:
        members = _table(ground.set_of(s).mask for s in independent)  # type: ignore[union-attr]
    return _report(ground, members, c3_budget)


def _report(
    ground: GroundSet, members: int, c3_budget: int, circuit_masks: list[int] | None = None
) -> AxiomReport:
    """:func:`check_axioms` on the packed table ``members``, against the
    given circuits ``circuit_masks`` or else its minimal non-members."""
    circuits_given = circuit_masks is not None
    if circuit_masks is None:
        circuit_masks = _minimal_nonmembers(ground, members)
    checks = [
        *_independence_checks(ground, members),
        AxiomCheck(
            "IM",
            True,
            note="maximal extensions always exist over a finite ground set",
        ),
        _check_c1(ground, circuit_masks),
        _check_c2(ground, circuit_masks),
    ]
    if all(c.passed for c in checks):
        # the circuits of a matroid, so C3 holds (see the module docstring)
        within = _c3_tuples_within(circuit_masks, len(ground), c3_budget)
        checks.append(AxiomCheck("C3", True, exhaustive=within))
    else:
        ordered = sorted(circuit_masks, key=_canonical_key)
        checks.append(_check_c3(ground, ordered, c3_budget))
    if circuits_given:
        note = "independence family induced from the candidate circuits"
        checks = [
            AxiomCheck(c.name, c.passed, c.witness, c.exhaustive, note)
            if c.name in ("I1", "I2", "I3")
            else c
            for c in checks
        ]
    return AxiomReport(ground, tuple(checks))


def _without(ground: GroundSet, masks: Iterable[int]) -> int:
    """The subset table of the sets that contain no set of ``masks``."""
    return _every_subset(ground) & ~_grow(_table(masks), _lanes(len(ground)))


def _canonical_key(mask: int) -> tuple[int, ...]:
    return tuple(_bit_indices(mask))


def _independence_checks(
    ground: GroundSet, members: int
) -> tuple[AxiomCheck, AxiomCheck, AxiomCheck]:
    """I1, I2 and I3 for the subset table ``members`` of a family of masks
    inside the ground set."""
    lanes = _lanes(len(ground))
    return (
        _check_i1(members),
        _check_i2(ground, members, lanes),
        _check_i3(ground, members, lanes),
    )


def _stuck(members: int, maximal: int, lanes: list[int]) -> int:
    """The non-maximal members I for which some maximal member I' has no e
    in I' - I with I + e a member: I3 holds exactly when there is none."""
    nonmaximal = members & ~maximal
    # adds[i]: the sets s without i for which s + i is a member
    adds = [(members >> (1 << i)) & lane for i, lane in enumerate(lanes)]
    stuck = 0
    for big in _bit_indices(maximal):
        augmented = 0
        for i in _bit_indices(big):
            augmented |= adds[i]
        stuck |= nonmaximal & ~augmented
    return stuck


def _lanes(n: int) -> list[int]:
    """For each element i, the subset table of the sets without i."""
    lanes = []
    for i in range(n):
        step = 1 << i
        lane, width = (1 << step) - 1, 2 * step
        while width < 1 << n:
            lane |= lane << width
            width *= 2
        lanes.append(lane)
    return lanes


def _table(masks: Iterable[int]) -> int:
    table = 0
    for mask in masks:
        table |= 1 << mask
    return table


def _grow(table: int, lanes: list[int]) -> int:
    """The sets that contain some set of ``table``."""
    for i, lane in enumerate(lanes):
        table |= (table & lane) << (1 << i)
    return table


def _shrink(table: int, lanes: list[int]) -> int:
    """The sets contained in some set of ``table``."""
    for i, lane in enumerate(lanes):
        table |= (table >> (1 << i)) & lane
    return table


def _step_up(table: int, lanes: list[int]) -> int:
    """The sets s with some s - e in ``table``."""
    out = 0
    for i, lane in enumerate(lanes):
        out |= (table & lane) << (1 << i)
    return out


def _step_down(table: int, lanes: list[int]) -> int:
    """The sets s with some s + e in ``table``."""
    out = 0
    for i, lane in enumerate(lanes):
        out |= (table >> (1 << i)) & lane
    return out


def _every_subset(ground: GroundSet) -> int:
    return (1 << (ground.full_mask + 1)) - 1


def _minimal_nonmembers(ground: GroundSet, members: int) -> list[int]:
    lanes = _lanes(len(ground))
    outside = _every_subset(ground) & ~members
    properly_above = _step_up(_grow(outside, lanes), lanes)
    return list(_bit_indices(outside & ~properly_above))


def _check_i1(members: int) -> AxiomCheck:
    if members & 1:
        return AxiomCheck("I1", True)
    return AxiomCheck("I1", False, witness="the empty set is not in the family")


def _check_i2(ground: GroundSet, members: int, lanes: list[int]) -> AxiomCheck:
    broken = members & _step_up(_every_subset(ground) & ~members, lanes)
    if not broken:
        return AxiomCheck("I2", True)
    mask = min(_bit_indices(broken), key=_canonical_key)
    subs = (mask & ~(1 << i) for i in _bit_indices(mask))
    sub = next(s for s in subs if not members >> s & 1)
    return AxiomCheck(
        "I2",
        False,
        witness=(
            f"{_fmt(ground, mask)} is in the family but its subset "
            f"{_fmt(ground, sub)} is not"
        ),
    )


def _check_i3(ground: GroundSet, members: int, lanes: list[int]) -> AxiomCheck:
    maximal = members & ~_step_down(_shrink(members, lanes), lanes)
    stuck = _stuck(members, maximal, lanes)
    if not stuck:
        return AxiomCheck("I3", True)
    small = min(_bit_indices(stuck), key=_canonical_key)
    # ext: the elements e outside I with I + e a member; I' leaves I stuck
    # exactly when it has none of them
    ext = 0
    for i in _bit_indices(ground.full_mask & ~small):
        ext |= (members >> (small | 1 << i) & 1) << i
    big = min(
        (m for m in _bit_indices(maximal) if not m & ext), key=_canonical_key
    )
    return AxiomCheck(
        "I3",
        False,
        witness=(
            f"I={_fmt(ground, small)} cannot be augmented from the "
            f"maximal set I'={_fmt(ground, big)}"
        ),
    )


def _check_c1(ground: GroundSet, circuit_masks: list[int]) -> AxiomCheck:
    if 0 in circuit_masks:
        return AxiomCheck("C1", False, witness="the empty set appears as a circuit")
    return AxiomCheck("C1", True)


def _check_c2(ground: GroundSet, circuit_masks: list[int]) -> AxiomCheck:
    lanes = _lanes(len(ground))
    table = _table(circuit_masks)
    if not table & _step_up(_grow(table, lanes), lanes):
        return AxiomCheck("C2", True)
    ordered = sorted(circuit_masks, key=_canonical_key)
    for a, b in itertools.combinations(ordered, 2):
        if a & b == a or a & b == b:
            small, big = (a, b) if a & b == a else (b, a)
            return AxiomCheck(
                "C2",
                False,
                witness=(
                    f"circuit {_fmt(ground, small)} is contained in circuit "
                    f"{_fmt(ground, big)}"
                ),
            )
    return AxiomCheck("C2", True)


def _c3_tuples_within(circuit_masks: list[int], n: int, tuple_budget: int) -> bool:
    """Whether the C3 scan of the circuits of a matroid visits at most
    ``tuple_budget`` tuples, counted by the identity in the module
    docstring over the sets S that lie inside some circuit.

    A set S with some k_x(S) = 0 adds no tuple, and nor does any superset:
    k_x only shrinks as S grows, and a tuple with z = x would give, by C3,
    a circuit through x that avoids S - x.  So the walk stops there.
    """
    has = [0] * n
    for j, cmask in enumerate(circuit_masks):
        for e in _bit_indices(cmask):
            has[e] |= 1 << j
    total = 0
    # (next element, k-sets of S, circuits containing S, circuits meeting S);
    # the k-set of x is the set of circuits that meet S in x alone
    stack = [(e + 1, [h], h, h) for e, h in enumerate(has) if h]
    while stack:
        start, ksets, common, met = stack.pop()
        for e in range(start, n):
            h = has[e]
            inside = common & h
            if not inside:
                continue
            grown = [d & ~h for d in ksets]
            grown.append(h & ~met)
            ks = [d.bit_count() for d in grown]
            if not all(ks):
                continue
            # the sum over z in S of the product of the other k_x(S)
            leave_one_out, product = 0, 1
            for k in ks:
                leave_one_out = leave_one_out * k + product
                product *= k
            total += inside.bit_count() * leave_one_out
            if total > tuple_budget:
                return False
            stack.append((e + 1, grown, inside, met | h))
    return True


def _check_c3(
    ground: GroundSet, circuit_masks: list[int], tuple_budget: int
) -> AxiomCheck:
    """Strong circuit exchange.

    For X inside a circuit C and a family (C_x : x in X) of circuits with
    x in C_y exactly when x == y, every z in C outside the union of the
    C_x must lie on a circuit inside (C united with the C_x) minus X.
    """
    through = [
        [d for d in circuit_masks if d >> x & 1] for x in range(len(ground))
    ]
    reach: dict[int, int] = {}  # allowed -> union of the circuits inside it
    spent = 0
    for cmask in circuit_masks:
        for xmask in iter_submasks_lex(cmask):
            if xmask == 0:
                continue
            xs = list(_bit_indices(xmask))
            per_x: list[list[int]] = []
            for x in xs:
                others = xmask & ~(1 << x)
                options = [d for d in through[x] if not d & others]
                if not options:
                    break
                per_x.append(options)
            else:
                for combo in itertools.product(*per_x):
                    union = 0
                    for d in combo:
                        union |= d
                    zrange = cmask & ~union
                    if not zrange:
                        continue
                    allowed = (cmask | union) & ~xmask
                    covered = reach.get(allowed)
                    if covered is None:
                        covered = 0
                        for d in circuit_masks:
                            if d & allowed == d:
                                covered |= d
                        reach[allowed] = covered
                    count = zrange.bit_count()
                    if not zrange & ~covered and spent + count <= tuple_budget:
                        spent += count
                        continue
                    for z in _bit_indices(zrange):
                        spent += 1
                        if spent > tuple_budget:
                            return AxiomCheck("C3", True, exhaustive=False)
                        if not covered >> z & 1:
                            family_txt = ", ".join(
                                f"C_{ground.labels[x]}={_fmt(ground, d)}"
                                for x, d in zip(xs, combo)
                            )
                            return AxiomCheck(
                                "C3",
                                False,
                                witness=(
                                    f"C={_fmt(ground, cmask)}, X={_fmt(ground, xmask)}, "
                                    f"{family_txt}, z={ground.labels[z]}: no circuit "
                                    f"through z inside {_fmt(ground, allowed)}"
                                ),
                            )
    return AxiomCheck("C3", True)
