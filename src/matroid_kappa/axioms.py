"""Exhaustive axiom checking for candidate set families.

Given a family of "independent" sets (or a family of candidate circuits)
over a small ground set, :func:`check_axioms` verifies each independence
axiom and each circuit axiom and reports, for every failure, a minimal
witness found in canonical scan order.

The strong circuit-exchange check (C3) quantifies over tuples
(C, X, (C_x for x in X), z); the number of such tuples can explode, so the
scan is capped and the report records whether it ran to completion.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from dataclasses import dataclass

from . import budgets
from .core import GroundSet, _bit_indices, iter_submasks_lex
from .errors import CapacityError, DomainError


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
    over too many elements is never enumerated.
    """
    if budget is None:
        budget = budgets.AXIOM_GROUND
    if c3_budget is None:
        c3_budget = budgets.AXIOM_C3_TUPLES
    if not isinstance(ground, GroundSet):
        ground = GroundSet(ground)
    n = len(ground)
    if n > budget:
        raise CapacityError(f"axiom check over {n} elements exceeds budget {budget}")

    given = sum(x is not None for x in (independent, circuits, independent_masks))
    if given != 1:
        raise DomainError("give exactly one of independent sets or circuits")

    if circuits is not None:
        circuit_masks = sorted(
            {ground.set_of(c).mask for c in circuits},
            key=lambda m: tuple(_bit_indices(m)),
        )
        family = frozenset(
            mask
            for mask in range(ground.full_mask + 1)
            if not any(c & mask == c for c in circuit_masks)
        )
        circuits_given = True
    else:
        if independent_masks is not None:
            family = frozenset(independent_masks)
        else:
            family = frozenset(ground.set_of(s).mask for s in independent)  # type: ignore[union-attr]
        circuit_masks = _minimal_nonmembers(ground, family)
        circuits_given = False

    checks = [
        _check_i1(ground, family),
        _check_i2(ground, family),
        _check_i3(ground, family),
        AxiomCheck(
            "IM",
            True,
            note="maximal extensions always exist over a finite ground set",
        ),
        _check_c1(ground, circuit_masks),
        _check_c2(ground, circuit_masks),
        _check_c3(ground, circuit_masks, c3_budget),
    ]
    if circuits_given:
        note = "independence family induced from the candidate circuits"
        checks = [
            AxiomCheck(c.name, c.passed, c.witness, c.exhaustive, note)
            if c.name in ("I1", "I2", "I3")
            else c
            for c in checks
        ]
    return AxiomReport(ground, tuple(checks))


def _minimal_nonmembers(ground: GroundSet, family: frozenset[int]) -> list[int]:
    minimal: list[int] = []
    for size in range(0, len(ground) + 1):
        for combo in itertools.combinations(range(len(ground)), size):
            mask = 0
            for i in combo:
                mask |= 1 << i
            if mask in family:
                continue
            if any(c & mask == c for c in minimal):
                continue
            minimal.append(mask)
    minimal.sort(key=lambda m: tuple(_bit_indices(m)))
    return minimal


def _check_i1(ground: GroundSet, family: frozenset[int]) -> AxiomCheck:
    if 0 in family:
        return AxiomCheck("I1", True)
    return AxiomCheck("I1", False, witness="the empty set is not in the family")


def _check_i2(ground: GroundSet, family: frozenset[int]) -> AxiomCheck:
    for mask in sorted(family, key=lambda m: tuple(_bit_indices(m))):
        for i in _bit_indices(mask):
            sub = mask & ~(1 << i)
            if sub not in family:
                return AxiomCheck(
                    "I2",
                    False,
                    witness=(
                        f"{_fmt(ground, mask)} is in the family but its subset "
                        f"{_fmt(ground, sub)} is not"
                    ),
                )
    return AxiomCheck("I2", True)


def _check_i3(ground: GroundSet, family: frozenset[int]) -> AxiomCheck:
    ordered = sorted(family, key=lambda m: tuple(_bit_indices(m)))
    maximal = [
        m
        for m in ordered
        if not any(m != o and m & o == m for o in family)
    ]
    maximal_set = set(maximal)
    for small in ordered:
        if small in maximal_set:
            continue
        for big in maximal:
            candidates = big & ~small
            if not any(small | (1 << i) in family for i in _bit_indices(candidates)):
                return AxiomCheck(
                    "I3",
                    False,
                    witness=(
                        f"I={_fmt(ground, small)} cannot be augmented from the "
                        f"maximal set I'={_fmt(ground, big)}"
                    ),
                )
    return AxiomCheck("I3", True)


def _check_c1(ground: GroundSet, circuit_masks: list[int]) -> AxiomCheck:
    if 0 in circuit_masks:
        return AxiomCheck("C1", False, witness="the empty set appears as a circuit")
    return AxiomCheck("C1", True)


def _check_c2(ground: GroundSet, circuit_masks: list[int]) -> AxiomCheck:
    for a, b in itertools.combinations(circuit_masks, 2):
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


def _check_c3(
    ground: GroundSet, circuit_masks: list[int], tuple_budget: int
) -> AxiomCheck:
    """Strong circuit exchange.

    For X inside a circuit C and a family (C_x : x in X) of circuits with
    x in C_y exactly when x == y, every z in C outside the union of the
    C_x must lie on a circuit inside (C united with the C_x) minus X.
    """
    spent = 0
    exhausted = True
    for cmask in circuit_masks:
        for xmask in iter_submasks_lex(cmask):
            if xmask == 0:
                continue
            xs = list(_bit_indices(xmask))
            per_x: list[list[int]] = []
            for x in xs:
                xbit = 1 << x
                options = [
                    d
                    for d in circuit_masks
                    if d & xbit and not (d & (xmask & ~xbit))
                ]
                per_x.append(options)
            if any(not opts for opts in per_x):
                continue
            for combo in itertools.product(*per_x):
                union = 0
                for d in combo:
                    union |= d
                zrange = cmask & ~union
                allowed = (cmask | union) & ~xmask
                for z in _bit_indices(zrange):
                    spent += 1
                    if spent > tuple_budget:
                        exhausted = False
                        break
                    zbit = 1 << z
                    if not any(
                        d & zbit and d & allowed == d for d in circuit_masks
                    ):
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
                            exhaustive=exhausted,
                        )
                if not exhausted:
                    break
            if not exhausted:
                break
        if not exhausted:
            break
    return AxiomCheck("C3", True, exhaustive=exhausted)
