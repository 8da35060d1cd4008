"""The rank-free connectivity function and separations.

For independent sets I and J, ``del_count(M, I, J)`` is the least number
of elements whose removal from I union J restores independence.  The
connectivity value ``kappa(M, X)`` is del_count applied to a basis of the
restriction to X and a basis of the rest of the matroid; the verdict does
not depend on which bases are picked.  On a finite matroid this equals
r(X) + r(E minus X) - r(E), which the suite checks exhaustively.

``kappa_between(M, X, Y)`` is the minimum of kappa over all sets nested
between X and the complement of Y.  It is computed by an exhaustive,
budget-guarded subset scan with memoised kappa values; no polynomial
algorithm is attempted here.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import budgets
from .core import ElementSet, Matroid, iter_submasks_lex
from .errors import CapacityError, InvariantViolation, PreconditionError


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
    memo = m._cache.setdefault("kappa_memo", {})
    hit = memo.get(xmask)
    if hit is not None:
        return hit
    basis_x = m._greedy_basis_mask(xmask)
    basis_rest = m._greedy_basis_mask(m.ground.full_mask & ~xmask)
    union = basis_x | basis_rest
    kept = m._greedy_basis_mask(union)
    value = union.bit_count() - kept.bit_count()
    memo[xmask] = value
    return value


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


def kappa_between(
    m: Matroid, x: ElementSet, y: ElementSet, budget: int | None = None
) -> int:
    """Minimum of kappa(U) over all U with X inside U inside E minus Y.

    Exhaustive over the free elements, with kappa values memoised per
    matroid; stops early at zero.
    """
    if budget is None:
        budget = budgets.KAPPA_BETWEEN_FREE
    m._check_universe(x)
    m._check_universe(y)
    if not x.isdisjoint(y):
        raise PreconditionError("the two sides overlap")
    free = m.ground.full_mask & ~x.mask & ~y.mask
    if free.bit_count() > budget:
        raise CapacityError(
            f"kappa(X, Y) scan over {free.bit_count()} free elements "
            f"exceeds budget {budget}"
        )
    best = None
    for extra in iter_submasks_lex(free):
        value = _kappa_mask(m, x.mask | extra)
        if best is None or value < best:
            best = value
            if best == 0:
                break
    assert best is not None
    return best


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


def find_separation(
    m: Matroid, k: int, budget: int | None = None
) -> Separation | None:
    """First split that is an l-separation for some l at most ``k``.

    A qualifying split (X, Y) has kappa(X) + 1 at most min(|X|, |Y|, k).
    Subsets are scanned in canonical order; None when nothing qualifies.
    """
    if budget is None:
        budget = budgets.SEPARATION_SCAN
    n = len(m.ground)
    if n > budget:
        raise CapacityError(f"separation scan over {n} elements exceeds budget {budget}")
    if k < 1:
        return None
    full = m.ground.full_mask
    for xmask in iter_submasks_lex(full):
        if xmask == 0 or xmask == full:
            continue
        size_x = xmask.bit_count()
        size_y = n - size_x
        cap = min(size_x, size_y, k)
        if cap < 1:
            continue
        value = _kappa_mask(m, xmask)
        if value + 1 <= cap:
            return Separation(
                ElementSet(m.ground, xmask),
                ElementSet(m.ground, full & ~xmask),
                value,
                value + 1,
            )
    return None


def is_k_connected(m: Matroid, k: int, budget: int | None = None) -> bool:
    """No l-separation exists for any l below ``k``."""
    if k <= 1:
        return True
    return find_separation(m, k - 1, budget) is None


def grow_pair(
    m: Matroid,
    x: ElementSet,
    y: ElementSet,
    x_part: ElementSet,
    y_part: ElementSet,
    k: int,
    budget: int | None = None,
) -> tuple[str, str] | None:
    """One growth step towards witnessing kappa(X, Y) at level ``k``.

    Requires kappa(x_part, y_part) == k - 1 with the parts inside X and Y.
    When kappa(X, Y) is at least k, some elements x of X and y of Y give
    kappa(x_part + x, y_part + y) == k; the first such pair in canonical
    order is returned.  When kappa(X, Y) is below k, returns None.
    """
    for small, big in ((x_part, x), (y_part, y)):
        m._check_universe(small)
        if not small <= big:
            raise PreconditionError("partial side is not inside its full side")
    if kappa_between(m, x_part, y_part, budget) != k - 1:
        raise PreconditionError("the partial sides are not at level k - 1")
    if kappa_between(m, x, y, budget) < k:
        return None
    for xe in x - x_part:
        grown_x = x_part.with_element(xe)
        for ye in y - y_part:
            grown_y = y_part.with_element(ye)
            if kappa_between(m, grown_x, grown_y, budget) == k:
                return (xe, ye)
    raise InvariantViolation(
        "no growth pair found although the connectivity level guarantees one"
    )
