"""Default enumeration budgets.

Only work that is still exponential carries a budget: circuit
enumeration, axiom checking and the "first in canonical order" scan for
separations of order 2 and up.  Polynomial queries (rank, kappa,
kappa(X, Y), components, linking partitions, constructive linking,
separation extensions, window values) take none.
Each budgeted scan calls :func:`check_scan`, which raises
``CapacityError`` instead of silently running for hours: ``budget=None``
takes the scan's default from this module, any other value overrides it
for that call.  :func:`check_window` applies the fixed window limit, and
``InfiniteFamily.window`` is its one caller: a window over the budget is
refused from its stated size, before it is built.

On the command line, ``MATROID_KAPPA_BUDGET`` is read by exactly the
verbs that accept ``--budget`` (``separation`` only for ``--k`` of 2 or
more).  Those verbs take one number from ``--budget=N`` or, failing that,
from the environment variable, and pass it to every budgeted scan they
run; with neither, each scan keeps its own default.
"""

import os

from .errors import CapacityError, DomainError

CIRCUIT_ENUMERATION = 20
"""Maximum ground-set size for circuit enumeration."""

AXIOM_GROUND = 12
"""Maximum ground-set size for the exhaustive axiom checker."""

AXIOM_C3_TUPLES = 20_000
"""Cap on the number of (circuit, subset, family, element) tuples scanned
for the strong circuit-exchange check.  The cap still counts scan tuples,
but the circuits of a matroid are counted, not scanned: C3 holds for them,
and only whether the scan would stay within the cap is computed."""

SEPARATION_SCAN = 16
"""Maximum ground-set size for ``find_separation`` with k of 2 or more,
the only k that scans subsets; k = 1 reads the components on any size."""

WINDOW_ELEMENTS = 256
"""Largest window an infinite family will materialise."""

ENV_VAR = "MATROID_KAPPA_BUDGET"


def check_scan(what: str, n: int, budget: int | None, default: int) -> None:
    """Refuse a scan of ``what`` over ``n`` elements above ``budget``, or
    above ``default`` when ``budget`` is None."""
    if budget is None:
        budget = default
    if n > budget:
        raise CapacityError(f"{what} over {n} elements exceeds budget {budget}")


def check_window(index: int, size: int) -> None:
    """Refuse window ``index`` when its stated ``size`` is over the limit;
    called before the window is built, so a refused window never is."""
    if size > WINDOW_ELEMENTS:
        shown = size if size < 10**100 else "more than 10^100"
        raise CapacityError(
            f"window {index} holds {shown} elements, over the window budget {WINDOW_ELEMENTS}"
        )


def resolve_budget(flag_value: int | None) -> int | None:
    """The budget a command line asks for: the flag, else the environment,
    else None, which leaves every scan its own default.  A negative
    number is refused as a domain error."""
    if flag_value is not None:
        if flag_value < 0:
            raise DomainError(f"--budget must be non-negative, got {flag_value}")
        return flag_value
    raw = os.environ.get(ENV_VAR)
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise DomainError(f"{ENV_VAR} must be an integer, got {raw!r}") from None
    if value < 0:
        raise DomainError(f"{ENV_VAR} must be non-negative, got {raw!r}")
    return value
