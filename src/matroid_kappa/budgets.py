"""Default enumeration budgets.

Every exhaustive scan in this package is exponential in the worst case, so
each one is guarded by an explicit budget and raises ``CapacityError``
instead of silently running for hours.  A scan called with ``budget=None``
uses its default from this module; any other value overrides it for that
call.  The command line reads one number from ``--budget=N`` or, failing
that, the ``MATROID_KAPPA_BUDGET`` environment variable, and passes it to
every budgeted scan the verb runs (``link --constructive --budget=N``
bounds its kappa scan, circuit enumerations and extension scans alike);
with neither, each scan keeps its own default.
"""

import os

from .errors import DomainError

CIRCUIT_ENUMERATION = 20
"""Maximum ground-set size for circuit enumeration."""

AXIOM_GROUND = 12
"""Maximum ground-set size for the exhaustive axiom checker."""

AXIOM_C3_TUPLES = 20_000
"""Cap on the number of (circuit, subset, family, element) tuples scanned
for the strong circuit-exchange check."""

KAPPA_BETWEEN_FREE = 20
"""Maximum number of free elements in the kappa(X, Y) subset scan."""

SEPARATION_SCAN = 16
"""Maximum ground-set size for the separation search."""

LINKING_FREE = 16
"""Maximum number of free elements in the linking partition scan."""

WINDOW_ELEMENTS = 256
"""Largest window an infinite family will materialise."""

ENV_VAR = "MATROID_KAPPA_BUDGET"


def resolve_budget(flag_value: int | None) -> int | None:
    """The budget a command line asks for: the flag, else the environment,
    else None, which leaves every scan its own default."""
    if flag_value is not None:
        return flag_value
    raw = os.environ.get(ENV_VAR)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise DomainError(f"{ENV_VAR} must be an integer, got {raw!r}") from None
