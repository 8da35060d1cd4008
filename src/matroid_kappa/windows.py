"""Windowed presentations of infinite finitary families.

An :class:`InfiniteFamily` describes an infinite matroid whose circuits
are all finite through a nested sequence of finite windows.  Element
names are positional and stable, so a window embeds into every larger
window by the identity on labels, and independence verdicts about a fixed
finite set never change once the set is inside the window.

One fact carries the windowed view.  Window n is a restriction of every
later window, and connectivity never rises when elements are deleted:
lambda_{N\\D}(U - D) <= lambda_N(U), by submodularity of rank.  So the
last window of a range decides for the whole range:

- kappa(X, Y) in a window, the least lambda(U) over X <= U <= E - Y, is a
  lower bound for every later window and for the infinite object, and the
  values never decrease;
- kappa(U) of a certificate's side is largest in the last window, so a
  bound that holds there holds on every earlier window;
- the last window is the largest, so it alone carries the window budget.

So connectivity between two finite sets is only approached from below.
``stabilized_kappa_between`` tracks the lower bounds and certifies an
exact value only when an upper-bound certificate (r(U) for a finite side
U) meets the last window's value: that value <= kappa(X, Y) <= the bound.
Equal values over several windows prove nothing by themselves, and the
last value stays an uncertified lower bound.

Every window is a finite matroid, so its exact kappa(X, Y) is one matroid
intersection (:func:`kappa_between`), and ``windowed_linking`` solves
the whole stabilising window with :func:`linking_partition`.  Not every
window needs one: kappa(X, Y) <= min(r(X), r(Y)), and the ranks of X and
Y are final in the first window that holds them.  So once a window's value
reaches min(r(X), r(Y)), every later window has that value too; it is
recorded without building the window (the rank cap).
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass, field

from . import budgets
from .connectivity import _intersection, kappa
from .constructions import MinorSpec, components, take_minor
from .core import (
    ElementSet,
    GraphicMatroid,
    GroundSet,
    Matroid,
    graphic_matroid,
    iter_submasks_binary,
    uniform_matroid,
)
from .errors import DomainError, InvariantViolation, PreconditionError
from .linking import linking_partition

Template = Callable[["InfiniteFamily", str], tuple[int, Callable[[str], bool]]]
"""A certificate template: from the family and the description, the proven
bound on kappa(U) and the membership test of the split side U."""


class InfiniteFamily:
    """A rule that produces nested finite windows of an infinite matroid.

    ``window(n)`` builds (and memoises) the n-th window.  ``size(n)``, a
    fact about the family, is the number of elements of window n; a window
    over ``budgets.WINDOW_ELEMENTS`` is refused from its stated size,
    before it is built.
    ``exactness_radius(labels)`` gives a window index from which on the
    named elements are all present and their independence verdicts are
    final.  ``embed`` carries a set from one window into a larger one.
    ``templates`` maps a certificate template name ("rung:", say) to the
    :data:`Template` that proves its bound for this family, ``singleton:``
    and ``set:`` included; ``family_id`` is a display name only.
    """

    def __init__(
        self,
        family_id: str,
        build: Callable[[int], Matroid],
        radius: Callable[[Sequence[str]], int],
        size: Callable[[int], int],
        description: str = "",
        templates: Mapping[str, Template] | None = None,
    ):
        self.family_id = family_id
        self._build = build
        self._radius = radius
        self._size = size
        self.description = description
        self.templates = {**(templates or {}), **_FINITE_TEMPLATES}
        self._windows: dict[int, Matroid] = {}

    def __repr__(self) -> str:
        return f"InfiniteFamily({self.family_id})"

    def window(self, n: int) -> Matroid:
        if n < 0:
            raise DomainError("window index must be non-negative")
        got = self._windows.get(n)
        if got is None:
            budgets.check_window(n, self._size(n))
            got = self._windows[n] = self._build(n)
        return got

    def exactness_radius(self, labels: Iterable[str]) -> int:
        return self._radius(tuple(labels))

    def embed(self, s: ElementSet, n: int) -> ElementSet:
        """The same labels inside window ``n``; labels must be present there."""
        return s.in_universe(self.window(n).ground)


def _finite_side(family: InfiniteFamily, description: str, reach: Sequence[str], contains=None):
    """r(U), a bound on kappa(U) for a finite side U, and U's membership test.

    U is ``reach``, or what ``contains`` accepts; it lies in window
    ``exactness_radius(reach)``, where r(U) is final, as windows are
    restrictions of the later ones.  kappa(U) <= r(U): deleting a basis of
    U from B_U + B_(E-U) restores independence.
    """
    contains = contains or frozenset(reach).__contains__
    try:
        window = family.window(family.exactness_radius(reach))
        # the grammar may admit a label that no window holds, such as a0
        window.ground.set_of(reach)
    except DomainError as exc:
        raise DomainError(f"certificate {description!r}: {exc}") from None
    return window.rank(window.ground.set_of(filter(contains, window.ground))), contains


_FINITE_TEMPLATES: dict[str, Template] = {
    # singleton:LABEL, U = {LABEL}
    "singleton:": lambda fam, d: _finite_side(fam, d, [d.partition(":")[2]]),
    # set:l1+l2+..., U = the listed labels
    "set:": lambda fam, d: _finite_side(fam, d, d.partition(":")[2].split("+")),
}


# ---------------------------------------------------------------------------
# concrete families
# ---------------------------------------------------------------------------

_LADDER_LABEL = re.compile(r"^(rung|railT|railB)\[(-?\d+)\]$")
_UNIFORM_LABEL = re.compile(r"^a(\d+)$")


def _template_int(description: str) -> int:
    """The integer after the ':' of a certificate template."""
    try:
        return int(description.split(":", 1)[1])
    except ValueError:
        raise DomainError(
            f"certificate {description!r} needs an integer after ':'"
        ) from None


def double_ladder(include_rungs: bool = True) -> InfiniteFamily:
    """Finite-cycle matroid of the two-way infinite ladder.

    Window n is the stretch of the ladder spanning the squares at
    positions -n .. n: rung columns -n .. n+1 joined by top and bottom
    rail edges.  Window 0 is a single square (one 4-cycle).  With
    ``include_rungs=False`` the rungs are left out and every window is a
    pair of disjoint paths.
    """

    def build(n: int) -> Matroid:
        labels = []
        ends = []
        for i in range(-n, n + 2):
            # column i has top vertex 2(i + n) and bottom vertex 2(i + n) + 1
            top = 2 * (i + n)
            if include_rungs:
                labels.append(f"rung[{i}]")
                ends.append((top, top + 1))
            if i <= n:
                labels += (f"railT[{i}]", f"railB[{i}]")
                ends += ((top, top + 2), (top + 1, top + 3))
        return GraphicMatroid(GroundSet(labels), tuple(ends), 4 * n + 4)

    def radius(labels: Sequence[str]) -> int:
        needed = 0
        for lab in labels:
            m = _LADDER_LABEL.match(lab)
            if not m:
                raise DomainError(f"not a ladder element: {lab!r}")
            kind, pos = m.group(1), int(m.group(2))
            if kind == "rung":
                if not include_rungs:
                    raise DomainError("this family has no rungs")
                needed = max(needed, pos - 1, -pos)
            else:
                needed = max(needed, pos, -pos)
        return needed

    def cut(_: InfiniteFamily, description: str) -> tuple[int, Callable[[str], bool]]:
        """``cut:i``: the rungs at columns <= i and the rails at <= i - 1;
        bound 2, as at most the two rails cross the cut."""
        pos = _template_int(description)

        def contains(lab: str) -> bool:
            m = _LADDER_LABEL.match(lab)
            return bool(m) and int(m.group(2)) <= (pos if m.group(1) == "rung" else pos - 1)

        return 2, contains

    templates: dict[str, Template] = {"cut:": cut}
    if include_rungs:
        # rung:i, U = {rung[i]}
        templates["rung:"] = lambda fam, d: _finite_side(fam, d, [f"rung[{_template_int(d)}]"])
    else:
        # rails-split, U = the top rail: the rails never meet, bound 0
        templates["rails-split"] = lambda _, d: (0, lambda lab: lab.startswith("railT["))

    suffix = "" if include_rungs else " (rungs removed)"
    return InfiniteFamily(
        "double-ladder" if include_rungs else "double-ladder-rungless",
        build,
        radius,
        lambda n: 6 * n + 4 if include_rungs else 4 * n + 2,
        description="two-way infinite ladder, finite-cycle matroid" + suffix,
        templates=templates,
    )


def ladder_rungs(window: Matroid) -> ElementSet:
    """All rung edges present in a ladder window."""
    return window.ground.set_of(
        lab for lab in window.ground if lab.startswith("rung[")
    )


def infinite_uniform(k: int) -> InfiniteFamily:
    """Uniform matroid of rank ``k`` on countably many elements a1, a2, ...

    Window n is the uniform matroid on the first n elements.  Any finite
    query behaves as in the infinite object once the window holds the
    named elements and at least 2k elements in total.
    """

    if k < 0:
        raise DomainError("uniform rank bound must be non-negative")

    def build(n: int) -> Matroid:
        return uniform_matroid([f"a{i}" for i in range(1, n + 1)], k)

    def radius(labels: Sequence[str]) -> int:
        highest = 0
        for lab in labels:
            m = _UNIFORM_LABEL.match(lab)
            if not m:
                raise DomainError(f"not a uniform-family element: {lab!r}")
            highest = max(highest, int(m.group(1)))
        return max(highest, 2 * k)

    def prefix(family: InfiniteFamily, description: str) -> tuple[int, Callable[[str], bool]]:
        """``prefix:m``: U = {a1 .. am}, in the window of am alone, so that
        no list of m labels is built."""
        count = _template_int(description)

        def contains(lab: str) -> bool:
            m = _UNIFORM_LABEL.match(lab)
            return bool(m) and int(m.group(1)) <= count

        return _finite_side(family, description, [f"a{count}"] if count else [], contains)

    return InfiniteFamily(
        f"infinite-uniform({k})",
        build,
        radius,
        lambda n: n,
        description=f"rank-{k} uniform matroid on a countable ground set",
        templates={"prefix:": prefix},
    )


def omega_tree_truncation(branching: int = 2) -> InfiniteFamily:
    """Illustrative only: graphic matroid of a depth-n regular tree.

    The infinite regular tree carries a matroid whose circuits are the
    two-way infinite paths; those circuits are infinite, so that matroid
    is out of this package's windowed scope.  These truncations are
    plain finite trees (no cycles at all, every edge set independent) and
    exist purely to make the boundary of the scope concrete.
    """

    if branching < 1:
        raise DomainError(f"tree branching must be at least 1, got {branching}")

    def size(n: int) -> int:
        # b + b^2 + ... + b^n edges, over 10^100 from depth 400 on when
        # b >= 2; window 0 is the one edge e[0]
        if branching == 1:
            return max(n, 1)
        return max(1, (branching ** (min(n, 400) + 1) - branching) // (branching - 1))

    def build(n: int) -> Matroid:
        edges = []
        frontier = [""]
        for _ in range(n):
            nxt = []
            for path in frontier:
                for c in range(branching):
                    child = f"{path}.{c}" if path else str(c)
                    edges.append((f"e[{child}]", f"v[{path}]", f"v[{child}]"))
                    nxt.append(child)
            frontier = nxt
        if not edges:
            return graphic_matroid([("e[0]", "v[]", "v[0]")])
        return graphic_matroid(edges)

    def radius(labels: Sequence[str]) -> int:
        depth = 1
        for lab in labels:
            m = re.match(r"^e\[([\d.]+)\]$", lab)
            if not m:
                raise DomainError(f"not a tree edge: {lab!r}")
            depth = max(depth, m.group(1).count(".") + 1)
        return depth

    return InfiniteFamily(
        f"omega-tree(depth-truncated, b={branching})",
        build,
        radius,
        size,
        description="bounded-depth tree truncation; illustrative, not the "
        "infinite-path matroid",
    )


def graph_rule_family(
    rule: Callable[[int], Sequence[tuple[str, str, str]]],
    family_id: str = "user-graph-rule",
    radius: Callable[[Sequence[str]], int] | None = None,
    description: str = "user-supplied graph rule",
) -> InfiniteFamily:
    """Family built from a user rule mapping a window index to an edge list.

    The rule must give nested windows: the edges of window n, with the same
    ends, are among those of window n + 1.  The lower bounds, the check that
    they never decrease, the rank cap of :func:`stabilized_kappa_between`
    and the certificate check on the last window all rest on that; a rule
    that breaks it is not re-intersected past the cap, nor its certificates
    checked before the last window, so the break can go unnoticed there.
    The rule is also called to size a window, ``len(rule(n))``: a window
    over the budget is refused from that size, before it is built, so the
    rule must be pure.
    """

    def build(n: int) -> Matroid:
        return graphic_matroid(rule(n))

    def default_radius(labels: Sequence[str]) -> int:
        want = set(labels)
        for n in range(0, 65):
            have = {lab for lab, _, _ in rule(n)}
            if want <= have:
                return n
        raise DomainError("elements never appear within the first 64 windows")

    return InfiniteFamily(
        family_id, build, radius or default_radius, lambda n: len(rule(n)), description
    )


# ---------------------------------------------------------------------------
# stabilisation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StabilizationPolicy:
    """The window range of the windowed lower-bound computation."""

    max_window: int | None = None
    """Last window; unset, up to 8 as far as windows fit the element budget."""
    zone_extra: int = 14
    """Unused: every window is solved whole.  Kept so that existing callers
    that pass it still work."""


@dataclass(frozen=True)
class StabilizationReport:
    """Windowed lower bounds for kappa(X, Y) and, possibly, a certified value.

    ``values`` holds (window index, value) pairs: each value is the
    window's own exact kappa(X, Y), a lower bound for the infinite object,
    and the sequence is always non-decreasing.  The windows after the first
    one whose value reaches min(r(X), r(Y)) take that value without being
    built: no later window can exceed it or fall below it.
    ``settled`` pairs each window with "exact"; the field stays for readers
    of the JSON schema.
    ``stable_at`` is the first window whose value is the last window's,
    always an intersected window.  ``certified_value`` is set only when an
    upper-bound certificate matches the last window's value, in which case
    the infinite value is pinned exactly; without one that value stays an
    uncertified lower bound.
    """

    family_id: str
    x_labels: tuple[str, ...]
    y_labels: tuple[str, ...]
    values: tuple[tuple[int, int], ...]
    settled: tuple[tuple[int, str], ...]
    stable_at: int
    certified_value: int | None
    certificate: str | None

    def __post_init__(self):
        seq = [v for _, v in self.values]
        if any(b < a for a, b in zip(seq, seq[1:])):
            raise InvariantViolation("windowed lower bounds decreased")

    def to_jsonable(self) -> dict:
        return {
            "family": self.family_id,
            "x": sorted(self.x_labels),
            "y": sorted(self.y_labels),
            "values": [list(v) for v in self.values],
            "settled": [list(s) for s in self.settled],
            "stable_at": self.stable_at,
            "certified_value": self.certified_value,
            "certificate": self.certificate,
        }


def _window_range(family: InfiniteFamily, start: int, max_window: int | None) -> range:
    """Windows ``start`` .. ``max_window``; when that is None, up to 8 but
    stopping before the first window whose stated size is over
    ``budgets.WINDOW_ELEMENTS``.  No window is built here."""
    last = 8 if max_window is None else max_window
    if start > last:
        name = "max_window" if max_window is not None else "the default last window"
        hint = "" if max_window is not None else "; max_window (--window) goes further"
        raise DomainError(f"query needs window {start}, beyond {name} {last}{hint}")
    if max_window is None:
        over = (n for n in range(start + 1, last + 1) if family._size(n) > budgets.WINDOW_ELEMENTS)
        last = next(over, last + 1) - 1
    return range(start, last + 1)


def stabilized_kappa_between(
    family: InfiniteFamily,
    x_labels: Sequence[str],
    y_labels: Sequence[str],
    policy: StabilizationPolicy | None = None,
    certificates: Sequence["SeparationCertificate"] = (),
) -> StabilizationReport:
    """Windowed lower bounds for kappa(X, Y) with optional certification.

    The last window of the range decides (module docstring): it is built
    first, so a range whose last window is over the budget is refused
    before any intersection, and each certificate is validated on it
    alone.  Each window's exact value is one :func:`kappa_between`
    intersection, a lower bound for the infinite object.  The values are
    also at most min(r(X), r(Y)), ranks that no later window changes, so
    once a window's intersection reaches that cap the later windows are
    neither built nor intersected: their value is the cap.  ``stable_at``
    is the first window at the last window's value, so it was intersected.
    That value is certified exact when one of the supplied certificates,
    validated in order up to the first that matches, proves it as an upper
    bound for the whole family.
    """
    policy = policy or StabilizationPolicy()
    x_labels = tuple(x_labels)
    y_labels = tuple(y_labels)
    if set(x_labels) & set(y_labels):
        raise PreconditionError("the two sides overlap")
    start = family.exactness_radius(x_labels + y_labels)
    windows = _window_range(family, start, policy.max_window)
    # the largest window: one over the budget refuses the range here
    family.window(windows[-1])

    # the report refuses values that decrease from one window to the next
    values: list[tuple[int, int]] = []
    for n in windows:
        window = family.window(n)
        x, y = window.ground.set_of(x_labels), window.ground.set_of(y_labels)
        record = _intersection(window, x, y)
        values.append((n, record.value))
        if record.value == min(record.base_x.bit_count(), record.base_y.bit_count()):
            break
    # past the rank cap every window has the cap value, and is not built
    values += [(n, values[-1][1]) for n in windows[len(values) :]]

    last = values[-1][1]
    stable_at = next(n for n, v in values if v == last)

    used = None
    for cert in certificates:
        cert.validate(family, windows, x_labels, y_labels)
        if cert.kappa_bound == last:
            used = cert
            break

    return StabilizationReport(
        family_id=family.family_id,
        x_labels=x_labels,
        y_labels=y_labels,
        values=tuple(values),
        settled=tuple((n, "exact") for n, _ in values),
        stable_at=stable_at,
        certified_value=None if used is None else used.kappa_bound,
        certificate=None if used is None else used.description,
    )


# ---------------------------------------------------------------------------
# upper-bound certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeparationCertificate:
    """A symbolic split (U, complement) with a proven connectivity bound.

    ``contains`` tests a label for membership in U, and ``side(window)``
    yields U's portion of a window; ``kappa_bound``, r(U) when U is finite,
    bounds kappa(U) in every window and in the infinite object.
    ``validate`` checks that U separates the query (X inside U, Y outside)
    and the bound on the largest of the given windows, raising on any
    failure; kappa(U) never decreases from one window to the next (module
    docstring), so the bound then holds on every given window.  An empty
    range checks no bound.
    """

    description: str
    kappa_bound: int
    contains: Callable[[str], bool] = field(repr=False)

    def side(self, window: Matroid) -> ElementSet:
        return window.ground.set_of(filter(self.contains, window.ground))

    def validate(
        self,
        family: InfiniteFamily,
        window_indices: Iterable[int],
        x_labels: Sequence[str] = (),
        y_labels: Sequence[str] = (),
    ) -> None:
        if not all(map(self.contains, x_labels)):
            raise DomainError(f"certificate {self.description!r} does not contain X")
        if any(map(self.contains, y_labels)):
            raise DomainError(f"certificate {self.description!r} intersects Y")
        if (n := max(window_indices, default=None)) is not None:
            window = family.window(n)
            value = kappa(window, self.side(window))
            if value > self.kappa_bound:
                raise InvariantViolation(
                    f"certificate {self.description!r} bound {self.kappa_bound} "
                    f"fails on window {n}: kappa {value}"
                )


def certified_separation(
    family: InfiniteFamily, description: str
) -> SeparationCertificate:
    """Build an upper-bound certificate from ``family.templates``.

    The template is named by the description up to its first ':', or by
    all of it (FAMILIES.md).  Raises ``DomainError`` when the family lacks
    it or a finite side names a label that the family lacks, and
    ``CapacityError`` when no window within budget holds a finite side.
    """
    name, colon, _ = description.partition(":")
    template = family.templates.get(name + colon)
    if template is None:
        raise DomainError(
            f"certificate {description!r} is not a template of family "
            f"{family.family_id}"
        )
    return SeparationCertificate(description, *template(family, description))


# ---------------------------------------------------------------------------
# windowed linking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WindowedLinkingResult:
    """A linking partition solved inside a window of an infinite family.

    ``spec`` partitions the free elements of the stabilising window
    ``window_index`` as :func:`linking_partition` does there: it contracts
    the common set of that window's kappa(X, Y) intersection, which
    stabilisation has already run, and deletes the rest.  The
    partition's delete side implicitly extends over the entire unexplored
    remainder of the infinite object: everything outside the window is
    deleted as well (``deletes_outside_window``).  ``trace`` is empty:
    the solver has no stages to record; the field stays for readers of
    the JSON schema.
    """

    window_index: int
    spec: MinorSpec
    achieved: int
    target: int
    deletes_outside_window: bool
    report: StabilizationReport
    trace: tuple[dict, ...]

    def to_jsonable(self) -> dict:
        return {
            "window": self.window_index,
            "spec": self.spec.to_jsonable(),
            "achieved": self.achieved,
            "target": self.target,
            "deletes_outside_window": self.deletes_outside_window,
            "report": self.report.to_jsonable(),
            "trace": list(self.trace),
        }


def windowed_linking(
    family: InfiniteFamily,
    x_labels: Sequence[str],
    y_labels: Sequence[str],
    policy: StabilizationPolicy | None = None,
    certificates: Sequence[SeparationCertificate] = (),
) -> WindowedLinkingResult:
    """Linking partition for a certified query on an infinite family.

    Requires a certified stabilised value; solves the whole stabilising
    window with :func:`linking_partition` and deletes, symbolically,
    everything outside it.  :func:`linking_partition` verifies its own
    target on the window's minor, and that target must equal the certified
    value.
    """
    report = stabilized_kappa_between(family, x_labels, y_labels, policy, certificates)
    if report.certified_value is None:
        raise PreconditionError(
            "no certified value: supply a matching upper-bound certificate"
        )
    target = report.certified_value
    n = report.stable_at
    window = family.window(n)
    solved = linking_partition(
        window, window.ground.set_of(x_labels), window.ground.set_of(y_labels)
    )
    # linking_partition has verified its own target on the window's minor
    if solved.target != target:
        raise InvariantViolation(
            f"window solution achieves {solved.target}, expected {target}"
        )
    return WindowedLinkingResult(
        window_index=n,
        spec=solved.spec,
        achieved=target,
        target=target,
        deletes_outside_window=True,
        report=report,
        trace=(),
    )


# ---------------------------------------------------------------------------
# the rung-partition counterexample
# ---------------------------------------------------------------------------


def rung_partition_counterexample(n: int) -> dict:
    """Check that no contract/delete split of the rungs keeps 2-connectivity.

    In the infinite ladder, processing the full rung set F (contracting a
    part A and deleting the rest B) always destroys 2-connectivity: the
    surviving circuits are the rail bands between consecutive contracted
    rungs, so rails beyond the contracted span become coloops and
    distinct bands never share a circuit.

    A single finite window cannot state this literally, because the full
    rung set keeps growing with the window.  The faithful finite check is
    persistence: a split of window ``n``'s rungs must keep the
    within-window minor 2-connected, and must stay 2-connected in window
    ``n + 1`` for at least one assignment of the two newly appearing
    rungs.  Exactly one split survives its own window (contract the two
    outermost rungs, closing the rails into one big cycle, a truncation
    artifact), and every extension of it dies in the next window.

    Two-connectedness is tested as connectedness (single component),
    which agrees with the absence of order-1 separations; the suite
    verifies that equivalence independently.

    Returns a report dict with the survivors made explicit; callers
    assert on ``all_partitions_fail`` and ``full_deletion_disconnects``.

    This is a bounded demonstration, not a scalable query: it scans all
    2^(2n + 2) contract/delete splits of window ``n``'s rungs, and the 4
    extensions of each survivor into window ``n + 1``, with no budget.
    """
    family = double_ladder()
    inner = family.window(n)
    rung_labels = sorted(ladder_rungs(inner), key=inner.ground.index)
    rungs_inner = inner.ground.set_of(rung_labels)

    survivors: list[MinorSpec] = []
    checked = 0
    for cmask in iter_submasks_binary(rungs_inner.mask):
        checked += 1
        spec = MinorSpec(
            ElementSet(inner.ground, cmask),
            ElementSet(inner.ground, rungs_inner.mask & ~cmask),
        )
        if components(take_minor(inner, spec)).is_connected:
            survivors.append(spec)

    outer = family.window(n + 1)
    new_rungs = sorted(
        set(ladder_rungs(outer)) - set(rung_labels), key=outer.ground.index
    )
    persistent = []
    extensions_checked = 0
    for spec in survivors:
        base_contract = outer.ground.set_of(spec.contract)
        base_delete = outer.ground.set_of(spec.delete)
        extra = outer.ground.set_of(new_rungs)
        for emask in iter_submasks_binary(extra.mask):
            extensions_checked += 1
            grown = MinorSpec(
                base_contract | ElementSet(outer.ground, emask),
                base_delete | ElementSet(outer.ground, extra.mask & ~emask),
            )
            if components(take_minor(outer, grown)).is_connected:
                persistent.append(grown)

    no_rungs = take_minor(
        inner, MinorSpec(inner.ground.empty(), rungs_inner)
    )
    full_deletion_disconnects = not components(no_rungs).is_connected

    return {
        "window": n,
        "rungs": rung_labels,
        "partitions_checked": checked,
        "survivors_in_own_window": [s.to_jsonable() for s in survivors],
        "extensions_checked": extensions_checked,
        "persistent_partitions": [s.to_jsonable() for s in persistent],
        "all_partitions_fail": not persistent,
        "full_deletion_disconnects": full_deletion_disconnects,
    }
