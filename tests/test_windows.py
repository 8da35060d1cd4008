import pathlib
import random
import re

import pytest
from hypothesis import assume, given, settings, strategies as st

from helpers import same_independence
from matroid_kappa import (
    CapacityError,
    DomainError,
    InvariantViolation,
    PreconditionError,
    SeparationCertificate,
    StabilizationPolicy,
    budgets,
    certified_separation,
    components,
    double_ladder,
    graph_rule_family,
    graphic_matroid,
    infinite_uniform,
    kappa,
    kappa_between,
    ladder_rungs,
    omega_tree_truncation,
    restrict,
    rung_partition_counterexample,
    stabilized_kappa_between,
    take_minor,
    MinorSpec,
    uniform_matroid,
    windowed_linking,
    windows,
)


class TestWindows:
    def test_ladder_window_zero_is_one_square(self):
        w = double_ladder().window(0)
        assert len(w.ground) == 4
        circuits = w.circuits()
        assert len(circuits) == 1 and len(circuits[0]) == 4

    def test_ladder_windows_nest_and_agree(self):
        fam = double_ladder()
        small, big = fam.window(1), fam.window(2)
        assert set(small.ground) <= set(big.ground)
        restricted = restrict(big, big.ground.set_of(small.ground))
        for s in _all_subsets(list(small.ground)):
            assert restricted.is_independent(
                restricted.ground.set_of(s)
            ) == small.is_independent(small.ground.set_of(s))

    @pytest.mark.parametrize("rungs", [True, False])
    def test_ladder_windows_number_their_vertices(self, rungs):
        """Window n is built on the 4n + 4 vertex numbers of columns
        -n .. n + 1, each on an edge, and is the graph of its edges."""
        fam = double_ladder(rungs)
        for n in range(2):
            w = fam.window(n)
            assert w._nv == 4 * n + 4
            assert {v for ends in w._ends for v in ends} == set(range(w._nv))
            edges = [(lab, str(u), str(v)) for lab, (u, v) in zip(w.ground, w._ends)]
            assert same_independence(w, graphic_matroid(edges))

    def test_uniform_window_is_uniform(self):
        w = infinite_uniform(2).window(4)
        assert same_independence(w, uniform_matroid(["a1", "a2", "a3", "a4"], 2))

    def test_window_index_validated(self):
        with pytest.raises(DomainError):
            double_ladder().window(-1)

    def test_embedding_carries_sets_upward(self):
        fam = double_ladder()
        small = fam.window(1)
        s = small.ground.set_of(["rung[0]", "railT[1]"])
        lifted = fam.embed(s, 3)
        assert lifted.ground == fam.window(3).ground
        assert sorted(lifted) == sorted(s)
        with pytest.raises(DomainError):
            fam.embed(fam.window(3).ground.set_of(["rung[4]"]), 1)

    def test_exactness_radius_contains_query(self):
        fam = double_ladder()
        n = fam.exactness_radius(["rung[0]", "railT[2]", "rung[-1]"])
        w = fam.window(n)
        for lab in ("rung[0]", "railT[2]", "rung[-1]"):
            assert lab in w.ground

    def test_dependence_witnessed_by_finite_circuit_within_radius(self):
        fam = double_ladder()
        w = fam.window(2)
        square = w.ground.set_of(["rung[0]", "railT[0]", "railB[0]", "rung[1]"])
        radius = fam.exactness_radius(square)
        inside = fam.window(radius)
        circuit = inside.find_circuit_in(square.in_universe(inside.ground))
        assert circuit is not None and len(circuit) <= len(square)

    def test_tree_truncation_is_free(self):
        w = omega_tree_truncation(2).window(2)
        assert w.circuits() == []
        assert "illustrative" in omega_tree_truncation().description

    def test_graph_rule_family(self):
        fam = graph_rule_family(
            lambda n: [(f"c{i}", str(i), str((i + 1) % (n + 3))) for i in range(n + 3)],
            family_id="cycles",
        )
        w = fam.window(0)
        assert len(w.circuits()) == 1
        assert fam.exactness_radius(["c3"]) == 1


def spy_window_builds(monkeypatch) -> list[int]:
    """Record the element count of every window that the families build;
    the ladders build their graphic matroids on vertex numbers directly."""
    sizes = []
    real_uniform, real_graphic = windows.uniform_matroid, windows.graphic_matroid
    real_numbered = windows.GraphicMatroid

    def uniform(labels, k):
        sizes.append(len(labels))
        return real_uniform(labels, k)

    def graphic(edges):
        edges = list(edges)
        sizes.append(len(edges))
        return real_graphic(edges)

    def numbered(ground, ends, nv):
        sizes.append(len(ground))
        return real_numbered(ground, ends, nv)

    monkeypatch.setattr(windows, "uniform_matroid", uniform)
    monkeypatch.setattr(windows, "graphic_matroid", graphic)
    monkeypatch.setattr(windows, "GraphicMatroid", numbered)
    return sizes


BUILT_IN = {
    "uniform": lambda: infinite_uniform(2),
    "ladder": double_ladder,
    "rungless": lambda: double_ladder(include_rungs=False),
    "omega-tree": omega_tree_truncation,
}


def _path_rule(n):
    """A user rule: window n is the path p0 .. p(n-1)."""
    return [(f"p{i}", str(i), str(i + 1)) for i in range(n)]


class TestWindowBudget:
    """Every family states the size of each window, and a window over the
    element budget is refused from that size, before it is built."""

    @pytest.mark.parametrize(
        "family, last",
        [("uniform", 256), ("ladder", 42), ("rungless", 63), ("omega-tree", 7),
         ("path-rule", 256)],
    )
    def test_stated_size_is_the_built_size(self, family, last):
        fam = graph_rule_family(_path_rule) if family == "path-rule" else BUILT_IN[family]()
        for n in range(last + 1):
            assert fam._size(n) == len(fam.window(n).ground), n
        assert fam._size(last + 1) > budgets.WINDOW_ELEMENTS

    @pytest.mark.parametrize("branching", [0, -1])
    def test_tree_branching_below_one_is_refused(self, branching):
        message = f"^tree branching must be at least 1, got {branching}$"
        with pytest.raises(DomainError, match=message):
            omega_tree_truncation(branching)

    def test_negative_uniform_rank_is_refused(self):
        with pytest.raises(DomainError, match="^uniform rank bound must be non-negative$"):
            infinite_uniform(-1)

    @pytest.mark.parametrize(
        "family, n, size",
        [("uniform", 5000, 5000), ("ladder", 5000, 30004), ("rungless", 5000, 20002),
         ("omega-tree", 9, 1022)],
    )
    def test_over_budget_window_is_not_built(self, monkeypatch, family, n, size):
        fam = BUILT_IN[family]()
        sizes = spy_window_builds(monkeypatch)
        message = f"^window {n} holds {size} elements, over the window budget 256$"
        with pytest.raises(CapacityError, match=message):
            fam.window(n)
        assert sizes == []

    @pytest.mark.parametrize(
        "family, n, size",
        [("uniform", 256, 256), ("ladder", 42, 256), ("rungless", 63, 254), ("omega-tree", 7, 254)],
    )
    def test_largest_window_within_budget_is_built_once(self, monkeypatch, family, n, size):
        fam = BUILT_IN[family]()
        sizes = spy_window_builds(monkeypatch)
        assert len(fam.window(n).ground) == size
        assert fam.window(n) is fam.window(n)
        with pytest.raises(CapacityError):
            fam.window(n + 1)
        assert sizes == [size]

    def test_default_window_range_builds_nothing_over_budget(self, monkeypatch):
        sizes = spy_window_builds(monkeypatch)
        report = stabilized_kappa_between(omega_tree_truncation(), ["e[0]"], ["e[1]"])
        assert [n for n, _ in report.values] == [1, 2, 3, 4, 5, 6, 7]
        assert sorted(sizes) == [2, 6, 14, 30, 62, 126, 254]

    def test_astronomical_window_is_refused_without_writing_its_size(self):
        with pytest.raises(CapacityError, match=r"^window 20000 holds more than 10\^100 elements"):
            omega_tree_truncation().window(20000)

    def test_user_rule_is_refused_before_it_is_built(self, monkeypatch):
        fam = graph_rule_family(_path_rule)
        sizes = spy_window_builds(monkeypatch)
        assert len(fam.window(256).ground) == 256
        with pytest.raises(CapacityError, match="^window 257 holds 257 elements"):
            fam.window(257)
        assert sizes == [256]


def _far_rung_rails(n):
    """Ladder rails at positions -n .. n, joined by rungs only from window 6 on."""
    edges = []
    for i in range(-n, n + 2):
        if n >= 6 and abs(i) >= 6:
            edges.append((f"rung[{i}]", f"t{i}", f"b{i}"))
        if i <= n:
            edges.append((f"railT[{i}]", f"t{i}", f"t{i + 1}"))
            edges.append((f"railB[{i}]", f"b{i}", f"b{i + 1}"))
    return edges


def _cut_side(i):
    """``cut:i``: the rungs at columns <= i and the rails at positions <= i - 1."""
    return lambda n: {f"rung[{j}]" for j in range(-n, i + 1)} | {
        f"rail{s}[{j}]" for s in "TB" for j in range(-n, i)
    }


def _all_subsets(labels):
    import itertools

    return itertools.chain.from_iterable(
        itertools.combinations(labels, r) for r in range(len(labels) + 1)
    )


@st.composite
def nested_family_queries(draw):
    """A family with nested windows, a finite side U, X inside U, Y outside
    it, and a window range.  The family is a built-in
    one or a graph rule whose window n is the first k + n edges of a random
    multigraph (drawn from a seed, so that its later edges are as random as
    its first), the sides lying in the first k and the range reaching its
    last edge; ``make`` builds a fresh copy of the family."""
    if draw(st.booleans()):
        rng = random.Random(draw(st.integers(0, 2**32)))
        vertices = rng.randint(3, 5)
        first = rng.randint(2, 4)
        edges = [
            (f"e{i}", str(rng.randrange(vertices)), str(rng.randrange(vertices)))
            for i in range(first + rng.randint(2, 8))
        ]

        def make():
            return graph_rule_family(lambda n: edges[: first + n])

        labels = [lab for lab, _, _ in edges[:first]]
        extra = len(edges) - first
    else:
        make = BUILT_IN[draw(st.sampled_from(sorted(BUILT_IN)))]
        labels = list(make().window(draw(st.integers(1, 3))).ground)
        extra = draw(st.integers(0, 4))
    side = draw(st.lists(st.sampled_from(labels), min_size=1, max_size=4, unique=True))
    outside = [lab for lab in labels if lab not in side]
    assume(outside)
    x = draw(st.lists(st.sampled_from(side), min_size=1, unique=True))
    y = draw(st.lists(st.sampled_from(outside), min_size=1, max_size=4, unique=True))
    return make, side, x, y, extra


class TestStabilization:
    def test_ladder_rung_query_plateaus_at_one(self):
        fam = double_ladder()
        rep = stabilized_kappa_between(
            fam,
            ["rung[0]"],
            ["rung[3]"],
            StabilizationPolicy(max_window=6),
            [certified_separation(fam, "rung:0")],
        )
        values = [v for _, v in rep.values]
        assert values == sorted(values)
        assert values[-1] == 1
        assert rep.stable_at is not None
        assert rep.certified_value == 1 and rep.certificate == "rung:0"

    def test_uniform_singleton_query(self):
        fam = infinite_uniform(2)
        rep = stabilized_kappa_between(
            fam,
            ["a1"],
            ["a2"],
            StabilizationPolicy(max_window=7),
            [certified_separation(fam, "prefix:1")],
        )
        assert [v for _, v in rep.values] == [1, 1, 1, 1]
        assert rep.certified_value == 1

    def test_rungless_split_stays_at_zero(self):
        fam = double_ladder(include_rungs=False)
        rep = stabilized_kappa_between(
            fam,
            ["railT[0]"],
            ["railB[0]"],
            StabilizationPolicy(max_window=5),
            [certified_separation(fam, "rails-split")],
        )
        assert all(v == 0 for _, v in rep.values)
        assert rep.certified_value == 0

    def test_plateau_without_certificate_stays_uncertified(self):
        fam = double_ladder()
        rep = stabilized_kappa_between(
            fam, ["rung[0]"], ["rung[2]"], StabilizationPolicy(max_window=6)
        )
        assert rep.stable_at is not None
        assert rep.certified_value is None

    @pytest.mark.parametrize("max_window", [4, 6])
    def test_last_value_certifies_past_an_early_lower_run(self, max_window):
        """Windows 0-3 give 0 and window 4 closes the cycle a-b-z1-z2-c-d-a:
        the bound r({e0}) = 1 meets the last value, whatever came before."""
        edges = [("e0", "a", "b"), ("e1", "c", "d"), ("e2", "b", "z1"),
                 ("e3", "z1", "z2"), ("e4", "z2", "c"), ("e5", "d", "a")]
        fam = graph_rule_family(lambda n: edges[: 2 + n])
        policy = StabilizationPolicy(max_window=max_window)
        certs = [certified_separation(fam, "set:e0")]
        rep = stabilized_kappa_between(fam, ["e0"], ["e1"], policy, certs)
        assert [v for _, v in rep.values] == [0, 0, 0, 0] + [1] * (max_window - 3)
        assert (rep.stable_at, rep.certified_value) == (4, 1)
        result = windowed_linking(fam, ["e0"], ["e1"], policy, certs)
        assert result.window_index == 4 and result.achieved == 1
        assert list(result.spec.contract) == ["e2", "e3", "e4", "e5"]

    def test_growth_matches_exact_scan_on_small_windows(self):
        fam = double_ladder()
        queries = [
            (["rung[0]"], ["rung[1]"]),
            (["rung[0]"], ["rung[2]"]),
            (["railT[0]"], ["railB[1]"]),
            (["railT[0]", "railB[1]"], ["railT[1]", "railB[0]"]),
            (["rung[0]", "railT[1]"], ["rung[2]"]),
        ]
        for x_labels, y_labels in queries:
            start = fam.exactness_radius(x_labels + y_labels)
            for n in range(start, start + 3):
                w = fam.window(n)
                if len(w.ground) > 16:
                    break
                exact = kappa_between(
                    w,
                    w.ground.set_of(x_labels),
                    w.ground.set_of(y_labels),
                )
                rep = stabilized_kappa_between(
                    fam,
                    x_labels,
                    y_labels,
                    StabilizationPolicy(max_window=n),
                )
                assert dict(rep.values)[n] == exact, (x_labels, y_labels, n)

    def test_growth_engine_on_random_graphs(self):
        # a constant rule makes every window the same matroid, so the
        # engine's value must match kappa_between on the window, and every
        # window is settled exactly
        import random

        rng = random.Random(271)
        for trial in range(25):
            nv = rng.randint(3, 5)
            ne = rng.randint(4, 9)
            edges = [
                (f"e{i}", str(rng.randrange(nv)), str(rng.randrange(nv)))
                for i in range(ne)
            ]
            fam = graph_rule_family(lambda n, e=edges: e, family_id=f"rand{trial}")
            w = fam.window(0)
            labels = list(w.ground)
            picks = rng.sample(labels, min(4, len(labels)))
            x_labels, y_labels = picks[:2], picks[2:]
            if not y_labels:
                continue
            exact = kappa_between(
                w,
                w.ground.set_of(x_labels),
                w.ground.set_of(y_labels),
            )
            rep = stabilized_kappa_between(
                fam,
                x_labels,
                y_labels,
                StabilizationPolicy(max_window=1),
            )
            value = dict(rep.values)[0]
            how = dict(rep.settled)[0]
            assert how == "exact", (trial, edges, picks)
            assert value == exact, (trial, edges, picks)

    def test_every_window_exact_up_to_window_twenty(self):
        fam = double_ladder()
        x_labels = ["railT[0]", "railB[1]"]
        y_labels = ["railT[1]", "railB[0]"]
        policy = StabilizationPolicy(max_window=20)
        certs = [certified_separation(fam, "set:railT[0]+railB[1]")]
        rep = stabilized_kappa_between(fam, x_labels, y_labels, policy, certs)
        assert [n for n, _ in rep.values] == list(range(1, 21))
        assert len(fam.window(20).ground) == 124
        for n, value in rep.values:
            w = fam.window(n)
            x, y = w.ground.set_of(x_labels), w.ground.set_of(y_labels)
            exact = kappa_between(w, x, y)
            assert value == exact == 2, n
        assert all(how == "exact" for _, how in rep.settled)
        res = windowed_linking(fam, x_labels, y_labels, policy, certs)
        w = fam.window(res.window_index)
        spec = MinorSpec(
            w.ground.set_of(res.spec.contract), w.ground.set_of(res.spec.delete)
        )
        free = w.ground.set_of(x_labels + y_labels).complement()
        assert spec.contract | spec.delete == free
        minor = take_minor(w, spec)
        assert kappa(minor, minor.ground.set_of(x_labels)) == res.achieved == 2

    def test_interleaved_rails_reach_level_two(self):
        # the sides wrap around each other, so no single stretch of the
        # ladder separates them; the bound-2 set certificate is tight
        fam = double_ladder()
        rep = stabilized_kappa_between(
            fam,
            ["railT[0]", "railB[1]"],
            ["railT[1]", "railB[0]"],
            StabilizationPolicy(max_window=5),
            [certified_separation(fam, "set:railT[0]+railB[1]")],
        )
        assert [v for _, v in rep.values][-1] == 2
        assert rep.certified_value == 2

    def test_query_at_the_cap_builds_its_first_and_last_window(self, monkeypatch):
        """rung[0] to rung[2] reaches the rank cap 1 in window 1, so of
        windows 1-42 only window 1 is intersected, window 42 is built for
        the budget, and the certificate evaluates kappa(U) there alone."""
        fam = double_ladder()
        cert = certified_separation(fam, "rung:0")
        sizes = spy_window_builds(monkeypatch)
        evaluated = []
        real_kappa = windows.kappa

        def counted_kappa(m, u):
            evaluated.append(len(m.ground))
            return real_kappa(m, u)

        monkeypatch.setattr(windows, "kappa", counted_kappa)
        policy = StabilizationPolicy(max_window=42)
        rep = stabilized_kappa_between(fam, ["rung[0]"], ["rung[2]"], policy, [cert])
        assert sizes == [256, 10]
        assert evaluated == [256]
        assert rep.values == tuple((n, 1) for n in range(1, 43))
        assert rep.stable_at == 1 and rep.certified_value == 1

    def test_range_over_the_budget_is_refused_before_any_intersection(self, monkeypatch):
        calls = []
        real_intersection = windows._intersection

        def counted_intersection(m, x, y):
            calls.append(m)
            return real_intersection(m, x, y)

        monkeypatch.setattr(windows, "_intersection", counted_intersection)
        sizes = spy_window_builds(monkeypatch)
        message = "^window 300 holds 1804 elements, over the window budget 256$"
        with pytest.raises(CapacityError, match=message):
            stabilized_kappa_between(
                double_ladder(), ["rung[0]"], ["rung[3]"], StabilizationPolicy(max_window=300)
            )
        assert calls == [] and sizes == []

    def test_default_range_builds_its_last_window_and_those_it_intersects(self, monkeypatch):
        """rung[0] to rung[3] reaches the rank cap 1 in window 2, so of the
        default windows 2-8 only window 8 (52 elements, for the budget) and
        window 2 (16 elements) are built; the budget edge is read off the
        stated sizes."""
        fam = double_ladder()
        cert = certified_separation(fam, "rung:0")
        sizes = spy_window_builds(monkeypatch)
        rep = stabilized_kappa_between(fam, ["rung[0]"], ["rung[3]"], certificates=[cert])
        assert sizes == [52, 16]
        assert sorted(fam._windows) == [0, 2, 8]
        assert rep.values == tuple((n, 1) for n in range(2, 9))
        assert rep.stable_at == 2 and rep.certified_value == 1

    def test_default_range_below_the_cap_builds_every_window(self, monkeypatch):
        """railT[0] to railB[2] on the rungless ladder stays at 0, below its
        cap of 1, so every default window 2-8 is built and intersected."""
        fam = double_ladder(include_rungs=False)
        sizes = spy_window_builds(monkeypatch)
        rep = stabilized_kappa_between(fam, ["railT[0]"], ["railB[2]"])
        assert sorted(sizes) == [10, 14, 18, 22, 26, 30, 34]
        assert rep.values == tuple((n, 0) for n in range(2, 9))
        assert rep.stable_at == 2 and rep.certified_value is None

    def test_query_beyond_max_window_rejected(self):
        fam = double_ladder()
        with pytest.raises(DomainError):
            stabilized_kappa_between(
                fam, ["rung[0]"], ["rung[7]"], StabilizationPolicy(max_window=4)
            )

    def test_default_window_range_names_its_default(self):
        with pytest.raises(DomainError) as caught:
            stabilized_kappa_between(double_ladder(), ["rung[0]"], ["rung[19]"])
        assert str(caught.value) == (
            "query needs window 18, beyond the default last window 8; "
            "max_window (--window) goes further"
        )

    def test_explicit_window_range_names_max_window(self):
        with pytest.raises(DomainError) as caught:
            stabilized_kappa_between(
                double_ladder(), ["rung[0]"], ["rung[19]"], StabilizationPolicy(max_window=8)
            )
        assert str(caught.value) == "query needs window 18, beyond max_window 8"

    def test_overlapping_query_rejected(self):
        with pytest.raises(PreconditionError):
            stabilized_kappa_between(double_ladder(), ["rung[0]"], ["rung[0]"])

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(query=nested_family_queries())
    def test_rank_cap_keeps_every_window_exact(self, query):
        """The windows past the rank cap take their value without an
        intersection; each value is still its window's kappa(X, Y), and
        ``stable_at`` and the certified value are those of intersecting every
        window."""
        make, side, x_labels, y_labels, extra = query
        fam = make()
        start = fam.exactness_radius(x_labels + y_labels)
        policy = StabilizationPolicy(max_window=start + extra)
        cert = certified_separation(fam, "set:" + "+".join(side))
        rep = stabilized_kappa_between(fam, x_labels, y_labels, policy, [cert])

        exact = []
        for n in range(start, start + extra + 1):
            w = make().window(n)
            x, y = w.ground.set_of(x_labels), w.ground.set_of(y_labels)
            exact.append((n, kappa_between(w, x, y)))
        last = exact[-1][1]
        stable_at = next(n for n, v in exact if v == last)
        assert rep.values == tuple(exact)
        assert rep.stable_at == stable_at
        assert rep.certified_value == (last if cert.kappa_bound == last else None)
        if rep.certified_value is not None:
            result = windowed_linking(fam, x_labels, y_labels, policy, [cert])
            assert result.window_index == stable_at
            assert result.achieved == last


@st.composite
def constant_graph_queries(draw):
    """One random multigraph, loops and parallel edges included, as every
    window of a graph rule, with a finite side U, X inside U and Y outside."""
    vertices = draw(st.integers(1, 5))
    ends = st.tuples(st.integers(0, vertices - 1), st.integers(0, vertices - 1))
    pairs = draw(st.lists(ends, min_size=1, max_size=9))
    edges = [(f"e{i}", str(u), str(v)) for i, (u, v) in enumerate(pairs)]
    labels = [lab for lab, _, _ in edges]
    side = draw(st.lists(st.sampled_from(labels), min_size=1, unique=True))
    outside = [lab for lab in labels if lab not in side]
    x = draw(st.lists(st.sampled_from(side), unique=True))
    y = draw(st.lists(st.sampled_from(outside), unique=True)) if outside else []
    return edges, side, x, y


@st.composite
def certificate_ranges(draw):
    """A family with nested windows, one of its certificates and a window
    range.  The certificate is any template of the family: a built-in one
    with an integer from 0 to 4 where it takes one, or a finite side."""
    make, side, _, _, extra = draw(nested_family_queries())
    name = draw(st.sampled_from(sorted(make().templates)))
    if name == "set:":
        description = "set:" + "+".join(side)
    elif name == "singleton:":
        description = "singleton:" + side[0]
    elif name.endswith(":"):
        description = f"{name}{draw(st.integers(0, 4))}"
    else:
        description = name
    start = draw(st.integers(0, 3))
    return make, description, range(start, start + extra + 1)


class TestCertificates:
    def test_bounds_hold_on_windows(self):
        fam = double_ladder()
        for desc in ("rung:0", "cut:0", "singleton:railT[1]"):
            cert = certified_separation(fam, desc)
            cert.validate(fam, range(0, 5))

    def test_cut_value_within_bound(self):
        fam = double_ladder()
        cert = certified_separation(fam, "cut:0")
        for n in range(1, 5):
            w = fam.window(n)
            assert kappa(w, cert.side(w)) <= 2

    def test_misapplied_template_rejected(self):
        with pytest.raises(DomainError, match=r"'rung:0'.*infinite-uniform\(2\)"):
            certified_separation(infinite_uniform(2), "rung:0")
        with pytest.raises(DomainError, match="'rails-split'.*double-ladder"):
            certified_separation(double_ladder(), "rails-split")
        with pytest.raises(DomainError, match="'no-such-template'"):
            certified_separation(double_ladder(), "no-such-template")

    @pytest.mark.parametrize(
        "fid, templates",
        [
            ("double-ladder", ["rung:0", "cut:0"]),
            ("double-ladder-rungless", ["cut:0", "rails-split"]),
            ("infinite-uniform(2)", ["prefix:1"]),
        ],
    )
    def test_user_family_cannot_borrow_a_built_in_id(self, fid, templates):
        fam = graph_rule_family(
            _far_rung_rails, family_id=fid, radius=lambda labels: 0
        )
        for desc in templates:
            with pytest.raises(DomainError):
                certified_separation(fam, desc)
        # the generic templates stay available to every family
        assert certified_separation(fam, "singleton:railT[0]").kappa_bound == 1

    def test_far_rung_rails_are_not_certified_by_rails_split(self):
        """Windows 0-5 are two disjoint paths and window 6 joins them, so a
        plateau at 0 up to window 4 is no proof; only the real rungless
        ladder carries the rails-split bound."""
        fam = graph_rule_family(_far_rung_rails, family_id="double-ladder-rungless")
        rep = stabilized_kappa_between(
            fam, ["railT[0]"], ["railB[0]"], StabilizationPolicy(max_window=4)
        )
        assert [v for _, v in rep.values] == [0, 0, 0, 0, 0]
        w = fam.window(6)
        x, y = w.ground.set_of(["railT[0]"]), w.ground.set_of(["railB[0]"])
        assert kappa_between(w, x, y) == 1
        with pytest.raises(DomainError):
            certified_separation(fam, "rails-split")

    @pytest.mark.parametrize(
        "family, desc, expected",
        [
            (double_ladder, "rung:0", lambda n: {"rung[0]"}),
            (double_ladder, "rung:-3", lambda n: {"rung[-3]"}),
            (double_ladder, "rung:5", lambda n: {"rung[5]"}),
            *[
                (maker, f"cut:{i}", _cut_side(i))
                for maker in (double_ladder, lambda: double_ladder(False))
                for i in (-6, -1, 0, 2, 6)
            ],
            (lambda: double_ladder(False), "rails-split",
             lambda n: {f"railT[{j}]" for j in range(-n, n + 1)}),
            (lambda: infinite_uniform(2), "prefix:0", lambda n: set()),
            (lambda: infinite_uniform(2), "prefix:3",
             lambda n: {f"a{j}" for j in range(1, 4)}),
            (lambda: infinite_uniform(1), "prefix:9",
             lambda n: {f"a{j}" for j in range(1, 10)}),
            (double_ladder, "singleton:railB[-1]", lambda n: {"railB[-1]"}),
            (omega_tree_truncation, "set:e[0]+e[1.0]", lambda n: {"e[0]", "e[1.0]"}),
        ],
    )
    def test_side_matches_the_documented_split(self, family, desc, expected):
        """Each template's U, window by window, as FAMILIES.md defines it."""
        fam = family()
        cert = certified_separation(fam, desc)
        for n in range(5):
            w = fam.window(n)
            assert set(cert.side(w)) == expected(n) & set(w.ground), (desc, n)

    @pytest.mark.parametrize(
        "family, desc, message",
        [
            (lambda: infinite_uniform(2), "set:a2+a4+zap", "not a uniform-family element: 'zap'"),
            (omega_tree_truncation, "singleton:", "not a tree edge: ''"),
            (lambda: infinite_uniform(2), "set:a01", "unknown element label 'a01'"),
            (lambda: double_ladder(False), "singleton:rung[0]", "this family has no rungs"),
            (lambda: infinite_uniform(2), "prefix:-1", "not a uniform-family element: 'a-1'"),
        ],
        ids=["set-zap", "empty-singleton", "set-a01", "rungless-rung", "negative-prefix"],
    )
    def test_side_the_family_lacks_is_refused(self, family, desc, message):
        """A finite side goes through the family's label grammar, then the
        window that grammar names."""
        with pytest.raises(DomainError, match=re.escape(f"certificate {desc!r}")) as err:
            certified_separation(family(), desc)
        assert message in str(err.value)

    @pytest.mark.parametrize(
        "family, desc, n, bound",
        [
            (double_ladder, "rung:0", 3, 1),
            (double_ladder, "rung:-7", 7, 1),
            (double_ladder, "singleton:railT[1]", 2, 1),
            (double_ladder, "set:railT[0]+railB[1]", 2, 2),
            # one square of the ladder: a 4-circuit, rank 3
            (double_ladder, "set:rung[0]+railT[0]+railB[0]+rung[1]", 1, 3),
            (lambda: infinite_uniform(2), "set:a1+a2+a3", 5, 2),
            (lambda: infinite_uniform(2), "prefix:0", 4, 0),
            (lambda: infinite_uniform(2), "prefix:1", 4, 1),
            (lambda: infinite_uniform(2), "prefix:200", 201, 2),
            (lambda: infinite_uniform(0), "singleton:a1", 3, 0),
            (omega_tree_truncation, "set:e[0]+e[1.0]", 3, 2),
        ],
    )
    def test_finite_side_is_bounded_by_its_rank(self, family, desc, n, bound):
        """The bound is r(U), the same in every window that holds U."""
        fam = family()
        cert = certified_separation(fam, desc)
        assert cert.kappa_bound == bound
        for w in (fam.window(n), fam.window(n + 1)):
            u = cert.side(w)
            assert w.rank(u) == bound >= kappa(w, u)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(query=constant_graph_queries())
    def test_rank_bounds_on_constant_windows(self, query):
        """With every window the same matroid, the infinite values are the
        window's: the set bound is r(U) >= kappa(U), and a certified value
        is the exact kappa(X, Y), certified just when r(U) reaches it."""
        edges, side, x_labels, y_labels = query
        fam = graph_rule_family(lambda n: edges)
        w = fam.window(0)
        u = w.ground.set_of(side)
        cert = certified_separation(fam, "set:" + "+".join(side))
        assert cert.kappa_bound == w.rank(u) >= kappa(w, u)
        rep = stabilized_kappa_between(
            fam, x_labels, y_labels, StabilizationPolicy(max_window=2), [cert]
        )
        exact = kappa_between(w, w.ground.set_of(x_labels), w.ground.set_of(y_labels))
        assert rep.values == ((0, exact), (1, exact), (2, exact))
        assert rep.certified_value == (exact if cert.kappa_bound == exact else None)

    @pytest.mark.parametrize(
        "family, desc, bound",
        [(double_ladder, "cut:0", 2), (lambda: double_ladder(False), "cut:3", 2),
         (lambda: double_ladder(False), "rails-split", 0)],
    )
    def test_infinite_side_keeps_the_family_proof(self, family, desc, bound):
        assert certified_separation(family(), desc).kappa_bound == bound

    @pytest.mark.parametrize(
        "family, desc, message",
        [
            (lambda: infinite_uniform(2), "prefix:100000000",
             "window 100000000 holds 100000000 elements"),
            (double_ladder, "rung:300", "window 299 holds 1798 elements"),
            (double_ladder, "set:rung[0]+railT[-50]", "window 50 holds 304 elements"),
        ],
    )
    def test_side_beyond_the_window_budget_is_not_built(self, monkeypatch, family, desc, message):
        fam = family()
        sizes = spy_window_builds(monkeypatch)
        with pytest.raises(CapacityError, match=f"^{message}, over the window budget 256$"):
            certified_separation(fam, desc)
        assert sizes == []

    def test_wrong_side_caught_during_validation(self):
        fam = double_ladder()
        cert = certified_separation(fam, "rung:1")
        with pytest.raises(DomainError, match="does not contain X"):
            cert.validate(fam, range(2, 4), x_labels=["rung[0]"], y_labels=[])
        with pytest.raises(DomainError, match="intersects Y"):
            cert.validate(fam, range(2, 4), x_labels=[], y_labels=["rung[1]"])

    def test_broken_bound_caught(self):
        fam = infinite_uniform(3)
        cert = certified_separation(fam, "set:a1+a2")  # bound r = 2, true value 2
        cert.validate(fam, range(6, 8))
        bad = certified_separation(fam, "prefix:4")  # bound r = 3, ok
        bad.validate(fam, range(8, 9))
        # kappa({rung[0]}) is 1 in every ladder window, over the bound 0
        low = SeparationCertificate("low", 0, {"rung[0]"}.__contains__)
        message = "^certificate 'low' bound 0 fails on window 3: kappa 1$"
        with pytest.raises(InvariantViolation, match=message):
            low.validate(double_ladder(), range(1, 4))
        low.validate(double_ladder(), range(1, 1))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(query=certificate_ranges(), low=st.integers(0, 3))
    def test_side_kappa_never_decreases_so_the_last_window_decides(self, query, low):
        """kappa(U) of a certificate's side never decreases from one window
        to the next, so its largest value over a range is the last window's,
        and ``validate`` refuses a bound there exactly when some window of
        the range breaks it."""
        make, description, indices = query
        fam = make()
        cert = certified_separation(fam, description)
        values = [kappa(w, cert.side(w)) for w in map(fam.window, indices)]
        assert values == sorted(values)
        assert values[-1] <= cert.kappa_bound
        probe = SeparationCertificate("probe", low, cert.contains)
        if any(value > low for value in values):
            message = f"fails on window {indices[-1]}: kappa {values[-1]}$"
            with pytest.raises(InvariantViolation, match=message):
                probe.validate(fam, indices)
        else:
            probe.validate(fam, indices)


class TestWindowedLinking:
    def test_uniform_pairs(self):
        fam = infinite_uniform(2)
        res = windowed_linking(
            fam,
            ["a1", "a2"],
            ["a3", "a4"],
            StabilizationPolicy(max_window=7),
            [certified_separation(fam, "prefix:2")],
        )
        assert res.achieved == res.target == 2
        assert res.deletes_outside_window

    def test_ladder_rung_to_rung(self):
        fam = double_ladder()
        res = windowed_linking(
            fam,
            ["rung[0]"],
            ["rung[3]"],
            StabilizationPolicy(max_window=6),
            [certified_separation(fam, "rung:0")],
        )
        assert res.achieved == 1
        w = fam.window(res.window_index)
        minor = take_minor(w, MinorSpec(
            w.ground.set_of(res.spec.contract), w.ground.set_of(res.spec.delete)
        ))
        assert kappa(minor, minor.ground.set_of(["rung[0]"])) == 1

    def test_interleaved_level_two_query(self):
        fam = double_ladder()
        res = windowed_linking(
            fam,
            ["railT[0]", "railB[1]"],
            ["railT[1]", "railB[0]"],
            StabilizationPolicy(max_window=5),
            [certified_separation(fam, "set:railT[0]+railB[1]")],
        )
        assert res.achieved == 2
        w = fam.window(res.window_index)
        minor = take_minor(w, MinorSpec(
            w.ground.set_of(res.spec.contract), w.ground.set_of(res.spec.delete)
        ))
        assert kappa(minor, minor.ground.set_of(["railT[0]", "railB[1]"])) == 2

    def test_rungless_split_trivial_partition(self):
        fam = double_ladder(include_rungs=False)
        res = windowed_linking(
            fam,
            ["railT[0]"],
            ["railB[0]"],
            StabilizationPolicy(max_window=5),
            [certified_separation(fam, "rails-split")],
        )
        assert res.achieved == 0
        assert res.spec.contract.is_empty

    def test_uncertified_query_rejected(self):
        fam = double_ladder()
        with pytest.raises(PreconditionError):
            windowed_linking(
                fam, ["rung[0]"], ["rung[2]"], StabilizationPolicy(max_window=6)
            )


class TestRungPartitions:
    def test_no_partition_persists_window_two(self):
        rep = rung_partition_counterexample(2)
        assert rep["all_partitions_fail"]
        assert rep["full_deletion_disconnects"]
        assert rep["partitions_checked"] == 2 ** len(rep["rungs"])

    def test_boundary_artifact_is_the_only_survivor(self):
        rep = rung_partition_counterexample(2)
        assert len(rep["survivors_in_own_window"]) == 1
        survivor = rep["survivors_in_own_window"][0]
        assert survivor["contract"] == ["rung[-2]", "rung[3]"]
        assert rep["persistent_partitions"] == []

    def test_deleting_all_rungs_leaves_only_coloops(self):
        fam = double_ladder()
        w = fam.window(2)
        rails_only = take_minor(
            w, MinorSpec(w.ground.empty(), ladder_rungs(w))
        )
        parts = components(rails_only)
        assert all(len(b) == 1 for b in parts.blocks)


FAMILIES_DOC = pathlib.Path(__file__).parent.parent / "FAMILIES.md"


def test_families_doc_lists_each_family_templates():
    """The template table of FAMILIES.md names, for each built-in family,
    exactly the keys of its ``templates``, the generic ones included."""
    table = FAMILIES_DOC.read_text().split("## Certificate templates")[1]
    listed = {}
    for row in re.findall(r"^\| `([^`]*)` *\|([^|]*)\|", table, flags=re.M):
        key = re.match(r"[^:]*:?", row[0]).group()
        listed[key] = row[1].strip()
    documented = {
        "double-ladder": double_ladder(),
        "double-ladder-rungless": double_ladder(include_rungs=False),
        "infinite-uniform(K)": infinite_uniform(2),
        "omega-tree": omega_tree_truncation(),
    }
    for families in listed.values():
        named = set(re.findall(r"`([^`]*)`", families))
        assert families == "every family" or named <= set(documented), families
    for name, fam in documented.items():
        keys = {
            key for key, families in listed.items()
            if families == "every family" or f"`{name}`" in families
        }
        assert keys == set(fam.templates), name
