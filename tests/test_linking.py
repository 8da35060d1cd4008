import itertools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

import helpers
from matroid_kappa import (
    MinorSpec,
    PreconditionError,
    StabilizationPolicy,
    breaking_circuits,
    certified_separation,
    components,
    connectivity,
    constructive_linking,
    contract,
    direct_sum,
    double_ladder,
    dual,
    extends_to_separation,
    gf2_matroid,
    graphic_matroid,
    infinite_kappa_chain,
    kappa,
    kappa_between,
    linking,
    linking_partition,
    restrict,
    take_minor,
    uniform_matroid,
    windowed_linking,
)


def u24():
    return uniform_matroid("abcd", 2)


def minor_value(m, spec, x, y):
    minor = take_minor(m, spec)
    return kappa_between(
        minor, x.in_universe(minor.ground), y.in_universe(minor.ground)
    )


class TestLinkingPartition:
    def test_nothing_free_is_trivial(self):
        m = u24()
        x = m.ground.set_of("ab")
        y = m.ground.set_of("cd")
        res = linking_partition(m, x, y)
        assert res.spec.contract.is_empty and res.spec.delete.is_empty
        assert res.achieved == res.target == 2

    def test_k4_disjoint_singletons(self):
        m = graphic_matroid(helpers.k4_edges())
        x = m.ground.set_of(["e1"])
        y = m.ground.set_of(["e6"])
        res = linking_partition(m, x, y)
        assert res.target == 1
        assert minor_value(m, res.spec, x, y) == 1

    def test_blocks_give_level_zero_and_canonical_first(self):
        m = helpers.two_triangles()
        x = m.ground.set_of(["a1"])
        y = m.ground.set_of(["b1"])
        res = linking_partition(m, x, y)
        assert res.achieved == res.target == 0
        # the intersection visits the free elements in canonical order, so
        # its common set takes the first of each triangle's free pair; the
        # all-delete partition, the scan's first answer, keeps value 0 too
        assert res.spec.contract.mask == connectivity._intersection(m, x, y).common
        assert sorted(res.spec.contract) == ["a2", "b2"]
        assert sorted(res.spec.delete) == ["a3", "b3"]
        assert helpers.brute_linking_partition(m, x, y).contract.is_empty
        assert minor_value(m, res.spec, x, y) == 0

    def test_achieves_target_on_sampled_corpus(self, small_corpus):
        rng = random.Random(61)
        for name, m in small_corpus[:20]:
            labels = list(m.ground)
            if len(labels) < 3:
                continue
            for _ in range(3):
                picks = rng.sample(labels, 3)
                x = m.ground.set_of(picks[:1])
                y = m.ground.set_of(picks[1:])
                res = linking_partition(m, x, y)
                assert res.achieved == res.target == kappa_between(m, x, y), name
                assert minor_value(m, res.spec, x, y) == res.target, name

    def test_spec_partitions_the_free_elements(self, small_corpus):
        for name, m in small_corpus[:10]:
            labels = list(m.ground)
            if len(labels) < 2:
                continue
            x = m.ground.set_of(labels[:1])
            y = m.ground.set_of(labels[1:2])
            res = linking_partition(m, x, y)
            union = res.spec.contract | res.spec.delete
            assert union == (x | y).complement(), name


class TestRecordPartition:
    """The partition contracts the common set of the kappa(X, Y) record,
    and that minor keeps kappa(X, Y), by the naive oracles."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(m=helpers.derived_matroids(), data=st.data())
    def test_contracts_the_common_set_and_keeps_kappa(self, m, data):
        if data.draw(st.booleans()):
            m = helpers.generic(m)
        labels = list(m.ground)
        assume(len(labels) >= 2)
        picks = data.draw(st.permutations(labels))
        size_x = data.draw(st.integers(1, len(labels) - 1))
        size_y = data.draw(st.integers(1, len(labels) - size_x))
        x = m.ground.set_of(picks[:size_x])
        y = m.ground.set_of(picks[size_x : size_x + size_y])
        res = linking_partition(m, x, y)
        common = connectivity._intersection(m, x, y).common
        free = m.ground.full_mask & ~x.mask & ~y.mask
        assert res.spec.contract.mask == common
        assert res.spec.delete.mask == free & ~common
        indep = helpers.oracle_of(m)
        spanning = (x | y | res.spec.contract).labels()
        assert helpers.brute_rank(indep, spanning) == helpers.brute_rank(indep, labels)
        target = helpers.brute_kappa_between(indep, labels, list(x), list(y))
        minor = take_minor(m, res.spec)
        got = helpers.brute_kappa(helpers.oracle_of(minor), list(minor.ground), list(x))
        assert got == res.achieved == res.target == target


class TestGreedyLinkingSolver:
    """The record's partition against the exhaustive scan in binary
    counting order: both keep kappa(X, Y), and the record contracts a
    common independent set of M/X and M/Y of the size the value fixes."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(m=helpers.representations(max_n=14), data=st.data())
    def test_matches_scan(self, m, data):
        labels = list(m.ground)
        size_x = data.draw(st.integers(1, 3))
        size_y = data.draw(st.integers(1, 3))
        assume(size_x + size_y <= len(labels))
        picks = data.draw(st.permutations(labels))
        x = m.ground.set_of(picks[:size_x])
        y = m.ground.set_of(picks[size_x : size_x + size_y])
        res = linking_partition(m, x, y)
        assert res.achieved == res.target == kappa_between(m, x, y)
        scan = helpers.brute_linking_partition(m, x, y)
        assert minor_value(m, scan, x, y) == minor_value(m, res.spec, x, y)
        common = res.spec.contract
        size = len(list(common))
        assert m.rank(x | common) == m.rank(x) + size
        assert m.rank(y | common) == m.rank(y) + size
        assert size == res.target + m.full_rank - m.rank(x) - m.rank(y)

    def test_forced_contraction(self):
        # deleting both free elements of U(2, 4) leaves {a, b} free, so
        # one must be contracted: the record's common set is {c}, which
        # is also the scan's first answer
        m = u24()
        x = m.ground.set_of("a")
        y = m.ground.set_of("b")
        res = linking_partition(m, x, y)
        assert res.spec == helpers.brute_linking_partition(m, x, y)
        assert sorted(res.spec.contract) == ["c"]
        assert sorted(res.spec.delete) == ["d"]
        assert res.achieved == 1

    def test_deletion_after_an_augmenting_path(self):
        # K4 with e6 parallel to e1: e5 lies in the largest common
        # independent set; the scan's first answer deletes it, which only
        # an augmenting path that swaps it out would show, while the
        # record contracts it, and both minors keep the value
        m = graphic_matroid(
            [("e0", "0", "2"), ("e1", "2", "3"), ("e2", "0", "1"), ("e3", "1", "2"),
             ("e4", "3", "0"), ("e5", "3", "1"), ("e6", "3", "2")]
        )
        x = m.ground.set_of(["e6"])
        y = m.ground.set_of(["e3"])
        res = linking_partition(m, x, y)
        scan = helpers.brute_linking_partition(m, x, y)
        assert sorted(scan.contract) == ["e2", "e4"]
        assert sorted(res.spec.contract) == ["e0", "e5"]
        assert res.achieved == res.target == 1
        assert minor_value(m, scan, x, y) == minor_value(m, res.spec, x, y) == 1


@st.composite
def matroid_factories(draw):
    """A function that builds a new instance of one drawn matroid on every
    call: a uniform, graphic or binary representation, or its dual, a
    minor of it, or its direct sum with a small uniform matroid."""
    n = draw(st.integers(2, 9))
    labels = [f"x{i}" for i in range(n)]
    kind = draw(st.sampled_from(["uniform", "graphic", "gf2"]))
    if kind == "uniform":
        k = draw(st.integers(0, n))
        base = lambda: uniform_matroid(labels, k)  # noqa: E731
    elif kind == "graphic":
        # loops and parallel edges come up often on so few vertices
        vertex = st.integers(0, 3).map(str)
        edges = [(lab, draw(vertex), draw(vertex)) for lab in labels]
        base = lambda: graphic_matroid(edges)  # noqa: E731
    else:
        row = st.lists(st.integers(0, 1), min_size=n, max_size=n)
        rows = draw(st.lists(row, min_size=1, max_size=4))
        base = lambda: gf2_matroid(labels, rows)  # noqa: E731
    shape = draw(st.sampled_from(["self", "dual", "minor", "sum"]))
    if shape == "dual":
        return lambda: dual(base())
    if shape == "minor":
        away = draw(st.integers(0, (1 << n) - 1))
        drop = draw(st.integers(0, (1 << n) - 1)) & ~away

        def minor():
            m = base()
            return take_minor(m, MinorSpec(m.ground.from_mask(away), m.ground.from_mask(drop)))

        return minor
    if shape == "sum":
        k = draw(st.integers(0, 3))
        return lambda: direct_sum([base(), uniform_matroid(["s0", "s1", "s2"], k)])
    return base


def record_intersections(monkeypatch) -> list:
    """Record the arguments (matroid, free, base_x, base_y) of every call
    of the intersection routine."""
    calls = []
    real = connectivity._largest_common_independent

    def spy(m, free, base_x, base_y):
        calls.append((m, free, base_x, base_y))
        return real(m, free, base_x, base_y)

    monkeypatch.setattr(connectivity, "_largest_common_independent", spy)
    return calls


class TestSharedIntersection:
    """kappa_between and linking_partition share one intersection per
    pair of sides, kept on the matroid."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(build=matroid_factories(), data=st.data())
    def test_spec_does_not_depend_on_an_earlier_kappa_between(self, build, data):
        fresh = build()
        labels = list(fresh.ground)
        assume(len(labels) >= 2)
        picks = data.draw(st.permutations(labels))
        size_x = data.draw(st.integers(1, len(labels) - 1))
        size_y = data.draw(st.integers(1, len(labels) - size_x))
        x_labels, y_labels = picks[:size_x], picks[size_x : size_x + size_y]
        cold = linking_partition(fresh, fresh.ground.set_of(x_labels), fresh.ground.set_of(y_labels))
        m = build()
        x, y = m.ground.set_of(x_labels), m.ground.set_of(y_labels)
        value = kappa_between(m, x, y)
        warm = linking_partition(m, x, y)
        assert warm.spec == cold.spec
        assert warm.achieved == warm.target == cold.target == value
        assert linking_partition(m, x, y).spec == cold.spec

    def test_windowed_linking_runs_each_intersection_once(self, monkeypatch):
        calls = record_intersections(monkeypatch)
        fam = double_ladder()
        windowed_linking(
            fam, ["rung[0]"], ["rung[3]"], StabilizationPolicy(max_window=5),
            [certified_separation(fam, "rung:0")],
        )
        # window 2 reaches the rank cap min(r(X), r(Y)) = 1, so windows
        # 3..5 take it without an intersection; the linking partition of
        # the stabilising window reads its window's record
        assert len(calls) == 1
        assert len({(id(m), *rest) for m, *rest in calls}) == len(calls)

    def test_query_below_the_rank_cap_intersects_every_window(self, monkeypatch):
        calls = record_intersections(monkeypatch)
        fam = double_ladder(include_rungs=False)
        result = windowed_linking(
            fam, ["railT[0]"], ["railB[38]"], StabilizationPolicy(max_window=41),
            [certified_separation(fam, "rails-split")],
        )
        # the rails never meet: value 0 against a cap of 1 in windows 38..41
        assert result.achieved == 0
        assert [n for n, _ in result.report.values] == [38, 39, 40, 41]
        assert len(calls) == 4


class TestSeparationExtension:
    """The greedy walk against the exhaustive scan in canonical order."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(m=helpers.representations(max_n=12), data=st.data())
    def test_matches_scan(self, m, data):
        if data.draw(st.booleans()):
            m = dual(m)
        k = data.draw(st.integers(1, 3))
        labels = list(m.ground)
        size_x = data.draw(st.integers(k, k + 2))
        size_y = data.draw(st.integers(k, k + 2))
        assume(size_x + size_y <= len(labels))
        picks = data.draw(st.permutations(labels))
        x = m.ground.set_of(picks[:size_x])
        y = m.ground.set_of(picks[size_x : size_x + size_y])
        got = extends_to_separation(m, x, y, k)
        assert got == helpers.brute_extends_to_separation(m, x, y, k)
        assert (got is None) == (kappa_between(m, x, y) > k - 1)

    def test_short_side_rejected(self):
        m = u24()
        with pytest.raises(PreconditionError, match="at least k elements"):
            extends_to_separation(m, m.ground.set_of("a"), m.ground.set_of("cd"), 2)
        with pytest.raises(PreconditionError, match="at least k elements"):
            extends_to_separation(m, m.ground.set_of("ab"), m.ground.set_of("c"), 2)

    def test_answers_on_the_six_by_six_grid(self):
        # 60 edges, 58 or more of them free
        m = helpers.grid_graph(6, 6)
        for k in (1, 2, 3):
            labels = list(m.ground)
            x = m.ground.set_of(labels[:k])
            y = m.ground.set_of(labels[-k:])
            got = extends_to_separation(m, x, y, k)
            if k == 1:
                # the grid is connected
                assert got is None
                continue
            # the first k edges meet at the corner vertex, so a
            # separation of order at most k exists around it
            assert got is not None
            assert x <= got.left and got.right.isdisjoint(x)
            assert y <= got.right
            assert kappa(m, got.left) == got.kappa <= k - 1
            assert min(len(got.left), len(got.right)) >= k


class TestBreakingCircuits:
    def test_u24_textbook_instance(self):
        m = u24()
        x = m.ground.set_of("a")
        y = m.ground.set_of("b")
        # the restriction to {a, b} splits at level 0; the host does not
        assert kappa(restrict(m, x | y), restrict(m, x | y).ground.set_of("a")) == 0
        assert extends_to_separation(m, x, y, 1) is None
        c1, c2 = breaking_circuits(m, x, y, 1)
        assert frozenset(c1) == frozenset("abc")
        assert frozenset(c2) == frozenset("abc")
        grown = restrict(m, x | y | c1 | c2)
        assert extends_to_separation(
            grown, x.in_universe(grown.ground), y.in_universe(grown.ground), 1
        ) is None

    def test_extending_separation_rejected(self):
        m = helpers.two_triangles()
        x = m.ground.set_of(["a1"])
        y = m.ground.set_of(["b1"])
        with pytest.raises(PreconditionError):
            breaking_circuits(m, x, y, 1)

    def test_singleton_sides_on_a_twenty_edge_host(self):
        # ten parallel paths of length two: 2-connected, 18 free elements
        m = helpers.theta_graph(10)
        x = m.ground.set_of(["in1"])
        y = m.ground.set_of(["out3"])
        c1, c2 = breaking_circuits(m, x, y, 1)
        # the exhaustive extension scan, given budget for 18 free
        # elements, picks the same pair
        assert sorted(c1) == ["in1", "in3", "out1", "out3"]
        assert sorted(c2) == ["in1", "in2", "out1", "out2"]
        grown = restrict(m, x | y | c1 | c2)
        assert extends_to_separation(
            grown, x.in_universe(grown.ground), y.in_universe(grown.ground), 1
        ) is None

    def test_inexact_separation_rejected(self):
        m = u24()
        with pytest.raises(PreconditionError):
            breaking_circuits(m, m.ground.set_of("ab"), m.ground.set_of("cd"), 1)

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(m=helpers.representations(max_n=10), flip=st.booleans())
    def test_constructed_circuits_have_the_breaking_properties(self, m, flip):
        if flip:
            m = dual(m)
        instances = generated_break_instances([("drawn", m)], cap=60, max_ground=10)
        for _, _, x, y, k in instances:
            c1, c2 = breaking_circuits(m, x, y, k)
            assert breaking_properties(m, x, y, c1, c2) == [], (sorted(x), sorted(y))

    def test_blocks_extension_on_generated_instances(self, corpus):
        instances = generated_break_instances(corpus, cap=8)
        assert len(instances) >= 5
        for name, m, x, y, k in instances:
            c1, c2 = breaking_circuits(m, x, y, k)
            grown = restrict(m, x | y | c1 | c2)
            assert (
                extends_to_separation(
                    grown,
                    x.in_universe(grown.ground),
                    y.in_universe(grown.ground),
                    k,
                )
                is None
            ), name


def breaking_properties(m, x, y, c1, c2) -> list[str]:
    """What the breaking construction promises of C1 and C2, as failures:
    both are circuits of M through one free element e, and for C1 (C2
    likewise with X and Y swapped) C1 meets Y, C1 - X is a circuit of M/X
    and C1 - X - Y one of M/(X union Y)."""
    mxy = contract(m, x | y)
    failures = []
    if (c1 & c2).isdisjoint((x | y).complement()):
        failures.append("the circuits share no free element")
    for name, c, away, toward in (("C1", c1, x, y), ("C2", c2, y, x)):
        m_away = contract(m, away)
        checks = [
            (m.is_circuit(c), "a circuit of M"),
            (not c.isdisjoint(toward), "meets the other side"),
            (m_away.is_circuit((c - away).in_universe(m_away.ground)), "a circuit of M/side"),
            (mxy.is_circuit((c - x - y).in_universe(mxy.ground)), "a circuit of M/(X+Y)"),
        ]
        failures += [f"{name} is not {what}" for ok, what in checks if not ok]
    return failures


def generated_break_instances(corpus, cap: int = 25, max_ground: int = 8):
    """Exact non-extending separations of restrictions, over the corpus."""
    out = []
    for name, m in corpus:
        labels = list(m.ground)
        if len(labels) > max_ground:
            continue
        side_picks = [
            (labels[i : i + 1], labels[j : j + 1])
            for i, j in itertools.combinations(range(len(labels)), 2)
        ]
        side_picks += [
            (labels[:2], labels[2:4])
            for _ in (0,)
            if len(labels) >= 4
        ]
        for x_labels, y_labels in side_picks:
            x = m.ground.set_of(x_labels)
            y = m.ground.set_of(y_labels)
            if not x.isdisjoint(y):
                continue
            sub = restrict(m, x | y)
            value = kappa(sub, x.in_universe(sub.ground))
            k = value + 1
            if len(x) < k or len(y) < k:
                continue
            if extends_to_separation(m, x, y, k) is not None:
                continue
            out.append((name, m, x, y, k))
            if len(out) >= cap:
                return out
    return out


class TestSharedComponentStructure:
    def test_side_components_that_meet_coincide(self, small_corpus):
        # blocks of the two side contractions either agree or stay apart
        checked = 0
        for name, m in small_corpus:
            labels = list(m.ground)
            if len(labels) < 3:
                continue
            for x_lab, y_lab in itertools.combinations(labels, 2):
                x = m.ground.set_of([x_lab])
                y = m.ground.set_of([y_lab])
                mx = contract(m, x)
                my = contract(m, y)
                comp_x = [
                    frozenset(b)
                    for b in components(mx).blocks
                    if y_lab not in b
                ]
                comp_y = [
                    frozenset(b)
                    for b in components(my).blocks
                    if x_lab not in b
                ]
                for a in comp_x:
                    for b in comp_y:
                        if a & b:
                            assert a == b, (name, x_lab, y_lab)
                checked += 1
            if checked > 60:
                break
        assert checked


class TestOnlyTwoExtensionsInsideOneCircuit:
    def test_extension_sides_are_forced(self, corpus):
        instances = generated_break_instances(corpus, cap=10)
        for name, m, x, y, k in instances:
            c1, _ = breaking_circuits(m, x, y, k)
            mxy = contract(m, x | y)
            residue = (c1 - x - y).in_universe(mxy.ground)
            if residue.is_empty or not mxy.is_circuit(residue):
                continue
            grown = restrict(m, x | y | c1)
            gx = x.in_universe(grown.ground)
            gy = y.in_universe(grown.ground)
            gc = c1.in_universe(grown.ground)
            allowed = {
                (gx | (gc - gy)).mask,
                gx.mask,
            }
            free = grown.ground.full_mask & ~gx.mask & ~gy.mask
            n = len(grown.ground)
            found = []
            for extra_bits in range(1 << bin(free).count("1")):
                extra = 0
                rem = extra_bits
                for i in range(n):
                    if free >> i & 1:
                        if rem & 1:
                            extra |= 1 << i
                        rem >>= 1
                umask = gx.mask | extra
                size = bin(umask).count("1")
                if size < k or n - size < k:
                    continue
                if kappa(grown, grown.ground.from_mask(umask)) <= k - 1:
                    found.append(umask)
            assert set(found) <= allowed, (name, sorted(x), sorted(y))


class TestJoiningCircuit:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(m=helpers.representations(max_n=10), data=st.data())
    def test_found_exactly_when_some_circuit_joins(self, m, data):
        if data.draw(st.booleans()):
            m = dual(m)
        assume(len(m.ground) >= 2)
        labels = list(m.ground)
        e = data.draw(st.sampled_from(labels))
        rest = [lab for lab in labels if lab != e]
        s = m.ground.set_of(data.draw(st.lists(st.sampled_from(rest), min_size=1, unique=True)))
        found = connectivity._joining_circuit(m, s, m.ground.index(e))
        exists = any(
            e in c and c & frozenset(s)
            for c in helpers.brute_circuits(helpers.oracle_of(m), labels)
        )
        assert bool(found) == exists
        if found:
            c = m.ground.from_mask(found)
            ms = contract(m, s)
            assert m.is_circuit(c) and e in c and not c.isdisjoint(s)
            assert ms.is_circuit((c - s).in_universe(ms.ground))


class TestCores:
    @settings(max_examples=250, deadline=None, derandomize=True)
    @given(
        m=st.one_of(helpers.representations(max_n=10), helpers.derived_matroids()),
        flip=st.booleans(),
        data=st.data(),
    )
    def test_cores_keep_the_value(self, m, flip, data):
        # the cores come off the kappa(X, Y) record with no search; the
        # exhaustive scan confirms that they keep the value
        if flip:
            m = dual(m)
        labels = list(m.ground)
        size_x = data.draw(st.integers(1, 4))
        size_y = data.draw(st.integers(1, 4))
        assume(size_x + size_y <= len(labels))
        picks = data.draw(st.permutations(labels))
        x = m.ground.set_of(picks[:size_x])
        y = m.ground.set_of(picks[size_x : size_x + size_y])
        indep = helpers.oracle_of(m)
        k = helpers.brute_kappa_between(indep, labels, list(x), list(y))
        x_core, y_core = linking._cores(m, x, y)
        assert len(x_core) == len(y_core) == k
        assert x_core <= x and y_core <= y
        assert helpers.brute_kappa_between(indep, labels, list(x_core), list(y_core)) == k


class TestConstructiveLinking:
    def test_level_zero_deletes_everything(self):
        m = helpers.two_triangles()
        x = m.ground.set_of(["a1"])
        y = m.ground.set_of(["b1"])
        res = constructive_linking(m, x, y)
        assert res.achieved == 0
        assert res.spec.contract.is_empty
        assert res.spec.delete == (x | y).complement()

    def test_k4_level_one_with_trace(self):
        m = graphic_matroid(helpers.k4_edges())
        x = m.ground.set_of(["e1"])
        y = m.ground.set_of(["e6"])
        res = constructive_linking(m, x, y)
        assert res.achieved == res.target == 1
        stages = [t["stage"] for t in res.trace]
        assert stages[0] == "cores" and stages[-1] == "solve"
        assert minor_value(m, res.spec, x, y) == 1

    def test_u24_level_two(self):
        m = u24()
        x = m.ground.set_of("ab")
        y = m.ground.set_of("cd")
        res = constructive_linking(m, x, y)
        assert res.achieved == 2
        cores = res.trace[0]
        assert cores["x_core"] == ["a", "b"] and cores["y_core"] == ["c", "d"]

    def test_window_levels_never_regress(self, small_corpus):
        rng = random.Random(71)
        for name, m in small_corpus[:15]:
            labels = list(m.ground)
            if len(labels) < 4:
                continue
            x = m.ground.set_of(labels[:2])
            y = m.ground.set_of(labels[2:4])
            res = constructive_linking(m, x, y)
            assert res.achieved == kappa_between(m, x, y), name
            level_entries = [t for t in res.trace if t["stage"] == "window"]
            for entry in level_entries:
                assert entry["kappa"] >= entry["t"], name

    @settings(max_examples=250, deadline=None, derandomize=True)
    @given(m=helpers.representations(max_n=12), data=st.data())
    def test_growth_loop_reaches_the_value(self, m, data):
        if data.draw(st.booleans()):
            m = dual(m)
        labels = list(m.ground)
        size_x = data.draw(st.integers(2, 3))
        size_y = data.draw(st.integers(2, 3))
        assume(size_x + size_y <= len(labels))
        picks = data.draw(st.permutations(labels))
        x = m.ground.set_of(picks[:size_x])
        y = m.ground.set_of(picks[size_x : size_x + size_y])
        res = constructive_linking(m, x, y)
        assert res.achieved == res.target == kappa_between(m, x, y)
        spec = res.spec
        assert spec.contract.isdisjoint(spec.delete)
        assert spec.contract | spec.delete == (x | y).complement()
        windows = [t for t in res.trace if t["stage"] == "window"]
        assert [w["t"] for w in windows] == list(range(1, res.target + 1))
        values = [w["kappa"] for w in windows]
        assert values == sorted(values)
        assert all(w["kappa"] >= w["t"] for w in windows)
        zones = [set(w["zone"]) for w in windows]
        assert all(a <= b for a, b in zip(zones, zones[1:]))

    def test_one_breaking_pair_per_blocked_separation(self, monkeypatch):
        # adding a pair for every exact 2-separation of the first zone at
        # once would take 32 pairs here
        edges = (
            "e0=v8-v5 e1=v7-v0 e2=v3-v2 e3=v8-v2 e4=v1-v4 e5=v0-v1 e6=v1-v0 "
            "e7=v7-v0 e8=v4-v3 e9=v4-v1 e10=v2-v5 e11=v4-v1 e12=v2-v8 "
            "e13=v4-v2 e14=v4-v8 e15=v7-v5 e16=v7-v8 e17=v1-v0 e18=v4-v6 "
            "e19=v5-v6"
        )
        m = graphic_matroid(
            (lab, *ends.split("-"))
            for lab, ends in (edge.split("=") for edge in edges.split())
        )
        calls = []
        original = linking._breaking_core

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(linking, "_breaking_core", counting)
        x = m.ground.set_of(["e6", "e8"])
        y = m.ground.set_of(["e3", "e18"])
        res = constructive_linking(m, x, y)
        assert res.achieved == 2
        first_zone = next(t["zone"] for t in res.trace if t["stage"] == "window")
        assert 0 < len(calls) <= len(m.ground) - len(first_zone)
        assert minor_value(m, res.spec, x, y) == 2

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        rows=st.integers(3, 6), cols=st.integers(3, 6), flip=st.booleans(), data=st.data()
    )
    def test_breaking_steps_meet_the_host_precondition(self, rows, cols, flip, data):
        # the construction skips breaking_circuits' host check: every
        # blocked (U, W) is exact in its zone, at value t - 1 with t-element
        # sides, while kappa_between(M, U, W) >= t in the host
        m = helpers.grid_graph(rows, cols)
        if flip:
            m = dual(m)
        picks = data.draw(st.permutations(list(m.ground)))
        size_x = data.draw(st.integers(2, 4))
        size_y = data.draw(st.integers(2, 4))
        x = m.ground.set_of(picks[:size_x])
        y = m.ground.set_of(picks[size_x : size_x + size_y])
        calls = []
        original = linking._breaking_core

        def spy(host, u, w, level):
            calls.append((u, w))
            return original(host, u, w, level)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(linking, "_breaking_core", spy)
            res = constructive_linking(m, x, y)
        assert res.achieved == kappa_between(m, x, y)
        cores = res.trace[0]
        x_core, y_core = m.ground.set_of(cores["x_core"]), m.ground.set_of(cores["y_core"])
        for u, w in calls:
            assert x_core <= u and y_core <= w and u.isdisjoint(w)
            zone = restrict(m, u | w)
            t = kappa(zone, u.in_universe(zone.ground)) + 1
            assert t - 1 == kappa_between(
                zone, x_core.in_universe(zone.ground), y_core.in_universe(zone.ground)
            )
            assert 2 <= t <= res.target and min(len(u), len(w)) >= t
            assert kappa_between(m, u, w) >= t

    def test_needs_no_separation_search(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("constructive linking searched for a separation")

        monkeypatch.setattr(linking, "extends_to_separation", refuse)
        monkeypatch.setattr(linking, "breaking_circuits", refuse)
        m = helpers.grid_graph(6, 6)
        labels = list(m.ground)
        x, y = m.ground.set_of(labels[:3]), m.ground.set_of(labels[-3:])
        res = constructive_linking(m, x, y)
        assert res.achieved == kappa_between(m, x, y) == 2
        assert minor_value(m, res.spec, x, y) == 2

    def test_agrees_with_search_on_corpus_sample(self, small_corpus):
        rng = random.Random(73)
        for name, m in small_corpus[:20]:
            labels = list(m.ground)
            if len(labels) < 3:
                continue
            picks = rng.sample(labels, 3)
            x = m.ground.set_of(picks[:1])
            y = m.ground.set_of(picks[1:])
            direct = linking_partition(m, x, y)
            built = constructive_linking(m, x, y)
            assert built.achieved == direct.achieved, name


@pytest.mark.parametrize(
    "query",
    [
        lambda m, x, y: kappa_between(m, x, y),
        lambda m, x, y: linking_partition(m, x, y),
        lambda m, x, y: constructive_linking(m, x, y),
        lambda m, x, y: extends_to_separation(m, x, y, 1),
        lambda m, x, y: breaking_circuits(m, x, y, 2),
        lambda m, x, y: infinite_kappa_chain(m, x, y, 1),
    ],
    ids=[
        "kappa_between",
        "linking_partition",
        "constructive_linking",
        "extends_to_separation",
        "breaking_circuits",
        "infinite_kappa_chain",
    ],
)
def test_overlapping_sides_rejected(query):
    m = u24()
    with pytest.raises(PreconditionError, match="^the two sides overlap$"):
        query(m, m.ground.set_of("ab"), m.ground.set_of("bc"))


class TestCircuitChain:
    def test_single_step_through_triangle(self):
        tri = helpers.triangle()
        chain = infinite_kappa_chain(
            tri, tri.ground.set_of(["e1"]), tri.ground.set_of(["e2"]), 1
        )
        assert [frozenset(c) for c in chain.circuits] == [
            frozenset(["e1", "e2", "e3"])
        ]
        assert chain.x_part_independent and chain.y_part_independent

    def test_zero_length_chain(self):
        tri = helpers.triangle()
        chain = infinite_kappa_chain(
            tri, tri.ground.set_of(["e1"]), tri.ground.set_of(["e2"]), 0
        )
        assert chain.circuits == ()

    def test_low_connectivity_rejected(self):
        m = helpers.two_triangles()
        with pytest.raises(PreconditionError):
            infinite_kappa_chain(
                m, m.ground.set_of(["a1"]), m.ground.set_of(["b1"]), 1
            )

    def test_stall_reported(self):
        # the level is high enough but one circuit exhausts the x side
        m = uniform_matroid("abcdefgh", 3)
        x = m.ground.set_of("abc")
        y = m.ground.set_of("def")
        assert kappa_between(m, x, y) == 3
        with pytest.raises(PreconditionError, match="stalled"):
            infinite_kappa_chain(m, x, y, 3)

    def test_three_disjoint_circuits_in_theta(self):
        theta = helpers.theta_graph(4)
        x = theta.ground.set_of([f"in{i}" for i in range(1, 5)])
        y = theta.ground.set_of([f"out{i}" for i in range(1, 5)])
        chain = infinite_kappa_chain(theta, x, y, 3)
        assert len(chain.circuits) == 3
        for a, b in itertools.combinations(chain.circuits, 2):
            assert a.isdisjoint(b)
        for i, c in enumerate(chain.circuits):
            assert not c.isdisjoint(x) and not c.isdisjoint(y)
        assert chain.x_part_independent and chain.y_part_independent

    def test_to_jsonable_lists_sorted_labels(self):
        theta = helpers.theta_graph(4)
        x = theta.ground.set_of([f"in{i}" for i in range(1, 5)])
        y = theta.ground.set_of([f"out{i}" for i in range(1, 5)])
        chain = infinite_kappa_chain(theta, x, y, 3)
        doc = chain.to_jsonable()
        assert doc == {
            "circuits": [sorted(c) for c in chain.circuits],
            "x_part": sorted(chain.x_part),
            "y_part": sorted(chain.y_part),
            "contracted": sorted(chain.contracted),
            "x_part_independent": True,
            "y_part_independent": True,
        }
        assert len(doc["circuits"]) == 3 and doc["x_part"] and doc["y_part"]
