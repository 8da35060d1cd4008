import random

import pytest
from hypothesis import given, settings, strategies as st

import helpers
from matroid_kappa import (
    CapacityError,
    PreconditionError,
    components,
    del_count,
    direct_sum,
    dual,
    explicit_matroid,
    find_separation,
    free_matroid,
    gf2_matroid,
    graphic_matroid,
    is_k_connected,
    kappa,
    kappa_between,
    kappa_rank_formula,
    linking_partition,
    take_minor,
    MinorSpec,
    uniform_matroid,
)
from matroid_kappa import budgets, connectivity, linking
from matroid_kappa.connectivity import _largest_common_independent
from matroid_kappa.core import GraphicMatroid, _EliminationSpan, _ForestSpan
from matroid_kappa.windows import double_ladder


def u24():
    return uniform_matroid("abcd", 2)


class TestDelCount:
    def test_basis_against_empty_is_zero(self, small_corpus):
        for name, m in small_corpus[:15]:
            assert del_count(m, m.basis(), m.ground.empty()) == 0, name

    def test_two_parallel_elements(self):
        m = uniform_matroid("ab", 1)
        assert del_count(m, m.ground.set_of("a"), m.ground.set_of("b")) == 1

    def test_triangle_split(self):
        tri = helpers.triangle()
        got = del_count(
            tri, tri.ground.set_of(["e1"]), tri.ground.set_of(["e2", "e3"])
        )
        oracle = helpers.nx_forest_oracle(
            [("e1", "u", "v"), ("e2", "v", "w"), ("e3", "w", "u")]
        )
        assert got == helpers.brute_del(oracle, ["e1"], ["e2", "e3"]) == 1

    def test_dependent_inputs_rejected(self):
        m = u24()
        with pytest.raises(PreconditionError):
            del_count(m, m.ground.set_of("abc"), m.ground.empty())

    def test_greedy_agrees_with_brute_force(self, small_corpus):
        rng = random.Random(23)
        for name, m in small_corpus[:20]:
            for _ in range(4):
                left = helpers.random_greedy_basis(
                    m, m.ground.set_of([l for l in m.ground if rng.random() < 0.6]), rng
                )
                right = helpers.random_greedy_basis(
                    m, m.ground.set_of([l for l in m.ground if rng.random() < 0.6]), rng
                )
                assert del_count(m, left, right) == helpers.brute_del(
                    helpers.oracle_of(m), left, right
                ), name


class TestKappa:
    def test_empty_side_is_zero(self, small_corpus):
        for name, m in small_corpus[:15]:
            assert kappa(m, m.ground.empty()) == 0, name

    def test_u24_pair(self):
        m = u24()
        assert kappa(m, m.ground.set_of("ab")) == 2

    def test_triangle_single_edge(self):
        tri = helpers.triangle()
        assert kappa(tri, tri.ground.set_of(["e1"])) == 1

    def test_full_side_is_zero(self, small_corpus):
        for name, m in small_corpus[:15]:
            assert kappa(m, m.ground.full()) == 0, name

    def test_rank_formula_equivalence_exhaustive(self, corpus):
        for name, m in corpus:
            if len(m.ground) > 7:
                continue
            for mask in range(m.ground.full_mask + 1):
                x = m.ground.from_mask(mask)
                assert kappa(m, x) == kappa_rank_formula(m, x), (name, sorted(x))

    def test_matches_independent_brute_force(self, small_corpus):
        rng = random.Random(31)
        for name, m in small_corpus[:12]:
            indep = helpers.oracle_of(m)
            labels = list(m.ground)
            for _ in range(4):
                x = frozenset(l for l in labels if rng.random() < 0.5)
                assert kappa(m, m.ground.set_of(x)) == helpers.brute_kappa(
                    indep, labels, x
                ), name

    def test_invariant_under_duality(self, corpus):
        for name, m in corpus:
            if len(m.ground) > 7:
                continue
            d = dual(m)
            for mask in range(m.ground.full_mask + 1):
                x = m.ground.from_mask(mask)
                assert kappa(m, x) == kappa(d, x), (name, sorted(x))

    def test_submodular_exhaustive_small(self, small_corpus):
        for name, m in small_corpus:
            full = m.ground.full_mask
            for xm in range(full + 1):
                for ym in range(full + 1):
                    lhs = kappa(m, m.ground.from_mask(xm)) + kappa(
                        m, m.ground.from_mask(ym)
                    )
                    rhs = kappa(m, m.ground.from_mask(xm | ym)) + kappa(
                        m, m.ground.from_mask(xm & ym)
                    )
                    assert lhs >= rhs, name

    def test_basis_choice_never_matters(self, small_corpus):
        rng = random.Random(41)
        for name, m in small_corpus[:15]:
            labels = list(m.ground)
            for _ in range(3):
                x = m.ground.set_of([l for l in labels if rng.random() < 0.5])
                expected = kappa(m, x)
                for _ in range(10):
                    bx = helpers.random_greedy_basis(m, x, rng)
                    by = helpers.random_greedy_basis(m, x.complement(), rng)
                    assert del_count(m, bx, by) == expected, name

    def test_nested_chain_value_bounded_by_members(self, small_corpus):
        # a nested chain all at level <= k keeps its intersection at <= k
        rng = random.Random(43)
        for name, m in small_corpus[:10]:
            labels = list(m.ground)
            chain = [frozenset(labels)]
            while chain[-1]:
                nxt = frozenset(l for l in chain[-1] if rng.random() < 0.7)
                if nxt == chain[-1]:
                    nxt = chain[-1] - {sorted(chain[-1])[0]}
                chain.append(nxt)
            level = max(kappa(m, m.ground.set_of(s)) for s in chain)
            meet = chain[-1]
            for s in chain:
                meet &= s
            assert kappa(m, m.ground.set_of(meet)) <= level, name


class TestKappaBetween:
    def test_no_free_elements_collapses_to_kappa(self):
        m = u24()
        x = m.ground.set_of("ab")
        assert kappa_between(m, x, x.complement()) == kappa(m, x)

    def test_k4_disjoint_edges(self):
        m = graphic_matroid(helpers.k4_edges())
        # e1 = 1-2 and e6 = 3-4 share no vertex
        x = m.ground.set_of(["e1"])
        y = m.ground.set_of(["e6"])
        indep = helpers.oracle_of(m)
        expected = helpers.brute_kappa_between(indep, list(m.ground), ["e1"], ["e6"])
        assert kappa_between(m, x, y) == expected == 1

    def test_zero_across_blocks(self):
        m = helpers.two_triangles()
        assert kappa_between(m, m.ground.set_of(["a1"]), m.ground.set_of(["b1"])) == 0

    def test_budget(self):
        # kappa(X, Y) takes no budget: the 23-element free matroid answers
        m = free_matroid([f"x{i}" for i in range(23)])
        assert kappa_between(m, m.ground.set_of(["x0"]), m.ground.set_of(["x1"])) == 0
        # on U(k, n) kappa(U) = min(u, k) + min(n - u, k) - k is concave in
        # u = |U|, so kappa(X, Y) sits at u = |X| or u = n - |Y|
        n, k = 120, 30
        u = uniform_matroid([f"x{i}" for i in range(n)], k)
        x = u.ground.set_of([f"x{i}" for i in range(12)])
        y = u.ground.set_of([f"x{i}" for i in range(95, n)])
        expected = min(min(s, k) + min(n - s, k) - k for s in (len(x), n - len(y)))
        assert kappa_between(u, x, y) == expected
        # the separation scan keeps its budget (16 elements) for k >= 2;
        # k = 1 reads the components and takes none
        free17 = free_matroid([f"x{i}" for i in range(17)])
        with pytest.raises(CapacityError):
            find_separation(free17, 2)
        assert sorted(find_separation(free17, 1).left) == ["x0"]

    def test_monotone_under_minors(self, small_corpus):
        rng = random.Random(53)
        for name, m in small_corpus[:15]:
            labels = list(m.ground)
            if len(labels) < 4:
                continue
            x = m.ground.set_of(labels[:1])
            y = m.ground.set_of(labels[1:2])
            whole = kappa_between(m, x, y)
            for _ in range(4):
                rest = labels[2:]
                away = [l for l in rest if rng.random() < 0.4]
                drop = [l for l in rest if l not in away and rng.random() < 0.4]
                minor = take_minor(
                    m, MinorSpec(m.ground.set_of(away), m.ground.set_of(drop))
                )
                assert (
                    kappa_between(
                        minor,
                        x.in_universe(minor.ground),
                        y.in_universe(minor.ground),
                    )
                    <= whole
                ), name


class TestSeparations:
    def test_free_pair_has_order_one_separation(self):
        sep = find_separation(free_matroid("ab"), 1)
        assert sep is not None
        assert sorted(sep.left) == ["a"] and sep.kappa == 0 and sep.order == 1

    def test_u24_has_none_up_to_order_two(self):
        assert find_separation(u24(), 2) is None

    def test_size_clause_rejects_thin_splits(self):
        # a one-edge side of the triangle is not an order-2 separation
        tri = helpers.triangle()
        sep = find_separation(tri, 2)
        assert sep is None
        assert kappa(tri, tri.ground.set_of(["e1"])) == 1

    def test_two_connected_means_connected(self, corpus):
        for name, m in corpus:
            if len(m.ground) < 2 or len(m.ground) > 7:
                continue
            if any(len(c) == 1 for c in m.circuits()):
                continue  # loops excluded
            two_conn = is_k_connected(m, 2)
            single_block = components(m).is_connected
            assert two_conn == single_block, name

    def test_first_hit_is_canonical(self):
        m = helpers.two_triangles()
        sep = find_separation(m, 1)
        assert sorted(sep.left) == ["a1", "a2", "a3"]


@st.composite
def small_matroids(draw):
    """A matroid of at most 10 elements, then up to two minors or duals."""
    m = draw(helpers.representations(max_n=10))
    for _ in range(draw(st.integers(0, 2))):
        if draw(st.booleans()):
            m = dual(m)
        else:
            full = m.ground.full_mask
            away = draw(st.integers(0, full))
            drop = draw(st.integers(0, full)) & ~away
            spec = MinorSpec(m.ground.from_mask(away), m.ground.from_mask(drop))
            m = take_minor(m, spec)
    return m


@st.composite
def summed_matroids(draw):
    """A direct sum of up to three small matroids, at most 12 elements,
    perhaps dualised: many components, loops and coloops."""
    parts = [
        draw(helpers.representations(prefix=f"p{i}_", max_n=4))
        for i in range(draw(st.integers(1, 3)))
    ]
    m = direct_sum(parts)
    return dual(m) if draw(st.booleans()) else m


def disjoint_sides(draw, m):
    """Disjoint X and Y; about half the elements stay free."""
    n = len(m.ground)
    sides = draw(st.lists(st.sampled_from("xyff"), min_size=n, max_size=n))
    x = [lab for lab, side in zip(m.ground, sides) if side == "x"]
    y = [lab for lab, side in zip(m.ground, sides) if side == "y"]
    return m.ground.set_of(x), m.ground.set_of(y)


def brute_blocks(m) -> set[frozenset]:
    """Components by union-find over every circuit, from the naive oracle."""
    parent = {lab: lab for lab in m.ground}

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for circuit in helpers.brute_circuits(helpers.oracle_of(m), list(m.ground)):
        head, *rest = sorted(circuit)
        for other in rest:
            parent[find(other)] = find(head)
    blocks: dict[str, set] = {}
    for lab in m.ground:
        blocks.setdefault(find(lab), set()).add(lab)
    return {frozenset(b) for b in blocks.values()}


class TestPolynomialEngine:
    """kappa(X, Y) by matroid intersection and components from one basis,
    against the exhaustive oracles."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(m=small_matroids(), data=st.data())
    def test_kappa_between_matches_brute(self, m, data):
        x, y = disjoint_sides(data.draw, m)
        expected = helpers.brute_kappa_between(
            helpers.oracle_of(m), list(m.ground), list(x), list(y)
        )
        assert kappa_between(m, x, y) == expected

    def test_greedy_start_needs_an_augmenting_path(self):
        # K4 minus an edge; a is parallel to b in M/x and to c in M/y, so
        # the greedy start {a} is maximal but {b, c} is larger
        m = graphic_matroid(
            [("a", "1", "2"), ("b", "3", "1"), ("c", "4", "1"),
             ("x", "2", "3"), ("y", "2", "4")]
        )
        expected = helpers.brute_kappa_between(
            helpers.oracle_of(m), list(m.ground), ["x"], ["y"]
        )
        assert kappa_between(m, m.ground.set_of("x"), m.ground.set_of("y")) == expected == 1

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(m=small_matroids())
    def test_components_match_circuit_union_find(self, m):
        got = components(m)
        assert {frozenset(b) for b in got.blocks} == brute_blocks(m)
        assert got == components(helpers.generic(m))
        firsts = [m.ground.index(b.labels()[0]) for b in got.blocks]
        assert firsts == sorted(firsts)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(m=small_matroids(), data=st.data())
    def test_common_independent_matches_generic(self, m, data):
        ref = helpers.generic(m)
        x, y = disjoint_sides(data.draw, m)
        free = m.ground.full_mask & ~x.mask & ~y.mask
        base_x = ref._greedy_basis_mask(x.mask)
        base_y = ref._greedy_basis_mask(y.mask)
        got, reach = _largest_common_independent(m, free, base_x, base_y)
        assert (got, reach) == _largest_common_independent(ref, free, base_x, base_y)
        assert got & ~free == 0 and reach & ~free == 0
        assert ref._indep(got | base_x) and ref._indep(got | base_y)
        labels = list(m.ground)
        value = helpers.brute_kappa_between(helpers.oracle_of(m), labels, list(x), list(y))
        largest = value + m.full_rank - base_x.bit_count() - base_y.bit_count()
        assert got.bit_count() == largest

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        m=st.one_of(helpers.representations(max_n=10), helpers.derived_matroids()),
        flip=st.booleans(),
        data=st.data(),
    )
    def test_reach_gives_the_greatest_and_least_minimisers(self, m, flip, data):
        if flip:
            m = dual(m)
        x, y = disjoint_sides(data.draw, m)
        free = m.ground.full_mask & ~x.mask & ~y.mask
        values = {}
        extra = free
        while True:
            values[extra] = kappa(m, m.ground.set_of(m.ground.from_mask(x.mask | extra)))
            if not extra:
                break
            extra = (extra - 1) & free
        least_value = min(values.values())
        minimisers = [x.mask | a for a, v in values.items() if v == least_value]
        greatest = x.mask | free & ~connectivity._intersection(m, x, y).reach
        least = x.mask | connectivity._intersection(m, y, x).reach
        assert kappa_between(m, x, y) == least_value
        assert greatest in minimisers and least in minimisers
        assert all(u & ~greatest == 0 and least & ~u == 0 for u in minimisers)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(m=small_matroids())
    def test_two_connected_matches_separation_scan(self, m):
        assert is_k_connected(m, 2) == (helpers.brute_find_separation(m, 1) is None)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(m=summed_matroids())
    def test_order_one_separation_matches_scan(self, m):
        assert find_separation(m, 1) == helpers.brute_find_separation(m, 1)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(m=st.one_of(small_matroids(), summed_matroids()), k=st.integers(2, 4))
    def test_higher_order_separation_matches_scan(self, m, k):
        assert find_separation(m, k) == helpers.brute_find_separation(m, k)

    def test_separation_scan_stops_after_the_first_element(self, monkeypatch):
        # on the 3-connected wheel W_4 nothing qualifies, and only the sets
        # that hold the first element are evaluated
        rim = 4
        m = graphic_matroid(
            [(f"s{i}", "hub", i) for i in range(rim)]
            + [(f"r{i}", i, (i + 1) % rim) for i in range(rim)]
        )
        real = connectivity._kappa_mask
        evaluated = []

        def counted(m, xmask):
            evaluated.append(xmask)
            return real(m, xmask)

        monkeypatch.setattr(connectivity, "_kappa_mask", counted)
        assert find_separation(m, 2) is None
        assert 0 < len(evaluated) <= 2 ** (len(m.ground) - 1)
        assert all(xmask & 1 for xmask in evaluated)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_duality_invariance_on_grid(self, data):
        m = helpers.grid_graph(5, 5)
        x, y = disjoint_sides(data.draw, m)
        assert kappa_between(m, x, y) == kappa_between(dual(m), x, y)

    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_zero_across_summands_of_two_grids(self, data):
        a = helpers.grid_graph(8, 8, "a")
        b = helpers.grid_graph(8, 8, "b")
        m = direct_sum([a, b])
        left = data.draw(st.integers(1, a.ground.full_mask))
        right = data.draw(st.integers(1, b.ground.full_mask))
        x = m.ground.set_of(a.ground.from_mask(left))
        y = m.ground.set_of(b.ground.from_mask(right))
        assert len(m.ground) == 224
        assert kappa_between(m, x, y) == 0

    def test_large_grid_answers_without_budget(self):
        m = helpers.grid_graph(8, 8)
        labels = list(m.ground)
        assert len(labels) == 112
        corner = m.ground.set_of(labels[:3])
        # the corner vertex has degree two
        assert kappa_between(m, corner, m.ground.set_of(labels[-3:])) == 2
        assert components(m).is_connected
        assert is_k_connected(m, 2)


def large_instance(seed):
    """A matroid of 50-300 elements with sides, both drawn from one seed:
    a grid of up to 12x12, a double-ladder window of up to 40 squares or
    a random gf2 matrix, perhaps dualised, perhaps with about a tenth of
    the elements contracted and a tenth deleted.  Each element is a free
    element with probability 1/2, and on X or on Y otherwise."""
    rng = random.Random(seed)
    kind = rng.choice(["grid", "ladder", "gf2"])
    if kind == "grid":
        m = helpers.grid_graph(rng.randint(5, 12), rng.randint(6, 12))
    elif kind == "ladder":
        m = double_ladder().window(rng.randint(8, 40))
    else:
        n = rng.randint(50, 300)
        density = rng.choice([0.05, 0.1, 0.3])
        rows = [[int(rng.random() < density) for _ in range(n)] for _ in range(rng.randint(5, 40))]
        m = gf2_matroid([f"c{i}" for i in range(n)], rows)
    if rng.random() < 0.5:
        m = dual(m)
    if rng.random() < 0.5:
        marks = [rng.random() for _ in m.ground]
        away = sum(1 << i for i, r in enumerate(marks) if r < 0.1)
        drop = sum(1 << i for i, r in enumerate(marks) if 0.1 <= r < 0.2)
        m = take_minor(m, MinorSpec(m.ground.from_mask(away), m.ground.from_mask(drop)))
    sides = [rng.choice("xyff") for _ in m.ground]
    x = m.ground.set_of(lab for lab, side in zip(m.ground, sides) if side == "x")
    y = m.ground.set_of(lab for lab, side in zip(m.ground, sides) if side == "y")
    return m, x, y


class TestIntersectionAtScale:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_kernel_search_matches_the_swap_scan(self, seed):
        m, x, y = large_instance(seed)
        free = m.ground.full_mask & ~x.mask & ~y.mask
        base_x = m._greedy_basis_mask(x.mask)
        base_y = m._greedy_basis_mask(y.mask)
        got = _largest_common_independent(m, free, base_x, base_y)
        assert got == helpers.scan_common_independent(m, free, base_x, base_y)
        if len(m.ground) <= 100:
            ref = helpers.generic(m)
            assert kappa_between(m, x, y) == kappa_between(ref, x, y)
            assert linking_partition(m, x, y).spec == linking_partition(ref, x, y).spec


def grid_and_dual():
    grid = helpers.grid_graph(8, 8)
    return [("grid", grid), ("dual", dual(grid))]


class TestPolynomialGuard:
    """The independence memo holds one entry per distinct oracle call, so
    its size after a cold query counts the oracle calls made.  It counts
    nothing done inside a representation's own kernels: graphic and binary
    greedy bases, spans, fundamental circuits, components, kappa(X, Y),
    linking partitions and binary circuits make no oracle call at all, so
    on the 8x8 grid and its dual the memo stays empty."""

    @pytest.mark.parametrize("side", ["grid", "dual"])
    def test_rank_and_basis_make_no_oracle_call(self, side):
        m = helpers.grid_graph(8, 8)
        if side == "dual":
            m = dual(m)
        labels = list(m.ground)
        assert m.rank(m.ground.set_of(labels[::3])) <= m.full_rank
        assert len(m.basis()) == m.full_rank == m.rank() == (49 if side == "dual" else 63)
        assert len(m._memo) == 0

    def test_binary_circuits_make_no_oracle_call(self):
        # 18 columns of rank 12: the identity and six sums of its columns
        extra = [0b111, 0b111000, 0b111000000, 0b111000000000, 0b101010101010, 0b110011001100]
        columns = [1 << i for i in range(12)] + extra
        m = gf2_matroid(
            [f"c{j}" for j in range(18)],
            [[col >> i & 1 for col in columns] for i in range(12)],
        )
        found = m.circuits()
        assert len(m._memo) == 0
        assert m.full_rank == 12
        assert len(found) > 6
        assert all(m.is_circuit(c) for c in found)

    def test_components_oracle_calls(self):
        for side, m in grid_and_dual():
            assert components(m).is_connected, side
            assert len(m._memo) == 0, side

    def test_uniform_components_make_no_oracle_call(self):
        # U(k, 6) is one block for 0 < k < 6 and six singletons otherwise
        for k in (0, 3, 6):
            m = uniform_matroid([f"x{i}" for i in range(6)], k)
            assert len(components(m)) == (1 if k == 3 else 6), k
            assert len(m._memo) == 0, k

    def test_graphic_components_build_no_span(self, monkeypatch):
        # the blocks come from one search of the graph, not from circuits
        spans = []
        real = GraphicMatroid._span

        def spy(m, independent):
            spans.append(independent)
            return real(m, independent)

        monkeypatch.setattr(GraphicMatroid, "_span", spy)
        assert components(helpers.grid_graph(8, 8)).is_connected
        assert len(components(helpers.two_triangles())) == 2
        assert spans == []

    def test_binary_components_build_no_span(self, monkeypatch):
        # the fundamental circuits come from one elimination pass, not
        # from a span over the canonical basis
        spans = []
        real = _EliminationSpan.__init__

        def spy(span, *args):
            spans.append(args)
            real(span, *args)

        monkeypatch.setattr(_EliminationSpan, "__init__", spy)
        assert components(dual(helpers.grid_graph(8, 8))).is_connected
        assert len(components(dual(helpers.two_triangles()))) == 2
        assert spans == []

    def test_kappa_between_oracle_calls(self):
        m = helpers.grid_graph(8, 8)
        labels = list(m.ground)
        kappa_between(m, m.ground.set_of(labels[:3]), m.ground.set_of(labels[-3:]))
        assert len(m._memo) == 0

    def test_kappa_between_on_grid_dual_oracle_calls(self):
        # the dual is built from the graph's incidence matrix, so no call
        # reaches the grid's own oracle either
        grid = helpers.grid_graph(8, 8)
        m = dual(grid)
        labels = list(m.ground)
        kappa_between(m, m.ground.set_of(labels[:3]), m.ground.set_of(labels[-3:]))
        assert len(grid._memo) == 0
        assert len(m._memo) == 0

    def test_linking_partition_oracle_calls(self):
        for side, m in grid_and_dual():
            labels = list(m.ground)
            linking_partition(m, m.ground.set_of(labels[:3]), m.ground.set_of(labels[-3:]))
            assert len(m._memo) == 0, side

    @pytest.mark.parametrize("side", ["grid", "dual"])
    def test_fundamental_circuits_make_no_oracle_call(self, side):
        m = dict(grid_and_dual())[side]
        base = m.basis()
        for label in m.ground:
            if label not in base:
                circuit = m.fundamental_circuit(base, label)
                assert label in circuit and len(circuit - base) == 1
        assert len(m._memo) == 0

    def test_forest_search_reads_arcs_off_circuits(self, monkeypatch):
        # every arc of a round comes from one circuit per outside element
        # and span: at most one circuit call each, and no swap test at all
        spans, circuits, swaps = [], [], []
        init, circuit = _ForestSpan.__init__, _ForestSpan.circuit

        def spy_init(span, *args):
            init(span, *args)
            spans.append(span)  # kept alive, so that no two share an id

        def spy_circuit(span, e):
            circuits.append((id(span), e, span.mask >> e & 1))
            return circuit(span, e)

        monkeypatch.setattr(_ForestSpan, "__init__", spy_init)
        monkeypatch.setattr(_ForestSpan, "circuit", spy_circuit)
        monkeypatch.setattr(_ForestSpan, "swaps", lambda *args: swaps.append(args), raising=False)
        m = helpers.grid_graph(20, 20)
        labels = list(m.ground)
        x, y = m.ground.set_of(labels[:3]), m.ground.set_of(labels[-3:])
        assert kappa_between(m, x, y) == 2
        free = m.ground.full_mask & ~x.mask & ~y.mask
        assert swaps == []
        assert circuits and len({(span, e) for span, e, _ in circuits}) == len(circuits)
        assert all(free >> e & 1 and not inside for _, e, inside in circuits)

    def test_linking_partition_is_one_intersection(self, monkeypatch):
        # the partition is read off the kappa(X, Y) record: one
        # intersection when cold, none after a kappa_between on the sides
        monkeypatch.setattr(budgets, "WINDOW_ELEMENTS", 1000)
        calls = []
        real = connectivity._largest_common_independent

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(connectivity, "_largest_common_independent", spy)

        def ladder():
            m = double_ladder().window(100)
            x = m.ground.set_of(f"railT[{i}]" for i in range(-40, 0))
            y = m.ground.set_of(f"railB[{i}]" for i in range(40))
            return m, x, y

        m, x, y = ladder()
        assert len(m.ground) == 604
        assert linking_partition(m, x, y).target == 1
        assert len(calls) == 1
        m, x, y = ladder()
        assert kappa_between(m, x, y) == 1
        assert len(calls) == 2
        assert linking_partition(m, x, y).target == 1
        assert len(calls) == 2

    def test_cores_run_no_intersection(self, monkeypatch):
        # stage 1 of the construction reads its cores off the kappa(X, Y)
        # record that the target query has already built
        calls = []
        real = connectivity._largest_common_independent

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(connectivity, "_largest_common_independent", spy)
        for side, m in grid_and_dual():
            labels = list(m.ground)
            x, y = m.ground.set_of(labels[:4]), m.ground.set_of(labels[-4:])
            k = kappa_between(m, x, y)
            before = len(calls)
            x_core, y_core = linking._cores(m, x, y)
            assert len(calls) == before, side
            assert len(x_core) == len(y_core) == k >= 2, side
            assert len(m._memo) == 0, side

    def test_oracle_span_calls_stay_pinned(self):
        # the oracle span tests one swap per arc it may still use, as the
        # swap scan always did; reading arcs off circuits would call more
        sizes = []
        for m, x, y in oracle_wrapped_corpus():
            kappa_between(m, x, y)
            linking_partition(m, x, y)
            sizes.append(len(m._memo))
        assert sizes == PINNED_MEMO_SIZES


def oracle_wrapped_corpus():
    """Random graphs, gf2 matrices, uniform and explicit matroids of 8-14
    elements behind bare oracles, each with random disjoint sides."""
    rng = random.Random(19)
    out = []
    for i in range(24):
        n = rng.randint(8, 14)
        labels = [f"e{j}" for j in range(n)]
        kind = i % 4
        if kind == 0:
            m = graphic_matroid(
                (lab, str(rng.randrange(6)), str(rng.randrange(6))) for lab in labels
            )
        elif kind == 2:
            m = uniform_matroid(labels, rng.randint(2, n - 2))
        else:
            if kind == 3:
                n = min(n, 9)
                labels = labels[:n]
            rows = [[rng.randint(0, 1) for _ in labels] for _ in range(rng.randint(3, 6))]
            m = gf2_matroid(labels, rows)
            if kind == 3:
                family = [m.ground.from_mask(s) for s in range(1 << n) if m._indep(s)]
                m = explicit_matroid(labels, family, check=False)
        sides = [rng.choice("xyff") for _ in labels]
        x = [lab for lab, side in zip(labels, sides) if side == "x"]
        y = [lab for lab, side in zip(labels, sides) if side == "y"]
        m = helpers.generic(m)
        out.append((m, m.ground.set_of(x), m.ground.set_of(y)))
    return out


# len(m._memo) per instance of oracle_wrapped_corpus after kappa_between
# and linking_partition (746 in all), with no source scan once I + B_X is
# a basis
PINNED_MEMO_SIZES = [
    29, 42, 25, 34, 44, 15, 38, 24, 52, 24, 39, 20,
    31, 30, 27, 28, 19, 46, 29, 30, 34, 43, 21, 22,
]
