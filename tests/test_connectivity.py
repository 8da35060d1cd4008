import random

import pytest

import helpers
from matroid_kappa import (
    CapacityError,
    PreconditionError,
    components,
    del_count,
    dual,
    find_separation,
    free_matroid,
    graphic_matroid,
    grow_pair,
    is_k_connected,
    kappa,
    kappa_between,
    kappa_rank_formula,
    take_minor,
    MinorSpec,
    uniform_matroid,
)


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
        m = free_matroid([f"x{i}" for i in range(23)])
        with pytest.raises(CapacityError):
            kappa_between(m, m.ground.set_of(["x0"]), m.ground.set_of(["x1"]))

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


class TestGrowPair:
    def test_no_room_returns_none(self):
        m = u24()
        x = m.ground.set_of("a")
        y = m.ground.set_of("b")
        assert grow_pair(m, x, y, x, y, 2) is None

    def test_u24_grows_to_full_pair(self):
        m = u24()
        got = grow_pair(
            m,
            m.ground.set_of("ab"),
            m.ground.set_of("cd"),
            m.ground.set_of("a"),
            m.ground.set_of("c"),
            2,
        )
        assert got == ("b", "d")

    def test_blocks_tell_level_zero(self):
        m = helpers.two_triangles()
        x = m.ground.set_of(["a1", "a2"])
        y = m.ground.set_of(["b1", "b2"])
        got = grow_pair(m, x, y, m.ground.empty(), m.ground.empty(), 1)
        assert got is None

    def test_wrong_level_rejected(self):
        m = u24()
        with pytest.raises(PreconditionError):
            grow_pair(m, m.ground.set_of("ab"), m.ground.set_of("cd"),
                      m.ground.set_of("a"), m.ground.set_of("c"), 3)

    def test_growth_reaches_target_on_corpus(self, small_corpus):
        for name, m in small_corpus[:20]:
            labels = list(m.ground)
            if len(labels) < 4:
                continue
            x = m.ground.set_of(labels[: len(labels) // 2])
            y = x.complement()
            k = kappa_between(m, x, y)
            xp = m.ground.empty()
            yp = m.ground.empty()
            for level in range(1, k + 1):
                pair = grow_pair(m, x, y, xp, yp, level)
                assert pair is not None, name
                xp = xp.with_element(pair[0])
                yp = yp.with_element(pair[1])
            assert kappa_between(m, xp, yp) == k, name
            assert len(xp) == k and len(yp) == k
