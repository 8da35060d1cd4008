import random

import pytest
from hypothesis import given, settings, strategies as st

import helpers
from matroid_kappa import (
    CapacityError,
    DomainError,
    GroundSet,
    PreconditionError,
    UniverseMismatchError,
    dual,
    free_matroid,
    gf2_matroid,
    graphic_matroid,
    matroid_summary,
    uniform_matroid,
)


def u24():
    return uniform_matroid("abcd", 2)


def _naive_gf2_rank(cols):
    mat = [list(row) for row in zip(*cols)] if cols else []
    rank = 0
    for col in range(len(cols)):
        sel = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if sel is None:
            continue
        mat[rank], mat[sel] = mat[sel], mat[rank]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                mat[r] = [(a + b) % 2 for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


class TestElementSets:
    def test_labels_unique(self):
        with pytest.raises(DomainError):
            GroundSet(["a", "a"])

    def test_canonical_order_is_insertion_order(self):
        g = GroundSet(["b", "a", "c"])
        assert list(g.set_of(["c", "a"])) == ["a", "c"]
        assert g.full().labels() == ("b", "a", "c")

    def test_algebra_closed_over_universe(self):
        g = GroundSet("abcd")
        s = g.set_of("ab")
        t = g.set_of("bc")
        assert list(s | t) == ["a", "b", "c"]
        assert list(s & t) == ["b"]
        assert list(s - t) == ["a"]
        assert list(s.complement()) == ["c", "d"]
        assert (s | t).ground == g

    def test_extensional_equality(self):
        g1 = GroundSet("abc")
        g2 = GroundSet("abc")
        assert g1.set_of("ab") == g2.set_of(["b", "a"])

    def test_universe_mismatch_rejected(self):
        s = GroundSet("abc").set_of("ab")
        t = GroundSet("abd").set_of("ab")
        with pytest.raises(UniverseMismatchError):
            s | t

    def test_unknown_label_rejected(self):
        with pytest.raises(DomainError):
            GroundSet("abc").set_of("ax")

    def test_set_of_an_element_set(self):
        s = GroundSet("abc").set_of("ac")
        assert GroundSet("abc").set_of(s) == s  # an equal ground passes it through
        moved = GroundSet("cba").set_of(s)  # another ground maps it label by label
        assert moved.ground == GroundSet("cba") and moved.mask == 0b101
        assert GroundSet("cab").set_of(s).mask == 0b011
        with pytest.raises(DomainError):
            GroundSet("ab").set_of(s)


class TestIndependenceOracles:
    def test_uniform_small_sets_independent(self):
        m = u24()
        assert m.is_independent(m.ground.set_of("ab"))

    def test_uniform_large_sets_dependent(self):
        m = u24()
        assert not m.is_independent(m.ground.set_of("abc"))

    def test_graphic_cycle_dependent(self):
        tri = helpers.triangle()
        oracle = helpers.nx_forest_oracle(
            [("e1", "u", "v"), ("e2", "v", "w"), ("e3", "w", "u")]
        )
        full = frozenset(["e1", "e2", "e3"])
        assert oracle(full) is False
        assert not tri.is_independent(tri.ground.full())

    def test_graphic_matches_networkx_on_k4(self):
        edges = helpers.k4_edges()
        m = graphic_matroid(edges)
        oracle = helpers.nx_forest_oracle(edges)
        for mask in range(64):
            subset = frozenset(
                lab for i, lab in enumerate(m.ground) if mask >> i & 1
            )
            assert m.is_independent(m.ground.set_of(subset)) == oracle(subset)

    def test_loop_is_dependent(self):
        m = graphic_matroid([("l", "u", "u"), ("e", "u", "v")])
        assert not m.is_independent(m.ground.set_of(["l"]))
        assert m.is_independent(m.ground.set_of(["e"]))

    def test_gf2_rank_matches_explicit_matrix(self):
        # columns: e1=(1,0), e2=(0,1), e3=(1,1); any two independent, all three not
        m = gf2_matroid("abc", [[1, 0, 1], [0, 1, 1]])
        assert m.is_independent(m.ground.set_of("ab"))
        assert m.is_independent(m.ground.set_of("ac"))
        assert not m.is_independent(m.ground.full())

    def test_gf2_matches_naive_elimination(self):
        rng = random.Random(17)
        for _ in range(40):
            ncols = rng.randint(1, 6)
            nrows = rng.randint(1, 4)
            matrix = [
                [rng.randint(0, 1) for _ in range(ncols)] for _ in range(nrows)
            ]
            labels = [f"c{i}" for i in range(ncols)]
            m = gf2_matroid(labels, matrix)
            for mask in range(1 << ncols):
                chosen = [i for i in range(ncols) if mask >> i & 1]
                cols = [
                    [matrix[r][i] for r in range(nrows)] for i in chosen
                ]
                expect = _naive_gf2_rank(cols) == len(chosen)
                got = m.is_independent(
                    m.ground.set_of([labels[i] for i in chosen])
                )
                assert got == expect, (matrix, chosen)

    def test_universe_mismatch_raises(self):
        m = u24()
        other = GroundSet("abcd")
        assert m.is_independent(other.set_of("ab"))  # equal labels interchangeable
        with pytest.raises(UniverseMismatchError):
            m.is_independent(GroundSet("xyzw").set_of("xy"))


class TestRank:
    def test_empty_set_rank_zero(self, corpus):
        for _, m in corpus[:10]:
            assert m.rank(m.ground.empty()) == 0

    def test_uniform_rank_is_clipped_size(self):
        m = u24()
        assert m.rank(m.ground.set_of("abc")) == 2
        assert m.rank(m.ground.set_of("a")) == 1

    def test_triangle_rank_two(self):
        tri = helpers.triangle()
        oracle = helpers.nx_forest_oracle(
            [("e1", "u", "v"), ("e2", "v", "w"), ("e3", "w", "u")]
        )
        assert helpers.brute_rank(oracle, ["e1", "e2", "e3"]) == 2
        assert tri.rank() == 2

    @pytest.mark.parametrize(
        "make",
        [helpers.triangle, lambda: gf2_matroid("abc", [[1, 0, 1], [0, 1, 1]]), u24],
        ids=["graphic", "gf2", "uniform"],
    )
    def test_one_basis_for_rank_and_summary(self, make, monkeypatch):
        m = make()
        cls = type(m)
        grow = cls._greedy_basis_mask
        passes = []

        def counted(self, within, start=0):
            if within == self.ground.full_mask:
                passes.append(within)
            return grow(self, within, start)

        monkeypatch.setattr(cls, "_greedy_basis_mask", counted)
        matroid_summary(m)
        assert len(passes) == 1
        fresh = make()
        fresh.basis()
        passes.clear()
        assert fresh.full_rank == fresh.rank() == len(fresh.basis())
        assert passes == []

    def test_rank_matches_brute_force(self, small_corpus):
        rng = random.Random(7)
        for name, m in small_corpus[:20]:
            indep = helpers.oracle_of(m)
            labels = list(m.ground)
            for _ in range(5):
                subset = frozenset(lab for lab in labels if rng.random() < 0.5)
                assert m.rank(m.ground.set_of(subset)) == helpers.brute_rank(
                    indep, subset
                ), name


class TestExtendToBasis:
    def test_empty_start_in_uniform(self):
        m = u24()
        assert m.extend_to_basis(m.ground.empty()) == m.ground.set_of("ab")

    def test_fixed_point_when_maximal(self):
        m = u24()
        b = m.ground.set_of("ad")
        assert m.extend_to_basis(b, m.ground.full()) == b

    def test_greedy_avoids_cycle(self):
        tri = helpers.triangle()
        got = tri.extend_to_basis(tri.ground.set_of(["e1"]))
        assert got == tri.ground.set_of(["e1", "e2"])

    def test_dependent_start_rejected(self):
        tri = helpers.triangle()
        with pytest.raises(PreconditionError):
            tri.extend_to_basis(tri.ground.full())

    def test_start_outside_range_rejected(self):
        m = u24()
        with pytest.raises(DomainError):
            m.extend_to_basis(m.ground.set_of("a"), m.ground.set_of("bc"))

    def test_result_is_maximal_inside_range(self, small_corpus):
        rng = random.Random(11)
        for name, m in small_corpus[:15]:
            labels = list(m.ground)
            within = m.ground.set_of(
                [lab for lab in labels if rng.random() < 0.7]
            )
            got = m.extend_to_basis(m.ground.empty(), within)
            assert m.is_independent(got), name
            for lab in within - got:
                assert not m.is_independent(got.with_element(lab)), name


class TestCircuits:
    def test_free_matroid_has_none(self):
        assert free_matroid("abc").circuits() == []

    def test_uniform_circuits_are_all_triples(self):
        m = u24()
        got = {frozenset(c) for c in m.circuits()}
        expect = helpers.brute_circuits(helpers.oracle_of(m), "abcd")
        assert got == expect
        assert len(got) == 4 and all(len(c) == 3 for c in got)

    def test_triangle_single_circuit(self):
        tri = helpers.triangle()
        assert [frozenset(c) for c in tri.circuits()] == [
            frozenset(["e1", "e2", "e3"])
        ]

    def test_output_in_canonical_order(self):
        m = u24()
        keys = [c.indices() for c in m.circuits()]
        assert keys == sorted(keys)

    def test_budget_enforced(self):
        m = free_matroid([f"x{i}" for i in range(25)])
        with pytest.raises(CapacityError):
            m.circuits()
        assert m.circuits(budget=25) == []

    def test_graphic_fast_path_matches_brute(self, graphs):
        for name, edges, m in graphs:
            if len(edges) > 5:
                continue
            fast = {frozenset(c) for c in m.circuits()}
            brute = helpers.brute_circuits(
                helpers.nx_forest_oracle(edges), [e[0] for e in edges]
            )
            assert fast == brute, name

    def test_circuits_pairwise_incomparable(self, small_corpus):
        for name, m in small_corpus[:25]:
            masks = [c.mask for c in m.circuits()]
            for a in masks:
                for b in masks:
                    if a != b:
                        assert a & b != a, name

    def test_parallel_edges_and_loops(self):
        m = graphic_matroid(
            [("p", "u", "v"), ("q", "u", "v"), ("l", "w", "w")]
        )
        got = {frozenset(c) for c in m.circuits()}
        assert got == {frozenset(["p", "q"]), frozenset(["l"])}

    def test_random_multigraphs_match_brute_force(self):
        rng = random.Random(99)
        for trial in range(60):
            nv = rng.randint(1, 5)
            ne = rng.randint(1, 6)
            edges = [
                (f"e{i}", str(rng.randrange(nv)), str(rng.randrange(nv)))
                for i in range(ne)
            ]
            m = graphic_matroid(edges)
            fast = {frozenset(c) for c in m.circuits()}
            brute = helpers.brute_circuits(
                helpers.nx_forest_oracle(edges), [e[0] for e in edges]
            )
            assert fast == brute, (trial, edges)


class TestFundamentalCircuit:
    def test_uniform_case(self):
        m = u24()
        c = m.fundamental_circuit(m.ground.set_of("ab"), "c")
        assert c == m.ground.set_of("abc")

    def test_triangle_case(self):
        tri = helpers.triangle()
        c = tri.fundamental_circuit(tri.ground.set_of(["e1", "e2"]), "e3")
        assert frozenset(c) == frozenset(["e1", "e2", "e3"])

    def test_direct_sum_keeps_circuit_in_block(self):
        m = helpers.two_triangles()
        base = m.ground.set_of(["a1", "a2", "b1", "b2"])
        c = m.fundamental_circuit(base, "a3")
        assert frozenset(c) == frozenset(["a1", "a2", "a3"])

    def test_non_basis_rejected(self):
        m = u24()
        with pytest.raises(PreconditionError):
            m.fundamental_circuit(m.ground.set_of("a"), "c")
        with pytest.raises(PreconditionError):
            m.fundamental_circuit(m.ground.set_of("ab"), "a")

    def test_uniqueness_on_corpus(self, corpus):
        for name, m in corpus:
            if m.full_rank == len(m.ground):
                continue
            base = m.basis()
            circuits = m.circuits()
            for x in base.complement():
                inside = [
                    c
                    for c in circuits
                    if c <= base.with_element(x)
                ]
                assert len(inside) == 1, name
                assert x in inside[0]
                assert inside[0] == m.fundamental_circuit(base, x)


class TestDownwardClosure:
    @pytest.fixture(scope="class")
    def closure_corpus(self):
        # Built once before the first example: the cold graph enumeration
        # alone takes most of hypothesis's 200 ms deadline.
        return helpers.uniform_corpus(6) + [
            (n, m) for n, _, m in helpers.graph_corpus(5)
        ]

    @settings(max_examples=60, derandomize=True)
    @given(data=st.data())
    def test_subsets_of_independent_stay_independent(self, closure_corpus, data):
        name, m = data.draw(st.sampled_from(closure_corpus))
        labels = list(m.ground)
        subset = data.draw(st.sets(st.sampled_from(labels)) if labels else st.none())
        picked = m.ground.set_of(subset)
        if m.is_independent(picked):
            smaller = data.draw(st.sets(st.sampled_from(sorted(subset)))) if subset else set()
            assert m.is_independent(m.ground.set_of(smaller))


class TestCircuitCocircuitMeet:
    def test_meet_never_one_element(self, corpus):
        for name, m in corpus:
            cocircuits = dual(m).circuits()
            for c in m.circuits():
                for d in cocircuits:
                    meet = c.mask & m.ground.set_of(d).mask
                    assert meet == 0 or bin(meet).count("1") >= 2, name

    def test_everywhere_doubly_met_sets_are_dependent(self, corpus):
        # nonempty X meeting every cocircuit in 0 or >= 2 elements is dependent
        for name, m in corpus:
            cocircuit_masks = [m.ground.set_of(d).mask for d in dual(m).circuits()]
            for mask in range(1, m.ground.full_mask + 1):
                if all(
                    (d & mask) == 0 or bin(d & mask).count("1") >= 2
                    for d in cocircuit_masks
                ):
                    assert not m._indep(mask), name


class TestBasisExchangeCount:
    def test_difference_sizes_balance(self, corpus):
        for name, m in corpus:
            full = m.ground.full_mask
            bases = [
                mask
                for mask in range(full + 1)
                if bin(mask).count("1") == m.full_rank and m._indep(mask)
            ]
            for b1 in bases:
                for b2 in bases:
                    left = bin(b1 & ~b2).count("1")
                    right = bin(b2 & ~b1).count("1")
                    assert left == right, name
