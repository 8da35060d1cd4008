import random

import pytest
from hypothesis import given, settings, strategies as st

import helpers
from helpers import generic, same_independence
from matroid_kappa import (
    DomainError,
    ElementSet,
    GroundSet,
    InvariantViolation,
    Matroid,
    MinorSpec,
    PreconditionError,
    components,
    contract,
    delete,
    direct_sum,
    dual,
    explicit_matroid,
    free_matroid,
    gf2_matroid,
    graphic_matroid,
    lift_circuit,
    matroid_summary,
    restrict,
    take_minor,
    uniform_matroid,
)
from matroid_kappa.core import BinaryMatroid, GraphicMatroid


def u24():
    return uniform_matroid("abcd", 2)


class TestDual:
    def test_u24_self_dual(self):
        assert same_independence(dual(u24()), u24())

    def test_dual_of_free_has_only_empty_independent(self):
        d = dual(free_matroid("abc"))
        assert d.rank() == 0
        assert d.is_independent(d.ground.empty())
        assert not d.is_independent(d.ground.set_of("a"))

    def test_bond_matroid_of_triangle(self):
        d = dual(helpers.triangle())
        assert same_independence(d, uniform_matroid(["e1", "e2", "e3"], 1))

    def test_involution(self, corpus):
        for name, m in corpus:
            assert same_independence(dual(dual(m)), m), name

    def test_involution_at_ten_elements(self):
        big = uniform_matroid([f"x{i}" for i in range(10)], 5)
        generic_big = generic(big)
        assert same_independence(dual(dual(generic_big)), big)

    def test_uniform_bound_above_size(self):
        m = uniform_matroid("abc", 5)
        assert same_independence(dual(m), dual(generic(m)))

    def test_uniform_fast_path_matches_generic(self, uniforms):
        for name, m in uniforms:
            if len(m.ground) > 6:
                continue
            assert same_independence(dual(m), dual(generic(m))), name


class TestRestrictContract:
    def test_restrict_to_everything_is_identity(self):
        m = u24()
        assert same_independence(restrict(m, m.ground.full()), m)

    def test_restrict_u24_to_pair_is_free(self):
        got = restrict(u24(), GroundSetOf("ab"))
        assert same_independence(got, free_matroid("ab"))

    def test_restrict_triangle_to_two_edges_is_free(self):
        tri = helpers.triangle()
        got = restrict(tri, tri.ground.set_of(["e1", "e2"]))
        assert same_independence(got, free_matroid(["e1", "e2"]))

    def test_contract_nothing_is_identity(self):
        m = u24()
        assert same_independence(contract(m, m.ground.empty()), m)

    def test_contract_triangle_edge(self):
        tri = helpers.triangle()
        got = contract(tri, tri.ground.set_of(["e1"]))
        assert got.is_independent(got.ground.set_of(["e2"]))
        assert not got.is_independent(got.ground.set_of(["e2", "e3"]))

    def test_contract_u24_element_gives_u13(self):
        got = contract(u24(), GroundSetOf("a"))
        assert same_independence(got, uniform_matroid("bcd", 1))

    def test_contract_independent_of_basis_choice(self, small_corpus):
        rng = random.Random(3)
        for name, m in small_corpus[:20]:
            labels = list(m.ground)
            away = m.ground.set_of([lab for lab in labels if rng.random() < 0.4])
            reference = contract(m, away)
            for _ in range(3):
                base = helpers.random_greedy_basis(m, away, rng)
                keep = away.complement()
                mapping = {lab: i for i, lab in enumerate(keep)}
                alt = Matroid(
                    reference.ground,
                    lambda mask, base=base, keep=keep: m._indep(
                        _expand(mask, keep) | base.mask
                    ),
                )
                assert same_independence(alt, reference), name

    def test_rep_fast_paths_match_generic(self, corpus):
        rng = random.Random(5)
        for name, m in corpus:
            if len(m.ground) > 6 or m.rep == "derived":
                continue
            labels = list(m.ground)
            away = m.ground.set_of([lab for lab in labels if rng.random() < 0.4])
            assert same_independence(contract(m, away), contract(generic(m), away)), name
            assert same_independence(restrict(m, away), restrict(generic(m), away)), name


def _expand(mask: int, keep: ElementSet) -> int:
    out = 0
    for j, pos in enumerate(keep.indices()):
        if mask >> j & 1:
            out |= 1 << pos
    return out


def GroundSetOf(labels):
    return u24().ground.set_of(labels)


class TestBasisPatching:
    def test_partial_bases_assemble_to_full_bases(self, small_corpus):
        # a basis of the contraction to X plus any basis of the deletion of X
        # is a basis of the whole matroid, and conversely
        for name, m in small_corpus[:15]:
            full = m.ground.full_mask
            for xmask in range(full + 1):
                rest = full & ~xmask
                mx = contract(m, ElementSet(m.ground, rest))  # contraction to X
                rest_m = restrict(m, ElementSet(m.ground, rest))
                bases_rest = [
                    b
                    for b in range(rest + 1)
                    if b & rest == b
                    and m._indep(b)
                    and bin(b).count("1") == rest_m.full_rank
                ]
                x_locals = [
                    bx
                    for bx in range(xmask + 1)
                    if bx & xmask == bx
                ]
                for bx in x_locals:
                    local = ElementSet(mx.ground, _compress(bx, xmask))
                    is_contraction_basis = (
                        mx.is_independent(local) and len(local) == mx.full_rank
                    )
                    joins = [
                        m._indep(bx | b)
                        and bin(bx | b).count("1") == m.full_rank
                        for b in bases_rest
                    ]
                    if is_contraction_basis:
                        assert all(joins), name
                    else:
                        assert not any(joins), name
                if len(m.ground) > 5:
                    break


def _compress(mask: int, within: int) -> int:
    out = 0
    j = 0
    pos = 0
    while within:
        if within & 1:
            if mask >> pos & 1:
                out |= 1 << j
            j += 1
        within >>= 1
        pos += 1
    return out


class TestMinor:
    def test_empty_spec_is_identity(self):
        m = u24()
        spec = MinorSpec(m.ground.empty(), m.ground.empty())
        assert same_independence(take_minor(m, spec), m)

    def test_overlap_rejected(self):
        m = u24()
        with pytest.raises(DomainError):
            MinorSpec(m.ground.set_of("a"), m.ground.set_of("a"))

    def test_k4_minor_matches_graph_side(self):
        edges = helpers.k4_edges()
        m = graphic_matroid(edges)
        spec = MinorSpec(m.ground.set_of(["e1"]), m.ground.set_of(["e6"]))
        got = take_minor(m, spec)
        # graph-side oracle: contract 1-2, delete 3-4
        survivors = [e for e in edges if e[0] not in ("e1", "e6")]
        merged = [(lab, "12" if u in "12" else u, "12" if v in "12" else v)
                  for lab, u, v in survivors]
        reference = graphic_matroid(merged)
        assert same_independence(got, reference)

    def test_contract_delete_order_swap(self, small_corpus):
        rng = random.Random(9)
        for name, m in small_corpus[:20]:
            labels = list(m.ground)
            away = [lab for lab in labels if rng.random() < 0.3]
            drop = [lab for lab in labels if lab not in away and rng.random() < 0.3]
            c = m.ground.set_of(away)
            d = m.ground.set_of(drop)
            one = take_minor(m, MinorSpec(c, d))
            contracted_last = contract(
                delete(m, d), c.in_universe(delete(m, d).ground)
            )
            assert same_independence(one, contracted_last), name


class TestDirectSum:
    def test_single_part_identity(self):
        m = u24()
        assert same_independence(direct_sum([m]), m)

    def test_label_collision_rejected(self):
        with pytest.raises(DomainError):
            direct_sum([free_matroid("ab"), free_matroid("bc")])

    def test_circuits_are_union_of_part_circuits(self):
        m = helpers.two_triangles()
        got = {frozenset(c) for c in m.circuits()}
        assert got == {
            frozenset(["a1", "a2", "a3"]),
            frozenset(["b1", "b2", "b3"]),
        }

    def test_rank_adds_up(self):
        m = direct_sum([uniform_matroid("ab", 1), uniform_matroid("cd", 1)])
        assert m.rank() == 2
        assert m.rank(m.ground.set_of("ab")) == 1


class TestComponents:
    def test_free_matroid_fully_separates(self):
        parts = components(free_matroid("abc"))
        assert [list(b) for b in parts.blocks] == [["a"], ["b"], ["c"]]

    def test_two_triangles_two_blocks(self):
        parts = components(helpers.two_triangles())
        assert [sorted(b) for b in parts.blocks] == [
            ["a1", "a2", "a3"],
            ["b1", "b2", "b3"],
        ]

    def test_u24_connected(self):
        assert components(u24()).is_connected

    def test_loops_and_coloops_are_singletons(self):
        m = graphic_matroid(
            [("l", "u", "u"), ("e1", "u", "v"), ("e2", "v", "w"), ("e3", "w", "u")]
        )
        parts = components(m)
        assert sorted(tuple(b) for b in parts.blocks) == [
            ("e1", "e2", "e3"),
            ("l",),
        ]

    def test_non_matroid_oracle_is_an_invariant_violation(self):
        # {c} cannot be augmented from {a, b}: the blocks {a}, {b}, {c}
        # have ranks summing to 3 while the greedy rank is 2
        ground = GroundSet("abc")
        family = {0b000, 0b001, 0b010, 0b100, 0b011}
        with pytest.raises(InvariantViolation):
            components(Matroid(ground, family.__contains__))

    def test_matroid_is_sum_of_component_restrictions(self, corpus):
        for name, m in corpus:
            parts = components(m)
            rebuilt_parts = []
            for block in parts.blocks:
                sub = restrict(m, block)
                rebuilt_parts.append(sub)
            rebuilt = direct_sum(rebuilt_parts)
            # same labels, possibly different order: compare via subsets
            for mask in range(m.ground.full_mask + 1):
                s = m.ground.from_mask(mask)
                assert m.is_independent(s) == rebuilt.is_independent(
                    rebuilt.ground.set_of(s)
                ), name

    def test_component_blocks_invariant_under_dual_when_loopfree(self, small_corpus):
        for name, m in small_corpus[:25]:
            circuits = m.circuits()
            covered = 0
            for c in circuits:
                covered |= c.mask
            cocircuits = dual(m).circuits()
            cocovered = 0
            for c in cocircuits:
                cocovered |= m.ground.set_of(c).mask
            if covered != m.ground.full_mask or cocovered != m.ground.full_mask:
                continue  # loops or coloops present
            left = {tuple(sorted(b)) for b in components(m).blocks}
            right = {tuple(sorted(b)) for b in components(dual(m)).blocks}
            assert left == right, name


@st.composite
def multigraphs(draw):
    """A graphic matroid of up to 16 edges on up to 7 vertex numbers, or a
    contraction or deletion of one.  Loops and parallel edges come up
    often, some vertex numbers go unused (isolated vertices), and a
    contraction makes new loops and parallel edges."""
    nv = draw(st.integers(1, 7))
    vertex = st.integers(0, nv - 1)
    ends = draw(st.lists(st.tuples(vertex, vertex), max_size=16))
    m = GraphicMatroid(GroundSet(f"e{i}" for i in range(len(ends))), tuple(ends), nv)
    picked = m.ground.from_mask(draw(st.integers(0, m.ground.full_mask)))
    step = draw(st.sampled_from([None, contract, delete]))
    return m if step is None else step(m, picked)


class TestComponentHooks:
    """Each representation's own blocks against the union-find over the
    fundamental circuits, which ``generic`` leaves the only route."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(m=multigraphs())
    def test_graph_blocks_match_union_find(self, m):
        assert isinstance(m, GraphicMatroid)
        assert components(m) == components(generic(m))

    def test_uniform_closed_form_matches_union_find(self):
        for n in range(9):
            for k in range(n + 1):
                m = uniform_matroid([f"x{i}" for i in range(n)], k)
                assert components(m) == components(generic(m)), (k, n)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(count=st.integers(1, 3), dualised=st.booleans(), data=st.data())
    def test_sum_blocks_match_union_find(self, count, dualised, data):
        m = direct_sum(
            [data.draw(helpers.representations(prefix=f"p{i}_", max_n=5)) for i in range(count)]
        )
        if dualised:
            m = dual(m)
        assert components(m) == components(generic(m))

    def test_long_cycle_is_one_block(self):
        # deeper than the interpreter's recursion limit, so the search
        # must keep its own stack
        n = 3000
        m = graphic_matroid((f"e{i}", str(i), str((i + 1) % n)) for i in range(n))
        assert list(m._component_masks()) == [m.ground.full_mask]
        assert components(m).is_connected


class TestCircuitsThroughContractions:
    def test_lift_with_nothing_contracted(self):
        tri = helpers.triangle()
        c = tri.circuits()[0]
        assert lift_circuit(tri, tri.ground.empty(), c) == c

    def test_lift_in_triangle(self):
        tri = helpers.triangle()
        away = tri.ground.set_of(["e1"])
        inner = contract(tri, away)
        circ = inner.ground.set_of(["e2", "e3"])
        assert inner.is_circuit(circ)
        lifted = lift_circuit(tri, away, circ)
        assert frozenset(lifted) == frozenset(["e1", "e2", "e3"])

    def test_lift_in_u24(self):
        m = u24()
        away = m.ground.set_of("a")
        inner = contract(m, away)
        circ = inner.ground.set_of("bc")
        lifted = lift_circuit(m, away, circ)
        assert frozenset(lifted) == frozenset("abc")

    def test_non_circuit_rejected(self):
        m = u24()
        with pytest.raises(PreconditionError):
            lift_circuit(m, m.ground.set_of("a"), contract(m, m.ground.set_of("a")).ground.set_of("b"))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(m=helpers.representations(max_n=10), data=st.data())
    def test_lift_of_a_random_circuit(self, m, data):
        if data.draw(st.booleans()):
            m = dual(m)
        away = m.ground.from_mask(data.draw(st.integers(0, m.ground.full_mask)))
        inner = contract(m, away)
        circuits = inner.circuits()
        if not circuits:
            return
        d = data.draw(st.sampled_from(circuits))
        lifted = lift_circuit(m, away, d)
        assert m.is_circuit(lifted)
        assert frozenset(lifted - away) == frozenset(d)

    def test_circuit_residues_stay_circuits(self, small_corpus):
        # removing part of a circuit and contracting it leaves a circuit
        for name, m in small_corpus[:25]:
            for c in m.circuits():
                for r in (1, len(c) - 1):
                    if r < 1 or r >= len(c):
                        continue
                    away_labels = list(c)[:r]
                    away = m.ground.set_of(away_labels)
                    inner = contract(m, away)
                    residue = (c - away).in_universe(inner.ground)
                    assert inner.is_circuit(residue), name

    def test_covered_elements_stay_covered(self, small_corpus):
        # an element on some circuit stays on one after contracting elsewhere
        rng = random.Random(13)
        for name, m in small_corpus[:20]:
            circuits = m.circuits()
            covered = set()
            for c in circuits:
                covered.update(c)
            for e in sorted(covered)[:3]:
                others = [lab for lab in m.ground if lab != e]
                away = m.ground.set_of(
                    [lab for lab in others if rng.random() < 0.4]
                )
                inner = contract(m, away)
                assert any(
                    e in c for c in inner.circuits()
                ), (name, e, sorted(away))


class TestRepresentationRoutes:
    """Each representation's own dual, minors and circuits against the
    generic oracle wrappers."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(m=helpers.representations(), data=st.data())
    def test_own_dual_and_minors_match_generic(self, m, data):
        ref = generic(m)
        s = m.ground.from_mask(data.draw(st.integers(0, m.ground.full_mask)))
        assert same_independence(dual(m), dual(ref))
        assert same_independence(restrict(m, s), restrict(ref, s))
        assert same_independence(contract(m, s), contract(ref, s))
        assert m.circuits() == ref.circuits()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_direct_sum_circuits_match_generic(self, data):
        count = data.draw(st.integers(1, 3))
        parts = [data.draw(helpers.representations(f"p{i}_", max_n=4)) for i in range(count)]
        m = direct_sum(parts)
        ref = generic(m)
        s = m.ground.from_mask(data.draw(st.integers(0, m.ground.full_mask)))
        assert m.circuits() == ref.circuits()
        assert same_independence(dual(m), dual(ref))
        assert same_independence(restrict(m, s), restrict(ref, s))
        assert same_independence(contract(m, s), contract(ref, s))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(m=helpers.representations())
    def test_dual_of_dual_is_the_matroid(self, m):
        assert dual(dual(m)) is m
        assert dual(m) is dual(m)
        ref = generic(m)
        assert dual(dual(ref)) is ref
        summed = direct_sum([m, uniform_matroid(["s0", "s1"], 1)])
        assert dual(dual(summed)) is summed

    @pytest.mark.parametrize(
        "m",
        [
            gf2_matroid("abcd", [[0, 0, 0, 0], [0, 0, 0, 0]]),
            gf2_matroid("abc", []),
            gf2_matroid("abcdef", [[1, 1, 0, 0, 1, 0], [0, 0, 1, 1, 1, 0]]),
            graphic_matroid(
                [("l1", "u", "u"), ("p1", "u", "v"), ("p2", "u", "v"),
                 ("p3", "v", "u"), ("e", "v", "w"), ("l2", "w", "w")]
            ),
            uniform_matroid("abcd", 0),
            free_matroid("abcd"),
        ],
        ids=["gf2-zero", "gf2-no-rows", "gf2-repeated", "graph-loops-parallel", "u0n", "free"],
    )
    def test_edge_cases_match_generic(self, m):
        ref = generic(m)
        assert same_independence(dual(m), dual(ref))
        assert dual(dual(m)) is m
        for own, scan in ((m, ref), (dual(m), dual(ref))):
            assert own.circuits() == scan.circuits()
            full = own.ground.full_mask
            for within in range(full + 1):
                for start in (0, within, full & ~within):
                    got = own._greedy_basis_mask(within, start)
                    assert got == scan._greedy_basis_mask(within, start)
        for mask in range(m.ground.full_mask + 1):
            s = m.ground.from_mask(mask)
            assert same_independence(contract(m, s), contract(ref, s))
            assert same_independence(restrict(m, s), restrict(ref, s))
            assert same_independence(contract(dual(m), s), contract(dual(ref), s))

    @pytest.mark.parametrize(
        "chain",
        [
            # contracting b, then c: the triangle's a and its parallel d become loops
            [("b", ""), ("c", "")],
            # vertex 4 is left with no edge, and 3 with only its loop f
            [("", "eg"), ("a", "h")],
            # contracting a makes d a loop and b, c a parallel class
            [("a", ""), ("", "b"), ("h", "")],
            [("g", "c"), ("", "a"), ("bd", "")],
            [("eh", ""), ("", "f"), ("a", "")],
        ],
    )
    def test_graphic_minor_chains_match_generic(self, chain):
        m = graphic_matroid(
            [("a", 0, 1), ("b", 1, 2), ("c", 2, 0), ("d", 0, 1),
             ("e", 2, 3), ("f", 3, 3), ("g", 3, 4), ("h", 1, 3)]
        )
        ref = generic(m)
        for away, drop in chain:
            m = take_minor(m, MinorSpec(m.ground.set_of(away), m.ground.set_of(drop)))
            ref = take_minor(ref, MinorSpec(ref.ground.set_of(away), ref.ground.set_of(drop)))
            assert m.rep == "graphic"
            assert same_independence(m, ref)
            assert m.circuits() == ref.circuits()

    def test_representation_field_of_each_construction(self):
        u = u24()
        g = helpers.triangle()
        b = gf2_matroid("abc", [[1, 0, 1], [0, 1, 1]])
        e = explicit_matroid("abc", [[], ["a"], ["b"], ["c"], ["a", "b"], ["a", "c"]])

        def spec(m, c, d):
            return MinorSpec(m.ground.set_of(c), m.ground.set_of(d))

        cases = [
            (u, "uniform"),
            (dual(u), "uniform"),
            (take_minor(u, spec(u, "a", "b")), "uniform"),
            (g, "graphic"),
            (take_minor(g, spec(g, ["e1"], ["e2"])), "graphic"),
            (dual(g), "gf2"),
            (dual(dual(g)), "graphic"),
            (b, "gf2"),
            (take_minor(b, spec(b, "a", "")), "gf2"),
            (dual(b), "gf2"),
            (e, "explicit"),
            (restrict(e, e.ground.set_of("ab")), "explicit"),
            (take_minor(e, spec(e, "", "a")), "explicit"),
            (contract(e, e.ground.set_of("a")), "explicit"),
            (direct_sum([u, g]), "derived"),
        ]
        for m, want in cases:
            assert matroid_summary(m)["representation"] == want, m


class TestOneStepMinor:
    """take_minor builds M / C \\ D in one step; it must be the minor that
    contracting C and then deleting D builds, down to the ground order,
    the representation and the order of the circuits."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(m=helpers.derived_matroids(), data=st.data())
    def test_matches_contract_then_delete(self, m, data):
        away = data.draw(st.integers(0, m.ground.full_mask))
        drop = data.draw(st.integers(0, m.ground.full_mask)) & ~away
        spec = MinorSpec(m.ground.from_mask(away), m.ground.from_mask(drop))
        contracted = contract(m, spec.contract)
        two_steps = delete(contracted, spec.delete.in_universe(contracted.ground))
        one_step = take_minor(m, spec)
        assert same_independence(one_step, two_steps)
        assert one_step.rep == two_steps.rep
        assert one_step.basis() == two_steps.basis()
        assert one_step.circuits() == two_steps.circuits()


@st.composite
def binary_matroids(draw):
    """A GF(2) matrix with zero and repeated columns likely, or a minor or
    dual of one, or the dual of a multigraph with loops and parallel edges."""
    n = draw(st.integers(0, 9))
    labels = [f"c{i}" for i in range(n)]
    if draw(st.booleans()):
        vertex = st.integers(0, 3).map(str)
        return dual(graphic_matroid((lab, draw(vertex), draw(vertex)) for lab in labels))
    height = draw(st.integers(0, 4))
    columns = draw(st.lists(st.integers(0, (1 << height) - 1), min_size=n, max_size=n))
    m = gf2_matroid(labels, [[c >> i & 1 for c in columns] for i in range(height)])
    kind = draw(st.sampled_from(["self", "dual", "minor"]))
    if kind == "dual":
        return dual(m)
    if kind == "minor":
        away = draw(st.integers(0, m.ground.full_mask))
        return contract(m, m.ground.from_mask(away))
    return m


@st.composite
def multigraph_matroids(draw):
    """A multigraph with loops and parallel edges likely, or a minor of one."""
    n = draw(st.integers(0, 9))
    vertex = st.integers(0, 3).map(str)
    m = graphic_matroid((f"g{i}", draw(vertex), draw(vertex)) for i in range(n))
    if draw(st.booleans()):
        away = draw(st.integers(0, m.ground.full_mask))
        drop = draw(st.integers(0, m.ground.full_mask)) & ~away
        m = take_minor(m, MinorSpec(m.ground.from_mask(away), m.ground.from_mask(drop)))
    return m


class TestRepresentationKernels:
    """Each representation's own greedy basis, span and binary circuits
    against the generic oracle scans."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(m=helpers.derived_matroids(), data=st.data())
    def test_greedy_basis_matches_generic(self, m, data):
        ref = generic(m)
        full = m.ground.full_mask
        within = data.draw(st.integers(0, full))
        independent = ref._greedy_basis_mask(data.draw(st.integers(0, full)))
        starts = [0, independent, independent & within, data.draw(st.integers(0, full))]
        circuits = ref.circuits()
        if circuits:
            # a circuit plus anything is dependent and must come back unchanged
            dependent = data.draw(st.sampled_from(circuits)).mask
            dependent |= data.draw(st.integers(0, full))
            assert m._greedy_basis_mask(within, dependent) == dependent
            starts.append(dependent)
        for start in starts:
            assert m._greedy_basis_mask(within, start) == ref._greedy_basis_mask(within, start)
        assert m.basis() == ref.basis()
        assert m.full_rank == ref.full_rank
        s = m.ground.from_mask(within)
        assert m.rank(s) == ref.rank(s)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(m=binary_matroids())
    def test_binary_circuits_match_generic(self, m):
        assert isinstance(m, BinaryMatroid)
        assert m.circuits() == generic(m).circuits()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(m=st.one_of(binary_matroids(), multigraph_matroids()), data=st.data())
    def test_span_matches_generic(self, m, data):
        ref = generic(m)
        full = m.ground.full_mask
        taken = ref._greedy_basis_mask(data.draw(st.integers(0, full)))
        span, scan = m._span(taken), ref._span(taken)
        bits = [1 << i for i in range(len(m.ground))]
        seen_mask = data.draw(st.integers(0, full))
        seen = {bit for bit in bits if bit & seen_mask}
        for e in data.draw(st.permutations(bits)) + [0]:
            dependent = 0
            for f in bits:
                if taken & f:
                    continue
                assert span.adds(f) == scan.adds(f) == ref._indep(taken | f)
                circuit = span.circuit(f)
                assert circuit == scan.circuit(f)
                if circuit:
                    assert ref.find_circuit_in(m.ground.from_mask(taken | f)).mask == circuit
                    dependent |= f
                    assert span.leaving(f, taken, seen) == scan.leaving(f, taken, seen)
            for b in bits:
                if taken & b:
                    assert span.entering(b, dependent, seen) == scan.entering(b, dependent, seen)
            if e and not taken & e and scan.adds(e):
                span.add(e)
                scan.add(e)
                taken |= e

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(m=st.one_of(binary_matroids(), multigraph_matroids()), data=st.data())
    def test_grow_common_matches_generic(self, m, data):
        ref = generic(m)
        full = m.ground.full_mask
        bases = [ref._greedy_basis_mask(data.draw(st.integers(0, full))) for _ in "xy"]
        candidates = data.draw(st.integers(0, full)) & ~bases[0] & ~bases[1]
        spans = [m._span(base) for base in bases]
        scans = [ref._span(base) for base in bases]
        bits = [1 << i for i in range(len(m.ground))]
        expected = scans[0].grow_common(scans[1], candidates)
        dependents = [sum(f for f in bits if not (f & scan.mask or scan.adds(f))) for scan in scans]
        # arcs and circuits read before the spans grow must not outlive the growth
        for span, dependent in zip(spans, dependents):
            for f in bits:
                span.entering(f, dependent, ())
        assert spans[0].grow_common(spans[1], candidates) == expected
        for span, scan, dependent in zip(spans, scans, dependents):
            for f in bits:
                if f & scan.mask:
                    assert span.entering(f, dependent, ()) == scan.entering(f, dependent, ())
                else:
                    assert span.circuit(f) == scan.circuit(f)
