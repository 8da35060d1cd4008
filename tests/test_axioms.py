import pytest
from hypothesis import given, settings, strategies as st

import helpers
from matroid_kappa import (
    CapacityError,
    DomainError,
    GroundSet,
    check_axioms,
    dual,
    explicit_matroid,
)
from matroid_kappa import axioms


def materialized(m):
    """Explicit label family of a package matroid, for feeding the checker."""
    out = []
    for mask in range(m.ground.full_mask + 1):
        if m._indep(mask):
            out.append(tuple(m.ground.from_mask(mask)))
    return out


NON_MATROIDS = [
    # (name, kwargs for check_axioms, axiom expected to fail)
    ("missing-empty", dict(ground="ab", independent=[("a",)]), "I1"),
    ("not-downward-1", dict(ground="ab", independent=[(), ("a", "b")]), "I2"),
    (
        "not-downward-2",
        dict(ground="abc", independent=[(), ("a",), ("a", "b")]),
        "I2",
    ),
    (
        "no-augment-1",
        dict(ground="abc", independent=[(), ("a",), ("b",), ("c",), ("b", "c")]),
        "I3",
    ),
    (
        "no-augment-2",
        dict(
            ground="abc",
            independent=[(), ("a",), ("b",), ("c",), ("a", "b")],
        ),
        "I3",
    ),
    (
        "no-augment-3",
        dict(
            ground="abcd",
            independent=[(), ("a",), ("b",), ("c",), ("d",), ("a", "b"), ("c", "d")],
        ),
        "I3",
    ),
    ("empty-circuit", dict(ground="ab", circuits=[(), ("a", "b")]), "C1"),
    ("nested-circuits", dict(ground="ab", circuits=[("a",), ("a", "b")]), "C2"),
    (
        "broken-exchange-1",
        dict(ground="abc", circuits=[("a", "b"), ("a", "c")]),
        "C3",
    ),
    (
        "broken-exchange-2",
        dict(ground="abcd", circuits=[("a", "b"), ("a", "c"), ("b", "c", "d")]),
        "C3",
    ),
]


class TestChecker:
    def test_free_family_passes(self):
        report = check_axioms("ab", independent=[(), ("a",), ("b",), ("a", "b")])
        assert report.ok

    def test_uniform_families_pass(self):
        for name, m in helpers.uniform_corpus(5):
            report = check_axioms(m.ground, independent=materialized(m))
            assert report.ok, (name, report.first_failure())

    def test_circuit_family_of_u13_passes(self):
        report = check_axioms(
            "abc", circuits=[("a", "b"), ("b", "c"), ("a", "c")]
        )
        assert report.ok

    def test_each_crafted_failure_is_caught(self):
        for name, kwargs, axiom in NON_MATROIDS:
            report = check_axioms(**kwargs)
            assert not report.ok, name
            assert not report[axiom].passed, (name, report.first_failure())
            assert report[axiom].witness, name

    def test_augmenting_element_must_lie_in_the_maximal_set(self):
        # {} + a is a member, but a lies outside I'={b,c}
        report = check_axioms("abc", independent=[(), ("a",), ("b", "c")])
        assert report["I3"].witness == (
            "I={} cannot be augmented from the maximal set I'={b,c}"
        )

    def test_witness_names_the_sets(self):
        report = check_axioms("abc", independent=[(), ("a",), ("a", "b")])
        assert "{a,b}" in report["I2"].witness

    def test_ground_budget(self):
        labels = [f"x{i}" for i in range(13)]
        with pytest.raises(CapacityError):
            check_axioms(labels, independent=[()])
        report = check_axioms(labels, independent=[("x0",)], budget=13)
        assert not report["I1"].passed

    def test_c3_budget_reported(self):
        m = next(m for name, m in helpers.uniform_corpus(5) if name == "U(2,5)")
        report = check_axioms(m.ground, independent=materialized(m), c3_budget=5)
        assert report.ok
        assert not report["C3"].exhaustive

    def test_negative_c3_budget_rejected(self):
        with pytest.raises(DomainError, match="c3_budget must be non-negative, got -1"):
            check_axioms("a", independent=[()], c3_budget=-1)

    def test_requires_exactly_one_family(self):
        with pytest.raises(DomainError):
            check_axioms("ab")
        with pytest.raises(DomainError):
            check_axioms("ab", independent=[()], circuits=[("a",)])


class TestExplicitConstructor:
    def test_valid_family_accepted(self):
        m = explicit_matroid("ab", [(), ("a",), ("b",)])
        assert m.rank() == 1

    def test_invalid_family_rejected(self):
        with pytest.raises(DomainError):
            explicit_matroid("ab", [("a",)])

    def test_check_can_be_disabled(self):
        m = explicit_matroid("ab", [("a",)], check=False)
        assert not m.is_independent(m.ground.empty())


@st.composite
def candidate_families(draw):
    """A ground set of 0-8 elements and a candidate family on it, as the
    keyword arguments of ``check_axioms``."""
    n = draw(st.integers(0, 8))
    ground = GroundSet([f"e{i}" for i in range(n)])
    masks = st.integers(0, ground.full_mask)
    kind = draw(st.sampled_from(["random", "closure", "uniform", "circuits"]))
    if kind == "circuits":
        circuits = draw(st.lists(masks, max_size=6))
        return ground, {"circuits": [ground.from_mask(c) for c in circuits]}
    if kind == "random":
        family = draw(st.sets(masks, max_size=40))
    else:
        if kind == "uniform":
            k = draw(st.integers(0, n))
            tops = [m for m in range(ground.full_mask + 1) if m.bit_count() == k]
        else:
            tops = draw(st.lists(masks, min_size=1, max_size=4))
        family = {m for m in range(ground.full_mask + 1) if any(m & t == m for t in tops)}
        if draw(st.booleans()):
            family.discard(draw(st.sampled_from(sorted(family))))
    if draw(st.booleans()):
        return ground, {"independent_masks": family}
    return ground, {"independent": [ground.from_mask(m) for m in family]}


class TestAgainstBruteChecker:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(case=candidate_families(), c3_budget=st.integers(0, 50))
    def test_report_and_explicit_error_match(self, case, c3_budget):
        ground, family = case
        expected = helpers.brute_check_axioms(ground, c3_budget=c3_budget, **family)
        got = check_axioms(ground, c3_budget=c3_budget, **family)
        assert got.to_jsonable() == expected.to_jsonable()
        if "circuits" in family:
            return
        if "independent" in family:
            sets = family["independent"]
        else:
            sets = [ground.from_mask(m) for m in family["independent_masks"]]
        if expected.independence_ok:
            explicit_matroid(ground, sets)
        else:
            with pytest.raises(DomainError) as err:
                explicit_matroid(ground, sets)
            assert str(err.value) == f"family is not a matroid: {expected.first_failure()}"

    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(m=helpers.representations(min_n=9, max_n=10), data=st.data())
    def test_one_set_off_a_matroid_on_ten_elements(self, m, data):
        # explicit files reach these sizes; one member dropped or one
        # dependent set added puts each witness anywhere in the table
        every = range(m.ground.full_mask + 1)
        family = {mask for mask in every if m._indep(mask)}
        dependent = [mask for mask in every if mask not in family]
        if dependent and data.draw(st.booleans()):
            family.add(data.draw(st.sampled_from(dependent)))
        else:
            family.discard(data.draw(st.sampled_from(sorted(family))))
        c3_budget = data.draw(st.integers(0, 50))
        sets = [m.ground.from_mask(mask) for mask in family]
        expected = helpers.brute_check_axioms(m.ground, sets, c3_budget=c3_budget)
        got = check_axioms(m.ground, sets, c3_budget=c3_budget)
        assert got.to_jsonable() == expected.to_jsonable()
        if expected.independence_ok:
            explicit_matroid(m.ground, sets)
        else:
            with pytest.raises(DomainError) as err:
                explicit_matroid(m.ground, sets)
            assert str(err.value) == f"family is not a matroid: {expected.first_failure()}"

    @pytest.mark.parametrize("name", ["U(1,3)", "U(2,4)", "U(1,5)"])
    def test_every_c3_budget_around_the_full_scan(self, name):
        # The full C3 scans of these count 6, 24 and 60 tuples, so the sweep
        # truncates inside, at the end of and just past the last block.
        m = dict(helpers.uniform_corpus(5))[name]
        family = materialized(m)
        for c3_budget in range(62):
            expected = helpers.brute_check_axioms(m.ground, family, c3_budget=c3_budget)
            got = check_axioms(m.ground, family, c3_budget=c3_budget)
            assert got.to_jsonable() == expected.to_jsonable(), c3_budget

    def test_default_budget_on_matroids(self):
        for name, m in helpers.uniform_corpus(5) + list(helpers.gf2_corpus(4)):
            family = materialized(m)
            expected = helpers.brute_check_axioms(m.ground, family)
            assert check_axioms(m.ground, family).to_jsonable() == expected.to_jsonable(), name

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(m=helpers.representations(max_n=8), dualise=st.booleans())
    def test_sets_without_circuits_are_the_independent_sets(self, m, dualise):
        # the CLI's check-axioms builds its subset table this way
        if dualise:
            m = dual(m)
        circuits = [c.mask for c in m.circuits()]
        table = sum(1 << mask for mask in range(m.ground.full_mask + 1) if m._indep(mask))
        assert axioms._without(m.ground, circuits) == table

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        m=st.one_of(
            helpers.representations(max_n=8),
            helpers.representations(max_n=8).map(dual),
            helpers.derived_matroids(),
        ),
        as_circuits=st.booleans(),
    )
    def test_c3_budget_at_the_exact_tuple_count(self, m, as_circuits):
        # a matroid's C3 tuples are counted, not scanned: the count must be
        # the scan's, so the report flips to truncated one below it
        circuits = [c.mask for c in m.circuits()]
        tuples = helpers.brute_c3_tuples(circuits)
        if as_circuits:
            family = {"circuits": [m.ground.from_mask(c) for c in circuits]}
        else:
            family = {"independent": materialized(m)}
        for c3_budget in (tuples, tuples - 1) if tuples else (0,):
            expected = helpers.brute_check_axioms(m.ground, c3_budget=c3_budget, **family)
            got = check_axioms(m.ground, c3_budget=c3_budget, **family)
            assert got.to_jsonable() == expected.to_jsonable(), c3_budget
            assert got["C3"].exhaustive == (c3_budget == tuples)

    def test_mask_outside_ground_rejected(self):
        with pytest.raises(DomainError):
            check_axioms("ab", independent_masks=[0, 4])
        with pytest.raises(DomainError, match="lies outside the ground set"):
            check_axioms("ab", independent_masks=[0, -1])


class TestScansOnlyOnFailure:
    """I1-I3 and C3 are decided from tables and counts: on a matroid no set
    is put in canonical order and no C3 scan runs.  Only a failure's
    witness is looked up in canonical order."""

    def test_matroids_need_no_scan(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("canonical-order walk on a matroid")

        for name in ("_canonical_key", "_check_c3"):
            monkeypatch.setattr(axioms, name, refuse)
        for name, m in helpers.full_corpus():
            family = materialized(m)
            assert check_axioms(m.ground, family).ok, name
            explicit_matroid(m.ground, family)

    def test_failures_name_their_witness(self):
        for name, kwargs, axiom in NON_MATROIDS:
            report = check_axioms(**kwargs)
            assert report[axiom].witness, name
            expected = helpers.brute_check_axioms(**kwargs)
            assert report.to_jsonable() == expected.to_jsonable(), name
