"""Interval conditions, catalog enumeration, robustness, builders."""

import itertools
import math
import random
import re
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import nodalbn as nb
from nodalbn import cli, components, ordering, polarization
from nodalbn.components import HypothesisError, stability_windows
from conftest import (
    forbid_enumeration,
    pruning_decomposition,
    random_good_polarization,
    random_tree_curve,
    random_valid_polarization,
    scaled_zero_sum_eps,
    shift_first_window,
)
from counting import record_calls
from oracles import (
    _sigma_windows,
    brute_force_box_size,
    brute_force_catalog,
    brute_force_small_slope,
    complement_goodness_proxy,
    copying_search,
    enumerating_invariance_check,
    raw_arithmetic_genus,
    raw_defect,
    raw_row,
    raw_split_sides,
    raw_windows,
    read_children,
    subtree_sum_count,
)


def canonical_deco(curve):
    return nb.order_components(curve, curve.gamma)


class TestComponentTuple:
    def test_total(self):
        assert nb.ComponentTuple(2, (1, 1, 3)).total == 5

    def test_rejects_bad_rank(self):
        with pytest.raises(ValueError):
            nb.ComponentTuple(0, (1,))

    def test_rejects_float_degrees(self):
        with pytest.raises(ValueError, match="degrees must be integers"):
            nb.ComponentTuple(3, (1.5, 2.9))

    @pytest.mark.parametrize("rank", [2.5, 2.0, "2"])
    def test_rejects_non_integer_rank(self, rank):
        with pytest.raises(ValueError, match="rank must be an integer"):
            nb.ComponentTuple(rank, (1,))

    def test_rank_is_an_int(self):
        class Rank:
            def __index__(self):
                return 3

        assert type(nb.ComponentTuple(Rank(), (1,)).rank) is int

    def test_orderable(self):
        tuples = [nb.ComponentTuple(2, (1, 1)), nb.ComponentTuple(2, (0, 2))]
        assert sorted(tuples)[0].degrees == (0, 2)

    def test_orders_only_among_tuples(self):
        ctuple = nb.ComponentTuple(2, (1, 1))
        with pytest.raises(TypeError):
            ctuple < 3
        with pytest.raises(TypeError):
            3 > ctuple


class TestStabilityConditions:
    def test_worked_row(self, two_curve):
        eta = nb.canonical(two_curve)
        deco = canonical_deco(two_curve)
        report = stability_windows(two_curve, eta, deco, 2, 2).check(nb.ComponentTuple(2, (1, 1)))
        assert report.passed
        (row,) = report.rows
        assert row.j == 1
        assert row.subcurve == frozenset({1})
        assert row.node == 1
        assert row.lower == Fraction(-1, 4)
        assert row.partial_sum == 1
        assert row.upper == Fraction(7, 4)
        assert row.slack_lower == Fraction(5, 4)
        assert row.slack_upper == Fraction(3, 4)

    def test_failing_tuple(self, two_curve):
        eta = nb.canonical(two_curve)
        deco = canonical_deco(two_curve)
        report = stability_windows(two_curve, eta, deco, 2, 2).check(nb.ComponentTuple(2, (3, -1)))
        assert not report.passed

    def test_window_width_is_rank(self, comb4):
        rng = random.Random(11)
        omega = random_valid_polarization(rng, comb4.gamma)
        deco = canonical_deco(comb4)
        for s in (1, 3, 5):
            report = stability_windows(comb4, omega, deco, s, 4).check(
                nb.ComponentTuple(s, (1, 1, 1, 1))
            )
            for row in report.rows:
                assert row.upper - row.lower == s
                assert row.slack_lower + row.slack_upper == s

    def test_canonical_windows_are_centered(self, chain4):
        # at the canonical weights every window is weight*d -/+ half the rank
        eta = nb.canonical(chain4)
        deco = canonical_deco(chain4)
        s, d = 3, 5
        report = stability_windows(chain4, eta, deco, s, d).check(
            nb.ComponentTuple(s, (1, 1, 1, 2))
        )
        for row in report.rows:
            wsum = sum(eta[i] for i in row.subcurve)
            assert row.lower == wsum * d - Fraction(s, 2)
            assert row.upper == wsum * d + Fraction(s, 2)

    def test_gamma_one_has_no_rows(self):
        curve = nb.NodalCurve((3,))
        deco = canonical_deco(curve)
        report = stability_windows(curve, nb.canonical(curve), deco, 2, 4).check(
            nb.ComponentTuple(2, (4,))
        )
        assert report.passed
        assert report.rows == ()

    def test_degree_length_checked(self, two_curve):
        deco = canonical_deco(two_curve)
        table = stability_windows(two_curve, nb.canonical(two_curve), deco, 2, 1)
        with pytest.raises(ValueError):
            table.check(nb.ComponentTuple(2, (1,)))


class TestEnumeration:
    def test_worked_catalog(self, two_curve):
        eta = nb.canonical(two_curve)
        deco = canonical_deco(two_curve)
        tuples = nb.enumerate_components(two_curve, eta, deco, s=2, d=2)
        assert [t.degrees for t in tuples] == [(0, 2), (1, 1)]

    def test_worked_small_slope(self, two_curve):
        eta = nb.canonical(two_curve)
        deco = canonical_deco(two_curve)
        kept = stability_windows(two_curve, eta, deco, 2, 2).degree_tuples(small_slope=True)
        assert list(kept) == [(1, 1)]

    def test_comb3_catalog(self, comb3_222):
        eta = nb.canonical(comb3_222)
        deco = canonical_deco(comb3_222)
        tuples = nb.enumerate_components(comb3_222, eta, deco, s=2, d=3)
        assert [t.degrees for t in tuples] == [(0, 0, 3), (0, 1, 2), (1, 0, 2), (1, 1, 1)]

    def test_single_component_catalog(self):
        curve = nb.NodalCurve((5,))
        deco = canonical_deco(curve)
        tuples = nb.enumerate_components(curve, nb.canonical(curve), deco, s=3, d=7)
        assert [t.degrees for t in tuples] == [(7,)]

    def test_catalog_entries_satisfy_conditions_and_total(self, chain4):
        eta = nb.canonical(chain4)
        deco = canonical_deco(chain4)
        tuples = nb.enumerate_components(chain4, eta, deco, s=3, d=6)
        assert tuples
        table = stability_windows(chain4, eta, deco, 3, 6)
        for t in tuples:
            assert t.total == 6
            assert table.check(t).passed

    def test_matches_brute_force_on_fixture(self, comb4):
        rng = random.Random(5)
        deco = canonical_deco(comb4)
        for omega in (nb.canonical(comb4), random_good_polarization(rng, comb4)):
            for s, d in itertools.product((1, 2, 4), (0, 3, 7)):
                lib = [t.degrees for t in nb.enumerate_components(comb4, omega, deco, s, d)]
                assert lib == brute_force_catalog(comb4, omega, deco, s, d)


class TestRobustness:
    def test_worked_radius(self, two_curve):
        eta = nb.canonical(two_curve)
        deco = canonical_deco(two_curve)
        rho = nb.robustness_radius(two_curve, eta, deco, nb.ComponentTuple(2, (1, 1)))
        assert rho == Fraction(1, 8)

    def test_radius_none_when_coefficient_vanishes(self, two_curve):
        # d = s (p_a - 1) makes every window shift-free
        eta = nb.canonical(two_curve)
        deco = canonical_deco(two_curve)
        tup = nb.ComponentTuple(2, (3, 5))
        assert stability_windows(two_curve, eta, deco, 2, 8).check(tup).passed
        assert nb.robustness_radius(two_curve, eta, deco, tup) is None

    def test_radius_none_for_single_component(self):
        curve = nb.NodalCurve((4,))
        deco = canonical_deco(curve)
        rho = nb.robustness_radius(
            curve, nb.canonical(curve), deco, nb.ComponentTuple(2, (5,))
        )
        assert rho is None

    def test_rejects_failing_tuple(self, two_curve):
        eta = nb.canonical(two_curve)
        deco = canonical_deco(two_curve)
        with pytest.raises(nb.HypothesisError):
            nb.robustness_radius(two_curve, eta, deco, nb.ComponentTuple(2, (3, -1)))

    def test_perturbations_inside_radius_preserve_conditions(self, chain4):
        rng = random.Random(17)
        eta = nb.canonical(chain4)
        deco = canonical_deco(chain4)
        tup = nb.ComponentTuple(3, (1, 1, 1, 2))
        rho = nb.robustness_radius(chain4, eta, deco, tup)
        assert rho is not None and rho > 0
        for _ in range(25):
            eps = scaled_zero_sum_eps(rng, chain4.gamma, rho)
            moved = nb.perturb(eta, eps)
            assert stability_windows(chain4, moved, deco, 3, 5).check(tup).passed

    def test_witness_breaks_binding_condition(self, two_curve):
        eta = nb.canonical(two_curve)
        deco = canonical_deco(two_curve)
        tup = nb.ComponentTuple(2, (1, 1))
        wit = nb.binding_witness(two_curve, eta, deco, tup)
        assert wit.j == 1
        assert wit.side == "upper"
        assert wit.epsilon == (Fraction(1001, 8000), Fraction(-1001, 8000))
        moved = nb.perturb(eta, wit.epsilon)
        report = stability_windows(two_curve, moved, deco, 2, 2).check(tup)
        assert not report.passed
        bad = [r for r in report.rows if not r.ok]
        assert [r.j for r in bad] == [wit.j]

    def test_witness_magnitude_just_beyond_radius(self, chain4):
        eta = nb.canonical(chain4)
        deco = canonical_deco(chain4)
        tup = nb.ComponentTuple(3, (1, 1, 1, 2))
        rho = nb.robustness_radius(chain4, eta, deco, tup)
        wit = nb.binding_witness(chain4, eta, deco, tup)
        target = deco.subcurves[wit.j - 1]
        for i in chain4.component_ids:
            if i in target:
                assert abs(wit.epsilon[i - 1]) == rho * nb.DEFAULT_WITNESS_MULTIPLIER
        assert sum(wit.epsilon) == 0
        moved = nb.perturb(eta, wit.epsilon)
        report = stability_windows(chain4, moved, deco, 3, 5).check(tup)
        assert not report.passed
        assert wit.j in [r.j for r in report.rows if not r.ok]

    def test_witness_rejects_unbounded_case(self, two_curve):
        eta = nb.canonical(two_curve)
        deco = canonical_deco(two_curve)
        with pytest.raises(nb.HypothesisError):
            nb.binding_witness(two_curve, eta, deco, nb.ComponentTuple(2, (3, 5)))


class TestInvariance:
    def test_catalog_agrees_across_roots(self, comb4):
        eta = nb.canonical(comb4)
        report = nb.catalog_invariance_check(comb4, eta, s=3, d=5)
        assert report.passed
        assert not report.mismatches
        first = nb.enumerate_components(comb4, eta, nb.order_components(comb4, 1), 3, 5)
        assert report.count == len(first) > 0

    def test_report_carries_catalog(self, two_curve):
        # the report carries the catalog's size; enumerate_components on root 1 lists it
        eta = nb.canonical(two_curve)
        report = nb.catalog_invariance_check(two_curve, eta, s=2, d=2)
        first = nb.enumerate_components(two_curve, eta, nb.order_components(two_curve, 1), 2, 2)
        assert [t.degrees for t in first] == [(0, 2), (1, 1)]
        assert report.count == len(first)


class TestGeneralBuilder:
    def test_case_a_worked(self, two_curve):
        result = nb.build_small_slope_tuple(two_curve, s=2, d=2)
        assert result.case == "a"
        assert result.tuple.degrees == (1, 1)

    def test_case_a_puts_surplus_on_last(self, comb4):
        result = nb.build_small_slope_tuple(comb4, s=8, d=5)
        assert result.case == "a"
        assert result.tuple.degrees == (1, 1, 1, 2)

    def test_case_b_worked(self):
        curve = nb.NodalCurve((2, 5), ((1, 1, 2),))
        result = nb.build_small_slope_tuple(curve, s=4, d=4)
        assert result.case == "b"
        assert result.tuple.degrees == (1, 3)

    def test_case_c_worked(self):
        curve = nb.NodalCurve((3, 3), ((1, 1, 2),))
        result = nb.build_small_slope_tuple(curve, s=2, d=3)
        assert result.case == "c"
        assert result.tuple.degrees == (2, 1)

    def test_single_component(self):
        curve = nb.NodalCurve((4,))
        result = nb.build_small_slope_tuple(curve, s=3, d=2)
        assert result.tuple.degrees == (2,)

    def test_no_case_applies(self, two_curve):
        with pytest.raises(nb.HypothesisError):
            nb.build_small_slope_tuple(two_curve, s=2, d=17)

    def test_rank_zero_is_refused(self, two_curve):
        with pytest.raises(ValueError, match="^rank must be >= 1, got 0$"):
            nb.build_small_slope_tuple(two_curve, s=0, d=2)

    def test_output_lies_in_catalog(self, comb4):
        eta = nb.canonical(comb4)
        deco = canonical_deco(comb4)
        for s in range(1, 9):
            for d in range(0, 9):
                try:
                    result = nb.build_small_slope_tuple(comb4, s, d)
                except nb.HypothesisError:
                    continue
                assert result.tuple.degrees in brute_force_small_slope(
                    comb4, eta, deco, s, d
                )


class TestChainBuilder:
    def test_worked(self, chain3_222):
        tup = nb.build_chain_tuple(chain3_222, s=4, d=3)
        assert tup.degrees == (1, 1, 1)

    def test_rank_hypothesis_message(self, chain3_222):
        with pytest.raises(nb.HypothesisError, match="rank 3 < 2"):
            nb.build_chain_tuple(chain3_222, s=3, d=3)

    def test_degree_hypothesis(self, chain3_222):
        with pytest.raises(nb.HypothesisError, match="outside"):
            nb.build_chain_tuple(chain3_222, s=4, d=9)

    def test_rejects_non_chain(self, comb4):
        with pytest.raises(nb.HypothesisError, match="not a chain"):
            nb.build_chain_tuple(comb4, s=8, d=4)

    def test_gamma_two_matches_comb(self, two_curve):
        chain = nb.build_chain_tuple(two_curve, s=3, d=3)
        comb = nb.build_comb_tuple(two_curve, s=3, d=3)
        assert chain.degrees == comb.degrees == (1, 2)

    def test_output_lies_in_catalog(self):
        for genera in ((2, 2, 2), (2, 3, 4), (2, 2, 3, 2)):
            curve = nb.chain_curve(genera)
            eta = nb.canonical(curve)
            deco = canonical_deco(curve)
            gamma = curve.gamma
            for s in range(2 * (gamma - 1), 9):
                for d in range(gamma, s + 1):
                    tup = nb.build_chain_tuple(curve, s, d)
                    assert tup.degrees in brute_force_small_slope(curve, eta, deco, s, d)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_chain_builder_always_builds_a_stable_tuple(data):
    """On chains of gamma <= 6 with genera 2..5, 2(gamma-1) <= s <= 2(gamma-1)+8 and
    gamma <= d <= s, the builder never raises, its tuple is stable at the
    canonical polarization and every degree lies in 1..d-1.  The builder has
    no refusal past its hypotheses: the comment in `build_chain_tuple`'s loop
    proves that the least prefix sum always fits its window.
    """
    gamma = data.draw(st.integers(2, 6), label="gamma")
    genera = data.draw(st.lists(st.integers(2, 5), min_size=gamma, max_size=gamma))
    path = data.draw(st.permutations(range(1, gamma + 1)), label="path")
    nids = data.draw(st.permutations(range(1, gamma)), label="node ids")
    s = data.draw(st.integers(2 * (gamma - 1), 2 * (gamma - 1) + 8), label="s")
    d = data.draw(st.integers(gamma, s), label="d")
    curve = nb.NodalCurve(genera, [(k, a, b) for k, a, b in zip(nids, path, path[1:])])
    tup = nb.build_chain_tuple(curve, s, d)
    assert tup.rank == s and tup.total == d
    assert all(1 <= degree <= d - 1 for degree in tup.degrees)
    table = stability_windows(curve, nb.canonical(curve), canonical_deco(curve), s, d)
    assert table.check(tup).passed


class TestCombBuilder:
    def test_worked_low_degree(self, comb3_222):
        assert nb.build_comb_tuple(comb3_222, s=4, d=3).degrees == (1, 1, 1)

    def test_worked_surplus_on_grip(self, comb3_222):
        assert nb.build_comb_tuple(comb3_222, s=4, d=4).degrees == (1, 1, 2)

    def test_delegates_when_grip_weight_large(self):
        heavy_grip = nb.comb_curve((2, 2, 10))
        assert nb.build_comb_tuple(heavy_grip, s=4, d=4).degrees == (1, 1, 2)
        heavy_tooth = nb.comb_curve((12, 2, 2))
        assert nb.build_comb_tuple(heavy_tooth, s=4, d=4).degrees == (2, 1, 1)

    def test_rejects_non_comb(self, chain4):
        with pytest.raises(nb.HypothesisError, match="not a comb"):
            nb.build_comb_tuple(chain4, s=8, d=4)

    def test_output_lies_in_catalog(self):
        for genera in ((2, 2, 2), (2, 3, 4), (2, 2, 3, 2), (3, 2, 2, 8)):
            curve = nb.comb_curve(genera)
            eta = nb.canonical(curve)
            deco = canonical_deco(curve)
            gamma = curve.gamma
            for s in range(2 * (gamma - 1), 9):
                for d in range(gamma, s + 1):
                    tup = nb.build_comb_tuple(curve, s, d)
                    assert tup.degrees in brute_force_small_slope(curve, eta, deco, s, d)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000), s=st.integers(1, 5), d=st.integers(0, 10))
def test_enumeration_matches_brute_force(seed, s, d):
    rng = random.Random(seed)
    curve = random_tree_curve(rng, gamma_max=4, genus_range=(2, 5))
    omega = random_valid_polarization(rng, curve.gamma)
    deco = nb.order_components(curve, curve.gamma)
    lib = [t.degrees for t in nb.enumerate_components(curve, omega, deco, s, d)]
    assert lib == brute_force_catalog(curve, omega, deco, s, d)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_catalog_root_invariance_random(seed):
    rng = random.Random(seed)
    curve = random_tree_curve(rng, gamma_max=5, genus_range=(2, 4))
    omega = random_good_polarization(rng, curve)
    s = rng.randint(1, 4)
    d = rng.randint(0, 8)
    report = nb.catalog_invariance_check(curve, omega, s, d)
    assert report.passed, report.mismatches


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10_000), s=st.integers(1, 6), d=st.integers(-4, 12))
def test_split_window_core_matches_oracles(seed, s, d):
    """Splits, split defects and stability windows against from-scratch sums."""
    rng = random.Random(seed)
    curve = random_tree_curve(rng, gamma_max=8)
    omega = random_valid_polarization(rng, curve.gamma)
    splits = raw_split_sides(curve.gamma, curve.nodes)

    good = nb.goodness_proxy(curve, omega)
    assert [(row.node, row.side) for row in good.splits] == [(n, B) for n, B, _ in splits]
    for row in good.splits:
        assert row.defect == raw_defect(curve.genera, curve.nodes, omega.weights, row.side)

    deco = nb.order_components(curve, rng.randint(1, curve.gamma))
    degrees = [rng.randint(-2, 5) for _ in range(curve.gamma - 1)]
    ctuple = nb.ComponentTuple(s, (*degrees, d - sum(degrees)))
    report = stability_windows(curve, omega, deco, s, d).check(ctuple)
    assert [(math.floor(r.lower) + 1, math.ceil(r.upper) - 1) for r in report.rows] == (
        _sigma_windows(curve, omega, deco, s, d)
    )


# The oracle's box grows like s^(gamma-1) times 2^depth and can pass 10^7
# points at gamma = 6; above this size the filtered library catalog, itself
# checked against the oracle above, is the reference.
ORACLE_BOX_LIMIT = 20_000


def _check_small_slope_search(curve, omega, deco, s, d):
    if brute_force_box_size(curve, omega, deco, s, d) <= ORACLE_BOX_LIMIT:
        want = brute_force_small_slope(curve, omega, deco, s, d)
    else:
        catalog = nb.enumerate_components(curve, omega, deco, s, d)
        want = [t.degrees for t in catalog if all(0 < x <= s for x in t.degrees)]
    table = stability_windows(curve, omega, deco, s, d)
    assert table.count_small_slope() == len(want)
    first = table.first_small_slope()
    assert (first.degrees if first is not None else None) == (want[0] if want else None)
    assert first is None or first.rank == s
    assert list(table.degree_tuples(small_slope=True)) == want


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_small_slope_search_matches_brute_force(seed):
    """Count, least tuple and full list of the subtree-sum search against the oracle."""
    rng = random.Random(seed)
    curve = random_tree_curve(rng, gamma_max=6, genus_range=(2, 5))
    s = rng.randint(1, 7)  # uniform: the oracle's box grows like s^(gamma-1)
    deco = nb.order_components(curve, rng.randint(1, curve.gamma))
    d = rng.randint(-1, s * curve.gamma + 2)
    for omega in (nb.canonical(curve), random_good_polarization(rng, curve)):
        _check_small_slope_search(curve, omega, deco, s, d)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_has_small_slope_is_whether_the_least_tuple_exists(seed):
    """The up-pass alone decides existence, as the search's least tuple and the oracle do.

    Random Pruefer trees, leaf-pruning decompositions, and canonical, good
    and arbitrary valid polarizations; d runs from -1 to s gamma + 2, so
    empty cells on both sides are drawn too.
    """
    rng = random.Random(seed)
    curve = random_tree_curve(rng, gamma_max=7, genus_range=(2, 5))
    deco = pruning_decomposition(rng, curve, rng.randint(1, curve.gamma))
    s = rng.randint(1, 7)
    d = rng.randint(-1, s * curve.gamma + 2)
    for omega in (
        nb.canonical(curve),
        random_good_polarization(rng, curve),
        random_valid_polarization(rng, curve.gamma),
    ):
        table = stability_windows(curve, omega, deco, s, d)
        found = table.has_small_slope()
        assert found == (table.first_small_slope() is not None)
        if brute_force_box_size(curve, omega, deco, s, d) <= ORACLE_BOX_LIMIT:
            assert found == bool(brute_force_small_slope(curve, omega, deco, s, d))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_split_table_existence_test_matches_the_oracle(seed):
    """`_SplitTable.has_small_slope`, the scan's one pass per cell, against the oracle.

    Random Pruefer trees, a walk and a leaf-pruning decomposition from one
    root, and canonical, good and arbitrary valid polarizations; d runs
    from -1 to s gamma + 2.  The table's general up-pass over the ranges
    1..s (`WindowTable._reach`) says the same.
    """
    rng = random.Random(seed)
    curve = random_tree_curve(rng, gamma_max=7, genus_range=(2, 5))
    root = rng.randint(1, curve.gamma)
    deco = pruning_decomposition(rng, curve, root)
    s = rng.randint(1, 7)
    d = rng.randint(-1, s * curve.gamma + 2)
    for omega in (
        nb.canonical(curve),
        random_good_polarization(rng, curve),
        random_valid_polarization(rng, curve.gamma),
    ):
        found = polarization._SplitTable(curve, omega, deco).has_small_slope(s, d)
        walked = polarization._SplitTable(curve, omega, ordering._walk(curve, root))
        assert walked.has_small_slope(s, d) == found
        table = stability_windows(curve, omega, deco, s, d)
        assert (table._reach(table._ranges(True)) is not None) == found
        if brute_force_box_size(curve, omega, deco, s, d) <= ORACLE_BOX_LIMIT:
            assert found == bool(brute_force_small_slope(curve, omega, deco, s, d))


@pytest.mark.parametrize("gamma", [1, 2, 3, 4])
def test_small_slope_search_every_degree(gamma):
    """Every d from -1 to s*gamma + 2, so both ends of the range are crossed."""
    rng = random.Random(gamma)
    curve = None
    while curve is None or curve.gamma != gamma:
        curve = random_tree_curve(rng, gamma_max=gamma, genus_range=(2, 4))
    for s in range(1, 6):
        deco = nb.order_components(curve, rng.randint(1, gamma))
        omega = random_good_polarization(rng, curve)
        for d in range(-1, s * gamma + 3):
            _check_small_slope_search(curve, omega, deco, s, d)


def _check_whole_catalog(curve, omega, deco, s, d):
    """catalog() and size() against the oracle and the post-order catalog."""
    table = stability_windows(curve, omega, deco, s, d)
    catalog = table.catalog()
    post_order = nb.order_components(curve, deco.root)
    assert catalog == nb.enumerate_components(curve, omega, post_order, s, d)
    assert table.size() == len(catalog)
    if brute_force_box_size(curve, omega, deco, s, d) <= ORACLE_BOX_LIMIT:
        assert [t.degrees for t in catalog] == brute_force_catalog(curve, omega, deco, s, d)
    return catalog


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_every_valid_decomposition_is_searched(seed):
    """Any leaf-pruning order, post-order or not, gives the same catalogs as the oracles."""
    rng = random.Random(seed)
    curve = random_tree_curve(rng, gamma_max=6, genus_range=(2, 5))
    deco = pruning_decomposition(rng, curve, rng.randint(1, curve.gamma))
    assert nb.verify_decomposition(curve, deco).ok
    eta = nb.canonical(curve)
    s = rng.randint(1, 5)
    cells = [
        (eta if rng.random() < 0.5 else random_good_polarization(rng, curve),
         s, rng.randint(-1, s * curve.gamma + 2)),
        # canonical windows at rank 1 and degree p_a - 1 have integer ends: all empty
        (eta, 1, curve.arithmetic_genus() - 1),
    ]
    for omega, s, d in cells:
        catalog = _check_whole_catalog(curve, omega, deco, s, d)
        want = [t for t in catalog if all(0 < x <= s for x in t.degrees)]
        table = stability_windows(curve, omega, deco, s, d)
        assert table.count_small_slope() == len(want)
        assert table.first_small_slope() == (want[0] if want else None)
        assert list(table.degree_tuples(small_slope=True)) == [t.degrees for t in want]
        _check_small_slope_search(curve, omega, deco, s, d)


def _sub_range(rng, lo, hi):
    if lo > hi or rng.random() < 0.2:
        return lo, hi
    a, b = rng.randint(lo, hi), rng.randint(lo, hi)
    return min(a, b), max(a, b)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_narrowing_is_exact(seed):
    """`_narrow` gives each position the span of its degree, and of its subtree's
    sum sigma_j, over the tuples within the ranges.

    The ranges are random sub-ranges of the small-slope and whole-catalog
    ranges, and the tuples within them come from the oracle.  `_count` and
    the printed catalog's cells rely on both spans being exact.
    """
    rng = random.Random(seed)
    curve = random_tree_curve(rng, gamma_max=6, genus_range=(2, 5))
    deco = pruning_decomposition(rng, curve, rng.randint(1, curve.gamma))
    omega = nb.canonical(curve) if rng.random() < 0.5 else random_good_polarization(rng, curve)
    while True:  # at s = 1 the box is a single point, so this ends
        s = rng.randint(1, 5)
        d = rng.randint(-1, s * curve.gamma + 2)
        if brute_force_box_size(curve, omega, deco, s, d) <= ORACLE_BOX_LIMIT:
            break
    # each catalog tuple's degrees in position order, with its sigma_j (the root's is d)
    catalog = [
        ([t[c - 1] for c in deco.order], [sum(t[i - 1] for i in A) for A in deco.subcurves] + [d])
        for t in brute_force_catalog(curve, omega, deco, s, d)
    ]
    table = stability_windows(curve, omega, deco, s, d)
    for small_slope in (True, False):
        for k in range(6):
            ranges = [
                (lo, hi) if k == 0 else _sub_range(rng, lo, hi)
                for lo, hi in table._ranges(small_slope)
            ]
            inside = [
                (t, sigmas) for t, sigmas in catalog
                if all(lo <= x <= hi for x, (lo, hi) in zip(t, ranges))
            ]
            want = None
            if inside:
                want = (_spans(t for t, _ in inside), _spans(sigmas for _, sigmas in inside))
            assert table._narrow(ranges) == want


def _spans(rows):
    return [(min(xs), max(xs)) for xs in zip(*rows)]


# listings compared whole hold at most this many tuples; the uncut ones are
# compared up to it
SEARCH_LIMIT = 2_000


def _listing(search, narrowed):
    """The first SEARCH_LIMIT tuples ``search`` lists from ``narrowed``, and its `_narrow` calls."""
    calls = []
    real = components.WindowTable._narrow

    def counted(self, ranges):
        calls.append(ranges)
        return real(self, ranges)

    with mock.patch.object(components.WindowTable, "_narrow", counted):
        tuples = list(itertools.islice(search(narrowed), SEARCH_LIMIT))
    return tuples, len(calls)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_search_matches_the_copying_search(seed):
    """`_tuples`, which keeps its narrowing up to date, lists what the search that
    copied its ranges per choice listed, in order, and calls `_narrow` zero times.

    Random Pruefer trees of 8 to 16 components, past what the brute-force
    oracle can enumerate; leaf-pruning decompositions; canonical and good
    perturbed polarizations.  Ranges 1..s and the whole catalog's are
    compared up to SEARCH_LIMIT tuples, then cut one position at a time to
    a sub-range of its narrowed range (so some tuple is left) until
    `_count` holds at most SEARCH_LIMIT, and compared whole.
    """
    rng = random.Random(seed)
    curve = random_tree_curve(rng, gamma_max=16, genus_range=(2, 5))
    while curve.gamma < 8:
        curve = random_tree_curve(rng, gamma_max=16, genus_range=(2, 5))
    deco = pruning_decomposition(rng, curve, rng.randint(1, curve.gamma))
    omega = nb.canonical(curve) if rng.random() < 0.5 else random_good_polarization(rng, curve)
    s = rng.randint(1, 6)
    d = rng.randint(curve.gamma - 1, s * curve.gamma + 1)  # mostly small-slope tuples too
    table = stability_windows(curve, omega, deco, s, d)
    for small_slope in (True, False):
        narrowed = table._narrow(table._ranges(small_slope))
        for cut in (False, True):
            while cut and narrowed is not None and table._count(narrowed[0]) > SEARCH_LIMIT:
                ranges = list(narrowed[0])
                p = rng.randrange(len(ranges))
                ranges[p] = _sub_range(rng, *ranges[p])
                narrowed = table._narrow(ranges)
            got, narrows = _listing(table._tuples, narrowed)
            assert narrows == 0
            assert got == _listing(lambda n: copying_search(table, n), narrowed)[0]
            if cut and narrowed is not None:
                assert len(got) == table._count(narrowed[0])


def _record_search_calls(monkeypatch):
    """Lists that gain an entry per `_narrow`, `_reach` and `_live` call, by name."""
    return {
        name: record_calls(components.WindowTable, name, lambda *args: None, monkeypatch.setattr)
        for name in ("_narrow", "_reach", "_live")
    }


def _free_ids(narrowed):
    return sum(lo < hi for lo, hi in narrowed[0])


def _star(gamma):
    return nb.comb_curve([2] * gamma)  # every other component meets the last


@pytest.mark.parametrize(
    "curve, root",
    [
        (nb.NodalCurve((3,)), 1),
        (nb.chain_curve((2, 3)), 2),
        (nb.chain_curve((2, 3)), 1),
        (nb.chain_curve((2, 3, 2, 4, 2)), 5),
        (nb.chain_curve((2, 3, 2, 4, 2)), 1),
        (_star(5), 5),
        (_star(5), 1),
    ],
    ids=["gamma-1", "gamma-2", "gamma-2-other-root", "chain5-root-5", "chain5-root-1",
         "star5-centre", "star5-leaf"],
)
def test_search_at_the_edges(monkeypatch, curve, root):
    """`_tuples` against the copying search and the brute-force oracle on small shapes.

    Every (s, d) with s <= 4 and -1 <= d <= s gamma + 1, canonical windows,
    ranges 1..s and the whole catalog's.  The search never calls `_narrow`,
    and builds its state (`_live`, which calls `_reach` once) only when
    three ids or more are free in the start: the first free id reads its
    range from the start and the last takes what d leaves.
    """
    deco = nb.order_components(curve, root)
    omega = nb.canonical(curve)
    for s in range(1, 5):
        for d in range(-1, s * curve.gamma + 2):
            table = stability_windows(curve, omega, deco, s, d)
            for small_slope in (True, False):
                narrowed = table._narrow(table._ranges(small_slope))
                calls = _record_search_calls(monkeypatch)
                got = list(table._tuples(narrowed))
                builds = 0 if narrowed is None or _free_ids(narrowed) < 3 else 1
                assert {name: len(keys) for name, keys in calls.items()} == {
                    "_narrow": 0, "_reach": builds, "_live": builds,
                }
                monkeypatch.undo()
                assert got == list(copying_search(table, narrowed))
                oracle = brute_force_small_slope if small_slope else brute_force_catalog
                assert got == oracle(curve, omega, deco, s, d)


def test_search_from_a_start_with_every_id_fixed_reads_nothing(monkeypatch):
    """One tuple, with no `_narrow`, `_reach` or `_live` call: nothing is read but the start.

    The start is one catalog tuple fixed by hand, and the whole rank-1
    catalog, whose every window holds one integer.
    """
    curve = nb.chain_curve((2, 3, 2, 4, 2))
    deco = nb.order_components(curve, 3)
    omega = nb.canonical(curve)
    table = stability_windows(curve, omega, deco, 3, 7)
    want = brute_force_catalog(curve, omega, deco, 3, 7)[5]
    starts = [table._narrow([(want[c - 1], want[c - 1]) for c in deco.order])]
    rank1 = stability_windows(curve, omega, deco, 1, 3)
    starts.append(rank1._narrow(rank1._ranges(False)))
    wants = [[want], brute_force_catalog(curve, omega, deco, 1, 3)]
    assert len(wants[1]) == 1
    for start, which, expected in zip(starts, (table, rank1), wants):
        assert _free_ids(start) == 0
        calls = _record_search_calls(monkeypatch)
        assert list(which._tuples(start)) == expected
        assert calls == {"_narrow": [], "_reach": [], "_live": []}
        monkeypatch.undo()


def test_search_with_one_or_two_free_ids(monkeypatch):
    """No narrowed start has exactly one free id; with two, no state is built.

    Positions of a star rooted at a leaf are fixed by hand to one catalog
    tuple's degrees but for one or two of them.  With one left, d fixes it
    too and `_narrow` says so.  With two, the first runs over its start
    range, the second takes what d leaves, and no `_live` state is built.
    """
    curve = _star(5)
    deco = nb.order_components(curve, 1)
    omega = nb.canonical(curve)
    s, d = 4, 10
    table = stability_windows(curve, omega, deco, s, d)
    catalog = brute_force_catalog(curve, omega, deco, s, d)
    ranges = table._narrow(table._ranges(False))[0]
    for t in catalog[::7]:
        for loose in itertools.combinations(range(curve.gamma), 2):
            fixed = [(t[c - 1], t[c - 1]) for c in deco.order]
            for n in (1, 2):
                start = list(fixed)
                for p in loose[:n]:
                    start[p] = ranges[p]
                narrowed = table._narrow(start)
                want = [u for u in catalog
                        if all(lo <= u[c - 1] <= hi for c, (lo, hi) in zip(deco.order, start))]
                assert _free_ids(narrowed) == (0 if n == 1 else int(len(want) > 1) * 2)
                calls = _record_search_calls(monkeypatch)
                got = list(table._tuples(narrowed))
                assert calls == {"_narrow": [], "_reach": [], "_live": []}
                monkeypatch.undo()
                assert got == want == list(copying_search(table, narrowed))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_count_matches_the_dp_that_keeps_every_table(seed):
    """`_count`, on narrowed ranges and dropping read tables, against a DP that keeps them all.

    Random Pruefer trees, roots and leaf-pruning decompositions, canonical
    and good perturbed polarizations; ranges 1..s and the whole catalog's.
    """
    rng = random.Random(seed)
    curve = random_tree_curve(rng, gamma_max=7, genus_range=(2, 5))
    deco = pruning_decomposition(rng, curve, rng.randint(1, curve.gamma))
    omega = nb.canonical(curve) if rng.random() < 0.5 else random_good_polarization(rng, curve)
    s = rng.randint(1, 8)
    d = rng.randint(-1, s * curve.gamma + 2)
    table = stability_windows(curve, omega, deco, s, d)
    for small_slope in (True, False):
        ranges = table._ranges(small_slope)
        assert table._count(ranges) == subtree_sum_count(curve, omega, deco, s, d, ranges)
    assert table._count(ranges) == table.size()


def test_count_keeps_only_the_frontier_tables():
    # a chain rooted at an end: every position's table is its parent's only
    # input, so one table is alive at a time (2.1 MB when all were kept)
    curve = nb.chain_curve([2] * 150)
    table = stability_windows(curve, nb.canonical(curve), canonical_deco(curve), 300, 300)
    tracemalloc.start()
    try:
        count = table.count_small_slope()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count > 0 and peak < 500_000


def test_count_on_windows_wider_than_any_table():
    # ranges 1..10^12 and leaf supports half as wide: only the narrowed
    # ranges, at most d wide, fit in a table
    curve = nb.chain_curve((2, 2, 2))
    table = stability_windows(curve, nb.canonical(curve), canonical_deco(curve), 10**12, 4)
    assert table.count_small_slope() == len(list(table.degree_tuples(small_slope=True))) == 3


def _refuse_search(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a search over subtree sums was run")

    monkeypatch.setattr(components.WindowTable, "_narrow", refuse)


@pytest.mark.parametrize(
    "genera, s, d",
    [((2, 3, 2, 2), 3, 6), ((2, 2, 2), 4, 9), ((5,), 3, 7), ((2, 2, 2, 2), 1, 7)],
    ids=["chain4", "chain3", "gamma-1", "empty-windows"],
)
def test_size_reads_the_windows_alone(monkeypatch, genera, s, d):
    """`size` is the product of the integer window widths, with no search run.

    At rank 1 and degree p_a - 1 every canonical window has integer ends,
    so none holds an integer and the size is 0.
    """
    curve = nb.chain_curve(genera)
    table = stability_windows(curve, nb.canonical(curve), canonical_deco(curve), s, d)
    want = len(table.catalog())
    _refuse_search(monkeypatch)
    assert table.size() == want
    if len(genera) == 1:
        assert want == 1
    assert (want == 0) == (s == 1)


def test_small_slope_search_rejects_crossed_subcurves(chain4):
    # A_3 = {2, 3} is triangular but crosses A_2 = {1, 2}, the subcurve below
    # node 2, so it is no subtree; the search's catalog is never reached
    deco = nb.OrderedDecomposition(
        root=4,
        order=(1, 2, 3, 4),
        subcurves=(frozenset({1}), frozenset({1, 2}), frozenset({2, 3})),
        separating_nodes=(1, 2, 3),
    )
    with pytest.raises(ValueError, match=r"^complement of A_3 is not a connected subcurve$"):
        nb.enumerate_components(chain4, nb.canonical(chain4), deco, 3, 6)


def test_search_rejects_laminar_family_that_is_no_decomposition(chain4):
    # A_3 = {1, 3} skips position 2 and the family is laminar, but on the chain
    # A_2 = {2} is no side of node 2 and {1, 3} is not connected
    deco = nb.OrderedDecomposition(
        root=4,
        order=(1, 2, 3, 4),
        subcurves=(frozenset({1}), frozenset({2}), frozenset({1, 3})),
        separating_nodes=(1, 2, 3),
    )
    assert not nb.verify_decomposition(chain4, deco).ok
    with pytest.raises(ValueError, match=r"^complement of A_2 is not a connected subcurve$"):
        stability_windows(chain4, nb.canonical(chain4), deco, 3, 6)


def test_stability_windows_refuses_a_curve_not_of_compact_type():
    # on a triangle the separating nodes alone would give a tree, but
    # verify_decomposition refuses the curve, and so does the split table
    curve = nb.NodalCurve((2, 2, 2), ((1, 1, 2), (2, 2, 3), (3, 1, 3)))
    deco = nb.OrderedDecomposition(
        root=3,
        order=(1, 2, 3),
        subcurves=(frozenset({1}), frozenset({1, 2})),
        separating_nodes=(1, 2),
    )
    with pytest.raises(nb.NotCompactTypeError):
        nb.verify_decomposition(curve, deco)
    with pytest.raises(nb.NotCompactTypeError):
        stability_windows(curve, nb.canonical(curve), deco, 3, 6)


def test_search_accepts_valid_non_post_order_decomposition():
    # every A_j is a subtree, but A_3 = {1, 3} does not follow A_2 = {2} in post-order
    curve = nb.NodalCurve((2, 2, 2, 2), ((1, 1, 3), (2, 3, 4), (3, 2, 4)))
    deco = nb.OrderedDecomposition(
        root=4,
        order=(1, 2, 3, 4),
        subcurves=(frozenset({1}), frozenset({2}), frozenset({1, 3})),
        separating_nodes=(1, 3, 2),
    )
    assert nb.verify_decomposition(curve, deco).ok
    eta = nb.canonical(curve)
    for s, d in [(3, 6), (4, 8), (2, 5)]:
        _check_whole_catalog(curve, eta, deco, s, d)
        _check_small_slope_search(curve, eta, deco, s, d)


def test_small_slope_search_rejects_non_triangular(chain4):
    # A_1 = {1, 2} holds position 2's component: refused when the table is
    # built, so no question about a tuple is answered either
    deco = nb.OrderedDecomposition(
        root=4,
        order=(1, 2, 3, 4),
        subcurves=(frozenset({1, 2}), frozenset({1, 2}), frozenset({1, 2, 3})),
        separating_nodes=(2, 2, 3),
    )
    eta = nb.canonical(chain4)
    fault = "^triangularity: position-2 component 2 lies in A_1$"
    with pytest.raises(ValueError, match=fault):
        stability_windows(chain4, eta, deco, 3, 6)
    with pytest.raises(ValueError, match=fault):
        nb.robustness_radius(chain4, eta, deco, nb.ComponentTuple(3, (1, 2, 1, 2)))


READER_FAULTS = (
    "swap positions", "swap order", "swap subcurves", "duplicate id", "unknown id",
    "replace", "replace by earlier", "trade", "extend", "shrink", "empty", "complement",
    "unknown member", "swap nodes", "wrong node", "unknown node", "root not last",
)


def _mutated_family(rng, curve, deco):
    """The decomposition with up to two random faults from READER_FAULTS."""
    root, order = deco.root, list(deco.order)
    subcurves, nodes = list(deco.subcurves), list(deco.separating_nodes)
    ids = list(curve.component_ids)
    node_ids = [node.id for node in curve.nodes]
    n = len(order)
    for _ in range(rng.randint(0, 2)):
        fault = rng.choice(READER_FAULTS)
        i, k = rng.randrange(n), rng.randrange(n)  # positions, the root's too
        if fault == "swap order":
            order[i], order[k] = order[k], order[i]
        elif fault == "duplicate id":
            order[i] = order[k]
        elif fault == "unknown id":
            order[i] = rng.choice([0, n + 1])
        if not subcurves:
            continue
        j, m = rng.randrange(n - 1), rng.randrange(n - 1)  # positions with a subcurve
        if fault == "swap positions":
            order[j], order[m] = order[m], order[j]
            subcurves[j], subcurves[m] = subcurves[m], subcurves[j]
        elif fault == "swap subcurves":
            subcurves[j], subcurves[m] = subcurves[m], subcurves[j]
        elif fault == "replace":
            subcurves[j] = frozenset(c for c in ids if rng.random() < 0.5)
        elif fault == "replace by earlier":  # position j's id and earlier ones: triangular
            subcurves[j] = frozenset(c for c in order[:j] if rng.random() < 0.5) | {order[j]}
        elif fault == "trade":  # same size: a member swapped for a non-member
            members = sorted(subcurves[j] - {order[j]})
            others = [c for c in ids if c not in subcurves[j]]
            if members and others:
                subcurves[j] = subcurves[j] - {rng.choice(members)} | {rng.choice(others)}
        elif fault == "extend":
            subcurves[j] |= {rng.choice(order[: j + 1])}
        elif fault == "shrink":
            subcurves[j] -= {rng.choice(ids)}
        elif fault == "empty":
            subcurves[j] = frozenset()
        elif fault == "complement":
            subcurves[j] = frozenset(ids) - subcurves[j]
        elif fault == "unknown member":
            subcurves[j] |= {rng.choice([0, n + 1])}
        elif fault == "swap nodes":
            nodes[j], nodes[m] = nodes[m], nodes[j]
        elif fault == "wrong node":  # a node of the curve, most often another position's
            nodes[j] = rng.choice(node_ids)
        elif fault == "unknown node":
            nodes[j] = rng.choice([0, max(node_ids) + 1])
        elif fault == "root not last":
            root = rng.choice(order[:-1])
    return deco._replace(
        root=root, order=tuple(order), subcurves=tuple(subcurves), separating_nodes=tuple(nodes)
    )


@settings(max_examples=1000, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_table_is_built_exactly_when_verify_decomposition_accepts(seed):
    """A split table is built for a family exactly when `verify_decomposition`
    accepts it, and then holds `oracles.read_children`'s children.

    Post-orders and leaf-pruning orders of random Pruefer trees, some with
    swapped positions, a subcurve replaced, traded, extended, shrunk,
    emptied or complemented, a duplicate or unknown id in the order, an
    unknown member in a subcurve, two separating nodes swapped, a node at
    the wrong position, an unknown node id, or a root that is not last.
    Where verify raises (an unknown member in a subcurve), the table raises
    the same error; where it refuses, the table raises its first violation,
    and an order that is no permutation of the ids is named as such.
    """
    rng = random.Random(seed)
    curve = random_tree_curve(rng, gamma_max=8)
    root = rng.randint(1, curve.gamma)
    if rng.random() < 0.5:
        deco = nb.order_components(curve, root)
    else:
        deco = pruning_decomposition(rng, curve, root)
    deco = _mutated_family(rng, curve, deco)
    eta = nb.canonical(curve)
    try:
        check = nb.verify_decomposition(curve, deco)
    except nb.CurveError as exc:
        with pytest.raises(nb.CurveError) as info:
            stability_windows(curve, eta, deco, 2, curve.gamma)
        assert (type(info.value), str(info.value)) == (type(exc), str(exc))
        return
    if check.ok:
        table = stability_windows(curve, eta, deco, 2, curve.gamma)
        assert table.children == read_children(deco.order, deco.subcurves)
    else:
        with pytest.raises(ValueError) as info:
            stability_windows(curve, eta, deco, 2, curve.gamma)
        assert type(info.value) is ValueError
        assert str(info.value) == check.violations[0]
        if sorted(deco.order) != sorted(curve.component_ids):
            assert str(info.value) == (
                f"order {deco.order} is not a permutation of 1..{curve.gamma}"
            )


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_one_split_table_serves_every_cell(seed):
    """One split table, mapped to many (s, d), gives each cell's raw Fraction windows.

    Random Pruefer trees, roots and polarizations; the table built without
    a decomposition is the goodness proxy's and gives the complement
    oracle's report.
    """
    rng = random.Random(seed)
    curve = random_tree_curve(rng, gamma_max=8)
    omega = random_valid_polarization(rng, curve.gamma)
    deco = nb.order_components(curve, rng.randint(1, curve.gamma))
    splits = polarization._SplitTable(curve, omega, deco)
    for _ in range(4):
        s, d = rng.randint(1, 9), rng.randint(-5, 30)
        table = components.WindowTable(splits, s, d)
        assert [(w.subcurve, w.lower, w.upper) for w in table.windows] == raw_windows(
            curve, omega, deco, s, d
        )
        assert table.children == read_children(deco.order, deco.subcurves)
    assert nb.goodness_proxy(curve, omega) == complement_goodness_proxy(curve, omega)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_split_table_from_a_walk_is_the_decompositions(seed):
    """A split table from a walk equals one from its decomposition, bound for bound.

    Random Pruefer trees, roots and polarizations: the same order, nodes,
    sizes, tree and sums, the same integer windows at random (s, d), and
    the same A_j wherever one is asked for.
    """
    rng = random.Random(seed)
    curve = random_tree_curve(rng, gamma_max=9)
    omega = random_valid_polarization(rng, curve.gamma)
    root = rng.randint(1, curve.gamma)
    walked = polarization._SplitTable(curve, omega, ordering._walk(curve, root))
    deco = nb.order_components(curve, root)
    read = polarization._SplitTable(curve, omega, deco)
    for name in ("order", "nodes", "sizes", "parents", "children", "weights", "defects",
                 "denominator"):
        assert getattr(walked, name) == getattr(read, name), name
    assert [walked.subcurve(k) for k in range(curve.gamma - 1)] == list(deco.subcurves)
    for _ in range(4):
        s, d = rng.randint(1, 9), rng.randint(-5, 30)
        a, b = components.WindowTable(walked, s, d), components.WindowTable(read, s, d)
        assert (a.lowers, a.uppers, a._scales) == (b.lowers, b.uppers, b._scales)
        assert a == b and a.windows == b.windows


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_extension_windows_nest_exactly_when_each_defect_is_in_zero_one(seed):
    """A BGN extension's window j contains the rank-s window j exactly when 0 <= delta_j <= 1.

    E has rank r = s + k on every component and the certified multidegree,
    so its window j is (w_j d - r delta_j, w_j d + r (1 - delta_j)): the
    lower end does not rise past s's when delta_j >= 0, the upper end does
    not fall below it when delta_j <= 1.  The interval is closed: at
    delta_j = 0 or 1 one end is shared and the windows still nest, so
    nesting fails exactly when delta_j leaves [0, 1], not (0, 1).  Random
    Pruefer trees, roots and polarizations, good or not; the bounds are
    integer numerators over the same D, and delta_j D comes from the split table.
    """
    rng = random.Random(seed)
    curve = random_tree_curve(rng, gamma_max=8)
    omega = rng.choice(
        [nb.canonical(curve), random_good_polarization(rng, curve),
         random_valid_polarization(rng, curve.gamma)]
    )
    walk = ordering._walk(curve, rng.randint(1, curve.gamma))
    s, k, d = rng.randint(1, 9), rng.randint(1, 9), rng.randint(-10, 40)
    small = stability_windows(curve, omega, walk, s, d)
    wide = stability_windows(curve, omega, walk, s + k, d)
    D = small.denominator
    assert wide.denominator == D
    for lo, hi, wlo, whi, defect in zip(
        small.lowers, small.uppers, wide.lowers, wide.uppers, small.splits.defects
    ):
        assert (wlo <= lo and hi <= whi) == (0 <= defect <= D)


def test_extension_windows_nest_at_a_zero_defect():
    curve = nb.chain_curve((2, 3))
    omega = nb.Polarization((Fraction(1, 4), Fraction(3, 4)))
    small, wide = (stability_windows(curve, omega, canonical_deco(curve), r, 4) for r in (2, 3))
    assert small.splits.defects[0] == 0
    assert wide.lowers[0] == small.lowers[0] and small.uppers[0] < wide.uppers[0]


COMB_SCAN = "bn scan --family comb --gamma-max 4 --genus-max 3 --s-max 24".split()


@pytest.mark.parametrize("curve_name", ["chain4", "comb4"])
def test_each_table_reads_the_tree_once(monkeypatch, capsys, request, curve_name):
    """One tree read per table: a handed-in decomposition's, checked by one
    `verify_decomposition`, or one walk per root, per certify and per scanned
    curve, which needs neither `order_components` nor `verify_decomposition`."""
    curve = request.getfixturevalue(curve_name)
    eta = nb.canonical(curve)
    deco = canonical_deco(curve)
    patch = monkeypatch.setattr
    reads = record_calls(ordering, "verify_decomposition", lambda _, deco: deco.root, patch)
    decos = record_calls(ordering, "order_components", lambda _, root: root, patch)
    walks = record_calls(ordering, "_walk", lambda _, root: root, patch)
    table = stability_windows(curve, eta, deco, 3, 6)
    catalog = table.catalog()
    assert table.size() == len(catalog) > 0
    table.sums(catalog[0])
    table.count_small_slope()
    assert reads == [curve.gamma]
    assert walks == decos == []
    reads.clear()
    assert nb.catalog_invariance_check(curve, eta, 3, 6).passed
    assert walks == list(curve.component_ids)
    assert reads == decos == []
    walks.clear()
    assert isinstance(nb.certify_bn_component(curve, eta, 6, 1, 6), nb.BNCertificate)
    assert walks == [curve.gamma]
    assert reads == decos == []
    walks.clear()
    assert cli.main(COMB_SCAN) == 0
    assert "curves: 14\n" in capsys.readouterr().out
    assert len(walks) == 14
    assert reads == decos == []


@pytest.mark.parametrize(
    "subcurves, nodes",
    [(2, 3), (3, 2), (2, 2)],
    ids=["short-subcurves", "short-nodes", "both-short"],
)
def test_stability_windows_rejects_short_decomposition(chain4, subcurves, nodes):
    deco = nb.order_components(chain4, 4)
    cut = deco._replace(
        subcurves=deco.subcurves[:subcurves],
        separating_nodes=deco.separating_nodes[:nodes],
    )
    want = f"^expected 3 subcurves and separating nodes, got {subcurves} and {nodes}$"
    with pytest.raises(ValueError, match=want):
        stability_windows(chain4, nb.canonical(chain4), cut, 3, 6)


ENTRIES = {
    "windows": stability_windows,
    "enumerate": nb.enumerate_components,
    "invariance": lambda curve, omega, deco, s, d: nb.catalog_invariance_check(curve, omega, s, d),
}


@pytest.mark.parametrize(
    "s, d, message",
    [
        (2.0, 4, "rank must be an integer"),
        ("2", 4, "rank must be an integer"),
        (2, 4.0, "degree must be an integer"),
        (2, Fraction(9, 2), "degree must be an integer"),
        (0, 4, "^rank must be >= 1, got 0$"),
    ],
    ids=["float-rank", "str-rank", "float-degree", "fraction-degree", "zero-rank"],
)
@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_rank_and_degree_enter_through_index(two_curve, entry, s, d, message):
    eta = nb.canonical(two_curve)
    with pytest.raises(ValueError, match=message):
        ENTRIES[entry](two_curve, eta, canonical_deco(two_curve), s, d)


def test_true_reads_as_one_in_a_window_table(two_curve):
    eta = nb.canonical(two_curve)
    table = stability_windows(two_curve, eta, canonical_deco(two_curve), True, True)
    assert (table.rank, table.degree) == (1, 1)
    assert (type(table.rank), type(table.degree)) == (int, int)


BUILDERS = {
    "small-slope": lambda curve, s, d: nb.build_small_slope_tuple(curve, s, d).tuple,
    "chain": nb.build_chain_tuple,
    "comb": nb.build_comb_tuple,
}


@pytest.mark.parametrize(
    "s, d, name",
    [
        (4.0, 3, "rank s"),
        ("4", 3, "rank s"),
        (None, 3, "rank s"),
        (Fraction(4), 3, "rank s"),
        (4, 3.0, "degree d"),
        (4, "3", "degree d"),
        (4, None, "degree d"),
        (4, Fraction(3), "degree d"),
    ],
    ids=[
        "float-rank", "str-rank", "none-rank", "fraction-rank",
        "float-degree", "str-degree", "none-degree", "fraction-degree",
    ],
)
@pytest.mark.parametrize("builder", sorted(BUILDERS))
def test_builders_read_rank_and_degree_through_index(builder, s, d, name):
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        BUILDERS[builder](nb.chain_curve([2, 2, 2]), s, d)


@pytest.mark.parametrize("s, d", [(True, 3), (4, True)], ids=["true-rank", "true-degree"])
@pytest.mark.parametrize("builder", sorted(BUILDERS))
def test_builders_read_true_as_one(builder, s, d):
    """The tuple, or the failure and its message, is that of rank or degree 1."""
    curve = nb.chain_curve([2, 2, 2])

    def outcome(s, d):
        try:
            return BUILDERS[builder](curve, s, d)
        except ValueError as exc:
            return type(exc), str(exc)

    assert outcome(s, d) == outcome(int(s), int(d))


def _assert_invariance_matches_oracle(curve, omega, s, d):
    report = nb.catalog_invariance_check(curve, omega, s, d)
    oracle = enumerating_invariance_check(curve, omega, s, d)
    assert report.passed == oracle.passed
    assert report.count == len(oracle.catalog)
    assert report.mismatches == oracle.mismatches
    for root in curve.component_ids:
        table = stability_windows(curve, omega, nb.order_components(curve, root), s, d)
        assert table.size() == len(table.catalog())
    return report


# no polarization drawn in these tests has this prime in its denominator
SHIFT_PRIME = 1009


def _assert_rows_match_oracle(rng, curve, omega, deco, s, d, shift=0):
    """The integer row path against `raw_row`, on catalog members and random tuples.

    A nonzero ``shift`` moves the first window by `shift_first_window`,
    and the oracle's first window with it.
    """
    windows = raw_windows(curve, omega, deco, s, d)
    with pytest.MonkeyPatch.context() as mp:
        if shift:
            shift_first_window(mp, deco.root, shift)
            sub, lower, upper = windows[0]
            windows[0] = (sub, lower + shift, upper + shift)
        table = components.stability_windows(curve, omega, deco, s, d)
        coeff = d + s * (1 - raw_arithmetic_genus(curve.genera, curve.nodes))
        assert table.coeff == coeff
        D = table.denominator
        assert [
            (w.subcurve, w.lower, w.upper, Fraction(lo, D), Fraction(hi, D))
            for w, lo, hi in zip(table.windows, table.lowers, table.uppers)
        ] == [(sub, lower, upper, lower, upper) for sub, lower, upper in windows]
        if shift:
            assert D % SHIFT_PRIME == 0 != omega._denominator % SHIFT_PRIME
        catalog = table.catalog()
        picks = [t.degrees for t in catalog[:: max(1, len(catalog) // 8)]]
        for _ in range(8):
            head = [rng.randint(-2, s + 2) for _ in range(curve.gamma - 1)]
            picks.append((*head, d - sum(head)))
        for degrees in picks:
            ctuple = nb.ComponentTuple(s, degrees)
            want = raw_row(windows, coeff, degrees)
            sums = table.sums(ctuple)
            assert tuple(sums) == want.sums
            report = table.check(ctuple)
            assert report.passed == want.passed
            assert [(r.partial_sum, r.ok, r.slack_lower, r.slack_upper) for r in report.rows] == [
                (x, lower < x < upper, x - lower, upper - x)
                for x, (_, lower, upper) in zip(want.sums, windows)
            ]
            if not want.passed:
                with pytest.raises(HypothesisError, match="tuple fails condition"):
                    table.binding(sums)
                with pytest.raises(HypothesisError, match="tuple fails condition"):
                    nb.robustness_radius(curve, omega, deco, ctuple)
                continue
            found = table.binding(sums)
            assert nb.robustness_radius(curve, omega, deco, ctuple) == want.radius
            if want.radius is None:
                assert found is None
                continue
            k, radius = found
            assert (table.windows[k].j, radius) == (want.binding_j, want.radius)
            _, lower, upper = windows[k]
            x = want.sums[k]
            witness = nb.binding_witness(curve, omega, deco, ctuple)
            assert (witness.j, witness.side) == (
                want.binding_j, "lower" if x - lower <= upper - x else "upper"
            )


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10_000), s=st.integers(1, 5))
def test_integer_rows_match_raw_fractions(seed, s):
    """sigma_j, verdict, radius and binding j in integers against raw Fractions.

    Random Pruefer trees (gamma = 1 included), random roots, post-order and
    leaf-pruning decompositions, canonical and good perturbed polarizations;
    d = s (p_a - 1), where coeff = 0, in a quarter of the draws, and a first
    window shifted by a fraction with a new prime denominator in some.
    """
    rng = random.Random(seed)
    curve = random_tree_curve(rng, gamma_max=6, genus_range=(2, 5))
    omega = nb.canonical(curve) if rng.random() < 0.5 else random_good_polarization(rng, curve)
    root = rng.randint(1, curve.gamma)
    if rng.random() < 0.5:
        deco = nb.order_components(curve, root)
    else:
        deco = pruning_decomposition(rng, curve, root)
    if rng.random() < 0.25:
        d = s * (curve.arithmetic_genus() - 1)
    else:
        d = rng.randint(-2, s * curve.gamma + 2)
    shift = 0
    if curve.gamma > 1 and rng.random() < 0.3:
        shift = Fraction(rng.choice([-1, 1]) * rng.randint(1, 5), SHIFT_PRIME)
    _assert_rows_match_oracle(rng, curve, omega, deco, s, d, shift)


@pytest.mark.parametrize(
    "genera, root, s, d, shift",
    [
        ((3,), 1, 4, 7, 0),  # gamma = 1: no windows, unbounded
        ((2, 3), 2, 2, 8, 0),  # d = s (p_a - 1): coeff = 0, unbounded
        ((2, 3, 4, 5), 4, 3, 39, 0),
        ((2, 2, 2, 2), 1, 4, 7, 0),  # exact ties between windows
        ((2, 2, 2), 3, 5, 5, Fraction(2, SHIFT_PRIME)),
        ((2, 3, 2, 4, 2), 3, 4, 12, Fraction(-1, SHIFT_PRIME)),
    ],
)
def test_integer_rows_match_raw_fractions_fixed(genera, root, s, d, shift):
    curve = nb.chain_curve(genera)
    deco = nb.order_components(curve, root)
    _assert_rows_match_oracle(random.Random(0), curve, nb.canonical(curve), deco, s, d, shift)


def test_binding_tie_goes_to_the_smallest_j():
    # chain of four rooted at 1: A_1 = {4} and A_3 = {2, 3, 4} both bind
    curve = nb.chain_curve((2, 2, 2, 2))
    eta = nb.canonical(curve)
    deco = nb.order_components(curve, 1)
    ctuple = nb.ComponentTuple(4, (1, 2, 1, 3))
    windows = raw_windows(curve, eta, deco, 4, 7)
    sums = [sum(ctuple.degrees[i - 1] for i in sub) for sub, _, _ in windows]
    ratios = [
        min(x - lower, upper - x) / len(sub) for x, (sub, lower, upper) in zip(sums, windows)
    ]
    assert ratios[0] == ratios[2] == min(ratios) < ratios[1]
    table = stability_windows(curve, eta, deco, 4, 7)
    k, _ = table.binding(table.sums(ctuple))
    assert table.windows[k].j == 1
    assert nb.binding_witness(curve, eta, deco, ctuple).j == 1


@pytest.mark.parametrize(
    "root, weights, subcurves, error, message",
    [
        (4, 3, None, nb.PolarizationError, "polarization has 3 weights for 4 components"),
        (1, 3, None, nb.PolarizationError, "polarization has 3 weights for 4 components"),
        (4, 5, None, nb.PolarizationError, "polarization has 5 weights for 4 components"),
        (4, 4, ({7}, {1, 2}, {1, 2, 3}), nb.CurveError, r"unknown components in subcurve: \[7\]"),
        (4, 4, ({1}, set(), {1, 2, 3}), ValueError, "A_2 does not contain component 2"),
        (4, 9, ({1}, {2}, {1, 2, 3}), nb.PolarizationError, "polarization has 9 weights"),
        (4, 9, ({8}, {1, 2}, {1, 2, 3}), nb.PolarizationError,
         "polarization has 9 weights for 4 components"),
    ],
)
def test_stability_windows_faults_in_subcurve_order(chain4, root, weights, subcurves, error, message):
    """Omega's length first, whatever the subcurves; then `verify_decomposition`'s
    own CurveError, or its first violation as a ValueError."""
    omega = nb.Polarization(tuple(Fraction(1, weights) for _ in range(weights)))
    deco = nb.order_components(chain4, root)
    if subcurves is not None:
        deco = deco._replace(subcurves=tuple(map(frozenset, subcurves)))
    with pytest.raises(error, match=message) as info:
        stability_windows(chain4, omega, deco, 3, 6)
    assert type(info.value) is error


@pytest.mark.parametrize(
    "tree", [ordering._walk, nb.order_components], ids=["walk", "decomposition"]
)
def test_one_component_refuses_a_polarization_of_the_wrong_length(tree):
    """At gamma = 1 there is no subcurve to carry the weight count: the table checks it alone."""
    curve = nb.chain_curve([2])
    omega = nb.Polarization((Fraction(1, 2), Fraction(1, 2)))
    deco = tree(curve, 1)
    ctuple = nb.ComponentTuple(rank=1, degrees=(3,))
    entry_points = [
        lambda: stability_windows(curve, omega, deco, 1, 3),
        lambda: nb.enumerate_components(curve, omega, deco, 1, 3),
        lambda: nb.robustness_radius(curve, omega, deco, ctuple),
        lambda: nb.catalog_invariance_check(curve, omega, 1, 3),
    ]
    message = "^polarization has 2 weights for 1 components$"
    for call in entry_points:
        with pytest.raises(nb.PolarizationError, match=message):
            call()
    eta = nb.canonical(curve)  # the right length still answers
    assert nb.enumerate_components(curve, eta, deco, 1, 3) == [ctuple]


WALK_ENTRIES = {
    "windows": lambda curve, omega, walk: stability_windows(curve, omega, walk, 3, 6),
    "enumerate": lambda curve, omega, walk: nb.enumerate_components(curve, omega, walk, 3, 6),
    "radius": lambda curve, omega, walk: nb.robustness_radius(
        curve, omega, walk, nb.ComponentTuple(3, (1, 1, 2, 2))
    ),
    "invariance": lambda curve, omega, walk: nb.catalog_invariance_check(curve, omega, 3, 6),
    "goodness": lambda curve, omega, walk: nb.goodness_proxy(curve, omega),
    "certify": lambda curve, omega, walk: nb.certify_bn_component(curve, omega, 3, 1, 6),
}


@pytest.mark.parametrize("entry", sorted(WALK_ENTRIES))
def test_a_walk_names_a_short_polarization_by_its_length(chain4, entry):
    """A walk and a decomposition, at either end of the chain, check omega's
    length before anything else, whatever the root."""
    omega = nb.Polarization((Fraction(1, 3),) * 3)
    for tree, root in itertools.product((ordering._walk, nb.order_components), (1, 4)):
        with pytest.raises(
            nb.PolarizationError, match="^polarization has 3 weights for 4 components$"
        ):
            WALK_ENTRIES[entry](chain4, omega, tree(chain4, root))


@pytest.mark.parametrize(
    "last, fault",
    [
        # crosses A_2 = {1, 2}, the subcurve below node 2
        ({2, 3}, "complement of A_3 is not a connected subcurve"),
        # has the size of component 3 plus A_2, but not all of A_2
        ({2, 3, 4}, "recorded separating node 3 of A_3 differs from actual 1"),
    ],
    ids=["crosses-A_2", "sized-without-A_2"],
)
def test_stability_windows_sums_a_family_that_is_no_tree(chain4, last, fault):
    """A family that is no tree is not summed subcurve by subcurve: verify's
    first violation is raised when the table is built, not when it is first read."""
    deco = nb.OrderedDecomposition(
        root=4,
        order=(1, 2, 3, 4),
        subcurves=(frozenset({1}), frozenset({1, 2}), frozenset(last)),
        separating_nodes=(1, 2, 3),
    )
    with pytest.raises(ValueError, match=f"^{fault}$"):
        stability_windows(chain4, nb.canonical(chain4), deco, 3, 6)


NO_PERMUTATION = pytest.mark.parametrize(
    "order", [(1, 2, 3, 9), (1, 2, 3, 0), (1, 2, 3, 3)], ids=["unknown", "zero", "repeated"]
)


@NO_PERMUTATION
def test_stability_windows_rejects_an_order_that_is_no_permutation(chain4, order):
    deco = nb.order_components(chain4, 4)._replace(order=order)
    eta = nb.canonical(chain4)
    want = re.escape(f"order {order} is not a permutation of 1..4")
    with pytest.raises(ValueError, match=want):
        stability_windows(chain4, eta, deco, 3, 6)
    with pytest.raises(ValueError, match=want):
        nb.robustness_radius(chain4, eta, deco, nb.ComponentTuple(3, (1, 2, 1, 2)))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10_000), s=st.integers(1, 5))
def test_invariance_from_windows_matches_enumeration(seed, s):
    """Window comparison and closed-form count against every root's catalog."""
    rng = random.Random(seed)
    curve = random_tree_curve(rng, gamma_max=6, genus_range=(2, 5))
    omega = nb.canonical(curve) if rng.random() < 0.5 else random_good_polarization(rng, curve)
    d = rng.randint(-2, s * curve.gamma + 2)
    _assert_invariance_matches_oracle(curve, omega, s, d)


@pytest.mark.parametrize(
    "genera, nodes, s, d, count",
    [
        ((3,), (), 4, 7, 1),  # gamma = 1: no windows, the one tuple (d)
        ((2, 3), ((1, 1, 2),), 1, 4, 0),  # the window (1, 2) holds no integer
        ((2, 3), ((1, 1, 2),), 2, 2, 2),
    ],
)
def test_invariance_count_edge_cases(genera, nodes, s, d, count):
    curve = nb.NodalCurve(genera, nodes)
    report = _assert_invariance_matches_oracle(curve, nb.canonical(curve), s, d)
    assert report.passed
    assert report.count == count


def test_catalog_size_rejects_non_triangular(chain4):
    # no table is built, so neither the catalog nor its size is counted
    deco = nb.OrderedDecomposition(
        root=4,
        order=(1, 2, 3, 4),
        subcurves=(frozenset({1, 2}), frozenset({1, 2}), frozenset({1, 2, 3})),
        separating_nodes=(2, 2, 3),
    )
    with pytest.raises(ValueError, match="^triangularity: position-2 component 2 lies in A_1$"):
        nb.enumerate_components(chain4, nb.canonical(chain4), deco, 3, 6)


class TestInvarianceFromWindows:
    def test_agreeing_windows_enumerate_nothing(self, monkeypatch, comb4):
        eta = nb.canonical(comb4)
        expected = len(nb.enumerate_components(comb4, eta, canonical_deco(comb4), 3, 5))
        forbid_enumeration(monkeypatch)
        report = nb.catalog_invariance_check(comb4, eta, s=3, d=5)
        assert report.passed
        assert report.count == expected > 0

    def test_agreeing_windows_run_no_search(self, monkeypatch, comb4):
        eta = nb.canonical(comb4)
        expected = len(nb.enumerate_components(comb4, eta, canonical_deco(comb4), 3, 5))
        _refuse_search(monkeypatch)
        report = nb.catalog_invariance_check(comb4, eta, s=3, d=5)
        assert report.passed
        assert report.count == expected > 0

    def test_shifted_window_is_a_mismatch(self, monkeypatch, comb4):
        eta = nb.canonical(comb4)
        shift_first_window(monkeypatch, root=2, shift=1)
        report = _assert_invariance_matches_oracle(comb4, eta, 3, 5)
        assert not report.passed
        assert [m.root for m in report.mismatches] == [2]
        assert report.mismatches[0].missing and report.mismatches[0].extra

    def test_disagreeing_windows_with_equal_catalogs_pass(self, monkeypatch, comb4):
        eta = nb.canonical(comb4)
        calls = []
        real_catalog = components.WindowTable.catalog

        def counted(table):
            calls.append(table.order[-1])
            return real_catalog(table)

        # a nudge too small to move any integer window
        shift_first_window(monkeypatch, root=3, shift=Fraction(1, 10**6))
        monkeypatch.setattr(components.WindowTable, "catalog", counted)
        report = nb.catalog_invariance_check(comb4, eta, s=3, d=5)
        assert calls == [1, 3]  # the fallback ran, for the first root and root 3
        assert report.passed
        assert not report.mismatches
