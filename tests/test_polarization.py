"""Weight vectors, the canonical choice, split defects, goodness."""

import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import nodalbn as nb
from nodalbn import ordering, polarization
from conftest import (
    random_good_polarization,
    random_tree_curve,
    random_valid_polarization,
    split_table_defects,
)
from oracles import (
    complement_goodness_proxy,
    raw_connected,
    raw_crossing_count,
    raw_defect,
    raw_split_sides,
)


def type_name(value):
    return type(value).__name__


class TestPolarizationType:
    def test_weights_coerced_to_fractions(self):
        omega = nb.Polarization((Fraction(1, 2), Fraction(1, 2)))
        assert omega[1] == Fraction(1, 2)
        assert len(omega) == 2

    def test_rejects_bad_sum(self):
        with pytest.raises(nb.PolarizationError):
            nb.Polarization((Fraction(1, 2), Fraction(1, 3)))

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(nb.PolarizationError):
            nb.Polarization((Fraction(0), Fraction(1)))

    def test_rejects_weight_one_with_several_components(self):
        with pytest.raises(nb.PolarizationError):
            nb.Polarization((Fraction(1), Fraction(1, 2), Fraction(-1, 2)))

    def test_single_weight_one_allowed(self):
        omega = nb.Polarization((Fraction(1),))
        assert omega[1] == 1

    def test_rejects_bad_sum_names_total(self):
        with pytest.raises(nb.PolarizationError, match="weights sum to 5/6, not 1"):
            nb.Polarization((Fraction(1, 2), Fraction(1, 3)))

    def test_integer_weight_allowed(self):
        assert nb.Polarization((1,)).weights == (Fraction(1),)

    def test_a_given_fraction_is_kept_and_every_weight_is_a_fraction(self):
        class Ratio(Fraction):
            pass

        half = Fraction(1, 2)
        assert nb.Polarization((half, Fraction(1, 2))).weights[0] is half
        for weights in [(1,), (True,), (Ratio(1, 3), Fraction(2, 3))]:
            got = nb.Polarization(weights).weights
            assert [type(w) for w in got] == [Fraction] * len(weights)
            assert got == tuple(map(Fraction, weights))

    @pytest.mark.parametrize("weights, message", [
        ((Fraction(1, 2), Fraction(-1, 2), Fraction(1)), "weight 2 is -1/2; weights must be positive"),
        ((Fraction(3, 2), Fraction(-1, 2)), "weight 1 is 3/2; weights must be strictly below 1"),
        ((Fraction(1, 2), 0, Fraction(1, 2)), "weight 2 is 0; weights must be positive"),
        ((Fraction(1, 3), 1, Fraction(-1, 3)), "weight 2 is 1; weights must be strictly below 1"),
        ((Fraction(-1),), "weight 1 is -1; weights must be positive"),
        ((), "polarization needs at least one weight"),
    ], ids=["negative", "above-one", "zero", "one", "single-negative", "empty"])
    def test_the_first_weight_out_of_range_is_named(self, weights, message):
        with pytest.raises(nb.PolarizationError) as info:
            nb.Polarization(weights)
        assert str(info.value) == message

    @pytest.mark.parametrize("inexact", [0.75, Decimal("0.75"), "3/4"], ids=type_name)
    def test_rejects_inexact_weight(self, inexact):
        with pytest.raises(nb.PolarizationError) as info:
            nb.Polarization((Fraction(1, 4), inexact))
        assert str(info.value) == f"weight 2 is {inexact!r}; it must be an integer or a Fraction"


class TestCanonical:
    def test_two_curve(self, two_curve):
        assert nb.canonical(two_curve).weights == (Fraction(3, 8), Fraction(5, 8))

    def test_comb3(self, comb3_222):
        assert nb.canonical(comb3_222).weights == (
            Fraction(3, 10),
            Fraction(3, 10),
            Fraction(2, 5),
        )

    def test_single_component(self):
        assert nb.canonical(nb.NodalCurve((4,))).weights == (Fraction(1),)

    def test_formula_matches_definition(self, chain4):
        omega = nb.canonical(chain4)
        pa = chain4.arithmetic_genus()
        for i in chain4.component_ids:
            expected = Fraction(
                2 * chain4.genus(i) - 2 + chain4.node_degree(i), 2 * pa - 2
            )
            assert omega[i] == expected


class TestDefect:
    """The split tables' defects, on each side of every one-node split."""

    def test_worked_value(self, two_curve):
        omega = nb.Polarization((Fraction(1, 4), Fraction(3, 4)))
        assert split_table_defects(two_curve, omega)[frozenset({1})] == 0

    def test_canonical_split_value(self, two_curve):
        defects = split_table_defects(two_curve, nb.canonical(two_curve))
        assert defects[frozenset({1})] == Fraction(1, 2)
        assert defects[frozenset({2})] == Fraction(1, 2)

    def test_matches_independent_recomputation(self, comb4):
        rng = random.Random(3)
        for _ in range(10):
            omega = random_valid_polarization(rng, comb4.gamma)
            defects = split_table_defects(comb4, omega)
            assert {frozenset({1}), frozenset({1, 2, 4})} <= defects.keys()
            for side, defect in defects.items():
                assert defect == raw_defect(comb4.genera, comb4.nodes, omega.weights, side)

    def test_whole_curve_defect_is_zero(self, chain4):
        """The root's entries are the whole curve's: weight 1 and genus sum p_a,
        so its defect 1 - p_a - 1 (1 - p_a) is 0."""
        rng = random.Random(4)
        omega = random_valid_polarization(rng, chain4.gamma)
        for root in chain4.component_ids:
            table = polarization._SplitTable(chain4, omega, ordering._walk(chain4, root))
            assert table.weights[-1] == table.denominator
            assert table.defects[-1] == 0
        ids = chain4.component_ids
        assert raw_defect(chain4.genera, chain4.nodes, omega.weights, ids) == 0


class TestGoodness:
    def test_canonical_is_good(self, two_curve, chain4, comb4):
        for curve in (two_curve, chain4, comb4):
            report = nb.goodness_proxy(curve, nb.canonical(curve))
            assert report.passed
            for split in report.splits:
                assert split.ok
                assert split.defect == Fraction(1, 2)

    def test_bad_weights_detected(self, two_curve):
        omega = nb.Polarization((Fraction(1, 4), Fraction(3, 4)))
        report = nb.goodness_proxy(two_curve, omega)
        assert not report.passed
        bad = [s for s in report.splits if not s.ok]
        assert bad and bad[0].defect == 0

    def test_grip_weight_majority_iff_many_nodes(self):
        # the grip's weight reaches 1/2 exactly when its node count
        # reaches p_a + 1 - 2 * genus
        for genera in ((2, 2, 2, 2), (2, 3, 4, 9), (3, 3, 3, 3, 3)):
            curve = nb.comb_curve(genera)
            grip = curve.grip()
            eta = nb.canonical(curve)
            pa = curve.arithmetic_genus()
            many = curve.node_degree(grip) >= pa + 1 - 2 * curve.genus(grip)
            assert (eta[grip] >= Fraction(1, 2)) == many


class TestPerturb:
    def test_shifts_weights(self, two_curve):
        eta = nb.canonical(two_curve)
        moved = nb.perturb(eta, [Fraction(1, 16), Fraction(-1, 16)])
        assert moved.weights == (Fraction(7, 16), Fraction(9, 16))

    def test_rejects_nonzero_sum(self, two_curve):
        eta = nb.canonical(two_curve)
        with pytest.raises(nb.PolarizationError):
            nb.perturb(eta, [Fraction(1, 16), Fraction(1, 16)])

    def test_rejects_wrong_length(self, two_curve):
        eta = nb.canonical(two_curve)
        with pytest.raises(nb.PolarizationError):
            nb.perturb(eta, [Fraction(0)])

    @pytest.mark.parametrize("inexact", [-0.0625, Decimal("-0.0625"), "-1/16"], ids=type_name)
    def test_rejects_inexact_entry(self, two_curve, inexact):
        eta = nb.canonical(two_curve)
        with pytest.raises(nb.PolarizationError) as info:
            nb.perturb(eta, [Fraction(1, 16), inexact])
        assert str(info.value) == (
            f"perturbation entry 2 is {inexact!r}; it must be an integer or a Fraction"
        )


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10_000), extra=st.integers(0, 4))
def test_every_curve_has_arithmetic_genus_at_least_two_gamma(seed, extra):
    """So `canonical` needs no p_a < 2 refusal: 2 p_a - 2 >= 4 gamma - 2 > 0.

    A random Prüfer tree, with ``extra`` more nodes closing cycles.
    """
    rng = random.Random(seed)
    tree = random_tree_curve(rng, gamma_max=8, genus_range=(2, 3))
    nodes = list(tree.nodes)
    if tree.gamma > 1:
        for nid in range(tree.delta + 1, tree.delta + 1 + extra):
            nodes.append((nid, *rng.sample(tree.component_ids, 2)))
    curve = nb.NodalCurve(tree.genera, nodes)
    assert curve.arithmetic_genus() >= 2 * curve.gamma
    eta = nb.canonical(curve)
    assert sum(eta.weights) == 1 and min(eta.weights) > 0


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_split_defects_sum_to_one(seed):
    rng = random.Random(seed)
    curve = random_tree_curve(rng, gamma_max=6)
    if curve.gamma == 1:
        return
    omega = random_valid_polarization(rng, curve.gamma)
    defects = split_table_defects(curve, omega)
    for _, side, rest in raw_split_sides(curve.gamma, curve.nodes):
        assert defects[side] + defects[rest] == 1


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_canonical_defect_is_half_crossing(seed):
    rng = random.Random(seed)
    curve = random_tree_curve(rng, gamma_max=6)
    eta = nb.canonical(curve)
    ids = list(curve.component_ids)
    size = rng.randint(1, curve.gamma)
    sub = frozenset(rng.sample(ids, size))
    if not raw_connected(curve.nodes, sub):
        return
    crossing = raw_crossing_count(curve.nodes, sub)
    if crossing == 1:  # a side of a one-node split: the split tables give its defect
        defect = split_table_defects(curve, eta)[sub]
    else:
        defect = raw_defect(curve.genera, curve.nodes, eta.weights, sub)
    assert defect == Fraction(crossing, 2)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_random_good_polarization_is_good(seed):
    rng = random.Random(seed)
    curve = random_tree_curve(rng, gamma_max=6)
    omega = random_good_polarization(rng, curve)
    assert nb.goodness_proxy(curve, omega).passed


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10_000), good=st.booleans())
def test_goodness_proxy_matches_complement_oracle(seed, good):
    rng = random.Random(seed)
    curve = random_tree_curve(rng, gamma_max=12)
    if good:
        omega = random_good_polarization(rng, curve)
    else:  # arbitrary weights: some splits fail
        omega = random_valid_polarization(rng, curve.gamma)
    assert nb.goodness_proxy(curve, omega) == complement_goodness_proxy(curve, omega)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10_000), good=st.booleans())
def test_proxy_rows_are_the_split_sides(seed, good):
    """The integer rows a printed proxy reads give every side and defect of the oracle.

    Each row's side, built from its position and flip, is the side
    `raw_split_sides` searches out for that node; its numerator over D is
    the defect; and `goodness_proxy`, built from the same rows, is the
    complement oracle's report.
    """
    rng = random.Random(seed)
    curve = random_tree_curve(rng, gamma_max=12)
    if good:
        omega = random_good_polarization(rng, curve)
    else:  # arbitrary weights: some splits fail
        omega = random_valid_polarization(rng, curve.gamma)
    splits = polarization._SplitTable(curve, omega)
    rows = splits.proxy_rows()
    raw = raw_split_sides(curve.gamma, curve.nodes)
    assert [nid for nid, *_ in rows] == [nid for nid, _, _ in raw]
    report = nb.goodness_proxy(curve, omega)
    assert report == complement_goodness_proxy(curve, omega)
    D = splits.denominator
    for (_, _, _, num), (_, side, _), row in zip(rows, raw, report.splits):
        assert side == row.side
        assert Fraction(num, D) == row.defect
        assert (0 < num < D) == row.ok


def test_goodness_proxy_errors_match_complement_oracle(cycle_curve, chain4):
    # three weights fit neither curve: a cycle is refused before the lengths are checked
    omega = nb.Polarization((Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)))
    for curve, error in ((cycle_curve, nb.NotCompactTypeError), (chain4, nb.PolarizationError)):
        for proxy in (nb.goodness_proxy, complement_goodness_proxy):
            with pytest.raises(error):
                proxy(curve, omega)
