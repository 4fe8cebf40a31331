"""Expected-dimension arithmetic, existence bounds, certification, scans."""

import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import nodalbn as nb
from nodalbn import brill_noether, components, polarization
from conftest import random_good_polarization, random_tree_curve
from oracles import certificate_scan


class TestBnNumber:
    def test_worked_value(self):
        assert nb.bn_number(pa=5, r=3, d=2, k=1) == 26

    def test_zero_sections_edge(self):
        # formula is pure arithmetic, defined for any integer inputs
        assert nb.bn_number(2, 1, 0, 0) == 2

    @given(
        pa=st.integers(2, 10),
        s=st.integers(1, 10),
        k=st.integers(1, 10),
        d=st.integers(-10, 10),
    )
    def test_split_identity(self, pa, s, k, d):
        lhs = nb.bn_number(pa, s + k, d, k)
        assert lhs == s * s * (pa - 1) + 1 + k * (d + s * (pa - 1) - k)


class TestBgnBounds:
    def test_passing_instance(self):
        assert nb.bgn_bounds(pa=5, r=3, d=2, k=1).ok

    def test_rank_bound_fails(self):
        verdict = nb.bgn_bounds(pa=2, r=5, d=1, k=4)
        assert not verdict.ok
        assert any("rank bound" in f for f in verdict.failures)

    def test_degree_and_section_failures(self):
        verdict = nb.bgn_bounds(pa=3, r=2, d=0, k=2)
        assert not verdict.ok
        assert verdict.failures == (
            "degree 0 must be positive",
            "sections k = 2 must stay below rank 2",
            "rank bound fails: 2 > 0 + (2-2)*3 = 0",
        )

    def test_sections_equal_to_the_rank_fail_alone(self):
        # k = r is the boundary: the rank bound r <= d + 0 holds and d > 0
        verdict = nb.bgn_bounds(pa=3, r=2, d=2, k=2)
        assert verdict == (False, ("sections k = 2 must stay below rank 2",))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            nb.bgn_bounds(pa=3, r=1, d=1, k=1)
        with pytest.raises(ValueError):
            nb.bgn_bounds(pa=3, r=2, d=1, k=0)

    def test_refuses_a_negative_genus(self):
        with pytest.raises(ValueError, match="^arithmetic genus pa must be >= 0, got -3$"):
            nb.bgn_bounds(pa=-3, r=3, d=2, k=1)
        assert nb.bgn_bounds(pa=0, r=3, d=3, k=1).ok


class TestPerComponent:
    def test_bounds_exact(self):
        bounds = nb.per_component_bgn(r=3, k=1, degrees=(1, 1), genera=(2, 3))
        assert [b.bound for b in bounds] == [Fraction(4, 2), Fraction(7, 3)]
        assert all(b.ok for b in bounds)

    def test_detects_failure(self):
        bounds = nb.per_component_bgn(r=2, k=2, degrees=(1, 1), genera=(2, 2))
        assert [b.ok for b in bounds] == [False, False]
        assert bounds[0].bound == Fraction(3, 2)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            nb.per_component_bgn(r=2, k=1, degrees=(1,), genera=(2, 2))

    def test_refuses_a_genus_below_one(self):
        with pytest.raises(ValueError, match="^component 2 has genus 0; each genus must be >= 1$"):
            nb.per_component_bgn(r=3, k=1, degrees=(2, 1), genera=(2, 0))


# each public entry point of the arithmetic, one integer argument left open, and its name
INTEGER_ARGUMENTS = {
    "bn_number": (lambda v: nb.bn_number(5, 3, v, 1), "degree d"),
    "bgn_bounds": (lambda v: nb.bgn_bounds(v, 3, 2, 1), "arithmetic genus pa"),
    "per_component_bgn": (lambda v: nb.per_component_bgn(3, 1, (2, 1), (2, v)), "genera"),
    "max_section_count": (lambda v: nb.max_section_count(nb.chain_curve((2, 3)), v), "rank s"),
    "conjecture_scan": (lambda v: nb.conjecture_scan([nb.chain_curve((2, 2))], (v, 3)),
                        "s values"),
}


@pytest.mark.parametrize("inexact", [1.5, Decimal(1), "1"], ids=lambda v: type(v).__name__)
@pytest.mark.parametrize("entry", sorted(INTEGER_ARGUMENTS))
def test_arithmetic_reads_only_integers(entry, inexact):
    """A float, a Decimal or a str raises ValueError naming the argument; True reads as 1."""
    call, what = INTEGER_ARGUMENTS[entry]
    with pytest.raises(ValueError, match=f"^{what} must be"):
        call(inexact)
    assert call(True) == call(1)


class TestCertify:
    def test_worked_certificate(self, two_curve):
        eta = nb.canonical(two_curve)
        cert = nb.certify_bn_component(two_curve, eta, s=2, k=1, d=2)
        assert isinstance(cert, nb.BNCertificate)
        assert cert.r == 3
        assert cert.degree_tuple.degrees == (1, 1)
        assert cert.beta == 26
        assert cert.moduli_dim == 17
        assert cert.h1_dual == 10
        assert cert.fiber_dim == 9
        assert cert.identity_ok
        assert [item.name for item in cert.checklist] == [
            "compact_type",
            "goodness_proxy",
            "section_bound",
            "small_slope_tuple",
            "per_component_degree_bound",
            "degree_range",
        ]
        assert all(item.ok for item in cert.checklist)

    def test_section_bound_failure(self, two_curve):
        eta = nb.canonical(two_curve)
        result = nb.certify_bn_component(two_curve, eta, s=1, k=3, d=2)
        assert isinstance(result, nb.CertificationFailure)
        assert [item.name for item in result.failed] == ["section_bound"]

    def test_small_slope_failure(self, two_curve):
        eta = nb.canonical(two_curve)
        result = nb.certify_bn_component(two_curve, eta, s=1, k=1, d=3)
        assert isinstance(result, nb.CertificationFailure)
        assert [item.name for item in result.failed] == ["small_slope_tuple"]

    def test_bad_polarization_is_hard_error(self, two_curve):
        omega = nb.Polarization((Fraction(1, 4), Fraction(3, 4)))
        with pytest.raises(nb.PolarizationError):
            nb.certify_bn_component(two_curve, omega, s=2, k=1, d=2)

    def test_not_compact_type_is_hard_error(self, cycle_curve):
        eta = nb.Polarization((Fraction(1, 2), Fraction(1, 2)))
        with pytest.raises(nb.NotCompactTypeError):
            nb.certify_bn_component(cycle_curve, eta, s=2, k=1, d=2)

    def test_input_validation(self, two_curve):
        eta = nb.canonical(two_curve)
        with pytest.raises(ValueError):
            nb.certify_bn_component(two_curve, eta, s=0, k=1, d=2)
        with pytest.raises(ValueError):
            nb.certify_bn_component(two_curve, eta, s=2, k=0, d=2)

    @pytest.mark.parametrize(
        "s, k, d, name",
        [
            (4.0, 1, 4, "rank s"),
            (4, 1.0, 4, "section count k"),
            (4, 1, 4.0, "degree d"),
            (4, 1, Fraction(9, 2), "degree d"),
        ],
        ids=["float-s", "float-k", "float-d", "fraction-d"],
    )
    def test_integer_arguments_enter_through_index(self, two_curve, s, k, d, name):
        eta = nb.canonical(two_curve)
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            nb.certify_bn_component(two_curve, eta, s, k, d)

    def test_certified_tuple_passes_conditions(self, comb4):
        eta = nb.canonical(comb4)
        cert = nb.certify_bn_component(comb4, eta, s=6, k=1, d=5)
        assert isinstance(cert, nb.BNCertificate)
        deco = nb.order_components(comb4, comb4.gamma)
        assert components.stability_windows(comb4, eta, deco, 6, 5).check(cert.degree_tuple).passed


class TestMaxSections:
    def test_values(self, two_curve):
        assert nb.max_section_count(two_curve, 2) == 1
        assert nb.max_section_count(two_curve, 4) == 2

    def test_single_component(self):
        assert nb.max_section_count(nb.NodalCurve((3,)), 5) == (1 + 10) // 3

    def test_refuses_a_rank_below_one(self):
        curve = nb.chain_curve((2, 3))
        for s in (0, -4):
            with pytest.raises(ValueError, match=f"^rank s must be >= 1, got {s}$"):
                nb.max_section_count(curve, s)
        assert nb.max_section_count(curve, 1) == 1


class TestScan:
    def test_small_chains_all_certified(self):
        curves = [nb.chain_curve((2, 2)), nb.chain_curve((2, 3))]
        rows = nb.conjecture_scan(curves, s_values=range(2, 5))
        assert rows
        assert all(row.certified for row in rows)
        assert all(row.status == "CERTIFIED" for row in rows)

    def test_beta_column(self):
        curve = nb.chain_curve((2, 2))
        pa = curve.arithmetic_genus()
        rows = nb.conjecture_scan([curve], s_values=(2,))
        assert rows
        for row in rows:
            assert row.beta == nb.bn_number(pa, row.s + row.k, row.d, row.k)

    def test_out_of_hypothesis_cells_skipped(self):
        rows = nb.conjecture_scan([nb.chain_curve((2, 2, 2))], s_values=(1, 2, 3))
        # 2(gamma-1) = 4 > 3: nothing qualifies
        assert rows == []

    def test_explicit_grid_filtered(self):
        # gamma <= d <= s, and k up to max_section_count = (1 + 4) // 2
        rows = nb.conjecture_scan([nb.chain_curve((2, 2))], s_values=(4,))
        assert {(row.d, row.k) for row in rows} == {
            (2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2)
        }

    def test_rows_sorted(self):
        curves = [nb.chain_curve((2, 3)), nb.chain_curve((2, 2))]
        rows = nb.conjecture_scan(curves, s_values=(2, 3))
        keys = [(r.gamma, r.genera, r.s, r.d, r.k) for r in rows]
        assert keys == sorted(keys)

    def test_generator_arguments(self):
        rows = nb.conjecture_scan(
            iter([nb.chain_curve((2, 2)), nb.chain_curve((3, 3))]),
            s_values=iter((2, 3)),
        )
        assert {row.genera for row in rows} == {(2, 2), (3, 3)}


@given(s=st.integers(1, 12), data=st.data())
def test_section_bound_and_small_slope_imply_degree_rows(s, data):
    """k <= 1 + s(g_i - 1) with every degree in 1..s gives the last two rows.

    Per component: k <= 1 + s(g_i - 1) <= d_i + s(g_i - 1), which is
    k g_i <= d_i + r(g_i - 1) for r = s + k; and 1 <= d_i <= s < r.
    """
    genera = data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=6))
    k = data.draw(st.integers(1, min(1 + s * (g - 1) for g in genera)))
    degrees = data.draw(st.lists(st.integers(1, s), min_size=len(genera), max_size=len(genera)))
    r = s + k
    assert all(c.ok for c in nb.per_component_bgn(r, k, degrees, genera))
    assert all(0 < x <= r for x in degrees)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_certify_fails_only_on_section_or_small_slope(seed):
    """On random trees the two degree rows never fail once the first four pass."""
    rng = random.Random(seed)
    curve = random_tree_curve(rng, gamma_max=6, genus_range=(2, 5))
    omega = random_good_polarization(rng, curve)
    s = rng.randint(1, 10)
    k = rng.randint(1, 4)
    d = rng.randint(-1, s * curve.gamma + 2)
    result = nb.certify_bn_component(curve, omega, s, k, d)
    names = [item.name for item in result.checklist]
    if isinstance(result, nb.BNCertificate):
        assert names[-2:] == ["per_component_degree_bound", "degree_range"]
    else:
        assert {item.name for item in result.failed} <= {"section_bound", "small_slope_tuple"}
        assert result.failed


def _random_trees(rng, count):
    return [random_tree_curve(rng, gamma_max=5, genus_range=(2, 4)) for _ in range(count)]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_a_scan_cell_is_certified_exactly_when_its_small_slope_tuple_exists(seed):
    """Inside the scan's grid the small-slope row alone decides a cell.

    k g_i <= 1 + s(g_i - 1) with g_i >= 1 gives the section bound, checked
    here, and the section bound with degrees in 1..s gives the two degree
    rows (`test_section_bound_and_small_slope_imply_degree_rows`).
    """
    rng = random.Random(seed)
    curve = random_tree_curve(rng, gamma_max=5, genus_range=(2, 4))
    s_values = sorted(rng.sample(range(1, 13), rng.randint(1, 4)))
    splits = polarization._SplitTable(curve, nb.canonical(curve))
    want = []
    for s in s_values:
        if s < max(1, 2 * (curve.gamma - 1)):
            continue
        for d in range(curve.gamma, s + 1):
            found = components.WindowTable(splits, s, d).first_small_slope()
            for k in range(1, nb.max_section_count(curve, s) + 1):
                assert all(k <= 1 + s * (g - 1) for g in curve.genera)
                want.append((s, d, k, found is not None))
    rows = nb.conjecture_scan([curve], s_values)
    assert [(row.s, row.d, row.k, row.certified) for row in rows] == want


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_scan_matches_the_certificate_scan(seed):
    """On random Pruefer trees the scan's rows are those of the scan that certifies each row."""
    rng = random.Random(seed)
    curves = _random_trees(rng, 3)
    s_values = sorted(rng.sample(range(1, 11), rng.randint(1, 5)))
    assert nb.conjecture_scan(curves, s_values) == certificate_scan(curves, s_values)


def test_hypotheses_are_the_checklist_verdicts():
    """`certify_bn_component`'s ok column is the textbook tests.

    Random trees and good polarizations, with s below 2(gamma - 1), k above
    `max_section_count` and d outside gamma..s drawn too, so that the
    section and small-slope rows each fail somewhere.  The tests: every
    k <= 1 + s(g_i - 1), a small-slope tuple, and on that tuple every
    `per_component_bgn` Fraction bound and every degree in 1..r.  A
    certificate has six rows, all passing; a failure has four, failing
    exactly where the first two tests fail.
    """
    rng = random.Random(1402)
    failed = [0, 0]
    for _ in range(300):
        curve = random_tree_curve(rng, gamma_max=5, genus_range=(2, 5))
        omega = random_good_polarization(rng, curve)
        s = rng.randint(1, 2 * curve.gamma + 2)
        k = rng.randint(1, nb.max_section_count(curve, s) + 3)
        d = rng.randint(-1, s * curve.gamma + 2)
        splits = polarization._SplitTable(curve, omega).require_good()
        chosen = components.WindowTable(splits, s, d).first_small_slope()
        section = all(k <= 1 + s * (g - 1) for g in curve.genera)
        result = nb.certify_bn_component(curve, omega, s, k, d)
        oks = tuple(item.ok for item in result.checklist)
        if isinstance(result, nb.BNCertificate):
            r = s + k
            assert section and result.degree_tuple == chosen
            assert all(c.ok for c in nb.per_component_bgn(r, k, chosen.degrees, curve.genera))
            assert all(0 < x <= r for x in chosen.degrees)
            assert oks == (True,) * 6
        else:
            assert oks == (True, True, section, chosen is not None)
            assert not (section and chosen is not None)
        failed[0] += not section
        failed[1] += chosen is None
    assert all(failed), failed


SCAN_CURVES = [
    nb.chain_curve((2, 2)),
    nb.chain_curve((2, 3, 2)),
    nb.comb_curve((2, 2, 3)),
    nb.comb_curve((2, 3, 2, 2)),
]


def _refuse(*args, **kwargs):
    raise AssertionError("the scan built what it does not print")


def test_scan_builds_no_certificate(monkeypatch):
    """The rows stay the same with every certificate-building name refusing to run.

    The tuple search is refused too (least tuple, listing and count), so
    the scan lists no tuple: existence alone decides a cell.
    """
    want = certificate_scan(SCAN_CURVES, range(1, 9))
    assert want and all(row.certified for row in want)
    for name in (
        "BNCertificate", "CertificationFailure", "certify_bn_component", "per_component_bgn",
    ):
        monkeypatch.setattr(brill_noether, name, _refuse)
    for name in ("__init__", "count_small_slope", "first_small_slope", "_tuples", "_count"):
        monkeypatch.setattr(components.WindowTable, name, _refuse)
    assert nb.conjecture_scan(SCAN_CURVES, range(1, 9)) == want


def test_scan_without_a_small_slope_tuple_is_open(monkeypatch):
    """A cell whose search finds no tuple is OPEN: the verdict reads the search."""
    want = nb.conjecture_scan(SCAN_CURVES, range(1, 9))
    monkeypatch.setattr(polarization._SplitTable, "has_small_slope", lambda self, s, d: False)
    rows = nb.conjecture_scan(SCAN_CURVES, range(1, 9))
    assert rows == [row._replace(certified=False) for row in want]
    assert rows and all(row.status == "OPEN" for row in rows)
