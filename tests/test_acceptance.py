"""Acceptance suite: twelve numbered criteria, one test (and one
pass/fail line) each.

Run with -v for the per-criterion outcome lines, or -s to also see the
explicit [criterion NN] markers.  Every assertion is exact: all
arithmetic here is integer or Fraction, so no tolerances appear.
"""

import itertools
import random
from contextlib import contextmanager
from fractions import Fraction

import nodalbn as nb
from nodalbn.components import stability_windows
from conftest import (
    random_good_polarization,
    random_tree_curve,
    random_valid_polarization,
    scaled_zero_sum_eps,
    split_table_defects,
)
from oracles import (
    brute_force_catalog,
    brute_force_small_slope,
    raw_connected,
    raw_crossing_count,
    raw_defect,
    raw_split_sides,
)


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:02d}] FAIL  {label}")
        raise
    print(f"[criterion {num:02d}] PASS  {label}")


def connected_subsets(curve):
    ids = list(curve.component_ids)
    for size in range(1, len(ids) + 1):
        for combo in itertools.combinations(ids, size):
            if raw_connected(curve.nodes, combo):
                yield frozenset(combo)


def test_criterion_01_canonical_defect_law():
    """Delta at the canonical weights is half the crossing count.

    A connected subcurve that one node cuts off is a side of a one-node
    split, whose defect the split tables give; any other is recomputed.
    """
    with criterion(1, "canonical split-defect law on 50 random curves"):
        rng = random.Random(101)
        for _ in range(50):
            curve = random_tree_curve(rng, gamma_max=6, genus_range=(2, 6))
            eta = nb.canonical(curve)
            defects = split_table_defects(curve, eta)
            for sub in connected_subsets(curve):
                crossing = raw_crossing_count(curve.nodes, sub)
                expected = Fraction(crossing, 2)
                if crossing == 1:
                    assert defects[sub] == expected
                else:
                    assert raw_defect(curve.genera, curve.nodes, eta.weights, sub) == expected


def test_criterion_02_split_duality():
    """The two sides of every one-node split have defects summing to 1."""
    with criterion(2, "split duality for 20 random weight vectors per curve"):
        rng = random.Random(202)
        for _ in range(50):
            curve = random_tree_curve(rng, gamma_max=6, genus_range=(2, 6))
            if curve.gamma == 1:
                continue
            splits = raw_split_sides(curve.gamma, curve.nodes)
            for _ in range(20):
                omega = random_valid_polarization(rng, curve.gamma)
                defects = split_table_defects(curve, omega)
                assert len(defects) == 2 * len(splits)
                for _, side, rest in splits:
                    assert defects[side] + defects[rest] == 1


def test_criterion_03_ordering_lemma():
    """Every root of every random tree yields a verified decomposition."""
    with criterion(3, "ordered decompositions verify on 100 random trees"):
        rng = random.Random(303)
        for _ in range(100):
            curve = random_tree_curve(rng, gamma_max=7, genus_range=(2, 6))
            for root in curve.component_ids:
                deco = nb.order_components(curve, root)
                check = nb.verify_decomposition(curve, deco)
                assert check.ok, check.violations


def _catalog_instances():
    """Deterministic pool for criteria 4 and 5: curves with gamma <= 4,
    each with its canonical weights and three random good ones."""
    curves = [
        nb.NodalCurve((3,)),
        nb.NodalCurve((2, 3), ((1, 1, 2),)),
        nb.chain_curve((2, 3, 4)),
        nb.comb_curve((2, 4, 3)),
        nb.chain_curve((2, 3, 4, 5)),
        nb.chain_curve((2, 2, 2, 2)),
        nb.comb_curve((2, 3, 4, 5)),
    ]
    rng = random.Random(404)
    pool = []
    for curve in curves:
        omegas = [nb.canonical(curve)] + [
            random_good_polarization(rng, curve) for _ in range(3)
        ]
        pool.append((curve, omegas))
    return pool


def test_criterion_04_catalog_matches_brute_force():
    """Triangular enumeration equals the naive box search everywhere."""
    with criterion(4, "catalog equals brute force, s <= 6, d <= 12"):
        for curve, omegas in _catalog_instances():
            deco = nb.order_components(curve, curve.gamma)
            for omega in omegas:
                assert nb.goodness_proxy(curve, omega).passed
                for s in range(1, 7):
                    for d in range(0, 13):
                        lib = [
                            t.degrees
                            for t in nb.enumerate_components(curve, omega, deco, s, d)
                        ]
                        assert lib == brute_force_catalog(curve, omega, deco, s, d)


def test_criterion_05_catalog_root_invariance():
    """The catalog does not depend on the root used for the ordering."""
    with criterion(5, "catalog identical across every root choice"):
        for curve, omegas in _catalog_instances():
            for omega in omegas:
                for s in range(1, 7):
                    for d in range(0, 13):
                        report = nb.catalog_invariance_check(curve, omega, s, d)
                        assert report.passed, report.mismatches


def _builder_grid_curves():
    """Every tree shape with gamma <= 4, genera in 2..5, deduplicated
    up to isomorphism (paths up to reversal, star teeth sorted)."""
    curves = []
    for g in range(2, 6):
        curves.append(nb.NodalCurve((g,)))
    for gamma in (2, 3, 4):
        seen = set()
        for combo in itertools.product(range(2, 6), repeat=gamma):
            key = min(combo, combo[::-1])
            if key not in seen:
                seen.add(key)
                curves.append(nb.chain_curve(key))
    for teeth in itertools.combinations_with_replacement(range(2, 6), 3):
        for grip in range(2, 6):
            curves.append(nb.comb_curve(teeth + (grip,)))
    return curves


def test_criterion_06_builders_land_in_catalog():
    """Whenever a builder's hypotheses hold, its tuple is in the
    brute-force small-slope catalog at the canonical weights."""
    with criterion(6, "builders sound on the full grid, s <= 8, d <= 8"):
        cache = {}

        def small_catalog(curve, s, d):
            key = (curve, s, d)
            if key not in cache:
                eta = nb.canonical(curve)
                deco = nb.order_components(curve, curve.gamma)
                cache[key] = brute_force_small_slope(curve, eta, deco, s, d)
            return cache[key]

        fired = {"general": 0, "chain": 0, "comb": 0}
        for curve in _builder_grid_curves():
            for s in range(1, 9):
                for d in range(0, 9):
                    try:
                        built = nb.build_small_slope_tuple(curve, s, d)
                    except nb.HypothesisError:
                        pass
                    else:
                        fired["general"] += 1
                        assert built.tuple.degrees in small_catalog(curve, s, d)
                    try:
                        chain_tuple = nb.build_chain_tuple(curve, s, d)
                    except nb.HypothesisError:
                        pass
                    else:
                        fired["chain"] += 1
                        assert chain_tuple.degrees in small_catalog(curve, s, d)
                    try:
                        comb_tuple = nb.build_comb_tuple(curve, s, d)
                    except nb.HypothesisError:
                        pass
                    else:
                        fired["comb"] += 1
                        assert comb_tuple.degrees in small_catalog(curve, s, d)
        assert all(count > 100 for count in fired.values()), fired


def test_criterion_07_dimension_identity():
    """beta at rank s+k splits into moduli dimension plus fiber term."""
    with criterion(7, "dimension identity exact on the full integer grid"):
        for pa in range(2, 11):
            for s in range(1, 11):
                for k in range(1, 11):
                    for d in range(-10, 11):
                        assert nb.bn_number(pa, s + k, d, k) == (
                            s * s * (pa - 1) + 1 + k * (d + s * (pa - 1) - k)
                        )


def _certified_robust_cases():
    """Certified tuples with a finite radius and a usable witness."""
    curves = [
        nb.NodalCurve((2, 3), ((1, 1, 2),)),
        nb.NodalCurve((2, 4), ((1, 1, 2),)),
        nb.chain_curve((2, 2, 2)),
        nb.chain_curve((2, 3, 4)),
        nb.chain_curve((2, 2, 2, 2)),
        nb.comb_curve((2, 2, 2, 2)),
        nb.comb_curve((2, 3, 4, 5)),
    ]
    cases = []
    for curve in curves:
        eta = nb.canonical(curve)
        deco = nb.order_components(curve, curve.gamma)
        gamma = curve.gamma
        for s in range(max(1, 2 * (gamma - 1)), 7):
            for d in range(gamma, min(s, 6) + 1):
                for k in range(1, nb.max_section_count(curve, s) + 1):
                    result = nb.certify_bn_component(curve, eta, s, k, d)
                    if not isinstance(result, nb.BNCertificate):
                        continue
                    tup = result.degree_tuple
                    rho = nb.robustness_radius(curve, eta, deco, tup)
                    if rho is None:
                        continue
                    try:
                        wit = nb.binding_witness(curve, eta, deco, tup)
                        moved = nb.perturb(eta, wit.epsilon)
                    except nb.PolarizationError:
                        continue
                    cases.append((curve, eta, deco, tup, rho, wit, moved))
    return cases


def test_criterion_08_robustness_radius():
    """Inside the radius nothing breaks; the witness breaks its bound."""
    with criterion(8, "robustness radius sharp on 20 certified tuples"):
        # worked instance, frozen: two components (2, 3), rank 2,
        # degrees (1, 1) has radius exactly 1/8
        curve = nb.NodalCurve((2, 3), ((1, 1, 2),))
        eta = nb.canonical(curve)
        deco = nb.order_components(curve, curve.gamma)
        assert nb.robustness_radius(
            curve, eta, deco, nb.ComponentTuple(2, (1, 1))
        ) == Fraction(1, 8)

        cases = _certified_robust_cases()
        assert len(cases) >= 20
        rng = random.Random(808)
        for curve, eta, deco, tup, rho, wit, moved in cases[:20]:
            margin = min(min(w, 1 - w) for w in eta.weights)
            bound = min(rho, margin)
            s, d = tup.rank, tup.total
            for _ in range(10):
                eps = scaled_zero_sum_eps(rng, curve.gamma, bound)
                assert max(abs(e) for e in eps) < rho
                shifted = nb.perturb(eta, eps)
                assert stability_windows(curve, shifted, deco, s, d).check(tup).passed
            report = stability_windows(curve, moved, deco, s, d).check(tup)
            assert not report.passed
            assert wit.j in [row.j for row in report.rows if not row.ok]


def test_criterion_09_worked_pipeline():
    """End-to-end worked example, every number frozen and cross-checked
    against the committed brute-force oracle."""
    with criterion(9, "worked pipeline on the genus-(2,3) two-component curve"):
        curve = nb.NodalCurve((2, 3), ((1, 1, 2),))
        eta = nb.canonical(curve)
        assert eta.weights == (Fraction(3, 8), Fraction(5, 8))

        deco = nb.order_components(curve, curve.gamma)
        catalog = nb.enumerate_components(curve, eta, deco, s=2, d=2)
        assert [t.degrees for t in catalog] == [(0, 2), (1, 1)]
        assert brute_force_catalog(curve, eta, deco, 2, 2) == [(0, 2), (1, 1)]

        small = stability_windows(curve, eta, deco, 2, 2).degree_tuples(small_slope=True)
        assert list(small) == [(1, 1)]
        assert brute_force_small_slope(curve, eta, deco, 2, 2) == [(1, 1)]

        cert = nb.certify_bn_component(curve, eta, s=2, k=1, d=2)
        assert isinstance(cert, nb.BNCertificate)
        assert cert.r == 3
        assert cert.degree_tuple.degrees == (1, 1)
        assert cert.beta == 26
        assert cert.moduli_dim == 17
        assert cert.h1_dual == 10
        assert cert.fiber_dim == 9
        assert cert.identity_ok
        assert cert.beta == cert.moduli_dim + cert.fiber_dim
        assert all(item.ok for item in cert.checklist)


def test_criterion_10_rank_two_mixed_family():
    """Multirank (2,2) with one mixed node: weighted degree 2, slope 1."""
    with criterion(10, "mixed rank-two family arithmetic over the genus grid"):
        for g1 in range(4, 7):
            for g2 in range(3, g1):
                curve = nb.NodalCurve((g1, g2), ((1, 1, 2),))
                eta = nb.canonical(curve)
                desc = nb.SheafDescriptor(
                    curve=curve,
                    multirank=(2, 2),
                    chi=4 - 2 * g1 - 2 * g2,
                    stalks=((1, nb.LocalType(1, 1, 1)),),
                )
                assert nb.wdeg(desc, eta) == 2
                assert nb.wslope(desc, eta) == 1


def test_criterion_11_local_ext_table():
    """Local Ext dimensions over all stalk shapes with entries <= 3."""
    with criterion(11, "local Ext table: vanishing, mixed pair, bilinearity"):
        assert nb.local_ext_dim(nb.LocalType(0, 1, 0), nb.LocalType(0, 0, 1)) == 1
        types = [
            nb.LocalType(s, a, b)
            for s, a, b in itertools.product(range(4), repeat=3)
        ]
        for first in types:
            for second in types:
                value = nb.local_ext_dim(first, second)
                assert value == (
                    first.a_first * second.a_second
                    + first.a_second * second.a_first
                )
                assert value == nb.local_ext_dim(second, first)
                if (first.a_first == first.a_second == 0) or (
                    second.a_first == second.a_second == 0
                ):
                    assert value == 0
        for a1, b1, a2, b2 in itertools.product(range(3), repeat=4):
            other = nb.LocalType(1, 2, 1)
            assert nb.local_ext_dim(
                nb.LocalType(0, a1 + a2, b1 + b2), other
            ) == nb.local_ext_dim(nb.LocalType(0, a1, b1), other) + nb.local_ext_dim(
                nb.LocalType(0, a2, b2), other
            )


def _scan_families():
    chains = []
    for gamma in (2, 3, 4):
        seen = set()
        for combo in itertools.product(range(2, 5), repeat=gamma):
            key = min(combo, combo[::-1])
            if key not in seen:
                seen.add(key)
                chains.append(nb.chain_curve(key))
    combs = []
    for gamma in (3, 4):
        for teeth in itertools.combinations_with_replacement(range(2, 5), gamma - 1):
            for grip in range(2, 5):
                combs.append(nb.comb_curve(teeth + (grip,)))
    return chains + combs


def test_criterion_12_scan_regression():
    """Every in-hypothesis chain and comb cell certifies; none are OPEN."""
    with criterion(12, "scanner: zero OPEN rows over chains and combs"):
        curves = _scan_families()
        rows = nb.conjecture_scan(curves, s_values=range(2, 9))
        assert rows
        expected = 0
        for curve in curves:
            gamma = curve.gamma
            for s in range(max(2, 2 * (gamma - 1)), 9):
                for d in range(gamma, s + 1):
                    expected += nb.max_section_count(curve, s)
        assert len(rows) == expected
        open_rows = [row for row in rows if row.status != "CERTIFIED"]
        assert open_rows == []
