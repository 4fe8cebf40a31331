"""Sheaf descriptors, weighted numerics, local and global Ext counts."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import nodalbn as nb
from conftest import random_good_polarization, random_tree_curve, random_valid_polarization


def descriptor(curve, multirank, chi, stalks, degrees=None):
    return nb.SheafDescriptor(curve, tuple(multirank), chi, tuple(stalks), degrees)


class TestDescriptorValidation:
    def test_structure_sheaf(self, two_curve):
        desc = nb.locally_free_descriptor(two_curve, 1, (0, 0))
        assert desc.chi == 1 - two_curve.arithmetic_genus()
        assert desc.is_locally_free()
        assert desc.stalk(1) == nb.LocalType(1, 0, 0)

    def test_rank_coupling_enforced(self, two_curve):
        # stalk forces rank 2 on the second component, multirank says 1
        with pytest.raises(nb.DescriptorError):
            descriptor(two_curve, (2, 1), -5, [(1, (1, 1, 1))])

    def test_every_node_needs_a_stalk(self, chain3_222):
        with pytest.raises(nb.DescriptorError):
            descriptor(chain3_222, (1, 1, 1), -5, [(1, (1, 0, 0))])

    def test_rejects_unknown_node(self, two_curve):
        with pytest.raises(nb.DescriptorError):
            descriptor(two_curve, (1, 1), -4, [(1, (1, 0, 0)), (5, (1, 0, 0))])

    def test_rejects_negative_entries(self, two_curve):
        with pytest.raises(nb.DescriptorError):
            descriptor(two_curve, (1, 1), -4, [(1, (-1, 2, 2))])

    def test_degrees_length_checked(self, two_curve):
        with pytest.raises(nb.DescriptorError):
            nb.locally_free_descriptor(two_curve, 1, (0, 0, 0))

    @pytest.mark.parametrize("multirank, chi, degrees, what", [
        ((1.5, 1), -4, None, "multirank"),
        ((1, 1), -4.5, None, "chi"),
        ((1, 1), -4, (0.5, 0), "degrees"),
    ])
    def test_descriptor_rejects_float_entries(self, two_curve, multirank, chi, degrees, what):
        with pytest.raises(nb.DescriptorError, match=f"{what} must be integers"):
            descriptor(two_curve, multirank, chi, [(1, (1, 0, 0))], degrees)

    def test_locally_free_rejects_float_degrees(self, two_curve):
        with pytest.raises(nb.DescriptorError, match="degrees must be integers"):
            nb.locally_free_descriptor(two_curve, 1, (0.5, 0))

    def test_mixed_stalk_accepted(self, two_curve):
        # rank (2, 2) with one free direction and one torn pair at the node
        desc = descriptor(two_curve, (2, 2), -6, [(1, (1, 1, 1))])
        assert not desc.is_locally_free()

    @pytest.mark.parametrize("as_mapping", [False, True])
    def test_stalks_as_pairs_or_mapping(self, chain3_222, as_mapping):
        pairs = [(2, (1, 0, 0)), (1, [1, 1, 0])]
        stalks = dict(pairs) if as_mapping else tuple(pairs)
        desc = nb.SheafDescriptor(chain3_222, (2, 1, 1), -9, stalks)
        assert desc.stalks == ((1, nb.LocalType(1, 1, 0)), (2, nb.LocalType(1, 0, 0)))
        assert desc.stalk(1).free_rank == 1
        assert all(type(lt) is nb.LocalType for _, lt in desc.stalks)

    @pytest.mark.parametrize("as_mapping", [False, True])
    @pytest.mark.parametrize("value", [(1, 0), (1, 0, 0, 0), (1, 0.5, 0), 3, "100"])
    def test_malformed_stalk_value(self, two_curve, as_mapping, value):
        stalks = {1: value} if as_mapping else ((1, value),)
        with pytest.raises(nb.DescriptorError) as info:
            nb.SheafDescriptor(two_curve, (1, 1), -4, stalks)
        assert str(info.value) == f"stalk at node 1 is not three integers: {value!r}"

    @pytest.mark.parametrize("entry", [(1, (1, 0, 0), 9), (1,), (), 7, None])
    def test_malformed_stalk_entry(self, two_curve, entry):
        """A stalk entry that is not a (node id, value) pair is refused, not unpacked."""
        with pytest.raises(nb.DescriptorError) as info:
            nb.SheafDescriptor(two_curve, (1, 1), 0, [entry])
        assert str(info.value) == f"stalk entry {entry!r} is not a (node id, value) pair"

    @pytest.mark.parametrize(
        "pairs",
        [
            [(1, (0, 0, 0)), (1, (1, 0, 1))],
            [(1, (1, 0, 1)), (1, (0, 0, 0))],
            [(1, (1, 0, 1)), (1, (1, 0, 1))],
        ],
        ids=["contradicting", "contradicting-reversed", "repeated"],
    )
    def test_rejects_a_node_given_twice(self, pairs):
        """The parser's wording; the pair that sorts last no longer hides the other."""
        with pytest.raises(nb.DescriptorError) as info:
            nb.SheafDescriptor(nb.chain_curve([2, 2]), (1, 2), 0, pairs)
        assert str(info.value) == "stalk at node 1 defined twice"

    def test_stalk_lookup(self, chain3_222):
        desc = descriptor(chain3_222, (2, 1, 1), -9, [(1, (1, 1, 0)), (2, (1, 0, 0))])
        assert desc.stalk(1) == nb.LocalType(1, 1, 0)
        assert desc.stalk(2) == nb.LocalType(1, 0, 0)
        for missing in (0, 3):
            with pytest.raises(nb.DescriptorError) as info:
                desc.stalk(missing)
            assert str(info.value) == f"no stalk recorded at node {missing}"


class TestWeightedNumerics:
    def test_structure_sheaf_slope_zero(self, two_curve):
        eta = nb.canonical(two_curve)
        desc = nb.locally_free_descriptor(two_curve, 1, (0, 0))
        assert nb.wrank(desc, eta) == 1
        assert nb.wdeg(desc, eta) == 0
        assert nb.wslope(desc, eta) == 0

    def test_locally_free_wdeg_is_weighted_degree_sum(self, two_curve):
        eta = nb.canonical(two_curve)
        desc = nb.locally_free_descriptor(two_curve, 2, (1, 3))
        # chi = 4 + 2 (1 - 5) = -4, wrank = 2, wdeg = chi - 2 (1 - 5) = 4
        assert nb.wdeg(desc, eta) == 4
        assert nb.degree_defect(desc, eta) == 0

    def test_mixed_rank_two_worked_family(self):
        for g1 in range(4, 7):
            for g2 in range(3, g1):
                curve = nb.NodalCurve((g1, g2), ((1, 1, 2),))
                eta = nb.canonical(curve)
                desc = descriptor(
                    curve, (2, 2), 4 - 2 * g1 - 2 * g2, [(1, (1, 1, 1))]
                )
                assert nb.wrank(desc, eta) == 2
                assert nb.wdeg(desc, eta) == 2
                assert nb.wslope(desc, eta) == 1

    def test_wrank_uses_weights(self, two_curve):
        eta = nb.canonical(two_curve)
        desc = descriptor(two_curve, (1, 3), -8, [(1, (1, 0, 2))])
        assert nb.wrank(desc, eta) == Fraction(3, 8) + 3 * Fraction(5, 8)


    def test_wrank_needs_matching_lengths(self, two_curve, chain3_222):
        desc = nb.locally_free_descriptor(two_curve, 1, (0, 0))
        with pytest.raises(nb.PolarizationError):
            nb.wrank(desc, nb.canonical(chain3_222))


@pytest.mark.parametrize("call, message", [
    (lambda curve, eta: nb.locally_free_descriptor(curve, -1, (0, 0)), "rank must be nonnegative"),
    (
        lambda curve, eta: nb.wslope(descriptor(curve, (0, 0), 0, [(1, (0, 0, 0))]), eta),
        "slope needs positive weighted rank, got 0",
    ),
    (
        lambda curve, eta: nb.degree_defect(descriptor(curve, (1, 1), -4, [(1, (1, 0, 0))]), eta),
        "degree defect needs recorded degrees",
    ),
], ids=["negative-rank", "zero-weighted-rank", "no-degrees"])
def test_descriptor_faults_are_named(two_curve, call, message):
    with pytest.raises(nb.DescriptorError) as info:
        call(two_curve, nb.canonical(two_curve))
    assert str(info.value) == message


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_wrank_is_the_raw_fraction_sum(seed):
    rng = random.Random(seed)
    curve = random_tree_curve(rng, gamma_max=10)
    ranks = [rng.randint(0, 6) for _ in curve.component_ids]
    stalks = []
    for n in curve.nodes:
        free = rng.randint(0, min(ranks[n.first - 1], ranks[n.second - 1]))
        stalks.append((n.id, (free, ranks[n.first - 1] - free, ranks[n.second - 1] - free)))
    desc = descriptor(curve, ranks, rng.randint(-20, 20), stalks)
    for omega in (random_valid_polarization(rng, curve.gamma),
                  random_good_polarization(rng, curve)):
        want = sum((Fraction(r) * w for r, w in zip(ranks, omega.weights)), Fraction(0))
        got = nb.wrank(desc, omega)
        assert type(got) is Fraction and got == want


class TestLocalExt:
    def test_free_pairings_vanish(self):
        free = nb.LocalType(2, 0, 0)
        mixed = nb.LocalType(1, 1, 2)
        assert nb.local_ext_dim(free, free) == 0
        assert nb.local_ext_dim(free, mixed) == 0
        assert nb.local_ext_dim(mixed, free) == 0

    def test_opposite_torn_directions(self):
        first = nb.LocalType(0, 1, 0)
        second = nb.LocalType(0, 0, 1)
        assert nb.local_ext_dim(first, second) == 1
        assert nb.local_ext_dim(second, first) == 1

    def test_formula_on_small_table(self):
        types = [
            nb.LocalType(s, a, b)
            for s, a, b in itertools.product(range(4), repeat=3)
        ]
        for first in types:
            for second in types:
                expected = (
                    first.a_first * second.a_second
                    + first.a_second * second.a_first
                )
                assert nb.local_ext_dim(first, second) == expected

    def test_bilinear_in_torn_exponents(self):
        for s1, a1, b1, a2, b2, t in itertools.product(range(3), repeat=6):
            combined = nb.LocalType(s1, a1 + a2, b1 + b2)
            other = nb.LocalType(t, 1, 2)
            assert nb.local_ext_dim(combined, other) == nb.local_ext_dim(
                nb.LocalType(s1, a1, b1), other
            ) + nb.local_ext_dim(nb.LocalType(0, a2, b2), other)


class TestGlobalExt:
    def test_sums_over_nodes(self, chain3_222):
        first = descriptor(
            chain3_222, (1, 2, 1), -5, [(1, (1, 0, 1)), (2, (1, 1, 0))]
        )
        second = descriptor(
            chain3_222, (1, 2, 1), -5, [(1, (0, 1, 2)), (2, (0, 2, 1))]
        )
        assert nb.global_ext_defect(first, second) == 2

    def test_locally_free_pair_vanishes(self, chain3_222):
        first = nb.locally_free_descriptor(chain3_222, 2, (1, 1, 1))
        second = nb.locally_free_descriptor(chain3_222, 3, (0, 1, 0))
        assert nb.global_ext_defect(first, second) == 0

    def test_requires_same_curve(self, two_curve, chain3_222):
        first = nb.locally_free_descriptor(two_curve, 1, (0, 0))
        second = nb.locally_free_descriptor(chain3_222, 1, (0, 0, 0))
        with pytest.raises(nb.DescriptorError):
            nb.global_ext_defect(first, second)
