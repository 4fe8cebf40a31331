"""Dual-graph model: construction, invariants, classification, splits."""

import random

import pytest
from hypothesis import given, strategies as st

import nodalbn as nb
from conftest import random_tree_curve


class TestConstruction:
    def test_single_component(self):
        curve = nb.NodalCurve((3,))
        assert curve.gamma == 1
        assert curve.delta == 0
        assert curve.arithmetic_genus() == 3

    def test_nodes_normalized_to_sorted_records(self, two_curve):
        assert two_curve.nodes == (nb.Node(1, 1, 2),)

    def test_node_order_does_not_matter(self):
        a = nb.NodalCurve((2, 2, 2), ((2, 2, 3), (1, 1, 2)))
        b = nb.NodalCurve((2, 2, 2), ((1, 1, 2), (2, 2, 3)))
        assert a == b

    def test_rejects_low_genus(self):
        with pytest.raises(nb.CurveError):
            nb.NodalCurve((1, 3), ((1, 1, 2),))

    @pytest.mark.parametrize("genera, nodes, what", [
        ((2.9, 3), ((1, 1, 2),), "genera"),
        ((2, 3), ((1, 1.5, 2),), "node entries"),
    ])
    def test_rejects_float_entries(self, genera, nodes, what):
        with pytest.raises(nb.CurveError, match=f"{what} must be integers"):
            nb.NodalCurve(genera, nodes)

    @pytest.mark.parametrize("bad", [(1, 1, 2, 99), (1, 2), (), 5, None, [1, 2, 3, 4]])
    def test_rejects_a_node_that_is_not_three_entries(self, bad):
        """Nothing is dropped or padded; the fault names the node by its place."""
        with pytest.raises(nb.CurveError) as info:
            nb.NodalCurve((2, 2, 2), [(1, 1, 2), bad])
        assert str(info.value) == f"node at index 1 is not three integers: {bad!r}"
        assert info.value.item == ("node", 1)

    def test_a_non_integer_node_entry_names_its_node(self):
        with pytest.raises(nb.CurveError, match="node entries must be integers") as info:
            nb.NodalCurve((2, 2, 2), [(1, 1, 2), (2, 2, "3")])
        assert info.value.item == ("node", 1)

    def test_rejects_empty_genera(self):
        with pytest.raises(nb.CurveError):
            nb.NodalCurve(())

    def test_rejects_duplicate_node_id(self):
        with pytest.raises(nb.CurveError):
            nb.NodalCurve((2, 2, 2), ((1, 1, 2), (1, 2, 3)))

    def test_rejects_nonpositive_node_id(self):
        with pytest.raises(nb.CurveError):
            nb.NodalCurve((2, 2), ((0, 1, 2),))

    def test_rejects_self_node(self):
        with pytest.raises(nb.CurveError):
            nb.NodalCurve((2, 2), ((1, 2, 2),))

    def test_rejects_endpoint_out_of_range(self):
        with pytest.raises(nb.CurveError):
            nb.NodalCurve((2, 2), ((1, 1, 3),))

    def test_rejects_disconnected(self):
        with pytest.raises(nb.CurveError):
            nb.NodalCurve((2, 2, 2, 2), ((1, 1, 2), (2, 3, 4)))

    def test_hashable(self, two_curve):
        assert hash(two_curve) == hash(nb.NodalCurve((2, 3), ((1, 1, 2),)))


class TestInvariants:
    def test_arithmetic_genus_two_components(self, two_curve):
        assert two_curve.arithmetic_genus() == 5

    def test_arithmetic_genus_chain(self, chain3_222):
        assert chain3_222.arithmetic_genus() == 6 + 2 - 3 + 1

    def test_node_degree(self, comb4):
        assert [comb4.node_degree(i) for i in comb4.component_ids] == [1, 1, 1, 3]

    def test_adjacency_symmetric(self, chain4):
        adj = chain4.adjacency()
        for v, pairs in adj.items():
            for w, nid in pairs:
                assert (v, nid) in adj[w]

    def test_compact_type(self, two_curve, cycle_curve):
        assert two_curve.is_compact_type()
        assert not cycle_curve.is_compact_type()
        with pytest.raises(nb.NotCompactTypeError):
            cycle_curve.require_compact_type()


class TestClassification:
    def test_small_curves_are_both(self, two_curve, chain3_222):
        assert nb.NodalCurve((4,)).classify() is nb.CurveClass.CHAIN_AND_COMB
        assert two_curve.classify() is nb.CurveClass.CHAIN_AND_COMB
        assert chain3_222.classify() is nb.CurveClass.CHAIN_AND_COMB

    def test_chain_four(self, chain4):
        assert chain4.classify() is nb.CurveClass.CHAIN

    def test_comb_four(self, comb4):
        assert comb4.classify() is nb.CurveClass.COMB

    def test_other(self):
        # spider with a two-step leg is neither a path nor a star
        curve = nb.NodalCurve(
            (2, 2, 2, 2, 2), ((1, 1, 3), (2, 2, 3), (3, 3, 4), (4, 4, 5))
        )
        assert curve.classify() is nb.CurveClass.OTHER

    def test_not_compact_type(self, cycle_curve):
        assert cycle_curve.classify() is nb.CurveClass.NOT_COMPACT_TYPE

    def test_grip_prefers_larger_id_on_tie(self, chain3_222):
        # both ends of the middle component have degree 2? no: degrees 1,2,1
        assert chain3_222.grip() == 2
        assert nb.NodalCurve((2, 3), ((1, 1, 2),)).grip() == 2

    def test_grip_of_comb(self, comb4):
        assert comb4.grip() == 4


class TestSubcurves:
    def test_check_subcurve_rejects_bad_ids(self, chain3_222):
        with pytest.raises(nb.CurveError):
            chain3_222.check_subcurve([0, 1])
        with pytest.raises(nb.CurveError):
            chain3_222.check_subcurve([])

    def test_check_subcurve_rejects_float_ids(self, chain3_222):
        with pytest.raises(nb.CurveError, match="subcurve ids must be integers"):
            chain3_222.check_subcurve([1.7])

    @pytest.mark.parametrize("ids, unknown", [
        ([0, 1], "[0]"),
        ([4], "[4]"),
        ([5, 0, 2, -1, 3], "[-1, 0, 5]"),
    ])
    def test_check_subcurve_names_unknown_ids(self, chain3_222, ids, unknown):
        with pytest.raises(nb.CurveError) as info:
            chain3_222.check_subcurve(ids)
        assert str(info.value) == f"unknown components in subcurve: {unknown}"


class TestFactories:
    def test_chain_curve(self):
        curve = nb.chain_curve((2, 3, 4))
        assert curve.genera == (2, 3, 4)
        assert curve.nodes == (nb.Node(1, 1, 2), nb.Node(2, 2, 3))

    def test_comb_curve_default_grip(self):
        curve = nb.comb_curve((2, 3, 4, 5))
        assert curve.nodes == (nb.Node(1, 1, 4), nb.Node(2, 2, 4), nb.Node(3, 3, 4))

    def test_comb_curve_explicit_grip(self):
        curve = nb.comb_curve((2, 3, 4), grip=1)
        assert curve.nodes == (nb.Node(1, 1, 2), nb.Node(2, 1, 3))
        assert curve.grip() == 1


@pytest.mark.parametrize("lookup, error, message", [
    (lambda curve: nb.canonical(curve)[0], nb.PolarizationError, "no weight for component 0"),
    (lambda curve: nb.canonical(curve)[5], nb.PolarizationError, "no weight for component 5"),
    (lambda curve: curve.genus(0), nb.CurveError, "unknown component 0"),
    (lambda curve: curve.node_degree(5), nb.CurveError, "unknown component 5"),
    (lambda curve: nb.comb_curve(curve.genera, grip=0), nb.CurveError, "grip 0 out of range"),
], ids=["weight-0", "weight-past-gamma", "genus-0", "node-degree-past-gamma", "grip-0"])
def test_a_component_lookup_names_an_unknown_id(chain4, lookup, error, message):
    with pytest.raises(error) as info:
        lookup(chain4)
    assert str(info.value) == message


@given(seed=st.integers(0, 10_000))
def test_random_trees_are_compact_type(seed):
    curve = random_tree_curve(random.Random(seed))
    assert curve.is_compact_type()
    assert curve.delta == curve.gamma - 1
    assert curve.arithmetic_genus() == sum(curve.genera) + curve.delta - curve.gamma + 1


@given(seed=st.integers(0, 10_000))
def test_node_degrees_sum_to_twice_delta(seed):
    curve = random_tree_curve(random.Random(seed))
    assert sum(curve.node_degree(i) for i in curve.component_ids) == 2 * curve.delta
