"""Ordered one-node decompositions and their independent verifier."""

import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import nodalbn as nb
from conftest import random_tree_curve
from nodalbn import ordering
from nodalbn.components import stability_windows
from oracles import post_order, search_verify_decomposition


class TestOrderWorked:
    def test_two_components(self, two_curve):
        deco = nb.order_components(two_curve, root=2)
        assert deco.order == (1, 2)
        assert deco.subcurves == (frozenset({1}),)
        assert deco.separating_nodes == (1,)

    def test_two_components_other_root(self, two_curve):
        deco = nb.order_components(two_curve, root=1)
        assert deco.order == (2, 1)
        assert deco.subcurves == (frozenset({2}),)

    def test_chain_rooted_inside(self):
        chain5 = nb.chain_curve((2, 2, 2, 2, 2))
        deco = nb.order_components(chain5, root=3)
        assert deco.order == (1, 2, 5, 4, 3)
        assert deco.subcurves == (
            frozenset({1}),
            frozenset({1, 2}),
            frozenset({5}),
            frozenset({4, 5}),
        )
        assert deco.separating_nodes == (1, 2, 4, 3)

    def test_chain_rooted_at_end(self):
        chain4 = nb.chain_curve((2, 3, 4, 5))
        deco = nb.order_components(chain4, root=4)
        assert deco.order == (1, 2, 3, 4)
        assert deco.subcurves == (
            frozenset({1}),
            frozenset({1, 2}),
            frozenset({1, 2, 3}),
        )

    def test_comb_rooted_at_grip(self, comb4):
        deco = nb.order_components(comb4, root=4)
        assert deco.order == (1, 2, 3, 4)
        assert deco.subcurves == (frozenset({1}), frozenset({2}), frozenset({3}))
        assert deco.separating_nodes == (1, 2, 3)

    def test_single_component(self):
        curve = nb.NodalCurve((4,))
        deco = nb.order_components(curve, root=1)
        assert deco.order == (1,)
        assert deco.subcurves == ()
        assert deco.separating_nodes == ()

    def test_rejects_bad_root(self, two_curve):
        with pytest.raises(nb.CurveError):
            nb.order_components(two_curve, root=3)

    def test_rejects_cycles(self, cycle_curve):
        with pytest.raises(nb.NotCompactTypeError):
            nb.order_components(cycle_curve, root=1)

    @pytest.mark.parametrize("root", [3.0, "3", None], ids=["float", "str", "none"])
    def test_rejects_a_root_that_is_no_integer(self, chain4, cycle_curve, root):
        with pytest.raises(nb.CurveError, match="root component must be an integer"):
            nb.order_components(chain4, root)
        with pytest.raises(nb.NotCompactTypeError):  # a cycle is still refused first
            nb.order_components(cycle_curve, root)

    def test_true_reads_as_root_one(self, two_curve):
        deco = nb.order_components(two_curve, True)
        assert deco == nb.order_components(two_curve, 1)
        assert [type(c) for c in (deco.root, *deco.order)] == [int, int, int]


class TestTriangularity:
    def test_earlier_components_inside_later_tails(self, comb4):
        deco = nb.order_components(comb4, root=1)
        positions = {c: j for j, c in enumerate(deco.order, start=1)}
        for j, sub in enumerate(deco.subcurves, start=1):
            for comp in sub:
                assert positions[comp] <= j


class TestVerifier:
    def test_accepts_all_roots_on_fixtures(
        self, two_curve, chain3_222, comb3_222, chain4, comb4
    ):
        for curve in (two_curve, chain3_222, comb3_222, chain4, comb4):
            for root in curve.component_ids:
                deco = nb.order_components(curve, root)
                check = nb.verify_decomposition(curve, deco)
                assert check.ok, check.violations

    def test_rejects_swapped_order(self, chain4):
        deco = nb.order_components(chain4, root=4)
        bad = deco._replace(order=(2, 1, 3, 4))
        check = nb.verify_decomposition(chain4, bad)
        assert not check.ok
        assert check.violations

    def test_rejects_wrong_subcurve(self, chain4):
        deco = nb.order_components(chain4, root=4)
        subs = list(deco.subcurves)
        subs[1] = frozenset({2, 3})
        bad = deco._replace(subcurves=tuple(subs))
        check = nb.verify_decomposition(chain4, bad)
        assert not check.ok

    def test_rejects_wrong_separating_node(self, chain4):
        deco = nb.order_components(chain4, root=4)
        seps = list(deco.separating_nodes)
        seps[0] = 3
        bad = deco._replace(separating_nodes=tuple(seps))
        check = nb.verify_decomposition(chain4, bad)
        assert not check.ok

    def test_rejects_disconnected_tail(self):
        chain5 = nb.chain_curve((2, 2, 2, 2, 2))
        deco = nb.order_components(chain5, root=5)
        subs = list(deco.subcurves)
        subs[2] = frozenset({1, 2, 4})
        bad = deco._replace(subcurves=tuple(subs))
        check = nb.verify_decomposition(chain5, bad)
        assert not check.ok

    @pytest.mark.parametrize("inexact", [float, str, lambda v: None], ids=["float", "str", "none"])
    @pytest.mark.parametrize(
        "field, what",
        [
            ("root", "root component must be an integer"),
            ("order", "decomposition order must be integers"),
            ("separating_nodes", "separating nodes must be integers"),
        ],
        ids=["root", "order", "nodes"],
    )
    def test_rejects_an_id_that_is_no_integer(self, chain3_222, field, what, inexact):
        """Each id is read as check_subcurve reads a subcurve's: a float equal
        to the id is refused too, by the verifier and by the table it guards."""
        deco = nb.order_components(chain3_222, 3)  # order (1, 2, 3), nodes (1, 2)
        value = getattr(deco, field)
        if field == "root":
            bad = inexact(value)
        else:
            bad = (value[0], inexact(value[1]), *value[2:])
        deco = deco._replace(**{field: bad})
        with pytest.raises(nb.CurveError, match=f"^{what}: "):
            nb.verify_decomposition(chain3_222, deco)
        with pytest.raises(nb.CurveError, match=f"^{what}: "):
            stability_windows(chain3_222, nb.canonical(chain3_222), deco, 2, 3)

    def test_rejects_a_subcurve_id_that_is_no_integer(self, chain3_222):
        """The verifier names the ids, and the table it guards raises the same error."""
        deco = nb.order_components(chain3_222, 3)
        deco = deco._replace(subcurves=(frozenset({1}), frozenset({1, 2.0})))
        with pytest.raises(nb.CurveError, match="^subcurve ids must be integers: ") as verified:
            nb.verify_decomposition(chain3_222, deco)
        with pytest.raises(nb.CurveError) as built:
            stability_windows(chain3_222, nb.canonical(chain3_222), deco, 2, 3)
        assert type(built.value) is type(verified.value) is nb.CurveError
        assert str(built.value) == str(verified.value)

    def test_true_reads_as_one(self, chain3_222):
        deco = nb.order_components(chain3_222, 1)  # order (3, 2, 1), nodes (2, 1)
        assert (deco.order, deco.separating_nodes) == ((3, 2, 1), (2, 1))
        ones = deco._replace(root=True, order=(3, 2, True), separating_nodes=(2, True))
        assert nb.verify_decomposition(chain3_222, ones).ok
        eta = nb.canonical(chain3_222)
        table = stability_windows(chain3_222, eta, ones, 2, 3)
        assert table.windows == stability_windows(chain3_222, eta, deco, 2, 3).windows
        assert (table.order, table.splits.nodes) == ((3, 2, 1), (2, 1))
        assert all(type(x) is int for x in (*table.order, *table.splits.nodes))
        # frozenset({True}) == frozenset({1}), so only a type check sees a member kept as True
        deco = nb.order_components(chain3_222, 3)  # A_1 = {1}, A_2 = {1, 2}
        ones = deco._replace(subcurves=(frozenset({True}), frozenset({True, 2})))
        assert nb.verify_decomposition(chain3_222, ones).ok
        table = stability_windows(chain3_222, eta, ones, 2, 3)
        assert table.windows == stability_windows(chain3_222, eta, deco, 2, 3).windows
        rows = nb.stability_conditions(chain3_222, eta, ones, nb.ComponentTuple(2, (1, 1, 1))).rows
        assert all(type(x) is int for row in (*table.windows, *rows) for x in row.subcurve)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_every_root_of_random_tree_verifies(seed):
    rng = random.Random(seed)
    curve = random_tree_curve(rng, gamma_max=7)
    for root in curve.component_ids:
        deco = nb.order_components(curve, root)
        check = nb.verify_decomposition(curve, deco)
        assert check.ok, check.violations
        assert deco.order[-1] == root


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_order_components_is_the_recursive_post_order(seed):
    rng = random.Random(seed)
    curve = random_tree_curve(rng, gamma_max=9)
    for root in curve.component_ids:
        deco = nb.order_components(curve, root)
        assert (deco.order, deco.subcurves, deco.separating_nodes) == post_order(curve, root)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_walk_is_the_post_order_without_sets(seed):
    """The walk's order, sizes, nodes and parents give `order_components` and the oracle."""
    rng = random.Random(seed)
    curve = random_tree_curve(rng, gamma_max=9)
    ends = {n.id: n.first + n.second for n in curve.nodes}
    for root in curve.component_ids:
        walk = ordering._walk(curve, root)
        order, subcurves, nodes = post_order(curve, root)
        assert (walk.root, walk.order, walk.nodes) == (root, order, nodes)
        assert walk.sizes == tuple(map(len, subcurves))
        assert tuple(map(walk.subcurve, range(curve.gamma - 1))) == subcurves
        # p_j joins C_(j) to its parent, a later position
        for j, (up, p) in enumerate(zip(walk.parents, walk.nodes)):
            assert j < up and order[up] == ends[p] - order[j]
        assert nb.order_components(curve, root) == nb.OrderedDecomposition(
            root, walk.order, subcurves, walk.nodes
        )


def test_walk_on_a_long_chain_holds_linear_memory():
    """One walk at gamma = 2,000 stays O(gamma); its decomposition is O(gamma^2).

    Rooted at an end, the A_j hold 1 + 2 + ... + 1,999 ids: building them
    as frozensets peaked at about 128 MB under `tracemalloc`.
    """
    curve = nb.chain_curve([2] * 2000)
    tracemalloc.start()
    try:
        walk = ordering._walk(curve, 2000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(walk.sizes) == 1999 * 2000 // 2
    assert peak < 2 * 2**20


def _random_connected(rng, curve):
    """A connected subcurve grown from a random component."""
    adj = curve.adjacency()
    grown = [rng.choice(curve.component_ids)]
    for _ in range(rng.randrange(curve.gamma)):
        frontier = [w for v in grown for w, _ in adj[v] if w not in grown]
        if not frontier:
            break
        grown.append(rng.choice(frontier))
    return frozenset(grown)


def _mutate(rng, curve, deco):
    """Apply one random corruption to a decomposition."""
    gamma = curve.gamma
    order = list(deco.order)
    subs = list(deco.subcurves)
    seps = list(deco.separating_nodes)
    root = deco.root
    node_ids = [n.id for n in curve.nodes]
    kind = rng.choice((
        "shuffle", "swap", "random", "connected", "complement", "empty", "unknown",
        "wrong_node", "missing_node", "truncate", "root", "duplicate",
    ))
    j = rng.randrange(len(subs)) if subs else None
    k = rng.randrange(len(seps)) if seps else None
    swappable = min(gamma - 1, len(subs), len(seps))
    if kind == "shuffle":
        rng.shuffle(order)
    elif kind == "swap" and swappable >= 2:
        a, b = rng.sample(range(swappable), 2)
        order[a], order[b] = order[b], order[a]
        subs[a], subs[b] = subs[b], subs[a]
        seps[a], seps[b] = seps[b], seps[a]
    elif kind == "random" and subs:
        subs[j] = frozenset(i for i in curve.component_ids if rng.random() < 0.5)
    elif kind == "connected" and subs:
        subs[j] = _random_connected(rng, curve)
    elif kind == "complement" and subs:
        subs[j] = frozenset(curve.component_ids) - subs[j]
    elif kind == "empty" and subs:
        subs[j] = frozenset()
    elif kind == "unknown" and subs:
        subs[j] = subs[j] | {rng.choice((0, -1, gamma + 1, gamma + 5))}
    elif kind == "wrong_node" and seps:
        seps[k] = rng.choice(node_ids + [0, max(node_ids) + 1])
    elif kind == "missing_node" and seps:
        del seps[k]
    elif kind == "truncate" and subs:
        subs = subs[:rng.randrange(len(subs))]
    elif kind == "root":
        root = rng.choice(curve.component_ids)
    elif kind == "duplicate" and gamma >= 2:
        a, b = rng.sample(range(gamma), 2)
        order[a] = order[b]
    return nb.OrderedDecomposition(root, tuple(order), tuple(subs), tuple(seps))


def _outcome(verify, curve, deco):
    try:
        check = verify(curve, deco)
    except Exception as exc:  # the exception itself is what is compared
        return type(exc), str(exc)
    return check.ok, check.violations


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_verifier_matches_search_oracle_on_mutations(seed):
    rng = random.Random(seed)
    curve = random_tree_curve(rng, gamma_max=9)
    for _ in range(10):
        deco = nb.order_components(curve, rng.choice(curve.component_ids))
        for _ in range(rng.randint(0, 3)):
            deco = _mutate(rng, curve, deco)
        assert _outcome(nb.verify_decomposition, curve, deco) == _outcome(
            search_verify_decomposition, curve, deco
        )


def test_verifier_reports_in_oracle_order():
    chain5 = nb.chain_curve((2, 2, 2, 2, 2))
    deco = nb.order_components(chain5, root=5)
    bad = deco._replace(
        subcurves=(frozenset({3}), frozenset({1, 2, 4}), frozenset({1, 2, 3}),
                   frozenset({1, 2, 3, 4}))
    )
    check = nb.verify_decomposition(chain5, bad)
    assert (check.ok, check.violations) == _outcome(search_verify_decomposition, chain5, bad)
    assert "complement of A_1 is not a connected subcurve" in check.violations
    assert "triangularity: position-4 component 4 lies in A_2" in check.violations

