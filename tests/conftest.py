"""Shared fixtures: standard curves and seeded random generators."""

from __future__ import annotations

import copy
import heapq
import random
import warnings
from fractions import Fraction

import pytest

import nodalbn as nb
from nodalbn import components, ordering, polarization

# Hypothesis imports its failure-patch writer only when a test fails, and where
# libcst is installed that import warns (mypy_extensions' DeprecationWarning).
# Under -W error the warning then ends the session with INTERNALERROR, hiding the
# failure and skipping every later test.  Importing the writer here, once, with
# only that warning silenced, lets a failure print as a failure.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # an older hypothesis, or no libcst: nothing to preload
        pass


@pytest.fixture
def two_curve() -> nb.NodalCurve:
    """Two components of genus 2 and 3 meeting at one node."""
    return nb.NodalCurve((2, 3), ((1, 1, 2),))


@pytest.fixture
def chain3_222() -> nb.NodalCurve:
    return nb.chain_curve((2, 2, 2))


@pytest.fixture
def comb3_222() -> nb.NodalCurve:
    return nb.comb_curve((2, 2, 2))


@pytest.fixture
def chain4() -> nb.NodalCurve:
    return nb.chain_curve((2, 3, 4, 5))


@pytest.fixture
def comb4() -> nb.NodalCurve:
    return nb.comb_curve((2, 3, 4, 5))


@pytest.fixture
def cycle_curve() -> nb.NodalCurve:
    """Two components joined at two nodes; not of compact type."""
    return nb.NodalCurve((2, 3), ((1, 1, 2), (2, 1, 2)))


def pruefer_to_edges(seq: list[int], n: int) -> list[tuple[int, int]]:
    degree = [1] * (n + 1)
    for v in seq:
        degree[v] += 1
    leaves = [i for i in range(1, n + 1) if degree[i] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    a = heapq.heappop(leaves)
    b = heapq.heappop(leaves)
    edges.append((a, b))
    return edges


def random_tree_curve(
    rng: random.Random, gamma_max: int = 6, genus_range: tuple[int, int] = (2, 6)
) -> nb.NodalCurve:
    """Uniform random labeled tree with random genus labels."""
    gamma = rng.randint(1, gamma_max)
    genera = tuple(rng.randint(*genus_range) for _ in range(gamma))
    if gamma == 1:
        return nb.NodalCurve(genera)
    if gamma == 2:
        edges = [(1, 2)]
    else:
        seq = [rng.randint(1, gamma) for _ in range(gamma - 2)]
        edges = pruefer_to_edges(seq, gamma)
    nodes = tuple((i, a, b) for i, (a, b) in enumerate(edges, start=1))
    return nb.NodalCurve(genera, nodes)


def pruning_decomposition(
    rng: random.Random, curve: nb.NodalCurve, root: int
) -> nb.OrderedDecomposition:
    """A valid decomposition from a random leaf-pruning order, often not post-order.

    Removes a random non-root leaf of what is left of the tree until only
    the root remains.  A_j and p_j are the removed component's subtree and
    joining node, read off `order_components(curve, root)`.
    """
    deco = nb.order_components(curve, root)
    ends = {n.id: n.first + n.second for n in curve.nodes}
    below = {  # component -> (parent, subtree, joining node): p's other end is the parent
        v: (ends[p] - v, A, p)
        for v, A, p in zip(deco.order, deco.subcurves, deco.separating_nodes)
    }
    kept_children = dict.fromkeys(curve.component_ids, 0)
    for up, _, _ in below.values():
        kept_children[up] += 1
    leaves = [v for v in below if kept_children[v] == 0]
    order = []
    while leaves:
        v = leaves.pop(rng.randrange(len(leaves)))
        order.append(v)
        up = below[v][0]
        kept_children[up] -= 1
        if kept_children[up] == 0 and up != root:
            leaves.append(up)
    return nb.OrderedDecomposition(
        root=root,
        order=(*order, root),
        subcurves=tuple(below[v][1] for v in order),
        separating_nodes=tuple(below[v][2] for v in order),
    )


def random_valid_polarization(rng: random.Random, gamma: int) -> nb.Polarization:
    raw = [rng.randint(1, 40) for _ in range(gamma)]
    total = sum(raw)
    return nb.Polarization(tuple(Fraction(r, total) for r in raw))


def random_zero_sum(rng: random.Random, gamma: int) -> list[int]:
    """Integers summing to zero, not all zero (for gamma >= 2)."""
    while True:
        raw = [rng.randint(-50, 50) for _ in range(gamma)]
        total = sum(raw)
        ints = [gamma * r - total for r in raw]
        if any(ints):
            return ints


def random_good_polarization(rng: random.Random, curve: nb.NodalCurve) -> nb.Polarization:
    """Perturbation of the canonical weights small enough to stay good.

    Every split defect moves by at most (p_a - 1) * gamma * sup-norm, so
    capping the sup norm below 1 / (2 gamma (p_a - 1)) keeps each defect
    strictly inside (0, 1).
    """
    eta = nb.canonical(curve)
    gamma = curve.gamma
    if gamma == 1:
        return eta
    pa = curve.arithmetic_genus()
    cap = Fraction(1, 2 * gamma * (pa - 1))
    ints = random_zero_sum(rng, gamma)
    theta = Fraction(rng.randint(1, 99), 100)
    scale = cap * theta / max(abs(x) for x in ints)
    return nb.perturb(eta, [x * scale for x in ints])


def scaled_zero_sum_eps(
    rng: random.Random, gamma: int, bound: Fraction
) -> list[Fraction]:
    """Zero-sum rational vector with sup norm strictly below ``bound``."""
    ints = random_zero_sum(rng, gamma)
    theta = Fraction(rng.randint(1, 99), 100)
    scale = bound * theta / max(abs(x) for x in ints)
    return [x * scale for x in ints]


def split_table_defects(curve: nb.NodalCurve, omega: nb.Polarization) -> dict:
    """The library's defect of each side of every one-node split, keyed by the side.

    Read from `_SplitTable.proxy_rows` over the walk from every root.  A
    row's A_j is the side below its node, whose defect is D minus the
    printed one when the row is flipped; the roots on either side of a
    node give both its sides.  Walks that give the same side agree.
    """
    defects: dict[frozenset[int], Fraction] = {}
    for root in curve.component_ids:
        table = polarization._SplitTable(curve, omega, ordering._walk(curve, root))
        D = table.denominator
        for _, j, flipped, num in table.proxy_rows():
            defect = Fraction(D - num if flipped else num, D)
            assert defects.setdefault(table.subcurve(j), defect) == defect
    return defects


def shift_first_window(monkeypatch, root, shift):
    """Make `stability_windows` move the first window of one root by ``shift``.

    The fake is a copy of the real table whose integer bounds are taken
    over ``denominator`` times the shift's denominator, so every rational
    shift stays exact.
    """
    real = components.stability_windows
    shift = Fraction(shift)

    def shifted(curve, omega, deco, s, d):
        table = real(curve, omega, deco, s, d)
        if deco.root != root:
            return table
        q = shift.denominator
        lowers = [lo * q for lo in table.lowers]
        uppers = [hi * q for hi in table.uppers]
        lowers[0] += shift.numerator * table.denominator
        uppers[0] += shift.numerator * table.denominator
        fake = copy.copy(table)
        object.__setattr__(fake, "denominator", table.denominator * q)
        object.__setattr__(fake, "lowers", tuple(lowers))
        object.__setattr__(fake, "uppers", tuple(uppers))
        return fake

    monkeypatch.setattr(components, "stability_windows", shifted)


def forbid_enumeration(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the catalog was enumerated")

    monkeypatch.setattr(components.WindowTable, "catalog", refuse)
    monkeypatch.setattr(components, "enumerate_components", refuse)
