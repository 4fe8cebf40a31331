"""Independent brute-force reference implementations.

These deliberately avoid the library's arithmetic helpers: weights,
defects, and interval bounds are recomputed here from raw sums so that
agreement with the package is a genuine cross-check, not a tautology.
Only the ordered decomposition (which tests/test_ordering.py verifies
clause by clause on its own) is taken as input.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple


def raw_arithmetic_genus(genera, nodes) -> int:
    return sum(genera) + len(nodes) - len(genera) + 1


def raw_crossing_count(nodes, ids) -> int:
    """Number of nodes with exactly one endpoint inside ``ids``."""
    members = frozenset(ids)
    return sum(1 for n in nodes if (n.first in members) != (n.second in members))


def raw_defect(genera, nodes, weights, ids) -> Fraction:
    """1 - sum of genera over ids - weight(ids) * (1 - p_a), from scratch."""
    pa = raw_arithmetic_genus(genera, nodes)
    wsum = sum((weights[i - 1] for i in ids), Fraction(0))
    gsum = sum(genera[i - 1] for i in ids)
    return 1 - gsum - wsum * (1 - pa)


def raw_connected(nodes, ids) -> bool:
    """Whether the nonempty set ``ids`` is connected by the nodes with both ends in it.

    A search from one member over the raw (first, second) node pairs,
    scanning every node at each step.
    """
    members = frozenset(ids)
    start = min(members)
    seen, stack = {start}, [start]
    while stack:
        v = stack.pop()
        for n in nodes:
            if v in (n.first, n.second):
                w = n.first + n.second - v
                if w in members and w not in seen:
                    seen.add(w)
                    stack.append(w)
    return seen == members


def raw_split_sides(gamma, nodes):
    """(node id, side, other side) for every node of a tree, by node id.

    The side holds the node's smaller-id endpoint: a fresh search from it
    over every other node, with no traversal shared between nodes.
    """
    out = []
    for cut in sorted(nodes, key=lambda n: n.id):
        side = {min(cut.first, cut.second)}
        stack = list(side)
        while stack:
            v = stack.pop()
            for n in nodes:
                if n.id != cut.id and v in (n.first, n.second):
                    w = n.second if v == n.first else n.first
                    if w not in side:
                        side.add(w)
                        stack.append(w)
        out.append((cut.id, frozenset(side), frozenset(range(1, gamma + 1)) - side))
    return out


def post_order(curve, root):
    """(order, subcurves, separating nodes) of the post-order from ``root``.

    Recursive and built from the node list alone: a component's children
    are the other ends of its nodes, bar its parent, and each is visited
    with its whole subtree, by the least id in that subtree.
    """

    def walk(v, up, node):  # [(component, subtree, node to parent)], post-order
        kids = [
            walk(n.first + n.second - v, v, n.id)
            for n in curve.nodes
            if v in (n.first, n.second) and up not in (n.first, n.second)
        ]
        rows = [row for kid in sorted(kids, key=lambda kid: min(kid[-1][1])) for row in kid]
        subtree = frozenset({v}).union(*(kid[-1][1] for kid in kids))
        return [*rows, (v, subtree, node)]

    rows = walk(root, None, None)
    return (
        tuple(v for v, _, _ in rows),
        tuple(subtree for _, subtree, _ in rows[:-1]),
        tuple(node for _, _, node in rows[:-1]),
    )


def raw_windows(curve, omega, deco, s, d):
    """(A_j, lower, upper) per tail: the open window of sigma_j, in Fractions."""
    weights = tuple(omega[i] for i in curve.component_ids)
    windows = []
    for sub in deco.subcurves:
        defect = raw_defect(curve.genera, curve.nodes, weights, sub)
        wsum = sum((weights[i - 1] for i in sub), Fraction(0))
        windows.append((sub, wsum * d - s * defect, wsum * d + s * (1 - defect)))
    return windows


def _sigma_windows(curve, omega, deco, s, d):
    """Closed integer window [lo, hi] of admissible partial sums per tail."""
    return [
        (math.floor(lower) + 1, math.ceil(upper) - 1)
        for _, lower, upper in raw_windows(curve, omega, deco, s, d)
    ]


class RawRow(NamedTuple):
    sums: tuple
    passed: bool
    radius: Fraction | None
    binding_j: int | None


def raw_row(windows, coeff, degrees) -> RawRow:
    """sigma_j, verdict, radius and binding j of one tuple, in Fractions.

    ``windows`` are `raw_windows` (or any (A_j, lower, upper) list) and
    ``coeff`` is d + s(1 - p_a).  The radius is the least
    min(sigma_j - lower, upper - sigma_j) / (|coeff| |A_j|) and the
    binding j the first that attains it; both are None for a failing
    tuple and when the radius is unbounded (no windows, or coeff = 0).
    """
    sums = tuple(sum(degrees[i - 1] for i in sub) for sub, _, _ in windows)
    passed = all(lower < x < upper for x, (_, lower, upper) in zip(sums, windows))
    if not passed or not windows or coeff == 0:
        return RawRow(sums, passed, None, None)
    ratios = [
        min(x - lower, upper - x) / (abs(coeff) * len(sub))
        for x, (sub, lower, upper) in zip(sums, windows)
    ]
    radius = min(ratios)
    return RawRow(sums, passed, radius, ratios.index(radius) + 1)


def _position_box(curve, omega, deco, s, d):
    """Windows, tail positions and per-position degree ranges, or None if empty.

    The ranges come from interval arithmetic on the windows in position
    order; every catalog tuple lies in their product.
    """
    gamma = curve.gamma
    windows = _sigma_windows(curve, omega, deco, s, d)
    if any(lo > hi for lo, hi in windows):
        return None
    positions = {comp: j for j, comp in enumerate(deco.order)}
    tail_positions = [
        frozenset(positions[c] for c in sub) for sub in deco.subcurves
    ]
    lo_deg = [0] * (gamma - 1)
    hi_deg = [0] * (gamma - 1)
    for j in range(gamma - 1):
        preceding = [i for i in range(j) if i in tail_positions[j]]
        lo_deg[j] = windows[j][0] - sum(hi_deg[i] for i in preceding)
        hi_deg[j] = windows[j][1] - sum(lo_deg[i] for i in preceding)
    return windows, tail_positions, lo_deg, hi_deg


def brute_force_box_size(curve, omega, deco, s, d):
    """Number of points `brute_force_catalog` visits."""
    if curve.gamma == 1:
        return 1
    box = _position_box(curve, omega, deco, s, d)
    if box is None:
        return 0
    _, _, lo_deg, hi_deg = box
    return math.prod(max(0, hi - lo + 1) for lo, hi in zip(lo_deg, hi_deg))


def brute_force_catalog(curve, omega, deco, s, d, _clamp=None):
    """Every integer degree tuple meeting the strict tail inequalities.

    Enumerates a finite box obtained by interval arithmetic on the
    per-position degrees, then keeps exactly the points whose tail sums
    land in the open windows.  Returns plain tuples in component order,
    sorted.

    The private ``_clamp`` = (lo, hi) also cuts every non-root position's
    range to lo..hi.  The root's degree is whatever is left, unclamped, so
    a caller wanting every degree in lo..hi must still filter the result.
    """
    gamma = curve.gamma
    if gamma == 1:
        return [(d,)]
    box = _position_box(curve, omega, deco, s, d)
    if box is None:
        return []
    windows, tail_positions, lo_deg, hi_deg = box
    if _clamp is not None:
        lo_deg = [max(lo, _clamp[0]) for lo in lo_deg]
        hi_deg = [min(hi, _clamp[1]) for hi in hi_deg]
    order = deco.order
    found = []
    for point in itertools.product(
        *(range(lo_deg[j], hi_deg[j] + 1) for j in range(gamma - 1))
    ):
        ok = True
        for j in range(gamma - 1):
            sigma = sum(point[i] for i in tail_positions[j])
            if not windows[j][0] <= sigma <= windows[j][1]:
                ok = False
                break
        if ok:
            by_component = [0] * gamma
            for j in range(gamma - 1):
                by_component[order[j] - 1] = point[j]
            by_component[order[gamma - 1] - 1] = d - sum(point)
            found.append(tuple(by_component))
    found.sort()
    return found


def subtree_sum_count(curve, omega, deco, s, d, ranges):
    """Tuples with position p's degree in ``ranges[p]`` meeting every window, by a DP.

    Every position's table (subtree sum -> ways) is kept to the end and
    spans the ranges as given: the count `WindowTable._count` must give
    while it narrows the ranges and drops each child's table.
    The windows are `_sigma_windows` and the tree of subcurves is
    `read_children`; the root's subtree sum is d.
    """
    windows = [*_sigma_windows(curve, omega, deco, s, d), (d, d)]
    tables = []
    for (lo, hi), kids, (own_lo, own_hi) in zip(
        windows, read_children(deco.order, deco.subcurves), ranges
    ):
        table = {0: 1}
        for c in kids:
            table = _add_tables(table, tables[c])
        table = _add_tables(table, dict.fromkeys(range(own_lo, own_hi + 1), 1))
        tables.append({x: n for x, n in table.items() if lo <= x <= hi})
    return tables[-1].get(d, 0)


def _add_tables(f, g):
    out = {}
    for x, m in f.items():
        for y, n in g.items():
            out[x + y] = out.get(x + y, 0) + m * n
    return out


def brute_force_small_slope(curve, omega, deco, s, d):
    return [
        t for t in brute_force_catalog(curve, omega, deco, s, d, _clamp=(1, s))
        if all(0 < x <= s for x in t)
    ]


def copying_search(table, narrowed):
    """`WindowTable._tuples` as it was when it copied its ranges for every choice.

    Each branching id pushes the ranges it chose from, its position and an
    iterator over its degrees; a choice copies those ranges, fixes the
    position and narrows the copy (``table._narrow``, the one library call
    here), one whole narrowing per choice.  It holds O(gamma) range lists
    at once where the library's search narrows once and then keeps its
    narrowing up to date, O(gamma) ints in all; the two must list the same
    tuples in the same order.
    """
    if narrowed is None:
        return
    ranges = narrowed[0]
    where = sorted(range(len(ranges)), key=table.order.__getitem__)
    choosing = []  # (ranges, position, degrees left) for each id that branches
    while True:
        free = [i for i, p in enumerate(where) if ranges[p][0] < ranges[p][1]]
        if len(free) > 2:
            p = where[free[0]]
            choosing.append((ranges, p, iter(range(ranges[p][0], ranges[p][1] + 1))))
        else:
            degrees = [ranges[p][0] for p in where]
            if not free:
                yield tuple(degrees)
            else:
                a, b = free
                lo, hi = ranges[where[a]]
                total = lo + ranges[where[b]][1]
                for x in range(lo, hi + 1):
                    degrees[a], degrees[b] = x, total - x
                    yield tuple(degrees)
        while choosing:
            parent, p, left = choosing[-1]
            x = next(left, None)
            if x is not None:
                break
            choosing.pop()
        else:
            return
        ranges = list(parent)
        ranges[p] = (x, x)
        ranges = table._narrow(ranges)[0]


class EnumeratedInvariance(NamedTuple):
    passed: bool
    catalog: tuple
    mismatches: tuple


def enumerating_invariance_check(curve, omega, s, d):
    """Enumerate the catalog from every root and compare it with the first root's.

    Builds gamma full catalogs, so it costs gamma s^(gamma-1) tuples.
    ``catalog`` is the first root's sorted catalog; each root whose catalog
    differs gets a `RootMismatch` with the sorted tuples it lacks and adds.
    """
    import nodalbn as nb  # imported here: perfbench loads this file without src on its path

    curve.require_compact_type()
    baseline = None
    mismatches = []
    for root in curve.component_ids:
        deco = nb.order_components(curve, root)
        catalog = tuple(nb.enumerate_components(curve, omega, deco, s, d))
        if baseline is None:
            baseline = catalog
            continue
        if catalog != baseline:
            base_set, this_set = set(baseline), set(catalog)
            mismatches.append(
                nb.components.RootMismatch(
                    root=root,
                    missing=tuple(sorted(base_set - this_set)),
                    extra=tuple(sorted(this_set - base_set)),
                )
            )
    return EnumeratedInvariance(not mismatches, baseline, tuple(mismatches))


def search_verify_decomposition(curve, deco):
    """Re-check every clause of an ordered decomposition from scratch.

    The search-based verifier: one `raw_connected` search per tail, per A_j
    and per complement, and a scan of every node for each boundary, so it
    costs about gamma^3.  Violation strings and exceptions are the
    library's.
    """
    from nodalbn.curve import CurveError
    from nodalbn.ordering import DecompositionCheck  # see enumerating_invariance_check

    curve.require_compact_type()
    violations: list[str] = []
    gamma = curve.gamma
    all_ids = frozenset(curve.component_ids)

    if sorted(deco.order) != list(curve.component_ids):
        violations.append(f"order {deco.order} is not a permutation of 1..{gamma}")
        return DecompositionCheck(False, tuple(violations))
    if deco.order[-1] != deco.root:
        violations.append(f"root {deco.root} is not last in the order")
    if len(deco.subcurves) != gamma - 1 or len(deco.separating_nodes) != gamma - 1:
        violations.append(
            f"expected {gamma - 1} subcurves and separating nodes, got "
            f"{len(deco.subcurves)} and {len(deco.separating_nodes)}"
        )
        return DecompositionCheck(False, tuple(violations))

    for j in range(1, gamma):
        tail = frozenset(deco.order[j:])
        if not raw_connected(curve.nodes, tail):
            violations.append(f"tail after position {j} is not connected")

    nodes_by_id = {n.id: n for n in curve.nodes}
    for j in range(1, gamma):
        A = deco.subcurves[j - 1]
        comp = all_ids - A
        label = f"A_{j}"
        if deco.order[j - 1] not in A:
            violations.append(f"{label} does not contain component {deco.order[j - 1]}")
        unknown = sorted(i for i in A if not 1 <= i <= gamma)
        if unknown:  # the library's subcurve check raises this
            raise CurveError(f"unknown components in subcurve: {unknown}")
        if not A or not raw_connected(curve.nodes, A):
            violations.append(f"{label} is not a connected subcurve")
        if not comp or not raw_connected(curve.nodes, comp):
            violations.append(f"complement of {label} is not a connected subcurve")
        boundary = [
            n.id for n in curve.nodes if (n.first in A) != (n.second in A)
        ]
        if len(boundary) != 1:
            violations.append(f"{label} meets its complement in {len(boundary)} nodes, not 1")
        else:
            p = deco.separating_nodes[j - 1]
            if p not in nodes_by_id:
                violations.append(f"separating node {p} of {label} does not exist")
            elif boundary[0] != p:
                violations.append(
                    f"recorded separating node {p} of {label} differs from actual {boundary[0]}"
                )
        for i in range(1, gamma + 1):
            if deco.order[i - 1] in A and i > j:
                violations.append(
                    f"triangularity: position-{i} component {deco.order[i - 1]} lies in {label}"
                )

    return DecompositionCheck(not violations, tuple(violations))


def read_children(order, subcurves):
    """Children of every position in the tree of subcurves, reading every member of every A_j.

    The reference for the children a split table reads from the separating
    nodes of a family `verify_decomposition` accepts.  It reads the
    subcurves alone, so it also accepts some families that are no
    decomposition of the curve.  The subcurves are walked in position
    order, keeping for each position the largest subcurve seen so far that
    holds it.  A_j's children are the distinct such subcurves among A_j's
    other members, and A_j is nested exactly when their sizes sum to
    |A_j| - 1: they then partition A_j minus position j.  A member outside
    the order counts as lying past every position.
    """
    n = len(order)
    position = {comp: p for p, comp in enumerate(order)}
    children: list[list[int]] = [[] for _ in order]
    size = [0] * n
    top = list(range(n))  # the largest subcurve seen so far holding p
    for j, A in enumerate(subcurves):
        inside = [position.get(c, n) for c in A]
        if max(inside, default=-1) != j:
            raise ValueError(f"decomposition is not triangular at position {j + 1}")
        kids = sorted({top[q] for q in inside if q != j})
        if sum(size[c] for c in kids) != len(inside) - 1:
            raise ValueError(f"decomposition is not nested at position {j + 1}")
        children[j], size[j] = kids, len(inside)
        for q in inside:
            top[q] = j
    children[-1] = sorted(set(top[:-1]))
    return children


def complement_goodness_proxy(curve, omega):
    """The goodness proxy from both sides of every split, as frozensets.

    The set-building version: `raw_split_sides` searches out each side and
    its complement, and each defect is summed over the smaller side.
    Exceptions and the report are the library's.
    """
    import nodalbn as nb  # see enumerating_invariance_check

    curve.require_compact_type()
    splits = raw_split_sides(curve.gamma, curve.nodes)
    if len(omega) != curve.gamma:
        raise nb.PolarizationError(
            f"polarization has {len(omega)} weights for {curve.gamma} components"
        )
    rows = []
    for node_id, side, rest in splits:
        small = min(side, rest, key=len)
        d = raw_defect(curve.genera, curve.nodes, omega.weights, small)
        if small is not side:
            d = 1 - d
        rows.append(nb.polarization.SplitDefect(node=node_id, side=side, defect=d, ok=0 < d < 1))
    return nb.GoodnessReport(passed=all(row.ok for row in rows), splits=tuple(rows))


def certificate_scan(curves, s_values):
    """The scan that certifies every row: the reference for `conjecture_scan`.

    For every (curve, s, d, k) cell of the scan's grid it runs `bn certify`'s
    `certify_bn_component` at the canonical polarization, reading only
    whether a `BNCertificate` came back.  Certify raises the hard errors.
    """
    import nodalbn as nb  # see enumerating_invariance_check
    from nodalbn.brill_noether import ScanRow

    s_values = tuple(s_values)
    rows = []
    for curve in curves:
        curve.require_compact_type()
        gamma, eta, shape = curve.gamma, nb.canonical(curve), curve.classify().value
        for s in s_values:
            if s < max(1, 2 * (gamma - 1)):
                continue
            for d in range(gamma, s + 1):
                for k in range(1, nb.max_section_count(curve, s) + 1):
                    result = nb.certify_bn_component(curve, eta, s, k, d)
                    rows.append(
                        ScanRow(
                            shape=shape,
                            gamma=gamma,
                            genera=curve.genera,
                            s=s,
                            d=d,
                            k=k,
                            certified=isinstance(result, nb.BNCertificate),
                            beta=nb.bn_number(curve.arithmetic_genus(), s + k, d, k),
                        )
                    )
    rows.sort(key=lambda r: (r.gamma, r.genera, r.s, r.d, r.k))
    return rows


def full_parser():
    """The command-line parser with every group and leaf built in full."""
    import argparse

    from nodalbn import cli  # see enumerating_invariance_check

    parser = argparse.ArgumentParser(
        prog="nodalbn",
        description="Exact-rational Brill-Noether toolkit for nodal reducible curves",
    )
    top = parser.add_subparsers(dest="group", required=True)

    def curve_arg(p):
        p.add_argument("--curve", required=True, help="curve file")

    def omega_arg(p):
        p.add_argument("--omega", default="canonical", help="'canonical' or w_1,...,w_gamma")

    curve_p = top.add_parser("curve", help="validate and classify curve files")
    curve_sub = curve_p.add_subparsers(dest="action", required=True)
    p = curve_sub.add_parser("validate")
    curve_arg(p)
    p.add_argument("--echo", action="store_true", help="re-emit the canonical file")
    p.set_defaults(func=cli.cmd_curve_validate)
    p = curve_sub.add_parser("classify")
    curve_arg(p)
    p.set_defaults(func=cli.cmd_curve_classify)

    p = top.add_parser("order", help="root-first component order of a tree curve")
    curve_arg(p)
    p.add_argument("--root", type=cli._int, required=True)
    p.set_defaults(func=cli.cmd_order)

    pol_p = top.add_parser("polarization", help="canonical weights and goodness proxy")
    pol_sub = pol_p.add_subparsers(dest="action", required=True)
    p = pol_sub.add_parser("canonical")
    curve_arg(p)
    p.set_defaults(func=cli.cmd_polarization_canonical)
    p = pol_sub.add_parser("check")
    curve_arg(p)
    p.add_argument("--omega", required=True, help="w_1,...,w_gamma")
    p.set_defaults(func=cli.cmd_polarization_check)

    sheaf_p = top.add_parser("sheaf", help="weighted invariants of a sheaf block")
    sheaf_sub = sheaf_p.add_subparsers(dest="action", required=True)
    p = sheaf_sub.add_parser("info")
    curve_arg(p)
    omega_arg(p)
    p.set_defaults(func=cli.cmd_sheaf_info)

    comp_p = top.add_parser("components", help="degree-tuple catalogs and stability")
    comp_sub = comp_p.add_subparsers(dest="action", required=True)
    p = comp_sub.add_parser("enumerate")
    curve_arg(p)
    omega_arg(p)
    p.add_argument("--rank", type=cli._int, required=True)
    p.add_argument("--degree", type=cli._int, required=True)
    p.add_argument("--small-slope", action="store_true")
    p.add_argument("--root", type=cli._int, default=None)
    p.set_defaults(func=cli.cmd_components_enumerate)
    for name, func in (
        ("check", cli.cmd_components_check),
        ("radius", cli.cmd_components_radius),
    ):
        p = comp_sub.add_parser(name)
        curve_arg(p)
        omega_arg(p)
        p.add_argument("--rank", type=cli._int, required=True)
        p.add_argument("--tuple", required=True, help="d_1,...,d_gamma")
        p.add_argument("--root", type=cli._int, default=None)
        p.set_defaults(func=func)
    p = comp_sub.add_parser("invariance")
    curve_arg(p)
    omega_arg(p)
    p.add_argument("--rank", type=cli._int, required=True)
    p.add_argument("--degree", type=cli._int, required=True)
    p.set_defaults(func=cli.cmd_components_invariance)

    bn_p = top.add_parser("bn", help="Brill-Noether numbers and certificates")
    bn_sub = bn_p.add_subparsers(dest="action", required=True)
    p = bn_sub.add_parser("number")
    for flag in ("--pa", "--r", "--d", "--k"):
        p.add_argument(flag, type=cli._int, required=True)
    p.set_defaults(func=cli.cmd_bn_number)
    p = bn_sub.add_parser("bounds")
    for flag in ("--pa", "--r", "--d", "--k"):
        p.add_argument(flag, type=cli._int, required=True)
    p.set_defaults(func=cli.cmd_bn_bounds)
    p = bn_sub.add_parser("certify")
    curve_arg(p)
    omega_arg(p)
    for flag in ("--s", "--k", "--d"):
        p.add_argument(flag, type=cli._int, required=True)
    p.set_defaults(func=cli.cmd_bn_certify)
    p = bn_sub.add_parser("scan")
    p.add_argument("--family", required=True, choices=["chain", "comb"])
    p.add_argument("--gamma-max", type=cli._int, required=True)
    p.add_argument("--genus-max", type=cli._int, required=True)
    p.add_argument("--s-max", type=cli._int, required=True)
    p.set_defaults(func=cli.cmd_bn_scan)

    return parser
