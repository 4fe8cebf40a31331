"""A frozen copy of the item-by-item text loader, to guard its messages.

The library reads a curve file by walking its lines, and its nodes and
stalks, one item at a time, naming the first fault.  This module is a copy
of that walk, frozen apart from the library: `parsing`'s `_tokens`,
`_parse_curve_part` and `_parse_sheaf_part`, and the loops of
`NodalCurve.__init__` and `SheafDescriptor.__init__`, returning plain
values in place of a curve and a descriptor.  Exceptions and their
messages are the library's, so `test_loader_parity` can compare the two on
any input: the values, or the exception's type, message, line number and
faulty item.  A change to what the library accepts or says shows there
first, and a deliberate one is made here too.

It lives apart from ``oracles.py``, which the benchmark harness compiles
from source on every run: there, this module raised the harness's
own max RSS, which every job's ``peak_rss_mb`` inherits, by 0.6 MB.
"""

from __future__ import annotations

import operator
import re
from collections.abc import Mapping

from nodalbn.curve import CurveError, Node
from nodalbn.parsing import ParseError
from nodalbn.sheaf import DescriptorError, LocalType


def item_tokens(text: str):
    out = []
    for line_no, raw in enumerate(re.split(r"\r\n|\r|\n", text), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            out.append((line_no, body.split()))
    return out


def _item_number(read, token: str):
    if "_" in token:
        raise ValueError(token)
    return read(token)


def _item_int(token: str, line_no: int, what: str) -> int:
    try:
        return _item_number(int, token)
    except ValueError:
        raise ParseError(line_no, f"{what} must be an integer, got {token!r}") from None


def item_parse_curve_with_sheaf(text: str):
    """((genera, nodes), (multirank, chi, stalks, degrees) or None)."""
    tokens = item_tokens(text)
    curve, sheaf_at = _item_parse_curve_part(tokens)
    if sheaf_at is None:
        return curve, None
    return curve, _item_parse_sheaf_part(tokens[sheaf_at:], curve)


def _item_parse_curve_part(tokens):
    components: dict[int, int] = {}
    nodes: list[tuple[int, int, int]] = []
    lines = {"component": {}, "node": []}
    seen_node = False
    sheaf_at = None

    for at, (line_no, toks) in enumerate(tokens):
        if toks[0] == "component":
            if seen_node:
                raise ParseError(line_no, "component lines must precede node lines")
            if len(toks) != 4 or toks[2] != "genus":
                raise ParseError(line_no, "expected: component <id> genus <g>")
            cid = _item_int(toks[1], line_no, "component id")
            g = _item_int(toks[3], line_no, "genus")
            if cid in components:
                raise ParseError(line_no, f"component {cid} defined twice")
            components[cid] = g
            lines["component"][cid] = line_no
        elif toks[0] == "node":
            if len(toks) != 4:
                raise ParseError(line_no, "expected: node <id> <comp_a> <comp_b>")
            seen_node = True
            nodes.append(
                (
                    _item_int(toks[1], line_no, "node id"),
                    _item_int(toks[2], line_no, "endpoint"),
                    _item_int(toks[3], line_no, "endpoint"),
                )
            )
            lines["node"].append(line_no)
        elif toks[0] == "sheaf":
            sheaf_at = at
            break
        else:
            raise ParseError(line_no, f"unknown directive {toks[0]!r}")

    if not components:
        raise ParseError(None, "no component lines found")
    gamma = len(components)
    if sorted(components) != list(range(1, gamma + 1)):
        raise ParseError(
            None, f"component ids must be exactly 1..{gamma}, got {sorted(components)}"
        )
    genera = tuple(components[i] for i in range(1, gamma + 1))
    try:
        curve = item_curve(genera, tuple(nodes))
    except CurveError as exc:
        line_no = None if exc.item is None else lines[exc.item[0]][exc.item[1]]
        raise ParseError(line_no, str(exc)) from exc
    return curve, sheaf_at


def _item_parse_sheaf_part(tokens, curve):
    genera, _ = curve
    gamma = len(genera)
    start = tokens[0][0]
    rank = None
    chi = None
    degrees = None
    stalks: dict[int, LocalType] = {}
    in_block = False

    for line_no, toks in tokens:
        if toks[0] == "sheaf":
            if len(toks) != 1:
                raise ParseError(line_no, "expected a bare 'sheaf' line")
            if in_block:
                raise ParseError(line_no, "only one sheaf block is allowed")
            in_block = True
        elif toks[0] == "rank":
            if len(toks) != gamma + 1:
                raise ParseError(line_no, f"rank needs {gamma} values, got {len(toks) - 1}")
            rank = tuple(_item_int(t, line_no, "rank") for t in toks[1:])
        elif toks[0] == "chi":
            if len(toks) != 2:
                raise ParseError(line_no, "expected: chi <int>")
            chi = _item_int(toks[1], line_no, "chi")
        elif toks[0] == "degrees":
            if len(toks) != gamma + 1:
                raise ParseError(line_no, f"degrees needs {gamma} values, got {len(toks) - 1}")
            degrees = tuple(_item_int(t, line_no, "degree") for t in toks[1:])
        elif toks[0] == "stalk":
            if len(toks) != 5:
                raise ParseError(line_no, "expected: stalk <node id> <s> <a_first> <a_second>")
            nid = _item_int(toks[1], line_no, "node id")
            if nid in stalks:
                raise ParseError(line_no, f"stalk at node {nid} defined twice")
            stalks[nid] = LocalType(
                _item_int(toks[2], line_no, "free rank"),
                _item_int(toks[3], line_no, "branch exponent"),
                _item_int(toks[4], line_no, "branch exponent"),
            )
        else:
            raise ParseError(line_no, f"unknown sheaf directive {toks[0]!r}")

    if rank is None:
        raise ParseError(start, "sheaf block needs a rank line")
    if chi is None:
        raise ParseError(start, "sheaf block needs a chi line")
    try:
        return item_descriptor(curve, rank, chi, tuple(stalks.items()), degrees)
    except DescriptorError as exc:
        raise ParseError(start, str(exc)) from exc


def _item_integers(values, what, error=None):
    try:
        return tuple(map(operator.index, values))
    except TypeError as exc:
        raise (error or CurveError)(f"{what} must be integers: {exc}") from None


def _item_fault(message: str, kind: str, index: int):
    exc = CurveError(message)
    exc.item = (kind, index)
    return exc


def _item_node(value, k):
    try:
        nid, first, second = value
    except (TypeError, ValueError):
        raise _item_fault(
            f"node at index {k} is not three integers: {value!r}", "node", k
        ) from None
    try:
        return Node(operator.index(nid), operator.index(first), operator.index(second))
    except TypeError as exc:
        raise _item_fault(f"node entries must be integers: {exc}", "node", k) from None


def item_curve(genera, nodes=()):
    """(genera, nodes) as `NodalCurve(genera, nodes)` stores them, or its exception."""
    genera = _item_integers(genera, "genera")
    if not genera:
        raise CurveError("curve needs at least one component")
    for i, g in enumerate(genera, start=1):
        if g < 2:
            raise _item_fault(
                f"component {i} has genus {g}; each genus must be >= 2", "component", i
            )
    raw = tuple(_item_node(n, k) for k, n in enumerate(nodes))
    seen: set[int] = set()
    normalized: list = []
    for k, node in enumerate(raw):
        if node.id < 1:
            raise _item_fault(f"node id {node.id} must be a positive integer", "node", k)
        if node.id in seen:
            raise _item_fault(f"duplicate node id {node.id}", "node", k)
        seen.add(node.id)
        if node.first == node.second:
            raise _item_fault(
                f"node {node.id} joins component {node.first} to itself", "node", k
            )
        for end in (node.first, node.second):
            if not 1 <= end <= len(genera):
                raise _item_fault(
                    f"node {node.id} references unknown component {end}", "node", k
                )
        if node.first > node.second:
            node = Node(node.id, node.second, node.first)
        normalized.append(node)
    nodes = tuple(sorted(normalized, key=lambda n: n.id))
    adj: dict[int, list[int]] = {i: [] for i in range(1, len(genera) + 1)}
    for n in nodes:
        adj[n.first].append(n.second)
        adj[n.second].append(n.first)
    seen = {1}
    stack = [1]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) != len(genera):
        raise CurveError("dual graph is not connected")
    return genera, nodes


def item_descriptor(curve, multirank, chi, stalks, degrees=None):
    """(multirank, chi, stalks, degrees) as `SheafDescriptor` stores them, or its exception.

    ``curve`` is a `NodalCurve` or the (genera, nodes) pair of `item_curve`.
    """
    genera, curve_nodes = (curve.genera, curve.nodes) if hasattr(curve, "nodes") else curve
    gamma = len(genera)
    ranks = _item_integers(multirank, "multirank", DescriptorError)
    if len(ranks) != gamma:
        raise DescriptorError(f"multirank has {len(ranks)} entries for {gamma} components")
    if any(r < 0 for r in ranks):
        raise DescriptorError("multirank entries must be nonnegative")

    def local_type(pair):
        try:
            nid, value = pair
        except (TypeError, ValueError):
            raise DescriptorError(
                f"stalk entry {pair!r} is not a (node id, value) pair"
            ) from None
        try:
            lt = LocalType(*map(operator.index, value))
        except TypeError:
            raise DescriptorError(
                f"stalk at node {nid} is not three integers: {value!r}"
            ) from None
        return _item_integers((nid,), "stalk node ids", DescriptorError)[0], lt

    pairs = stalks.items() if isinstance(stalks, Mapping) else stalks
    stalks = tuple(sorted(map(local_type, pairs)))
    by_node = dict(stalks)
    if len(by_node) != len(stalks):
        nid = next(a for (a, _), (b, _) in zip(stalks, stalks[1:]) if a == b)
        raise DescriptorError(f"stalk at node {nid} defined twice")
    expected = [n.id for n in curve_nodes]
    if sorted(by_node) != expected:
        raise DescriptorError(f"stalks cover nodes {sorted(by_node)}, curve has {expected}")
    for node in curve_nodes:
        lt = by_node[node.id]
        if min(lt) < 0:
            raise DescriptorError(f"negative stalk exponent at node {node.id}")
        if ranks[node.first - 1] != lt.free_rank + lt.a_first:
            raise DescriptorError(
                f"node {node.id}: rank {ranks[node.first - 1]} on component "
                f"{node.first} != free rank {lt.free_rank} + {lt.a_first}"
            )
        if ranks[node.second - 1] != lt.free_rank + lt.a_second:
            raise DescriptorError(
                f"node {node.id}: rank {ranks[node.second - 1]} on component "
                f"{node.second} != free rank {lt.free_rank} + {lt.a_second}"
            )
    if degrees is not None:
        degrees = _item_integers(degrees, "degrees", DescriptorError)
        if len(degrees) != gamma:
            raise DescriptorError(f"degrees has {len(degrees)} entries for {gamma} components")
    return ranks, _item_integers((chi,), "chi", DescriptorError)[0], stalks, degrees
