"""The library's loader against its frozen copy (`item_loader`).

The library walks a curve file's lines, and the nodes and stalks handed to
`NodalCurve` and `SheafDescriptor`, one item at a time.  On any text, and
on any direct `NodalCurve` or `SheafDescriptor` call, it gives the same
value as the frozen copy or raises the same exception: its type, message,
line number and faulty item.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction

from conftest import pruefer_to_edges
from hypothesis import given, settings, strategies as st
from item_loader import item_curve, item_descriptor, item_parse_curve_with_sheaf

import nodalbn as nb
from nodalbn.curve import Node
from nodalbn.sheaf import LocalType


def outcome(call, *args, **kwargs):
    """("value", v) or ("raised", type, message, line number, item).

    An object's address in a message (the repr of an iterator handed in) is
    blanked: each call is handed a fresh one.
    """
    try:
        return ("value", call(*args, **kwargs))
    except Exception as exc:  # noqa: BLE001 - any exception is an outcome to compare
        message = re.sub(r" at 0x[0-9a-f]+>", " at 0x...>", str(exc))
        return ("raised", type(exc), message, getattr(exc, "line_no", None),
                getattr(exc, "item", None))


def loaded(text: str):
    """`parse_curve_with_sheaf` as the plain values the oracle returns."""
    curve, sheaf = nb.parse_curve_with_sheaf(text)
    assert all(type(n) is Node for n in curve.nodes)
    values = None
    if sheaf is not None:
        assert all(type(lt) is LocalType for _, lt in sheaf.stalks)
        values = (sheaf.multirank, sheaf.chi, sheaf.stalks, sheaf.degrees)
    return (curve.genera, curve.nodes), values


def random_tree(rng: random.Random) -> nb.NodalCurve:
    """A random Prüfer tree with node ids drawn out of order."""
    gamma = rng.randint(1, 7)
    genera = [rng.randint(2, 5) for _ in range(gamma)]
    if gamma < 3:
        edges = [(1, 2)] if gamma == 2 else []
    else:
        edges = pruefer_to_edges([rng.randint(1, gamma) for _ in range(gamma - 2)], gamma)
    nids = rng.sample(range(1, 3 * gamma + 1), len(edges))
    return nb.NodalCurve(genera, [(nid, *e) for nid, e in zip(nids, edges)])


def tree_lines(rng: random.Random) -> list[list[str]]:
    """A random tree's lines, often with a sheaf block, as words."""
    curve = random_tree(rng)
    gamma = curve.gamma
    order = list(range(1, gamma + 1))
    if rng.random() < 0.5:
        rng.shuffle(order)
    lines = [["component", str(i), "genus", str(curve.genus(i))] for i in order]
    nodes = rng.sample(curve.nodes, len(curve.nodes))
    ends = [rng.sample(node[1:], 2) for node in nodes]
    nids = [node.id for node in nodes]
    lines += [["node", str(nid), str(a), str(b)] for nid, (a, b) in zip(nids, ends)]
    if rng.random() < 0.3:
        return lines
    ranks = [rng.randint(0, 4) for _ in range(gamma)]
    block = [["rank", *map(str, ranks)], ["chi", str(rng.randint(-30, 30))]]
    if rng.random() < 0.5:
        block.append(["degrees", *(str(rng.randint(-9, 9)) for _ in range(gamma))])
    for nid, (a, b) in zip(nids, ends):
        lo, hi = min(a, b), max(a, b)
        # one more than the least rank makes a negative exponent that the ranks still fit
        free = rng.randint(0, min(ranks[lo - 1], ranks[hi - 1]) + (rng.random() < 0.1))
        block.append(["stalk", str(nid), str(free), str(ranks[lo - 1] - free),
                      str(ranks[hi - 1] - free)])
    rng.shuffle(block)
    return [*lines, ["sheaf"], *block]


BAD_TOKENS = ["x", "_", "1_0", "2.5", "", "-1", "0", "1", "99", "+3", "٣", "genus",
              "node", "sheaf", "9" * 5000]


def mutate(rng: random.Random, lines: list[list[str]]) -> None:
    """One fault, or one change the grammar allows, somewhere in the lines."""
    kind = rng.choice(["token", "duplicate", "drop", "swap", "short", "long", "self-loop",
                       "sheaf", "unknown", "range"])
    at = rng.randrange(len(lines))
    words = lines[at]
    if kind == "token":
        words[rng.randrange(len(words))] = rng.choice(BAD_TOKENS)
    elif kind == "duplicate":
        lines.insert(rng.randrange(len(lines) + 1), list(words))
    elif kind == "drop":
        del lines[at]
    elif kind == "swap":
        other = rng.randrange(len(lines))
        lines[at], lines[other] = lines[other], lines[at]
    elif kind == "short" and len(words) > 1:
        words.pop(rng.randrange(1, len(words)))
    elif kind == "long":
        words.insert(rng.randrange(1, len(words) + 1), str(rng.randint(0, 9)))
    elif kind == "self-loop" and words[0] == "node" and len(words) == 4:
        words[3] = words[2]
    elif kind == "sheaf" and ["sheaf"] in lines and rng.random() < 0.5:
        lines[lines.index(["sheaf"])].append("2")
    elif kind == "sheaf":
        lines.insert(rng.randrange(len(lines) + 1), rng.choice([["sheaf"], ["sheaf", "2"]]))
    elif kind == "unknown":
        lines.insert(rng.randrange(len(lines) + 1), ["widget", "1"])
    elif kind == "range" and len(words) > 1:
        words[rng.randrange(1, len(words))] = str(rng.choice([-2, 0, 1, 8, 30]))
    if not lines:
        lines.append(["component", "1", "genus", "2"])


def render(rng: random.Random, lines: list[list[str]]) -> str:
    """The lines as a file, with blanks, comments and one kind of line end."""
    out = []
    for words in lines:
        if rng.random() < 0.15:
            out.append(rng.choice(["", "# note", "   ", "\t# c"]))
        line = rng.choice([" ", "  ", "\t"]).join(words)
        if rng.random() < 0.2:
            line += rng.choice([" # tail", "#x", "\t#"])
        out.append(line)
    end = rng.choice(["\n", "\r\n"])
    return end.join(out) + rng.choice([end, ""])


@settings(max_examples=400, deadline=None)
@given(seed=st.integers(0, 2**32), faults=st.integers(0, 3))
def test_parse_matches_the_item_loader(seed, faults):
    rng = random.Random(seed)
    lines = tree_lines(rng)
    for _ in range(faults):
        mutate(rng, lines)
    text = render(rng, lines)
    assert outcome(loaded, text) == outcome(item_parse_curve_with_sheaf, text)


def test_the_mutations_reach_every_kind_of_fault():
    """The property above sees values and faults of each part of the loader."""
    seen = set()
    for seed in range(2000):
        rng = random.Random(seed)
        lines = tree_lines(rng)
        for _ in range(seed % 4):
            mutate(rng, lines)
        got = outcome(item_parse_curve_with_sheaf, render(rng, lines))
        if got[0] == "value":
            seen.add("a curve" if got[1][1] is None else "a curve and a sheaf")
        else:
            seen.add(got[2].split(": ", 1)[-1] if got[3] else got[2])
    for start in [
        "a curve", "a curve and a sheaf", "component lines must precede", "expected: component",
        "expected: node", "expected: stalk", "expected a bare", "unknown directive",
        "unknown sheaf directive", "only one sheaf", "genus must be", "node id must be",
        "endpoint must be", "free rank must be", "rank needs", "degrees needs", "duplicate node",
        "node id 0 must be", "joins component", "references unknown", "dual graph is not",
        "component ids must be", "sheaf block needs a rank", "sheaf block needs a chi",
        "no stalk at node", "which the curve does not have", "negative stalk", "defined twice",
    ]:
        assert any(message.startswith(start) or f" {start}" in message for message in seen), (
            start, sorted(seen))


ENTRIES = [1, 2, 3, 4, 0, -1, True, 2.0, Fraction(2), "2", None]


def entry(rng: random.Random, good: int):
    return good if rng.random() < 0.85 else rng.choice(ENTRIES)


def container(rng: random.Random):
    """A way to hand over values: a tuple, a list, an iterator, or cut or padded."""
    kind = rng.random()
    if kind < 0.6:
        return tuple
    if kind < 0.75:
        return list
    if kind < 0.85:
        return iter
    keep, pad = rng.randint(0, 3), rng.choice(ENTRIES)
    return lambda values: (*list(values)[:keep], *(pad,) * (keep % 2))


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32))
def test_nodal_curve_matches_the_item_loop(seed):
    rng = random.Random(seed)
    tree = random_tree(rng)
    genera = [entry(rng, g) for g in tree.genera]
    nodes = []  # (container, entries) per node
    for node in rng.sample(tree.nodes, len(tree.nodes)):
        triple = [entry(rng, v) for v in node]
        if rng.random() < 0.5:
            triple[1:] = triple[:0:-1]
        kind = rng.choice([tuple, list, Node._make]) if rng.random() < 0.9 else container(rng)
        nodes.append((kind, triple))
    if rng.random() < 0.2 and nodes:
        nodes.insert(rng.randrange(len(nodes)), rng.choice(nodes))
    outer = container(rng), container(rng)

    def args():  # fresh each time: an iterator is read once
        return outer[0](genera), outer[1]([kind(triple) for kind, triple in nodes])

    def built(genera, nodes):
        curve = nb.NodalCurve(genera, nodes)
        return curve.genera, curve.nodes

    assert outcome(built, *args()) == outcome(item_curve, *args())


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32))
def test_sheaf_descriptor_matches_the_item_loop(seed):
    rng = random.Random(seed)
    curve = random_tree(rng)
    ranks = [rng.randint(0, 3) for _ in curve.genera]
    stalks = []
    for node in curve.nodes:
        free = rng.randint(0, min(ranks[node.first - 1], ranks[node.second - 1]))
        free += rng.random() < 0.1  # a negative exponent that the ranks still fit
        value = [entry(rng, free), entry(rng, ranks[node.first - 1] - free),
                 entry(rng, ranks[node.second - 1] - free)]
        kind = rng.choice([tuple, list, LocalType._make]) if rng.random() < 0.9 \
            else container(rng)
        stalks.append((entry(rng, node.id), kind, value))
    if rng.random() < 0.15 and stalks:
        stalks.insert(rng.randrange(len(stalks)), rng.choice(stalks))
    if rng.random() < 0.1 and stalks:
        stalks.pop(rng.randrange(len(stalks)))
    pairs = rng.choice([dict, list, lambda ps: [list(p) for p in ps], iter])
    ranks = [entry(rng, r) for r in ranks]
    outer = container(rng), container(rng)
    degrees = None if rng.random() < 0.5 else [entry(rng, 1) for _ in ranks]
    chi = entry(rng, rng.randint(-5, 5))

    def args():  # fresh each time: an iterator is read once
        return (curve, outer[0](ranks), chi,
                pairs([(nid, kind(value)) for nid, kind, value in stalks]),
                None if degrees is None else outer[1](degrees))

    def built(*args):
        sheaf = nb.SheafDescriptor(*args)
        return sheaf.multirank, sheaf.chi, sheaf.stalks, sheaf.degrees

    assert outcome(built, *args()) == outcome(item_descriptor, *args())
