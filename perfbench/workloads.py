"""Seeded inputs, job lists and output checks for the benchmark workloads.

The seed chooses tree shapes, genera, the perturbed polarization, the two
roots of the ``order`` jobs and the sheaf data.  It never chooses a size:
trees are redrawn until every catalog they feed has all s^(gamma-1) members
and, for random trees, until their side sums (``Tree.side_sums``) sit at fixed
values; the certify tree has a fixed shape.  So a workload does nearly the
same work for every seed.

Expected answers are computed here from raw ``Fraction`` sums, never with
``nodalbn``, so a check that passes is a cross-check, not a tautology.  The
small full catalog is also compared with ``brute_force_catalog`` from
``tests/oracles.py``.
"""

from __future__ import annotations

import heapq
import math
import random
import types
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

# Fixed sizes.  Each pass of a workload takes about 4 s on a 2-core box.
SCAN_SWEEPS = (("chain", 4, 3, 8), ("comb", 4, 3, 8))  # family, gamma, genus, s
CERTIFY_S = 10
# The certify tree's shape is fixed; the seed picks its genera.  On six
# components the shape alone moved the cell's work by a quarter between seeds
# (back-substitution length, presortedness of the catalog), a chain being the
# dearest.  This one is neither chain nor comb, and its post-order from
# component 6 is 2,5,3,1,4,6, so the catalog's sort has real work to do.
CERTIFY_EDGES = ((2, 5), (3, 1), (4, 6), (5, 1), (1, 6))
CHAIN5_S = 8
TREE7_GAMMA, TREE7_S, TREE7_D = 7, 3, 8
TREE7_SIDES = (14, 21)  # side sums of the tree7 draw, see Tree.side_sums
SMALL_SLOPE_S = 10
INVARIANCE_S = 6
BIG_GAMMA = 500
# Median side sums of a random gamma=500 tree; the drawn tree is kept within
# BIG_SIDES_TOL of them.  Unconstrained, the first alone has quartiles a third
# apart, and the work of ``components`` and ``polarization`` follows it.
BIG_SIDES, BIG_SIDES_TOL = (13150, 124500), 0.02
BIG_RANK = 3  # rounding a prefix sum moves a subtree sum by < 1 < s/2

CLI = "cli"
LIB = "lib"

Check = Callable[[str], list[str]]


@dataclass(frozen=True)
class Job:
    """One program invocation: ``kind`` is CLI or LIB (``perfbench/libjob.py``)."""

    id: str
    kind: str
    args: tuple[str, ...]
    exit: int
    check: Check


# -- trees ------------------------------------------------------------


@dataclass(frozen=True)
class Tree:
    """A curve of compact type: node i joins ``edges[i-1]``."""

    genera: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    @property
    def gamma(self) -> int:
        return len(self.genera)

    @property
    def pa(self) -> int:
        return sum(self.genera)  # delta = gamma - 1 on a tree

    def degree(self) -> list[int]:
        deg = [0] * (self.gamma + 1)
        for a, b in self.edges:
            deg[a] += 1
            deg[b] += 1
        return deg

    def canonical_degrees(self) -> list[int]:
        """2 g_i - 2 + delta_i, the numerators of the canonical weights."""
        deg = self.degree()
        return [2 * g - 2 + deg[i] for i, g in enumerate(self.genera, start=1)]

    def canonical(self) -> list[Fraction]:
        denom = 2 * self.pa - 2
        return [Fraction(n, denom) for n in self.canonical_degrees()]

    def text(self, sort_ends: bool = False) -> str:
        """The curve file; ``sort_ends`` gives the program's canonical form."""
        lines = [f"component {i} genus {g}" for i, g in enumerate(self.genera, start=1)]
        lines += [f"node {i} {' '.join(map(str, sorted(e) if sort_ends else e))}"
                  for i, e in enumerate(self.edges, start=1)]
        return "\n".join(lines) + "\n"

    def post_order(self, root: int) -> tuple[list[int], dict[int, frozenset[int]]]:
        """Components in post-order from ``root``, and each one's subtree.

        Branches below a vertex are visited in increasing order of the
        smallest id they hold, which is the order the program documents.
        """
        adj: dict[int, list[int]] = {i: [] for i in range(1, self.gamma + 1)}
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        parent = {root: 0}
        dfs = [root]
        for v in dfs:
            for w in adj[v]:
                if w not in parent:
                    parent[w] = v
                    dfs.append(w)
        kids = {v: [w for w in adj[v] if parent[w] == v] for v in dfs}
        subtree: dict[int, frozenset[int]] = {}
        for v in reversed(dfs):
            subtree[v] = frozenset([v]).union(*(subtree[w] for w in kids[v]))
        order: list[int] = []
        stack = [(root, False)]
        while stack:
            v, expanded = stack.pop()
            if expanded:
                order.append(v)
                continue
            stack.append((v, True))
            for w in sorted(kids[v], key=lambda w: min(subtree[w]), reverse=True):
                stack.append((w, False))
        return order, subtree

    def side_sums(self) -> tuple[int, int]:
        """Sizes of the decomposition's subcurves and of the node splits' sides.

        The first sums the subtrees below component gamma, the sets the
        stability windows sum over; the second sums, for every node, the side
        holding its smaller endpoint, the sets the goodness proxy sums over.
        Both set how much the program's per-set sums cost on this tree.
        """
        order, subtree = self.post_order(self.gamma)
        split = 0
        for a, b in self.edges:
            child = a if a in subtree[b] else b
            below = len(subtree[child])
            split += below if min(a, b) == child else self.gamma - below
        return sum(len(subtree[v]) for v in order[:-1]), split

    def splits(self) -> list[frozenset[int]]:
        """One side of every node, as the subtrees below the last component."""
        order, subtree = self.post_order(self.gamma)
        return [subtree[v] for v in order[:-1]]


def pruefer_tree(rng: random.Random, gamma: int, genus_max: int) -> Tree:
    genera = tuple(rng.randint(2, genus_max) for _ in range(gamma))
    seq = [rng.randint(1, gamma) for _ in range(gamma - 2)]
    degree = [1] * (gamma + 1)
    for v in seq:
        degree[v] += 1
    leaves = [i for i in range(1, gamma + 1) if degree[i] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return Tree(genera, tuple(edges))


def chain_tree(rng: random.Random, gamma: int, genus_max: int) -> Tree:
    genera = tuple(rng.randint(2, genus_max) for _ in range(gamma))
    return Tree(genera, tuple((i, i + 1) for i in range(1, gamma)))


def typical_tree(draw: Callable[[], Tree], sides: tuple[int, int], tol: float) -> Tree:
    """Redraw until both side sums are within ``tol`` of ``sides``.

    The sums vary widely between random trees of one size, and the work
    follows them, so without this the seed would choose the cost.
    """
    while True:
        tree = draw()
        if all(abs(got - want) <= tol * want for got, want in zip(tree.side_sums(), sides)):
            return tree


def full_tree(draw: Callable[[], Tree], cells: tuple[tuple[int, int], ...]) -> Tree:
    """Redraw until every (s, d) cell's catalog has all s^(gamma-1) members.

    A window with an integer endpoint holds s-1 integers instead of s, which
    would let the seed shrink a catalog, and its cost, by up to a third.
    """
    while True:
        tree = draw()
        if all(catalog_size(tree, s, d) == s ** (tree.gamma - 1) for s, d in cells):
            return tree


# -- raw arithmetic ---------------------------------------------------


def window(tree: Tree, weights, side, s: int, d: int) -> tuple[Fraction, Fraction]:
    """Open bounds on the degree sum over ``side``, from raw sums."""
    w = sum((weights[i - 1] for i in side), Fraction(0))
    defect = 1 - sum(tree.genera[i - 1] for i in side) - w * (1 - tree.pa)
    return w * d - s * defect, w * d + s * (1 - defect)


def catalog_size(tree: Tree, s: int, d: int) -> int:
    """Product of the integer window widths: partial sums determine the tuple."""
    eta = tree.canonical()
    size = 1
    for side in tree.splits():
        lo, hi = window(tree, eta, side, s, d)
        size *= max(math.ceil(hi) - math.floor(lo) - 1, 0)
    return size


def passes(tree: Tree, degrees, s: int) -> bool:
    """Whether a tuple meets every stability window at the canonical weights."""
    eta = tree.canonical()
    d = sum(degrees)
    for side in tree.splits():
        lo, hi = window(tree, eta, side, s, d)
        if not lo < sum(degrees[i - 1] for i in side) < hi:
            return False
    return True


def small_slope(tree: Tree, s: int, d: int) -> list[tuple[int, ...]]:
    """The small-slope catalog, sorted, by walking every tuple in 1..s summing to d."""
    def fill(prefix: tuple[int, ...], left: int):
        slots = tree.gamma - len(prefix)
        if slots == 1:
            if 1 <= left <= s:
                yield prefix + (left,)
            return
        for x in range(1, min(s, left - slots + 1) + 1):
            yield from fill(prefix + (x,), left - x)

    return [t for t in fill((), d) if passes(tree, t, s)]


def passing_tuple(tree: Tree, s: int, d: int) -> tuple[int, ...]:
    """A tuple passing every stability window at the canonical weights.

    Degrees are differences of rounded prefix sums of d * eta along a
    post-order, so every subtree, a contiguous block of that order, gets a
    degree sum within 1 of its exact share.
    """
    eta = tree.canonical()
    degrees = [0] * tree.gamma
    prefix, rounded = Fraction(0), 0
    for v in tree.post_order(tree.gamma)[0]:
        prefix += eta[v - 1] * d
        nxt = math.floor(prefix + Fraction(1, 2))
        degrees[v - 1] = nxt - rounded
        rounded = nxt
    if not passes(tree, degrees, s):
        raise RuntimeError("the rounded prefix-sum tuple fails a window")
    return tuple(degrees)


def radius(tree: Tree, degrees, s: int) -> Fraction:
    """The documented radius: min slack / (|d + s(1 - p_a)| |A_j|)."""
    eta = tree.canonical()
    d = sum(degrees)
    coeff = abs(d + s * (1 - tree.pa))
    best = []
    for side in tree.splits():
        lo, hi = window(tree, eta, side, s, d)
        sigma = sum(degrees[i - 1] for i in side)
        best.append(min(sigma - lo, hi - sigma) / (coeff * len(side)))
    return min(best)


def good_perturbation(rng: random.Random, tree: Tree) -> list[Fraction]:
    """Canonical weights moved by a zero-sum vector small enough to stay good.

    A split defect moves by at most (p_a - 1) gamma times the sup norm, so a
    sup norm below 1 / (2 gamma (p_a - 1)) keeps each defect inside (0, 1).
    """
    gamma = tree.gamma
    raw = [rng.randint(-50, 50) for _ in range(gamma)]
    total = sum(raw)
    ints = [gamma * r - total for r in raw]
    cap = Fraction(1, 2 * gamma * (tree.pa - 1))
    scale = cap * Fraction(rng.randint(1, 99), 100) / max(max(map(abs, ints)), 1)
    return [w + x * scale for w, x in zip(tree.canonical(), ints)]


def beta(pa: int, r: int, d: int, k: int) -> int:
    return r * r * (pa - 1) + 1 - k * (k - d + r * (pa - 1))


def tree_class(tree: Tree) -> str:
    deg = sorted(tree.degree()[1:])
    is_path = deg == [1, 1] + [2] * (tree.gamma - 2)
    is_comb = deg[-1] == tree.gamma - 1
    return {(True, True): "chain_and_comb", (True, False): "chain",
            (False, True): "comb"}.get((is_path, is_comb), "other")


def oracle_catalog(oracles, tree: Tree, s: int, d: int) -> list[tuple[int, ...]]:
    """``brute_force_catalog`` fed raw data: canonical weights, our post-order."""
    order, subtree = tree.post_order(tree.gamma)
    ns = types.SimpleNamespace
    curve = ns(gamma=tree.gamma, genera=tree.genera,
               nodes=tuple(ns(first=min(e), second=max(e)) for e in tree.edges),
               component_ids=range(1, tree.gamma + 1))
    omega = dict(enumerate(tree.canonical(), start=1))
    deco = ns(order=tuple(order), subcurves=tuple(subtree[v] for v in order[:-1]))
    return oracles.brute_force_catalog(curve, omega, deco, s, d)


# -- reading reports --------------------------------------------------


@dataclass
class Report:
    kv: dict[str, str]
    tables: dict[str, list[list[str]]]  # rows after the header

    def rows(self, name: str) -> list[list[str]]:
        return self.tables.get(name, [])


def parse_report(text: str) -> Report:
    kv: dict[str, str] = {}
    tables: dict[str, list[list[str]]] = {}
    current, header = None, False
    for line in text.splitlines():
        if line.startswith("#table "):
            current, header = tables.setdefault(line[7:], []), True
        elif not line:
            current = None
        elif current is not None:
            if not header:
                current.append(line.split("\t"))
            header = False
        elif ": " in line and not line.startswith("#"):
            key, value = line.split(": ", 1)
            kv.setdefault(key, value)
    return Report(kv, tables)


def _expect(errors: list[str], what: str, got, want) -> None:
    if got != want:
        errors.append(f"{what}: got {str(got)[:80]!r}, want {str(want)[:80]!r}")


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


# -- checks -----------------------------------------------------------


def check_kv(**want: str) -> Check:
    def check(text: str) -> list[str]:
        rep = parse_report(text)
        errors: list[str] = []
        for key, value in want.items():
            _expect(errors, key, rep.kv.get(key), value)
        return errors

    return check


def check_scan(text: str) -> list[str]:
    """Every row certified, with beta = r^2(p_a-1) + 1 - k(k-d+r(p_a-1))."""
    rep = parse_report(text)
    errors: list[str] = []
    _expect(errors, "open", rep.kv.get("open"), "0")
    rows = rep.rows("scan")
    _expect(errors, "rows", rep.kv.get("rows"), str(len(rows)))
    for _, _, genera, s, d, k, status, b in rows:
        want = beta(sum(_ints(genera)), int(s) + int(k), int(d), int(k))
        if int(b) != want or status != "CERTIFIED":
            errors.append(f"scan row {genera} s={s} d={d} k={k}: want beta {want}, CERTIFIED")
    if not rows:
        errors.append("scan has no rows")
    return errors


def check_certify(tree: Tree, s: int, k: int, d: int) -> Check:
    catalog = small_slope(tree, s, d)

    def check(text: str) -> list[str]:
        rep = parse_report(text)
        errors: list[str] = []
        _expect(errors, "certified", rep.kv.get("certified"), "yes" if catalog else "no")
        if catalog:
            _expect(errors, "tuple", rep.kv.get("tuple"), ",".join(map(str, catalog[0])))
            _expect(errors, "beta", rep.kv.get("beta"), str(beta(tree.pa, s + k, d, k)))
            detail = {row[0]: row[2] for row in rep.rows("checklist")}.get("small_slope_tuple", "")
            if not detail.startswith(f"first of {len(catalog)} "):
                errors.append(f"small-slope count: got {detail!r}, want {len(catalog)}")
        return errors

    return check


def check_catalog(tree: Tree, s: int, d: int, small: bool, oracle=None) -> Check:
    """The rows are distinct, each passes, and there are exactly as many as exist.

    Distinct passing tuples as many as the product of the window widths (or
    as the walk in ``small_slope`` finds) are the whole catalog.
    """
    def check(text: str) -> list[str]:
        rep = parse_report(text)
        errors: list[str] = []
        rows = rep.rows("catalog")
        tuples = sorted(_ints(row[0]) for row in rows)
        _expect(errors, "count", rep.kv.get("count"), str(len(tuples)))
        if small:
            _expect(errors, "small-slope catalog", tuples, small_slope(tree, s, d))
        else:
            _expect(errors, "catalog size", len(tuples), catalog_size(tree, s, d))
            if len(set(tuples)) != len(tuples):
                errors.append("catalog repeats a tuple")
            if not all(sum(t) == d and passes(tree, t, s) for t in tuples):
                errors.append("a catalog tuple fails a window")
            if oracle is not None:
                _expect(errors, "brute_force_catalog", tuples, oracle())
        if any(row[-2] != "pass" for row in rows):
            errors.append("a catalog row's verdict is not pass")
        return errors

    return check


# -- workloads --------------------------------------------------------


def scan_jobs(rng: random.Random, files: Callable[[str, str], str], oracles) -> list[Job]:
    jobs = []
    for family, gamma, genus, s in SCAN_SWEEPS:
        args = ("bn", "scan", "--family", family, "--gamma-max", str(gamma),
                "--genus-max", str(genus), "--s-max", str(s))
        jobs.append(Job(f"scan-{family}", CLI, args, 0, check_scan))
    s = CERTIFY_S
    gamma = len(CERTIFY_EDGES) + 1
    cells = (("certify", s, 0), ("refuse", gamma - 1, 1))  # d < gamma: refused
    tree = full_tree(lambda: Tree(tuple(rng.randint(2, 4) for _ in range(gamma)), CERTIFY_EDGES),
                     tuple((s, d) for _, d, _ in cells))
    curve = files("certify", tree.text())
    for job_id, d, code in cells:
        args = ("bn", "certify", "--curve", curve, "--s", str(s), "--k", "1", "--d", str(d))
        jobs.append(Job(job_id, CLI, args, code, check_certify(tree, s, 1, d)))
    return jobs


def catalog_jobs(rng: random.Random, files: Callable[[str, str], str], oracles) -> list[Job]:
    chain5 = full_tree(lambda: chain_tree(rng, 5, 4), ((CHAIN5_S, CHAIN5_S),))
    tree7 = full_tree(lambda: typical_tree(lambda: pruefer_tree(rng, TREE7_GAMMA, 4),
                                           TREE7_SIDES, 0), ((TREE7_S, TREE7_D),))
    chain6 = full_tree(lambda: chain_tree(rng, 6, 4),
                       ((SMALL_SLOPE_S, SMALL_SLOPE_S), (INVARIANCE_S, INVARIANCE_S)))
    paths = {name: files(name, tree.text())
             for name, tree in (("chain5", chain5), ("tree7", tree7), ("chain6", chain6))}

    def enum(name, s, d, *extra):
        return ("components", "enumerate", "--curve", paths[name], "--rank", str(s),
                "--degree", str(d), *extra)

    return [
        Job("enum-chain5", CLI, enum("chain5", CHAIN5_S, CHAIN5_S), 0,
            check_catalog(chain5, CHAIN5_S, CHAIN5_S, False,
                          lambda: oracle_catalog(oracles, chain5, CHAIN5_S, CHAIN5_S))),
        Job("enum-tree7", CLI, enum("tree7", TREE7_S, TREE7_D), 0,
            check_catalog(tree7, TREE7_S, TREE7_D, False)),
        Job("enum-small-slope", CLI,
            enum("chain6", SMALL_SLOPE_S, SMALL_SLOPE_S, "--small-slope"), 0,
            check_catalog(chain6, SMALL_SLOPE_S, SMALL_SLOPE_S, True)),
        Job("invariance", CLI,
            ("components", "invariance", "--curve", paths["chain6"],
             "--rank", str(INVARIANCE_S), "--degree", str(INVARIANCE_S)), 0,
            check_kv(invariance="pass",
                     count=str(catalog_size(chain6, INVARIANCE_S, INVARIANCE_S)))),
    ]


def sheaf_block(rng: random.Random, tree: Tree) -> tuple[str, int, list[int]]:
    """A depth-one sheaf block, its self-Ext defect and its multirank.

    Ranks are 1 or 2 and each node gets a random free part.
    """
    ranks = [rng.randint(1, 2) for _ in range(tree.gamma)]
    lines = ["sheaf", "rank " + " ".join(map(str, ranks)), f"chi {rng.randint(-50, 50)}",
             "degrees " + " ".join(str(rng.randint(-3, 3)) for _ in ranks)]
    ext = 0
    for i, (a, b) in enumerate(tree.edges, start=1):
        first, second = min(a, b), max(a, b)
        free = rng.randint(0, min(ranks[first - 1], ranks[second - 1]))
        a1, a2 = ranks[first - 1] - free, ranks[second - 1] - free
        ext += 2 * a1 * a2
        lines.append(f"stalk {i} {free} {a1} {a2}")
    return "\n".join(lines) + "\n", ext, ranks


def bigtree_jobs(rng: random.Random, files: Callable[[str, str], str], oracles) -> list[Job]:
    tree = typical_tree(lambda: pruefer_tree(rng, BIG_GAMMA, 6), BIG_SIDES, BIG_SIDES_TOL)
    block, ext, ranks = sheaf_block(rng, tree)
    curve = files("big", tree.text() + block)
    omega = ",".join(map(str, good_perturbation(rng, tree)))
    roots = rng.sample(range(1, tree.gamma + 1), 2)
    d = 2 * tree.gamma
    ctuple = passing_tuple(tree, BIG_RANK, d)
    tuple_args = ("--curve", curve, "--rank", str(BIG_RANK), "--tuple", ",".join(map(str, ctuple)))

    def validate(text: str) -> list[str]:
        errors = check_kv(gamma=str(tree.gamma), compact_type="yes")(text)
        _expect(errors, "echo", text.split("#echo\n", 1)[-1], tree.text(sort_ends=True))
        return errors

    def canonical(text: str) -> list[str]:
        errors = check_kv(goodness_proxy="pass")(text)
        defects = [row[2] for row in parse_report(text).rows("splits")]
        _expect(errors, "split count", len(defects), tree.gamma - 1)
        if any(x != "1/2" for x in defects):
            errors.append("a canonical split defect is not 1/2")
        return errors

    def order(root: int) -> Check:
        return check_kv(root=str(root), order=",".join(map(str, tree.post_order(root)[0])))

    def rank1(text: str) -> list[str]:
        # at d = 2 p_a - 2 every window is centred on an integer: one tuple
        errors = check_kv(count="1")(text)
        rows = parse_report(text).rows("catalog")
        _expect(errors, "tuple", rows[0][0] if rows else None,
                ",".join(map(str, tree.canonical_degrees())))
        return errors

    return [
        Job("validate", CLI, ("curve", "validate", "--curve", curve, "--echo"), 0, validate),
        Job("classify", CLI, ("curve", "classify", "--curve", curve), 0,
            check_kv(classification=tree_class(tree))),
        Job("canonical", CLI, ("polarization", "canonical", "--curve", curve), 0, canonical),
        Job("check", CLI, ("polarization", "check", "--curve", curve, "--omega", omega), 0,
            check_kv(goodness_proxy="pass")),
        *(Job(f"order-{k}", CLI, ("order", "--curve", curve, "--root", str(r)), 0, order(r))
          for k, r in zip("ab", roots)),
        Job("components-check", CLI, ("components", "check", *tuple_args), 0,
            check_kv(verdict="pass", degree=str(d))),
        Job("components-radius", CLI, ("components", "radius", *tuple_args), 0,
            check_kv(radius=str(radius(tree, ctuple, BIG_RANK)))),
        Job("enumerate-rank1", CLI,
            ("components", "enumerate", "--curve", curve, "--rank", "1",
             "--degree", str(2 * tree.pa - 2)), 0, rank1),
        Job("sheaf", CLI, ("sheaf", "info", "--curve", curve), 0,
            check_kv(multirank=",".join(map(str, ranks)), ext_defect_self=str(ext))),
        Job("verify-decomposition", LIB, ("verify_decomposition", curve, str(roots[0])), 0,
            check_kv(ok="yes", violations="0")),
    ]


WORKLOADS = {"scan": scan_jobs, "catalog": catalog_jobs, "bigtree": bigtree_jobs}


def build(workload: str, seed: int, root: Path, oracles) -> list[Job]:
    """Write the workload's inputs under ``perfbench/_work`` and list its jobs.

    Paths in the job arguments are relative to ``root``, the directory the
    jobs run in, so the program's output, which echoes them, is the same in
    every checkout.
    """
    rel = Path("perfbench", "_work", workload)
    (root / rel).mkdir(parents=True, exist_ok=True)

    def files(name: str, text: str) -> str:
        (root / rel / f"{name}.crv").write_text(text)
        return str(rel / f"{name}.crv")

    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), files, oracles)
