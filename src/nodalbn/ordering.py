"""Root-first orderings of a compact-type curve.

Given a tree dual graph and a chosen root component D, the components can
be listed as C_(1), ..., C_(gamma) = D so that

  (b) every tail C_(j+1) u ... u C_(gamma) is connected, and
  (c) each C_(j) sits inside a connected subcurve A_j whose complement is
      connected and meets A_j in a single node p_j.

The order produced here is the post-order traversal of the tree rooted at
D, visiting the branches below each vertex in increasing order of the
smallest component id they contain.  A_j is then the set of components in
the subtree of the j-th visited vertex, and p_j the node joining that
vertex to its parent.  The triangularity fact used elsewhere: C_(i) lies
in A_j only when i <= j.

``_walk`` is the library's one walk out from a root.  It gives each
position's parent position, subtree size |A_j| and separating node p_j
as integers and builds no set, since A_j is the run of positions
j + 1 - |A_j| .. j.  ``order_components`` builds the public decomposition
from it, each A_j a frozenset.  The split table in ``polarization``
reads a walk's parents, or the tree of a decomposition that a caller
hands in once ``verify_decomposition`` accepts it: A_j is the side below
p_j, whose other end is C_(j)'s parent.

The verifier searches nothing.  On a tree, a set of k components is
connected exactly when k - 1 nodes join two of its members, so each tail,
each A_j and each complement is tested by counting nodes, and the whole
check is linear in the size of the decomposition.
"""

from __future__ import annotations

from ._record import Record, _integer
from .curve import CurveError, NodalCurve, _integers


class OrderedDecomposition(Record):
    """A root-first component order with its nested separating subcurves.

    ``order[j-1]`` is the component id in position j (the root is last);
    ``subcurves[j-1]`` is A_j and ``separating_nodes[j-1]`` its single
    boundary node, for j = 1..gamma-1.
    """

    root: int
    order: tuple[int, ...]
    subcurves: tuple[frozenset[int], ...]
    separating_nodes: tuple[int, ...]


class DecompositionCheck(Record):
    ok: bool
    violations: tuple[str, ...]


class _Walk(Record):
    """The post-order from ``root`` as integers, by position (0-based, root last).

    For each position j below the root, ``parents[j]`` is the position of
    C_(j+1)'s parent, ``sizes[j]`` is |A_(j+1)| and ``nodes[j]`` is
    p_(j+1).  A subtree is the run of positions that ends at its top, so
    `subcurve` builds A_(j+1) only when it is asked for.
    """

    root: int
    order: tuple[int, ...]
    parents: tuple[int, ...]
    sizes: tuple[int, ...]
    nodes: tuple[int, ...]

    def subcurve(self, j: int) -> frozenset[int]:
        return frozenset(self.order[j + 1 - self.sizes[j] : j + 1])


def _walk(curve: NodalCurve, root: int) -> _Walk:
    """Order the components of a tree-shaped curve with ``root`` last; no subcurve is built.

    One breadth-first pass from the root finds each component's parent
    and joining node; children are read before their parents by walking
    that pass backwards.  Iterative (explicit stack) so that long chains
    do not hit the interpreter recursion limit.
    """
    curve.require_compact_type()
    root = _integer(root, "root component", CurveError)
    if not 1 <= root <= curve.gamma:
        raise CurveError(f"unknown root component {root}")
    adj = curve._adj
    parent = {root: (root, 0)}  # component -> (parent, joining node)
    reached = [root]
    for v in reached:  # grows while it is read: breadth first
        for w, nid in adj[v]:
            if w not in parent:
                parent[w] = (v, nid)
                reached.append(w)
    # least id and size of each subtree: a subtree is done before its parent's
    least = list(range(curve.gamma + 1))
    size = [1] * (curve.gamma + 1)
    for v in reversed(reached[1:]):
        up = parent[v][0]
        least[up] = min(least[up], least[v])
        size[up] += size[v]
    children: dict[int, list[int]] = {v: [] for v in reached}
    for v in sorted(reached[1:], key=least.__getitem__):
        children[parent[v][0]].append(v)

    # pre-order that pops the largest-minimum branch first, read backwards:
    # the post-order with the smallest-minimum branch first
    order: list[int] = []
    visit = [root]
    while visit:
        v = visit.pop()
        order.append(v)
        visit += children[v]
    order.reverse()

    position = dict(zip(order, range(len(order))))
    below = order[:-1]
    return _Walk(root, tuple(order), tuple(position[parent[v][0]] for v in below),
                 tuple(size[v] for v in below), tuple(parent[v][1] for v in below))


def order_components(curve: NodalCurve, root: int) -> OrderedDecomposition:
    """Order the components of a tree-shaped curve with ``root`` last.

    The post-order of `_walk`, with each A_j built as a set.
    """
    walk = _walk(curve, root)
    return OrderedDecomposition(
        walk.root, walk.order, tuple(map(walk.subcurve, range(len(walk.nodes)))), walk.nodes
    )


def verify_decomposition(curve: NodalCurve, deco: OrderedDecomposition) -> DecompositionCheck:
    """Re-check every clause of an ordered decomposition from scratch.

    Independent of how the decomposition was produced; each failed clause
    contributes one violation string.  Connectivity is decided by counting
    nodes, so the check is linear in the size of the decomposition.  The
    root, the order, the separating nodes and each A_j are read as integers
    (True is 1); any other id raises CurveError.
    """
    curve.require_compact_type()
    root = _integer(deco.root, "root component", CurveError)
    order = _integers(deco.order, "decomposition order")
    separating_nodes = _integers(deco.separating_nodes, "separating nodes")
    gamma = curve.gamma
    if sorted(order) != list(curve.component_ids):
        return DecompositionCheck(False, (f"order {order} is not a permutation of 1..{gamma}",))
    violations: list[str] = []
    if order[-1] != root:
        violations.append(f"root {root} is not last in the order")
    if len(deco.subcurves) != gamma - 1 or len(separating_nodes) != gamma - 1:
        violations.append(
            f"expected {gamma - 1} subcurves and separating nodes, got "
            f"{len(deco.subcurves)} and {len(separating_nodes)}"
        )
        return DecompositionCheck(False, tuple(violations))

    adj = curve.adjacency()
    position = {c: i for i, c in enumerate(order, start=1)}
    # the tail after position j holds the components at positions > j; add
    # them from the root end, counting the nodes each shares with the tail
    tail_nodes = [0] * (gamma + 1)
    for j in range(gamma - 1, 0, -1):
        v = order[j]
        tail_nodes[j] = tail_nodes[j + 1] + sum(1 for w, _ in adj[v] if position[w] > j + 1)
    for j in range(1, gamma):
        if tail_nodes[j] != gamma - j - 1:
            violations.append(f"tail after position {j} is not connected")

    node_ids = {n.id for n in curve.nodes}
    for j in range(1, gamma):
        A = deco.subcurves[j - 1]
        label = f"A_{j}"
        if order[j - 1] not in A:
            violations.append(f"{label} does not contain component {order[j - 1]}")
        if A:
            curve.check_subcurve(A)
        # on a tree, a set of k components is connected iff it holds k - 1 nodes
        inner = 0
        boundary = []
        for v in A:
            for w, nid in adj[v]:
                if w in A:
                    inner += 1
                else:
                    boundary.append(nid)
        inner //= 2
        if not A or inner != len(A) - 1:
            violations.append(f"{label} is not a connected subcurve")
        rest = gamma - len(A)
        if not rest or (gamma - 1) - inner - len(boundary) != rest - 1:
            violations.append(f"complement of {label} is not a connected subcurve")
        if len(boundary) != 1:
            violations.append(f"{label} meets its complement in {len(boundary)} nodes, not 1")
        else:
            p = separating_nodes[j - 1]
            if p not in node_ids:
                violations.append(f"separating node {p} of {label} does not exist")
            elif boundary[0] != p:
                violations.append(
                    f"recorded separating node {p} of {label} differs from actual {boundary[0]}"
                )
        for i in sorted(position[c] for c in A if position[c] > j):
            violations.append(
                f"triangularity: position-{i} component {order[i - 1]} lies in {label}"
            )

    return DecompositionCheck(not violations, tuple(violations))

