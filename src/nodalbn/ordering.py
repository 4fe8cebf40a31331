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
"""

from __future__ import annotations

from dataclasses import dataclass

from .curve import NodalCurve


@dataclass(frozen=True)
class OrderedDecomposition:
    """A root-first component order with its nested separating subcurves.

    ``order[j-1]`` is the component id in position j (the root is last);
    ``subcurves[j-1]`` is A_j and ``separating_nodes[j-1]`` its single
    boundary node, for j = 1..gamma-1.
    """

    root: int
    order: tuple[int, ...]
    subcurves: tuple[frozenset[int], ...]
    separating_nodes: tuple[int, ...]

    @property
    def gamma(self) -> int:
        return len(self.order)

    def position(self, component: int) -> int:
        """1-based position of a component in the order."""
        return self.order.index(component) + 1


@dataclass(frozen=True)
class DecompositionCheck:
    ok: bool
    violations: tuple[str, ...]


def order_components(curve: NodalCurve, root: int) -> OrderedDecomposition:
    """Order the components of a tree-shaped curve with ``root`` last.

    Iterative (explicit stack) so that long chains do not hit the
    interpreter recursion limit.
    """
    below = {b.component: b for b in curve.branches(root)}
    children: dict[int, list[int]] = {i: [] for i in curve.component_ids}
    for b in sorted(below.values(), key=lambda b: min(b.subtree)):
        children[b.parent].append(b.component)

    # pre-order that pops the largest-minimum branch first, read backwards:
    # the post-order with the smallest-minimum branch first
    order: list[int] = []
    visit = [root]
    while visit:
        v = visit.pop()
        order.append(v)
        visit += children[v]
    order.reverse()

    return OrderedDecomposition(
        root=root,
        order=tuple(order),
        subcurves=tuple(below[v].subtree for v in order[:-1]),
        separating_nodes=tuple(below[v].node for v in order[:-1]),
    )


def verify_decomposition(curve: NodalCurve, deco: OrderedDecomposition) -> DecompositionCheck:
    """Re-check every clause of an ordered decomposition from scratch.

    Independent of how the decomposition was produced; each failed clause
    contributes one violation string.
    """
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
        if not curve.is_connected_subcurve(tail):
            violations.append(f"tail after position {j} is not connected")

    nodes_by_id = {n.id: n for n in curve.nodes}
    for j in range(1, gamma):
        A = deco.subcurves[j - 1]
        comp = all_ids - A
        label = f"A_{j}"
        if deco.order[j - 1] not in A:
            violations.append(f"{label} does not contain component {deco.order[j - 1]}")
        if not A or not curve.is_connected_subcurve(A):
            violations.append(f"{label} is not a connected subcurve")
        if not comp or not curve.is_connected_subcurve(comp):
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
