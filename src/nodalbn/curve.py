"""Nodal reducible curves as genus-labelled multigraphs.

A curve is modelled by its dual graph: one vertex per irreducible smooth
component (with a genus label g_i >= 2) and one edge per node.  Component
ids are the contiguous integers 1..gamma; node ids are arbitrary distinct
positive integers.  Every node joins two distinct components, and the dual
graph must be connected.

Key numbers:

    arithmetic genus   p_a(C) = sum(g_i) + delta - gamma + 1
    node degree        delta_i = number of node endpoints on component i

A curve is of compact type exactly when its dual graph is a tree
(equivalently delta = gamma - 1, equivalently p_a = sum(g_i)).  A curve
knows its graph but not a root: the one walk out from a root, with the
parent, subtree size and node below each component, is
``ordering._walk``; ``ordering.order_components`` builds each subtree
from it as a set.
"""

from __future__ import annotations

import enum
import operator
from collections.abc import Iterable

from ._record import Record


class CurveError(ValueError):
    """Raised when curve data violates a structural invariant.

    ``item`` names the input item at fault when the fault is one item's:
    ``("component", i)`` for component i, ``("node", k)`` for the k-th
    node given (from 0).  It is None for a fault of the whole curve.
    """

    item: tuple[str, int] | None = None


def _item_fault(message: str, kind: str, index: int) -> CurveError:
    exc = CurveError(message)
    exc.item = (kind, index)
    return exc


class NotCompactTypeError(CurveError):
    """Raised when an operation defined only for trees meets a cycle."""


class HypothesisError(ValueError):
    """Raised when a construction's hypotheses fail; names the inequality."""


class Node(Record):
    """A node (edge of the dual graph); stored with first < second."""

    id: int
    first: int
    second: int


class CurveClass(enum.Enum):
    CHAIN = "chain"
    COMB = "comb"
    CHAIN_AND_COMB = "chain_and_comb"
    OTHER = "other"
    NOT_COMPACT_TYPE = "not_compact_type"


def _integers(
    values: Iterable[int], what: str, error: type[ValueError] = CurveError
) -> tuple[int, ...]:
    """The values as ints; a float or any other non-integer raises ``error``."""
    try:
        return tuple(map(operator.index, values))
    except TypeError as exc:
        raise error(f"{what} must be integers: {exc}") from None


class _Frozen:
    """Immutable value over the fields named in ``__match_args__``.

    ``__match_args__`` lists the fields, the ``__init__`` parameters except
    in `components.WindowTable`; equality (same class only), the hash and
    the repr read exactly those.  An ``__init__`` stores attributes with
    ``object.__setattr__``; other setting or deleting raises
    AttributeError.
    """

    __match_args__: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class NodalCurve(_Frozen):
    """Immutable dual-graph model of a nodal reducible curve.

    ``genera[i-1]`` is the genus of component ``i``; ``nodes`` holds the
    edges in ascending node-id order.
    """

    __match_args__ = ("genera", "nodes")
    genera: tuple[int, ...]
    nodes: tuple[Node, ...]

    def __init__(
        self, genera: Iterable[int], nodes: Iterable[Node | tuple[int, int, int]] = ()
    ) -> None:
        genera = _integers(genera, "genera")
        if not genera:
            raise CurveError("curve needs at least one component")
        if min(genera) < 2:
            i = next(i for i, g in enumerate(genera, start=1) if g < 2)
            raise _item_fault(
                f"component {i} has genus {genera[i - 1]}; each genus must be >= 2",
                "component",
                i,
            )
        nodes = _nodes(nodes, len(genera))
        adj: dict[int, list[tuple[int, int]]] = {i: [] for i in range(1, len(genera) + 1)}
        for nid, first, second in nodes:
            adj[first].append((second, nid))
            adj[second].append((first, nid))
        object.__setattr__(self, "genera", genera)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "_adj", adj)  # built once; not a field
        if len(self._reachable_from(1)) != len(genera):
            raise CurveError("dual graph is not connected")

    # -- basic counts -------------------------------------------------

    @property
    def gamma(self) -> int:
        """Number of irreducible components."""
        return len(self.genera)

    @property
    def delta(self) -> int:
        """Number of nodes."""
        return len(self.nodes)

    @property
    def component_ids(self) -> range:
        return range(1, self.gamma + 1)

    def genus(self, i: int) -> int:
        if not 1 <= i <= self.gamma:
            raise CurveError(f"unknown component {i}")
        return self.genera[i - 1]

    def arithmetic_genus(self) -> int:
        """p_a(C) = sum(g_i) + delta - gamma + 1."""
        return sum(self.genera) + self.delta - self.gamma + 1

    def node_degree(self, i: int) -> int:
        """Number of node endpoints lying on component i."""
        if not 1 <= i <= self.gamma:
            raise CurveError(f"unknown component {i}")
        return len(self._adj[i])

    def adjacency(self) -> dict[int, list[tuple[int, int]]]:
        """Map component id -> list of (neighbor id, node id), node-id order."""
        return {i: list(edges) for i, edges in self._adj.items()}

    def _reachable_from(self, start: int) -> set[int]:
        seen = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for w, _ in self._adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen

    # -- compact type and classification ------------------------------

    def is_compact_type(self) -> bool:
        """True when the dual graph is a tree (connected and acyclic)."""
        return self.delta == self.gamma - 1

    def require_compact_type(self) -> None:
        if not self.is_compact_type():
            raise NotCompactTypeError(
                f"operation needs a tree dual graph; curve has {self.delta} nodes "
                f"on {self.gamma} components"
            )

    def classify(self) -> CurveClass:
        """Coarse shape of the dual graph.

        A compact-type curve is a chain when the tree is a path, a comb
        when one component carries all gamma-1 nodes, and chain_and_comb
        when both hold (always the case for gamma <= 3).
        """
        if not self.is_compact_type():
            return CurveClass.NOT_COMPACT_TYPE
        degrees = [self.node_degree(i) for i in self.component_ids]
        is_path = self.gamma == 1 or sorted(degrees) == [1, 1] + [2] * (self.gamma - 2)
        is_comb = self.gamma == 1 or max(degrees) == self.gamma - 1
        if is_path and is_comb:
            return CurveClass.CHAIN_AND_COMB
        if is_path:
            return CurveClass.CHAIN
        if is_comb:
            return CurveClass.COMB
        return CurveClass.OTHER

    def grip(self) -> int:
        """Component carrying the most nodes; ties go to the larger id."""
        self.require_compact_type()
        return max(self.component_ids, key=lambda i: (self.node_degree(i), i))

    # -- subcurves -----------------------------------------------------

    def check_subcurve(self, ids: Iterable[int]) -> frozenset[int]:
        B = frozenset(_integers(ids, "subcurve ids"))
        if not B:
            raise CurveError("subcurve must be nonempty")
        gamma = self.gamma
        unknown = [i for i in B if not 1 <= i <= gamma]
        if unknown:
            raise CurveError(f"unknown components in subcurve: {sorted(unknown)}")
        return B


def _nodes(nodes: Iterable, gamma: int) -> tuple[Node, ...]:
    """The nodes as `Node` records with first < second, in id order.

    Raises at the first fault, reading the nodes as three integers each
    before any other check; the fault's ``item`` names the node by its place.
    """
    raw = tuple(_node(n, k) for k, n in enumerate(nodes))
    seen: set[int] = set()
    normalized: list[Node] = []
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
            if not 1 <= end <= gamma:
                raise _item_fault(
                    f"node {node.id} references unknown component {end}", "node", k
                )
        if node.first > node.second:
            node = Node(node.id, node.second, node.first)
        normalized.append(node)
    return tuple(sorted(normalized))  # by id: the ids are distinct


def _node(value, k: int) -> Node:
    """The k-th node given (from 0), from exactly three integers."""
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


def chain_curve(genera: Iterable[int]) -> NodalCurve:
    """Path-shaped curve: component i meets component i+1 at node i."""
    gs = tuple(genera)
    nodes = tuple(Node(i, i, i + 1) for i in range(1, len(gs)))
    return NodalCurve(gs, nodes)


def comb_curve(genera: Iterable[int], grip: int | None = None) -> NodalCurve:
    """Star-shaped curve: every other component meets the grip.

    The grip defaults to the last component.  Node i joins the i-th
    non-grip component to the grip.
    """
    gs = tuple(genera)
    if grip is None:
        grip = len(gs)
    if not 1 <= grip <= len(gs):
        raise CurveError(f"grip {grip} out of range")
    teeth = [i for i in range(1, len(gs) + 1) if i != grip]
    nodes = tuple(Node(k, tooth, grip) for k, tooth in enumerate(teeth, start=1))
    return NodalCurve(gs, nodes)
