"""Depth-one sheaves on a nodal curve, described by discrete data.

A descriptor records the rank r_i of the restriction to each component
(mod torsion), the Euler characteristic, optionally the per-component
degrees, and the stalk shape at every node.  At a node p joining the
components (first, second) the stalk is determined by three nonnegative
integers: a free part of rank s and two branch parts with exponents
a_first and a_second, tied to the multirank by

    r_first = s + a_first,    r_second = s + a_second.

Weighted invariants against a polarization omega:

    wrank(E) = sum r_i w_i
    wdeg(E)  = chi(E) - wrank(E) chi(O_C)        with chi(O_C) = 1 - p_a
    wslope   = wdeg / wrank                       (wrank > 0)

and the degree defect wdeg(E) - sum deg(E_i) when degrees are recorded.

Extension spaces between two stalk shapes at the same node contribute
a_1 b_2 + a_2 b_1 to dim Ext^1; summing this over the nodes gives the
non-cohomological part of the global Ext^1 dimension.  A free stalk on
either side contributes nothing.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Mapping

from ._record import Record
from .curve import NodalCurve, Node, _Frozen, _integers

TYPE_CHECKING = False
if TYPE_CHECKING:
    from fractions import Fraction

    from .polarization import Polarization


class DescriptorError(ValueError):
    """Raised when sheaf data is inconsistent with its curve."""


class LocalType(Record):
    """Stalk shape at one node: free rank plus the two branch exponents."""

    free_rank: int
    a_first: int
    a_second: int


class SheafDescriptor(_Frozen):
    """Discrete model of a depth-one sheaf on a fixed curve.

    ``stalks`` gives every node its LocalType, as (node id, value) pairs
    or as a mapping; each value is three integers, and a node id given
    twice is refused.
    """

    __match_args__ = ("curve", "multirank", "chi", "stalks", "degrees")
    curve: NodalCurve
    multirank: tuple[int, ...]
    chi: int
    stalks: tuple[tuple[int, LocalType], ...]
    degrees: tuple[int, ...] | None

    def __init__(
        self,
        curve: NodalCurve,
        multirank: Iterable[int],
        chi: int,
        stalks: Iterable[tuple[int, Iterable[int]]] | Mapping[int, Iterable[int]],
        degrees: Iterable[int] | None = None,
    ) -> None:
        ranks = _integers(multirank, "multirank", DescriptorError)
        if len(ranks) != curve.gamma:
            raise DescriptorError(
                f"multirank has {len(ranks)} entries for {curve.gamma} components"
            )
        if any(r < 0 for r in ranks):
            raise DescriptorError("multirank entries must be nonnegative")
        pairs = stalks.items() if isinstance(stalks, Mapping) else stalks
        stalks = tuple(sorted(map(_local_type, pairs)))
        by_node = dict(stalks)
        if len(by_node) != len(stalks):
            nid = next(a for (a, _), (b, _) in zip(stalks, stalks[1:]) if a == b)
            raise DescriptorError(f"stalk at node {nid} defined twice")
        expected = [n.id for n in curve.nodes]
        if sorted(by_node) != expected:
            raise DescriptorError(_coverage_fault(by_node, expected))
        _walk_stalks(ranks, curve.nodes, by_node)
        if degrees is not None:
            degrees = _integers(degrees, "degrees", DescriptorError)
            if len(degrees) != curve.gamma:
                raise DescriptorError(
                    f"degrees has {len(degrees)} entries for {curve.gamma} components"
                )
        object.__setattr__(self, "curve", curve)
        object.__setattr__(self, "multirank", ranks)
        object.__setattr__(self, "chi", _integers((chi,), "chi", DescriptorError)[0])
        object.__setattr__(self, "stalks", stalks)
        object.__setattr__(self, "degrees", degrees)
        object.__setattr__(self, "_by_node", by_node)  # not a field

    def stalk(self, node_id: int) -> LocalType:
        lt = self._by_node.get(node_id)
        if lt is None:
            raise DescriptorError(f"no stalk recorded at node {node_id}")
        return lt

    def is_locally_free(self) -> bool:
        return all(lt.a_first == 0 and lt.a_second == 0 for _, lt in self.stalks)


def _coverage_fault(by_node: Mapping[int, LocalType], expected: list[int]) -> str:
    """Name the least node id that has a stalk but no node, or a node but no stalk."""
    missing = set(expected).difference(by_node)
    nid = min(missing.union(set(by_node).difference(expected)))
    if nid in missing:
        return f"no stalk at node {nid}"
    return f"stalk at node {nid}, which the curve does not have"


def _walk_stalks(
    ranks: tuple[int, ...], nodes: tuple[Node, ...], by_node: dict[int, LocalType]
) -> None:
    """Raise at the first node, by id, whose stalk is negative or misses its ends' ranks."""
    for node in nodes:
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


def _local_type(pair) -> tuple[int, LocalType]:
    """(node id, LocalType) from a (node id, value) pair, the value three integers."""
    try:
        nid, value = pair
    except (TypeError, ValueError):
        raise DescriptorError(f"stalk entry {pair!r} is not a (node id, value) pair") from None
    try:
        lt = LocalType(*map(operator.index, value))
    except TypeError:
        raise DescriptorError(
            f"stalk at node {nid} is not three integers: {value!r}"
        ) from None
    return _integers((nid,), "stalk node ids", DescriptorError)[0], lt


def locally_free_descriptor(
    curve: NodalCurve, rank: int, degrees: Iterable[int]
) -> SheafDescriptor:
    """Descriptor of a rank-r locally free sheaf with given degrees.

    chi is forced: chi = sum(degrees) + rank * (1 - p_a).
    """
    if rank < 0:
        raise DescriptorError("rank must be nonnegative")
    ds = _integers(degrees, "degrees", DescriptorError)
    if len(ds) != curve.gamma:
        raise DescriptorError(
            f"degrees has {len(ds)} entries for {curve.gamma} components"
        )
    chi = sum(ds) + rank * (1 - curve.arithmetic_genus())
    stalks = tuple((n.id, LocalType(rank, 0, 0)) for n in curve.nodes)
    return SheafDescriptor(
        curve=curve,
        multirank=(rank,) * curve.gamma,
        chi=chi,
        stalks=stalks,
        degrees=ds,
    )


def wrank(desc: SheafDescriptor, omega: Polarization) -> Fraction:
    from fractions import Fraction

    from .polarization import _check_lengths

    _check_lengths(desc.curve, omega)
    return Fraction(
        sum(r * n for r, n in zip(desc.multirank, omega._numerators[1:])), omega._denominator
    )


def wdeg(desc: SheafDescriptor, omega: Polarization) -> Fraction:
    chi_oc = 1 - desc.curve.arithmetic_genus()
    return desc.chi - wrank(desc, omega) * chi_oc


def wslope(desc: SheafDescriptor, omega: Polarization) -> Fraction:
    r = wrank(desc, omega)
    if r <= 0:
        raise DescriptorError(f"slope needs positive weighted rank, got {r}")
    return wdeg(desc, omega) / r


def degree_defect(desc: SheafDescriptor, omega: Polarization) -> Fraction:
    """wdeg minus the total of the recorded per-component degrees."""
    if desc.degrees is None:
        raise DescriptorError("degree defect needs recorded degrees")
    return wdeg(desc, omega) - sum(desc.degrees)


def local_ext_dim(first: LocalType, second: LocalType) -> int:
    """dim Ext^1 between two stalk shapes at one node.

    Only branch parts on opposite branches extend nontrivially, one
    dimension per pair, so the count is bilinear: a1*b2 + a2*b1.
    """
    return first.a_first * second.a_second + first.a_second * second.a_first


def global_ext_defect(first: SheafDescriptor, second: SheafDescriptor) -> int:
    """Sum of the local Ext^1 dimensions over all nodes.

    This is the part of dim Ext^1(E, F) beyond h^1 of the sheaf hom; it
    vanishes exactly when no node pairs opposite branch parts.
    """
    if first.curve != second.curve:
        raise DescriptorError("descriptors live on different curves")
    return sum(
        local_ext_dim(first.stalk(n.id), second.stalk(n.id)) for n in first.curve.nodes
    )
