"""Rational polarizations and the structure-sheaf degree defect.

A polarization assigns each component a positive rational weight, the
weights summing to exactly 1 (each strictly below 1 once there are two or
more components).  All arithmetic is exact: a verdict here is a strict
inequality between rationals and must never be decided in floating point.

The canonical polarization of a curve (every curve has p_a >= 2) is

    eta_i = (2 g_i - 2 + delta_i) / (2 p_a - 2).

For a subcurve B the defect of its structure sheaf is

    delta_omega(O_B) = 1 - sum_{i in B} g_i - wrank(O_B) (1 - p_a),

which is the omega-degree of O_B whenever B is connected.  At eta, on a
compact-type curve, this equals half the number of nodes joining B to its
complement; in particular every one-node split scores exactly 1/2.  The
library takes the defect only on the sides of one-node splits: the
goodness proxy and the stability windows of ``components`` read one split
table per walk or decomposition: each A_j's weight numerator W_j over the
weights' lcm D and its genus sum G_j, summed once up the tree of
subcurves.  The table keeps W_j and A_j's defect numerator
delta_j D = (1 - G_j) D - W_j (1 - p_a), the one place it is computed.
Every verdict is decided on these integers.  A_j itself is a set only
where something asks for it: a printed side, a window record, a witness.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction

from ._record import Record
from .curve import NodalCurve, _Frozen

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .ordering import OrderedDecomposition, _Walk


class PolarizationError(ValueError):
    """Raised for weight vectors that are not valid polarizations."""


class Polarization(_Frozen):
    """Exact rational weight vector: positive entries summing to 1.

    Weight i is ``_numerators[i] / _denominator`` over the lcm of the
    denominators (``_numerators[0]`` pads the 1-based ids), so a subcurve
    weight is one integer sum.
    """

    __match_args__ = ("weights",)
    weights: tuple[Fraction, ...]

    def __init__(self, weights: Iterable[Fraction | int]) -> None:
        ws = _exact(weights, "weight")
        if not ws:
            raise PolarizationError("polarization needs at least one weight")
        nums = list(map(_NUMERATOR, ws))
        dens = list(map(_DENOMINATOR, ws))
        several = len(ws) > 1
        for i, (num, den) in enumerate(zip(nums, dens), start=1):
            if num <= 0:  # a Fraction's denominator is positive
                raise PolarizationError(f"weight {i} is {ws[i - 1]}; weights must be positive")
            if several and num >= den:
                raise PolarizationError(
                    f"weight {i} is {ws[i - 1]}; weights must be strictly below 1"
                )
        denominator = math.lcm(*dens)
        numerators = (0, *map(operator.mul, nums, map(denominator.__floordiv__, dens)))
        if sum(numerators) != denominator:
            raise PolarizationError(
                f"weights sum to {Fraction(sum(numerators), denominator)}, not 1"
            )
        object.__setattr__(self, "weights", ws)
        object.__setattr__(self, "_denominator", denominator)
        object.__setattr__(self, "_numerators", numerators)

    def __len__(self) -> int:
        return len(self.weights)

    def __getitem__(self, i: int) -> Fraction:
        """Weight of component i (1-based)."""
        if not 1 <= i <= len(self.weights):
            raise PolarizationError(f"no weight for component {i}")
        return self.weights[i - 1]


class SplitDefect(Record):
    node: int
    side: frozenset[int]
    defect: Fraction
    ok: bool


class GoodnessReport(Record):
    """Per-split defect values for the goodness proxy 0 < defect < 1."""

    passed: bool
    splits: tuple[SplitDefect, ...]


def canonical(curve: NodalCurve) -> Polarization:
    """Canonical weights eta_i = (2 g_i - 2 + delta_i) / (2 p_a - 2).

    The denominator is positive on every curve: `NodalCurve` takes only
    genera g_i >= 2 and a connected dual graph (delta >= gamma - 1), so
    p_a = sum(g_i) + delta - gamma + 1 >= 2 gamma >= 2.
    """
    denom = 2 * curve.arithmetic_genus() - 2
    return Polarization(
        tuple(
            Fraction(2 * curve.genus(i) - 2 + curve.node_degree(i), denom)
            for i in curve.component_ids
        )
    )


def goodness_proxy(curve: NodalCurve, omega: Polarization) -> GoodnessReport:
    """Check 0 < defect < 1 on every one-node split of a tree curve.

    This is the decidable slice of goodness used by the certification
    pipeline; it does not quantify over all depth-one subsheaves.

    The splits come from the walk from the last component: A_j is the
    side below node p_j, whose other end is C_(j)'s parent.  Each defect
    is an integer over the weights' common denominator D in the split
    table, delta_j D = (1 - G_j) D - W_j (1 - p_a), so no verdict takes a
    set.  A row's side, the one holding the node's smaller-id endpoint,
    is A_j or its complement.  The command line prints the same rows
    (`_SplitTable.defect_rows`), formatting each as it is made.
    """
    rows = tuple(_SplitTable(curve, omega).defect_rows())
    return GoodnessReport(passed=all(row.ok for row in rows), splits=rows)


class _SplitTable:
    """Each A_j's weight numerator W_j and defect numerator delta_j D over ``denominator``.

    By position; the root's entries, last, are the whole curve's.
    ``defects[k]`` = (1 - G) D - W_(k+1) (1 - p_a), G the genus sum over
    A_(k+1), so the root's is 0.  ``tree`` is a walk (``ordering._walk``),
    or the goodness proxy's walk from the last component when none is
    given, or a decomposition handed in.  Every table checks, in this
    order: compact type, omega's length, then for a decomposition
    `ordering.verify_decomposition`, whose CurveError is raised as it is
    and whose first violation is raised as a ValueError.  A walk's tree is
    read from its parent positions, a decomposition's from its separating
    nodes: p_j joins C_(j) to its parent.  ``parents[j]`` is position j's
    parent for j below the root, and ``children[p]`` lists p's children in
    increasing order.  ``sizes[k]`` is |A_(k+1)|;
    `subcurve` builds A_(k+1) only when asked, a handed-in one's members
    read as ints.
    """

    def __init__(
        self,
        curve: NodalCurve,
        omega: Polarization,
        tree: _Walk | OrderedDecomposition | None = None,
    ) -> None:
        from .ordering import _walk, _Walk, verify_decomposition

        curve.require_compact_type()
        _check_lengths(curve, omega)
        if tree is None:
            tree = _walk(curve, curve.gamma)
        ends = {n.id: (n.first, n.second) for n in curve.nodes}
        if isinstance(tree, _Walk):
            order, self.nodes, parents = tree.order, tree.nodes, tree.parents
            self.sizes, self.subcurve = tree.sizes, tree.subcurve
        else:
            violations = verify_decomposition(curve, tree).violations
            if violations:
                raise ValueError(violations[0])
            # verify accepted: ids read as ints (True is 1); p_j joins C_(j) to its parent
            order = tuple(map(operator.index, tree.order))
            self.nodes = tuple(map(operator.index, tree.separating_nodes))
            subcurves = tree.subcurves
            self.sizes = tuple(map(len, subcurves))
            self.subcurve = lambda k: frozenset(map(operator.index, subcurves[k]))
            position = {c: j for j, c in enumerate(order)}
            parents = tuple(position[sum(ends[p]) - c] for c, p in zip(order, self.nodes))
        children: list[list[int]] = [[] for _ in order]
        for j, up in enumerate(parents):  # increasing j: each list is sorted
            children[up].append(j)
        genera = (0, *curve.genera)  # padded like the numerators: index = component id
        weight = [omega._numerators[c] for c in order]
        genus = [genera[c] for c in order]
        for p, kids in enumerate(children):
            for c in kids:
                weight[p] += weight[c]
                genus[p] += genus[c]
        D, pa = omega._denominator, curve.arithmetic_genus()
        self.curve, self.order, self.ends = curve, order, ends
        self.parents, self.children = parents, children
        self.weights, self.denominator, self.pa = weight, D, pa
        self.defects = [(1 - g) * D - w * (1 - pa) for w, g in zip(weight, genus)]

    def proxy_rows(self) -> list[tuple[int, int, bool, int]]:
        """(node, position, flipped, delta D) per split, by node id: integers only.

        The printed side holds the node's smaller-id endpoint; ``flipped``
        says that it is the complement of A_(position+1), whose defect is
        D minus A_j's.
        """
        D, ends = self.denominator, self.ends
        rows = []
        for j, (c, nid, num) in enumerate(zip(self.order, self.nodes, self.defects)):
            flipped = ends[nid][1] == c  # the parent is the smaller end: the defects add up to 1
            rows.append((nid, j, flipped, D - num if flipped else num))
        rows.sort()  # node ids are distinct
        return rows

    def defect_rows(self) -> Iterator[SplitDefect]:
        """The goodness proxy's rows by node id, each side built as its row is made."""
        D, everything = self.denominator, frozenset(self.curve.component_ids)
        for nid, j, flipped, num in self.proxy_rows():
            side = everything - self.subcurve(j) if flipped else self.subcurve(j)
            yield SplitDefect(nid, side, Fraction(num, D), 0 < num < D)

    def require_good(self) -> _SplitTable:
        """This table, once omega passes the proxy; `bn certify`'s hard error otherwise."""
        D = self.denominator
        bad = [(nid, num) for nid, _, _, num in self.proxy_rows() if not 0 < num < D]
        if bad:
            raise PolarizationError(
                "polarization fails the goodness proxy at node(s) "
                + ", ".join(f"{nid} (defect {Fraction(num, D)})" for nid, num in bad)
            )
        return self


def perturb(omega: Polarization, eps: Sequence[Fraction | int]) -> Polarization:
    """Shift weights by eps; the entries of eps must sum to exactly 0."""
    if len(eps) != len(omega):
        raise PolarizationError(
            f"perturbation has {len(eps)} entries for {len(omega)} weights"
        )
    es = _exact(eps, "perturbation entry")
    total = sum(es)
    if total != 0:
        raise PolarizationError(f"perturbation entries sum to {total}, not 0")
    return Polarization(tuple(w + e for w, e in zip(omega.weights, es)))


_NUMERATOR = operator.attrgetter("numerator")
_DENOMINATOR = operator.attrgetter("denominator")


def _exact(values: Iterable[Fraction | int], what: str) -> tuple[Fraction, ...]:
    """The values as Fractions; only an int or a Fraction is exact enough to take.

    A Fraction is kept as it is; an int, or a Fraction subclass, becomes a Fraction.
    """
    out = []
    for i, v in enumerate(values, start=1):
        if not isinstance(v, Fraction):
            try:
                v = operator.index(v)
            except TypeError:
                raise PolarizationError(
                    f"{what} {i} is {v!r}; it must be an integer or a Fraction"
                ) from None
        out.append(v if v.__class__ is Fraction else Fraction(v))
    return tuple(out)


def _check_lengths(curve: NodalCurve, omega: Polarization) -> None:
    if len(omega) != curve.gamma:
        raise PolarizationError(
            f"polarization has {len(omega)} weights for {curve.gamma} components"
        )
