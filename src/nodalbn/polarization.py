"""Rational polarizations and the structure-sheaf degree defect.

A polarization assigns each component a positive rational weight, the
weights summing to exactly 1 (each strictly below 1 once there are two or
more components).  All arithmetic is exact: a verdict here is a strict
inequality between rationals and must never be decided in floating point.

The canonical polarization of a curve with p_a >= 2 is

    eta_i = (2 g_i - 2 + delta_i) / (2 p_a - 2).

For a subcurve B the defect of its structure sheaf is computed as

    delta_omega(O_B) = 1 - sum_{i in B} g_i - wrank(O_B) (1 - p_a),

which is the omega-degree of O_B whenever B is connected.  At eta, on a
compact-type curve, this equals half the number of nodes joining B to its
complement; in particular every one-node split scores exactly 1/2.  The
goodness proxy and the stability windows of ``components`` read one split
table per decomposition: each A_j's weight numerator W_j over the weights'
lcm D and its genus sum G_j, summed once up the tree its separating nodes
give, so that A_j's defect is delta_j = ((1 - G_j) D - W_j (1 - p_a)) / D.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .curve import NodalCurve, _Frozen

if TYPE_CHECKING:
    from .ordering import OrderedDecomposition


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
        for i, w in enumerate(ws, start=1):
            if w <= 0:
                raise PolarizationError(f"weight {i} is {w}; weights must be positive")
            if len(ws) > 1 and w >= 1:
                raise PolarizationError(f"weight {i} is {w}; weights must be strictly below 1")
        denominator = math.lcm(*(w.denominator for w in ws))
        numerators = (0, *(w.numerator * (denominator // w.denominator) for w in ws))
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

    def subcurve_weight(self, ids: Iterable[int]) -> Fraction:
        """wrank of the structure sheaf of the subcurve: sum of weights."""
        ids = tuple(ids)
        if ids and not (1 <= min(ids) and max(ids) <= len(self.weights)):
            bad = next(i for i in ids if not 1 <= i <= len(self.weights))
            raise PolarizationError(f"no weight for component {bad}")
        return Fraction(sum(map(self._numerators.__getitem__, ids)), self._denominator)


class SplitDefect(NamedTuple):
    node: int
    side: frozenset[int]
    defect: Fraction
    ok: bool


class GoodnessReport(NamedTuple):
    """Per-split defect values for the goodness proxy 0 < defect < 1."""

    passed: bool
    splits: tuple[SplitDefect, ...]


def canonical(curve: NodalCurve) -> Polarization:
    """Canonical weights eta_i = (2 g_i - 2 + delta_i) / (2 p_a - 2)."""
    pa = curve.arithmetic_genus()
    if pa < 2:
        raise PolarizationError(f"canonical polarization needs p_a >= 2, got {pa}")
    denom = 2 * pa - 2
    return Polarization(
        tuple(
            Fraction(2 * curve.genus(i) - 2 + curve.node_degree(i), denom)
            for i in curve.component_ids
        )
    )


def delta_structure_sheaf(
    curve: NodalCurve, omega: Polarization, ids: Iterable[int]
) -> Fraction:
    """Defect 1 - sum_{i in B} g_i - wrank(O_B)(1 - p_a) of a subcurve B."""
    B = curve.check_subcurve(ids)
    _check_lengths(curve, omega)
    return 1 - curve.genus_sum(B) - omega.subcurve_weight(B) * (1 - curve.arithmetic_genus())


def goodness_proxy(curve: NodalCurve, omega: Polarization) -> GoodnessReport:
    """Check 0 < defect < 1 on every one-node split of a tree curve.

    This is the decidable slice of goodness used by the certification
    pipeline; it does not quantify over all depth-one subsheaves.

    The splits are read off ``order_components(curve, curve.gamma)``:
    position j's subcurve A_j is the side below node p_j, whose other end
    is C_(j)'s parent.  Each defect is read from the split table, an
    integer over the weights' common denominator D:
    delta_j D = (1 - G_j) D - W_j (1 - p_a).  A row's side holds the
    node's smaller-id endpoint; only a side that is the complement of A_j
    is built as a new set.
    """
    return _SplitTable(curve, omega).goodness()


class _SplitTable:
    """Each A_j's weight numerator W_j over ``denominator`` and genus sum G_j, by position.

    The root's entries, last, are the whole curve's.  Without a
    decomposition the table is the goodness proxy's: the walk from the
    last component, then omega's length check.  A decomposition handed in
    is checked in `components.stability_windows`' order.  ``ends`` (node
    id -> its two components) gives the tree and each proxy row's side.
    """

    def __init__(
        self, curve: NodalCurve, omega: Polarization, deco: OrderedDecomposition | None = None
    ) -> None:
        from .ordering import _read_tree, order_components

        curve.require_compact_type()
        if deco is None:
            deco = order_components(curve, curve.gamma)
            _check_lengths(curve, omega)
        if not len(deco.subcurves) == len(deco.separating_nodes) == curve.gamma - 1:
            raise ValueError(
                f"decomposition has {len(deco.subcurves)} subcurves and "
                f"{len(deco.separating_nodes)} separating nodes for {curve.gamma} "
                f"components; each must number {curve.gamma - 1}"
            )
        order, subcurves = deco.order, deco.subcurves
        ends = {n.id: (n.first, n.second) for n in curve.nodes}
        fault = None
        try:
            children = _read_tree(deco, ends)
        except ValueError as exc:
            fault = exc
        # a decomposition holds only known ids in its subcurves, none empty
        if fault is not None or len(omega) != curve.gamma:
            for j, A in enumerate(subcurves, start=1):  # weight, then ids, then the count
                omega.subcurve_weight(A)
                curve.check_subcurve(A)
                if j == 1:
                    _check_lengths(curve, omega)
        if fault is not None:
            raise fault
        genera = (0, *curve.genera)  # padded like the numerators: index = component id
        weight = [omega._numerators[c] for c in order]
        genus = [genera[c] for c in order]
        for p, kids in enumerate(children):
            for c in kids:
                weight[p] += weight[c]
                genus[p] += genus[c]
        self.curve, self.deco, self.children, self.ends = curve, deco, children, ends
        self.weights, self.genera = weight, genus
        self.denominator, self.pa = omega._denominator, curve.arithmetic_genus()

    def goodness(self) -> GoodnessReport:
        """The goodness proxy's rows: delta_j D = (1 - G_j) D - W_j (1 - p_a) per split."""
        deco, D, ends = self.deco, self.denominator, self.ends
        everything = frozenset(self.curve.component_ids)
        rows = []
        for c, side, nid, w, g in zip(
            deco.order, deco.subcurves, deco.separating_nodes, self.weights, self.genera
        ):
            num = (1 - g) * D - w * (1 - self.pa)
            if ends[nid][1] == c:  # the parent is the smaller end: the defects add up to 1
                num = D - num
                side = everything - side
            rows.append(SplitDefect(nid, side, Fraction(num, D), 0 < num < D))
        rows.sort(key=lambda row: row.node)
        return GoodnessReport(passed=all(row.ok for row in rows), splits=tuple(rows))

    def require_good(self) -> _SplitTable:
        """This table, once omega passes the proxy; `bn certify`'s hard error otherwise."""
        good = self.goodness()
        if not good.passed:
            bad = [row for row in good.splits if not row.ok]
            raise PolarizationError(
                "polarization fails the goodness proxy at node(s) "
                + ", ".join(f"{row.node} (defect {row.defect})" for row in bad)
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


def _exact(values: Iterable[Fraction | int], what: str) -> tuple[Fraction, ...]:
    """The values as Fractions; only an int or a Fraction is exact enough to take."""
    out = []
    for i, v in enumerate(values, start=1):
        if not isinstance(v, Fraction):
            try:
                v = operator.index(v)
            except TypeError:
                raise PolarizationError(
                    f"{what} {i} is {v!r}; it must be an integer or a Fraction"
                ) from None
        out.append(Fraction(v))
    return tuple(out)


def _check_lengths(curve: NodalCurve, omega: Polarization) -> None:
    if len(omega) != curve.gamma:
        raise PolarizationError(
            f"polarization has {len(omega)} weights for {curve.gamma} components"
        )
