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
complement; in particular every one-node split scores exactly 1/2.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .curve import NodalCurve, _Frozen


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
        ws = tuple(Fraction(w) for w in weights)
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
    return _defect(curve.genus_sum(B), omega.subcurve_weight(B), curve.arithmetic_genus())


def _defect(genus: int, weight: Fraction, pa: int) -> Fraction:
    return 1 - genus - weight * (1 - pa)


def goodness_proxy(curve: NodalCurve, omega: Polarization) -> GoodnessReport:
    """Check 0 < defect < 1 on every one-node split of a tree curve.

    This is the decidable slice of goodness used by the certification
    pipeline; it does not quantify over all depth-one subsheaves.

    One rooted pass sums the weight numerators and genera up the tree, so
    each split's defect is an integer over the weights' common denominator.
    A row's side holds the node's smaller-id endpoint, as in
    ``NodalCurve.edge_splits``; only a side that is the complement of a
    subtree is built as a new set.
    """
    branches = curve.branches(curve.gamma)
    _check_lengths(curve, omega)
    pa = curve.arithmetic_genus()
    denominator = omega._denominator
    weight = list(omega._numerators)  # grows into subtree sums, 1-based
    genus = [0, *curve.genera]
    everything = frozenset(curve.component_ids)
    rows = []
    for b in branches:  # a subtree's sums are complete when its branch comes
        w, g = weight[b.component], genus[b.component]
        weight[b.parent] += w
        genus[b.parent] += g
        num = (1 - g) * denominator - w * (1 - pa)
        side = b.subtree
        if b.parent < b.component:  # on a tree the two defects add up to 1
            num = denominator - num
            side = everything - side
        rows.append(
            SplitDefect(b.node, side, Fraction(num, denominator), 0 < num < denominator)
        )
    rows.sort(key=lambda row: row.node)
    return GoodnessReport(passed=all(row.ok for row in rows), splits=tuple(rows))


def perturb(omega: Polarization, eps: Sequence[Fraction | int]) -> Polarization:
    """Shift weights by eps; the entries of eps must sum to exactly 0."""
    if len(eps) != len(omega):
        raise PolarizationError(
            f"perturbation has {len(eps)} entries for {len(omega)} weights"
        )
    es = tuple(Fraction(e) for e in eps)
    total = sum(es)
    if total != 0:
        raise PolarizationError(f"perturbation entries sum to {total}, not 0")
    return Polarization(tuple(w + e for w, e in zip(omega.weights, es)))


def _check_lengths(curve: NodalCurve, omega: Polarization) -> None:
    if len(omega) != curve.gamma:
        raise PolarizationError(
            f"polarization has {len(omega)} weights for {curve.gamma} components"
        )
