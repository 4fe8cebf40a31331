"""Brill-Noether numbers, bounds, and nonemptiness certificates.

The expected dimension for rank r, degree d and k sections on a curve of
arithmetic genus p_a is

    beta = r^2 (p_a - 1) + 1 - k (k - d + r (p_a - 1)),

and the certification pipeline realizes it as an exact sum: a moduli
component of rank-s stable bundles of dimension s^2 (p_a - 1) + 1, plus a
Grassmannian fiber of dimension k (h1 - k) with h1 = d + s (p_a - 1),
where r = s + k.  The identity

    beta = [s^2 (p_a - 1) + 1] + k (h1 - k)

is an algebraic fact for all integer inputs; a certificate additionally
witnesses the hypotheses that make the count meaningful: a compact-type
curve, a polarization passing the goodness proxy, k <= 1 + s(g_i - 1) on
every component, and a small-slope degree tuple in the rank-s catalog.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .curve import NodalCurve
from .ordering import OrderedDecomposition, order_components
from .polarization import Polarization, PolarizationError, canonical, goodness_proxy

if TYPE_CHECKING:
    from .components import ComponentTuple


class Verdict(NamedTuple):
    ok: bool
    failures: tuple[str, ...] = ()


class ComponentBound(NamedTuple):
    component: int
    bound: Fraction
    ok: bool


class ChecklistItem(NamedTuple):
    name: str
    ok: bool
    detail: str


class BNCertificate(NamedTuple):
    """Machine-checkable record of a nonempty Brill-Noether component."""

    gamma: int
    genera: tuple[int, ...]
    arithmetic_genus: int
    weights: tuple[Fraction, ...]
    s: int
    k: int
    d: int
    r: int
    degree_tuple: ComponentTuple
    checklist: tuple[ChecklistItem, ...]
    beta: int
    moduli_dim: int
    h1_dual: int
    fiber_dim: int
    identity_ok: bool


class CertificationFailure(NamedTuple):
    """Named hypothesis failures; no certificate was produced."""

    checklist: tuple[ChecklistItem, ...]

    @property
    def failed(self) -> tuple[ChecklistItem, ...]:
        return tuple(item for item in self.checklist if not item.ok)


class ScanRow(NamedTuple):
    shape: str
    gamma: int
    genera: tuple[int, ...]
    s: int
    d: int
    k: int
    certified: bool
    beta: int

    @property
    def status(self) -> str:
        return "CERTIFIED" if self.certified else "OPEN"


def bn_number(pa: int, r: int, d: int, k: int) -> int:
    """Expected dimension r^2(p_a-1) + 1 - k(k - d + r(p_a-1))."""
    return r * r * (pa - 1) + 1 - k * (k - d + r * (pa - 1))


def bgn_bounds(pa: int, r: int, d: int, k: int) -> Verdict:
    """Existence bounds for rank r, degree d, k sections at genus p_a."""
    if r < 2:
        raise ValueError(f"rank must be >= 2, got {r}")
    if k < 1:
        raise ValueError(f"section count k must be >= 1, got {k}")
    failures = []
    if d <= 0:
        failures.append(f"degree {d} must be positive")
    if k >= r:
        failures.append(f"sections k = {k} must stay below rank {r}")
    if r > d + (r - k) * pa:
        failures.append(f"rank bound fails: {r} > {d} + ({r}-{k})*{pa} = {d + (r - k) * pa}")
    return Verdict(ok=not failures, failures=tuple(failures))


def per_component_bgn(
    r: int, k: int, degrees: Sequence[int], genera: Sequence[int]
) -> tuple[ComponentBound, ...]:
    """Per-component bound k <= (d_i + r(g_i - 1)) / g_i, exact rationals."""
    if len(degrees) != len(genera):
        raise ValueError(
            f"{len(degrees)} degrees against {len(genera)} genus values"
        )
    out = []
    for i, (d_i, g_i) in enumerate(zip(degrees, genera), start=1):
        bound = Fraction(d_i + r * (g_i - 1), g_i)
        out.append(ComponentBound(component=i, bound=bound, ok=k <= bound))
    return tuple(out)


def certify_bn_component(
    curve: NodalCurve, omega: Polarization, s: int, k: int, d: int
) -> BNCertificate | CertificationFailure:
    """Certify a nonempty Brill-Noether locus of rank r = s + k.

    Hard errors (exceptions): curve not of compact type, or the
    polarization failing the goodness proxy.  Hypothesis failures (the
    per-component k bound, or no small-slope tuple at rank s and degree
    d) return a failure report naming each failed item.
    """
    curve.require_compact_type()
    if s < 1:
        raise ValueError(f"rank s must be >= 1, got {s}")
    if k < 1:
        raise ValueError(f"section count k must be >= 1, got {k}")
    _require_good(curve, omega)
    deco = order_components(curve, curve.gamma)
    return _certify_cell(curve, omega, s, k, d, *_small_slope_cell(curve, omega, deco, s, d))


def _require_good(curve: NodalCurve, omega: Polarization) -> None:
    good = goodness_proxy(curve, omega)
    if not good.passed:
        bad = [row for row in good.splits if not row.ok]
        raise PolarizationError(
            "polarization fails the goodness proxy at node(s) "
            + ", ".join(f"{row.node} (defect {row.defect})" for row in bad)
        )


def _small_slope_cell(
    curve: NodalCurve, omega: Polarization, deco: OrderedDecomposition, s: int, d: int
) -> tuple[ComponentTuple | None, int]:
    """The least small-slope tuple at rank s and degree d, and how many there are."""
    from .components import SmallSlopeSearch, stability_windows

    search = SmallSlopeSearch(stability_windows(curve, omega, deco, s, d))
    return search.first(), search.count()


def _certify_cell(
    curve: NodalCurve,
    omega: Polarization,
    s: int,
    k: int,
    d: int,
    chosen: ComponentTuple | None,
    count: int,
) -> BNCertificate | CertificationFailure:
    """Checklist and certificate for k sections, given the cell's small-slope answer."""
    checklist = [
        ChecklistItem("compact_type", True, f"tree with {curve.gamma} components"),
        ChecklistItem(
            "goodness_proxy",
            True,
            "every one-node split defect strictly between 0 and 1",
        ),
    ]

    k_bound_ok = True
    details = []
    for i in curve.component_ids:
        cap = 1 + s * (curve.genus(i) - 1)
        ok = k <= cap
        k_bound_ok = k_bound_ok and ok
        if not ok:
            details.append(f"component {i}: k = {k} > 1 + s(g-1) = {cap}")
    checklist.append(
        ChecklistItem(
            "section_bound",
            k_bound_ok,
            "; ".join(details) if details else f"k = {k} <= 1 + s(g_i - 1) on every component",
        )
    )

    tuple_ok = chosen is not None
    checklist.append(
        ChecklistItem(
            "small_slope_tuple",
            tuple_ok,
            f"first of {count} small-slope tuples: {chosen.degrees}"
            if tuple_ok
            else f"no rank-{s} degree-{d} tuple with every degree in 1..{s}",
        )
    )
    if not (k_bound_ok and tuple_ok):
        return CertificationFailure(checklist=tuple(checklist))

    r = s + k
    per_comp = per_component_bgn(r, k, chosen.degrees, curve.genera)
    checklist.append(
        ChecklistItem(
            "per_component_degree_bound",
            all(c.ok for c in per_comp),
            "; ".join(f"component {c.component}: k <= {c.bound}" for c in per_comp),
        )
    )
    degree_range_ok = all(0 < x <= r for x in chosen.degrees)
    checklist.append(
        ChecklistItem(
            "degree_range",
            degree_range_ok,
            f"every degree in 1..{r}",
        )
    )
    if not all(item.ok for item in checklist):
        return CertificationFailure(checklist=tuple(checklist))

    pa = curve.arithmetic_genus()
    beta = bn_number(pa, r, d, k)
    moduli_dim = s * s * (pa - 1) + 1
    h1_dual = d + s * (pa - 1)
    fiber_dim = k * (h1_dual - k)
    return BNCertificate(
        gamma=curve.gamma,
        genera=curve.genera,
        arithmetic_genus=pa,
        weights=omega.weights,
        s=s,
        k=k,
        d=d,
        r=r,
        degree_tuple=chosen,
        checklist=tuple(checklist),
        beta=beta,
        moduli_dim=moduli_dim,
        h1_dual=h1_dual,
        fiber_dim=fiber_dim,
        identity_ok=beta == moduli_dim + fiber_dim,
    )


def max_section_count(curve: NodalCurve, s: int) -> int:
    """Largest k with k*g_i <= 1 + s(g_i - 1) on every component."""
    return min((1 + s * (g - 1)) // g for g in curve.genera)


def conjecture_scan(curves: Iterable[NodalCurve], s_values: Iterable[int]) -> list[ScanRow]:
    """Certify every in-hypothesis (curve, s, d, k) cell; flag the rest OPEN.

    The grid per curve: every s in ``s_values`` with 2(gamma-1) <= s, every
    d with gamma <= d <= s, and every k from 1 to `max_section_count`, the
    largest k with k g_i <= 1 + s(g_i - 1) on every component.  Cells
    outside it are skipped, never reported.  A cell whose certification
    fails is OPEN; nothing here ever claims a refutation.
    """
    s_values = tuple(s_values)
    rows = []
    for curve in curves:
        curve.require_compact_type()
        gamma = curve.gamma
        eta = canonical(curve)
        shape = curve.classify().value
        # certify's hard error, once per curve; canonical split defects are all 1/2
        _require_good(curve, eta)
        deco = order_components(curve, curve.gamma)
        for s in s_values:
            if s < max(1, 2 * (gamma - 1)):
                continue
            ks = range(1, max_section_count(curve, s) + 1)  # nonempty: every g_i >= 2
            for d in range(gamma, s + 1):
                cell = _small_slope_cell(curve, eta, deco, s, d)
                for k in ks:
                    result = _certify_cell(curve, eta, s, k, d, *cell)
                    rows.append(
                        ScanRow(
                            shape=shape,
                            gamma=gamma,
                            genera=curve.genera,
                            s=s,
                            d=d,
                            k=k,
                            certified=isinstance(result, BNCertificate),
                            beta=bn_number(curve.arithmetic_genus(), s + k, d, k),
                        )
                    )
    rows.sort(key=lambda r: (r.gamma, r.genera, r.s, r.d, r.k))
    return rows
