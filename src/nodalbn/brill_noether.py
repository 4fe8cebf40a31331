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

from ._record import Record, _integer

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Iterable, Sequence
    from fractions import Fraction

    from .components import ComponentTuple
    from .curve import NodalCurve
    from .polarization import Polarization


class Verdict(Record):
    ok: bool
    failures: tuple[str, ...] = ()


class ComponentBound(Record):
    component: int
    bound: Fraction
    ok: bool


class ChecklistItem(Record):
    name: str
    ok: bool
    detail: str


class BNCertificate(Record):
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


class CertificationFailure(Record):
    """Named hypothesis failures; no certificate was produced."""

    checklist: tuple[ChecklistItem, ...]

    @property
    def failed(self) -> tuple[ChecklistItem, ...]:
        return tuple(item for item in self.checklist if not item.ok)


class ScanRow(Record):
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
    """Expected dimension r^2(p_a-1) + 1 - k(k - d + r(p_a-1)).

    Each argument is read through `operator.index`: anything else raises
    ValueError naming it.
    """
    return _beta(
        _integer(pa, "arithmetic genus pa"),
        _integer(r, "rank r"),
        _integer(d, "degree d"),
        _integer(k, "section count k"),
    )


def _beta(pa: int, r: int, d: int, k: int) -> int:
    """`bn_number` on arguments already read as ints."""
    return r * r * (pa - 1) + 1 - k * (k - d + r * (pa - 1))


def bgn_bounds(pa: int, r: int, d: int, k: int) -> Verdict:
    """Existence bounds for rank r, degree d, k sections at genus p_a.

    Each argument is read through `operator.index` first: anything else
    raises ValueError naming it.
    """
    pa, r = _integer(pa, "arithmetic genus pa"), _integer(r, "rank r")
    d, k = _integer(d, "degree d"), _integer(k, "section count k")
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
    """Per-component bound k <= (d_i + r(g_i - 1)) / g_i, exact rationals.

    r, k, the degrees and the genera are read through `operator.index`:
    anything else raises ValueError naming them, as does a genus below 1,
    naming its component.
    """
    from fractions import Fraction

    from .curve import _integers

    r, k = _integer(r, "rank r"), _integer(k, "section count k")
    degrees = _integers(degrees, "degrees", ValueError)
    genera = _integers(genera, "genera", ValueError)
    if len(degrees) != len(genera):
        raise ValueError(
            f"{len(degrees)} degrees against {len(genera)} genus values"
        )
    out = []
    for i, (d_i, g_i) in enumerate(zip(degrees, genera), start=1):
        if g_i < 1:
            raise ValueError(f"component {i} has genus {g_i}; each genus must be >= 1")
        bound = Fraction(d_i + r * (g_i - 1), g_i)
        out.append(ComponentBound(i, bound, k <= bound))
    return tuple(out)


def certify_bn_component(
    curve: NodalCurve, omega: Polarization, s: int, k: int, d: int
) -> BNCertificate | CertificationFailure:
    """Certify a nonempty Brill-Noether locus of rank r = s + k.

    Hard errors (exceptions): curve not of compact type, or the
    polarization failing the goodness proxy.  Hypothesis failures (the
    per-component k bound, or no small-slope tuple at rank s and degree
    d) return a failure report naming each failed item.  s, k and d are
    read through `operator.index` first: anything else raises ValueError
    naming the argument.

    The checklist, in order: compact_type and goodness_proxy (past the
    hard errors, both pass); section_bound, k <= 1 + s(g_i - 1) on every
    component; small_slope_tuple, the least catalog tuple with every
    degree in 1..s, and how many there are; then, once those two pass,
    per_component_degree_bound, `per_component_bgn`'s k g_i <= d_i +
    r(g_i - 1) on the tuple's degrees d_i, and degree_range, 0 < d_i <= r.
    The last two follow from the two before: with 1 <= d_i <= s,
    k <= 1 + s(g_i - 1) gives k <= d_i + s(g_i - 1), which is
    k g_i <= d_i + r(g_i - 1), and d_i <= s < r.  Each still prints the
    verdict it computes, so a certificate's six rows pass because each
    was checked.
    """
    from .components import WindowTable
    from .polarization import _SplitTable

    s, k, d = _integer(s, "rank s"), _integer(k, "section count k"), _integer(d, "degree d")
    curve.require_compact_type()
    if s < 1:
        raise ValueError(f"rank s must be >= 1, got {s}")
    if k < 1:
        raise ValueError(f"section count k must be >= 1, got {k}")
    table = WindowTable(_SplitTable(curve, omega).require_good(), s, d)
    chosen = table.first_small_slope()
    over = [
        f"component {i}: k = {k} > 1 + s(g-1) = {1 + s * (g - 1)}"
        for i, g in zip(curve.component_ids, curve.genera)
        if k > 1 + s * (g - 1)
    ]
    checklist = [
        ChecklistItem("compact_type", True, f"tree with {curve.gamma} components"),
        ChecklistItem(
            "goodness_proxy",
            True,
            "every one-node split defect strictly between 0 and 1",
        ),
        ChecklistItem(
            "section_bound",
            not over,
            "; ".join(over) or f"k = {k} <= 1 + s(g_i - 1) on every component",
        ),
    ]
    if chosen is None:
        detail = f"no rank-{s} degree-{d} tuple with every degree in 1..{s}"
    else:  # counted only here, where it is printed
        detail = f"first of {table.count_small_slope()} small-slope tuples: {chosen.degrees}"
    checklist.append(ChecklistItem("small_slope_tuple", chosen is not None, detail))
    if over or chosen is None:
        return CertificationFailure(checklist=tuple(checklist))

    r, degrees = s + k, chosen.degrees
    per_comp = per_component_bgn(r, k, degrees, curve.genera)
    checklist.append(
        ChecklistItem(
            "per_component_degree_bound",
            all(c.ok for c in per_comp),
            "; ".join(f"component {c.component}: k <= {c.bound}" for c in per_comp),
        )
    )
    checklist.append(
        ChecklistItem(
            "degree_range", 0 < min(degrees) and max(degrees) <= r, f"every degree in 1..{r}"
        )
    )
    pa = curve.arithmetic_genus()
    beta = _beta(pa, r, d, k)
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
    """Largest k with k*g_i <= 1 + s(g_i - 1) on every component.

    That is `per_component_bgn`'s test k g_i <= d_i + r(g_i - 1) at r = s
    and d_i = 1, stricter than section_bound's k <= 1 + s(g_i - 1).  Which
    bound the paper uses is not confirmed: the repository has its abstract only.
    s is read through `operator.index` first: anything else raises
    ValueError.
    """
    s = _integer(s, "rank s")
    return min((1 + s * (g - 1)) // g for g in curve.genera)


def conjecture_scan(curves: Iterable[NodalCurve], s_values: Iterable[int]) -> list[ScanRow]:
    """Decide every in-hypothesis (curve, s, d, k) cell; flag the rest OPEN.

    The grid per curve: every s in ``s_values`` with 2(gamma-1) <= s, every
    d with gamma <= d <= s, and every k from 1 to `max_section_count`, the
    largest k with k g_i <= 1 + s(g_i - 1) on every component (by algebra
    `per_component_bgn`'s test at r = s and d_i = 1; see there).  Cells
    outside it are skipped, never reported.  A cell is CERTIFIED exactly
    when `bn certify` would certify it, and inside the grid that is
    exactly when some small-slope tuple exists: k g_i <= 1 + s(g_i - 1)
    gives the section bound, and the section bound with a small-slope
    tuple gives the two degree rows (see `certify_bn_component`).  The
    s values are read as ints once, up front.  Per curve the
    scan builds one split table, and per (s, d) one window table, which
    tests existence with one pass up the tree (`has_small_slope`) and
    gives every k of the cell that verdict; per row it computes only
    beta.  No tuple is listed or counted, and no checklist or certificate
    is built.  A cell that fails is OPEN; nothing here ever claims a
    refutation.
    """
    from operator import itemgetter  # loaded already, under fractions

    from .components import WindowTable
    from .curve import _integers
    from .polarization import _SplitTable, canonical

    s_values = _integers(s_values, "s values", ValueError)
    rows = []
    for curve in curves:
        curve.require_compact_type()
        gamma, genera, pa = curve.gamma, curve.genera, curve.arithmetic_genus()
        eta = canonical(curve)
        shape = curve.classify().value
        # certify's hard error and split table, once per curve; canonical defects are all 1/2
        splits = _SplitTable(curve, eta).require_good()
        for s in s_values:
            if s < max(1, 2 * (gamma - 1)):
                continue
            ks = range(1, max_section_count(curve, s) + 1)  # nonempty: every g_i >= 2
            for d in range(gamma, s + 1):
                certified = WindowTable(splits, s, d).has_small_slope()
                for k in ks:
                    beta = _beta(pa, s + k, d, k)
                    rows.append(ScanRow(shape, gamma, genera, s, d, k, certified, beta))
    rows.sort(key=itemgetter(1, 2, 3, 4, 5))  # (gamma, genera, s, d, k), ScanRow's fields 1-5
    return rows
