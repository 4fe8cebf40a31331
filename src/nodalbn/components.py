"""Moduli components of semistable sheaves of uniform rank on a tree curve.

For a fixed rank s >= 1 and total degree d, the candidate components are
indexed by integer degree tuples (d_1, ..., d_gamma) summing to d.  A
tuple belongs to the catalog exactly when, for every separating subcurve
A_j of an ordered decomposition, the partial sum sigma_j = sum of d_i
over A_j lies strictly inside an interval of width exactly s:

    wrank(O_Aj) d - s defect(O_Aj)  <  sigma_j  <  wrank(O_Aj) d + s (1 - defect(O_Aj)).

At the canonical polarization every defect is 1/2 and the bounds collapse
to wrank(O_Aj) d -+ s/2.  Written with w_j = wrank(O_Aj), g_j the genus
sum over A_j and coeff = d + s(1 - p_a), the lower bound is
w_j coeff + s(g_j - 1).

A table keeps every bound as an integer numerator over the
polarization's lcm D, so a catalog row is integer work: sigma_j is a
subtree sum of the degrees (O(gamma) for all j), a window holds when its
lower numerator < sigma_j D < its upper numerator, and the robustness
radius is the least slack_j / |A_j| over the windows.  With L the lcm of
the |A_j|, `WindowTable.slack_key` gives window j's slack times L / |A_j|,
an integer that depends on sigma_j alone; the least key picks the
binding window (ties go to the smallest j) and fixes the radius, key /
(D |coeff| L).  So a printed catalog formats each (window, sigma_j) cell
and each distinct radius once, and the bounds become Fractions only where
they are printed.

The window table answers every catalog question, all but its size and
whether a small-slope tuple exists by one search.  Component in position
i lies in A_j only for i <= j, position j itself always does, and the
A_j of a tree are nested or
disjoint, so they are the subtrees of a rooted tree on the positions:
A_j's children are the positions whose node joins them to C_(j), read
from a walk's parent positions or from a valid decomposition's
separating nodes.  One split table per walk or decomposition
(`polarization._SplitTable`) reads the tree once and keeps A_j's weight
numerator W_j over the polarization's lcm D and its defect numerator
delta_j D, so window j's lower bound is (W_j d - s delta_j D) / D.  A
dynamic program over subtree sums counts the tuples whose position-p
degree lies in a range: f_v[sigma] counts the ways to fill the subtree
of v so that every window inside it holds.  It is the convolution of the
children's tables with the ones of v's own range, trimmed to the sums
narrowing leaves v's subtree; the count is f_root[d], in O(gamma s^2)
integer operations for ranges 1..s and bounded branching.  Each f_v is
positive on exactly one interval (a sum of intervals cut by an
interval), so whether a partial assignment still has a completion is
interval arithmetic over the tree, O(gamma), and one more pass from the
root down narrows every position's range and every subtree's sums to
exactly those some tuple takes.  `WindowTable._narrow` is both passes;
the count sizes its tables from its sums, and a printed catalog formats
its cells over them.  The up-pass alone (`WindowTable._reach`) decides
whether any tuple exists, since the root's window is (d, d): that is
`has_small_slope`, which `bn scan` asks of every (s, d) cell.  One
search (`WindowTable._tuples`) lists the
tuples in increasing order: ids 1..gamma take their degrees in turn
within the narrowed ranges, each choice narrowed again, so no branch is
a dead end and its cost follows the number of tuples, not s^(gamma-1).
It keeps only its choices, one per branching id, and backtracks by
narrowing the start again with them fixed: narrowing is exact, so these
are the ranges a copy per choice would have kept, and its state is
O(gamma).  The least tuple is the search's first.

Small-slope questions take every range to be 1..s.  The whole catalog
takes the widest ranges the windows allow: with integer windows [lo, hi]
and the root's window (d, d), position p may take degrees
[lo_p - sum of the children's hi, hi_p - sum of the children's lo].  The
subtree sums then reach exactly the integer windows, and since they fix
the degrees, `WindowTable.size` is the product of the window widths,
read from the windows alone with no search.

The catalog is the same for every root choice.  Each A_j is one side of
its separating node, and on a tree the two sides of a node have weights
that add up to 1 and defects that add up to 1, so the window on A is the
reflection (d - upper, d - lower) of the window on its complement.
`catalog_invariance_check` confirms this node by node: every root's
windows must equal the first root's or their reflections, one lookup of
integer bounds per window per root, keyed by the node and its end on the
subcurve's side.  It enumerates catalogs only for a root whose windows
disagree, to list the tuples one side has and the other lacks.

The builders construct one small-slope catalog member directly (without
enumeration) whenever their hypotheses hold, always at the canonical
polarization and reading s and d as `bn certify` does: a three-case
general construction, a stepwise recurrence for chains picking the
smallest feasible prefix sum, and a grip-weighted assignment for combs.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Iterator
from fractions import Fraction
from functools import cached_property, total_ordering
from itertools import accumulate

from ._record import Record, _integer
from .curve import CurveClass, HypothesisError, NodalCurve, _Frozen, _integers
from .ordering import OrderedDecomposition, _walk
from .polarization import Polarization, _SplitTable, canonical

DEFAULT_WITNESS_MULTIPLIER = Fraction(1001, 1000)


@total_ordering
class ComponentTuple(_Frozen):
    """Uniform rank together with one degree per component (id order).

    Tuples order by (rank, degrees).
    """

    __match_args__ = ("rank", "degrees")
    rank: int
    degrees: tuple[int, ...]

    def __init__(self, rank: int, degrees: Iterable[int]) -> None:
        rank = _integer(rank, "rank")
        if rank < 1:
            raise ValueError(f"rank must be >= 1, got {rank}")
        degrees = _integers(degrees, "degrees", ValueError)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "degrees", degrees)

    def __lt__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.rank, self.degrees) < (other.rank, other.degrees)

    @property
    def total(self) -> int:
        return sum(self.degrees)


class StabilityRow(Record):
    j: int
    subcurve: frozenset[int]
    node: int
    lower: Fraction
    partial_sum: int
    upper: Fraction
    ok: bool
    slack_lower: Fraction
    slack_upper: Fraction


class StabilityReport(Record):
    passed: bool
    rows: tuple[StabilityRow, ...]


class RootMismatch(Record):
    root: int
    missing: tuple[ComponentTuple, ...]
    extra: tuple[ComponentTuple, ...]


class InvarianceReport(Record):
    """Root-invariance verdict; ``count`` is the first root's catalog size."""

    passed: bool
    count: int
    mismatches: tuple[RootMismatch, ...]


class BuilderResult(Record):
    """Construction outcome: which case fired and the tuple it produced."""

    case: str
    tuple: ComponentTuple


class Witness(Record):
    """Perturbation aimed at the binding stability bound of a tuple."""

    epsilon: tuple[Fraction, ...]
    j: int
    side: str


class Window(Record):
    """Open window lower < sigma_j < upper for the degree sum over A_j."""

    j: int
    subcurve: frozenset[int]
    node: int
    lower: Fraction
    upper: Fraction


# `_narrow`'s pair: each position's degree span and its subtree's sum span
_Narrowed = tuple[list[tuple[int, int]], list[tuple[int, int]]]


class WindowTable(_Frozen):
    """Every window of one decomposition at rank s and degree d, from its split table.

    Window k is ``lowers[k] / denominator < sigma < uppers[k] / denominator``
    over the polarization's lcm D: ``lowers[k]`` = W_k d - s delta_k D from
    the split table's weights and defects, and ``uppers[k]`` = that + s D;
    ``coeff`` = d + s(1 - p_a) is how far both bounds move per unit of
    weight moved into A_k.  ``splits`` is
    the split table (``order`` its order, root last, and ``children`` the
    tree of subcurves it read).  `sums`, `slack_key` and `binding` are
    integer work, and `_scales` reads the |A_j| as integers.  ``windows``,
    the bounds as reduced Fractions with each A_j a set, is built on first
    use: by repr, equality and hash, and by a caller that asks for it.
    `check` rows build their A_j one row at a time (`_rows`).

    The table answers every catalog question: `catalog`, `degree_tuples`,
    `first_small_slope`, `has_small_slope`, `count_small_slope` and
    `size`.  `has_small_slope` is the up-pass alone (`_reach`) over the
    ranges 1..s: whether a tuple exists, with no search.  The others but
    `size` narrow the ranges `_ranges` gives (`_narrow`, which starts with
    that pass) and run one search (`_tuples`, `_count`) over what that
    returns.  `_tuples` keeps its choices, not a copy of the ranges per
    choice, and re-narrows to backtrack.
    """

    __match_args__ = ("rank", "degree", "coeff", "windows", "order")
    rank: int
    degree: int
    coeff: int
    order: tuple[int, ...]
    splits: _SplitTable
    children: list[list[int]]
    denominator: int
    lowers: tuple[int, ...]
    uppers: tuple[int, ...]

    def __init__(self, splits: _SplitTable, s: int, d: int) -> None:
        D = splits.denominator
        lowers = tuple(w * d - s * delta for w, delta in zip(splits.weights[:-1], splits.defects))
        object.__setattr__(self, "rank", s)
        object.__setattr__(self, "degree", d)
        object.__setattr__(self, "coeff", d + s * (1 - splits.pa))
        object.__setattr__(self, "order", splits.order)
        object.__setattr__(self, "splits", splits)
        object.__setattr__(self, "children", splits.children)
        object.__setattr__(self, "denominator", D)
        object.__setattr__(self, "lowers", lowers)
        object.__setattr__(self, "uppers", tuple(lo + s * D for lo in lowers))

    @cached_property
    def windows(self) -> tuple[Window, ...]:
        """The windows as `Window` records with reduced Fraction bounds, each A_j a set."""
        D, splits = self.denominator, self.splits
        return tuple(
            Window(k + 1, splits.subcurve(k), p, Fraction(lo, D), Fraction(hi, D))
            for k, (p, lo, hi) in enumerate(zip(splits.nodes, self.lowers, self.uppers))
        )

    def sums(self, ctuple: ComponentTuple) -> list[int]:
        """sigma_j of every window, in window order: subtree sums, O(gamma)."""
        gamma = len(self.order)
        if (len(ctuple.degrees), ctuple.rank, ctuple.total) != (gamma, self.rank, self.degree):
            raise ValueError(
                f"tuple {ctuple} does not fit the windows of rank {self.rank}, "
                f"degree {self.degree} on {gamma} components"
            )
        return self._subtree_sums(ctuple.degrees)

    @cached_property
    def _plan(self) -> list[tuple[int, list[int]]]:
        """(index of the component in a degree tuple, children) per window; the root's sum is d."""
        return [(comp - 1, kids) for comp, kids in zip(self.order, self.children)][:-1]

    def _subtree_sums(self, degrees: tuple[int, ...]) -> list[int]:
        """sigma_j of every window for degrees in id order, unchecked: one pass up the tree."""
        out: list[int] = []
        for i, kids in self._plan:
            sigma = degrees[i]
            for c in kids:
                sigma += out[c]
            out.append(sigma)
        return out

    def check(self, ctuple: ComponentTuple) -> StabilityReport:
        """Evaluate every window condition for one tuple, as `Fraction` rows.

        The verdicts are integer comparisons; the bounds and slacks are
        built as Fractions for the report.
        """
        rows = tuple(self._rows(self.sums(ctuple)))
        return StabilityReport(passed=all(r.ok for r in rows), rows=rows)

    def _rows(self, sums: list[int]) -> Iterator[StabilityRow]:
        """`check`'s rows for a tuple's sigma_j, each A_j built as its row is made."""
        D, splits = self.denominator, self.splits
        for k, (p, sigma, lo, hi) in enumerate(zip(splits.nodes, sums, self.lowers, self.uppers)):
            x = sigma * D
            yield StabilityRow(
                k + 1, splits.subcurve(k), p, Fraction(lo, D), sigma, Fraction(hi, D),
                lo < x < hi, Fraction(x - lo, D), Fraction(hi - x, D),
            )

    @cached_property
    def _scales(self) -> tuple[int, tuple[int, ...]]:
        """L = lcm of the |A_j|, and L / |A_j| per window."""
        sizes = self.splits.sizes
        L = math.lcm(*sizes)
        return L, tuple(L // size for size in sizes)

    def slack_key(self, k: int, sigma: int) -> int:
        """Window k's slack at sigma_k = sigma, as a numerator over D, times L / |A_k|.

        The slack is min(sigma - lower, upper - sigma) and L is the lcm of
        the |A_j|, so keys order slack_j / |A_j| across windows in
        integers.  A sigma outside window k raises `HypothesisError`.
        """
        D, lo, hi = self.denominator, self.lowers[k], self.uppers[k]
        x = sigma * D
        if not lo < x < hi:
            raise HypothesisError(
                f"tuple fails condition {k + 1}: "
                f"{Fraction(lo, D)} < {sigma} < {Fraction(hi, D)} is false"
            )
        return min(x - lo, hi - x) * self._scales[1][k]

    def radius_at(self, key: int) -> Fraction | None:
        """The radius whose least `slack_key` is key: key / (D |coeff| L).

        None means unbounded: coeff = 0, so that the bounds do not move.
        """
        if self.coeff == 0:
            return None
        return Fraction(key, self.denominator * abs(self.coeff) * self._scales[0])

    def binding(self, sums: list[int]) -> tuple[int, Fraction] | None:
        """Index k and value of the least slack / (|coeff| |A_j|) over the windows.

        ``sums`` are a tuple's sigma_j (`sums`).  Window k's `slack_key`
        depends on sigma_k alone, the least key binds, ties go to the
        smallest j, and the one `Fraction` built is the value (`radius_at`).
        A failing window raises `HypothesisError`, in window order.  None
        means unbounded: no windows (gamma = 1), or coeff = 0.
        """
        keys = [self.slack_key(k, sigma) for k, sigma in enumerate(sums)]
        if not keys or self.coeff == 0:
            return None
        k = min(range(len(keys)), key=keys.__getitem__)
        return k, self.radius_at(keys[k])

    def catalog(self) -> list[ComponentTuple]:
        """All degree tuples meeting every window, sorted."""
        s = self.rank
        return [ComponentTuple(s, degrees) for degrees in self.degree_tuples()]

    def degree_tuples(self, *, small_slope: bool = False) -> Iterator[tuple[int, ...]]:
        """The catalog's degree tuples as plain tuples, in increasing order.

        With ``small_slope`` only those with every degree in 1..s.  Nothing
        is listed up front: each tuple comes from the search as it is found.
        """
        return self._tuples(self._narrow(self._ranges(small_slope)))

    def first_small_slope(self) -> ComponentTuple | None:
        """The least catalog tuple with every degree in 1..s, None when there is none."""
        degrees = next(self.degree_tuples(small_slope=True), None)
        return None if degrees is None else ComponentTuple(self.rank, degrees)

    def has_small_slope(self) -> bool:
        """Whether some catalog tuple has every degree in 1..s: `_reach` alone, no search."""
        return self._reach(self._ranges(True)) is not None

    def count_small_slope(self) -> int:
        """Number of catalog tuples with every degree in 1..s, without listing them."""
        return self._count(self._ranges(True))

    def size(self) -> int:
        """Number of catalog tuples, read from the integer windows alone.

        The subtree sums fix the degrees, so the size is the product of
        the integer window widths, 0 when some window holds no integer.
        """
        return math.prod(hi - lo + 1 for lo, hi in self._bounds)

    # -- the search: position p (0-based, root last) is a vertex of the
    # tree of subcurves, ranges[p] the interval p's own degree may take

    @cached_property
    def _bounds(self) -> list[tuple[int, int]]:
        """The integers strictly inside each window; the root's sum is d itself."""
        D = self.denominator
        return [
            (lo // D + 1, (hi - 1) // D) for lo, hi in zip(self.lowers, self.uppers)
        ] + [(self.degree, self.degree)]

    def _ranges(self, small_slope: bool) -> list[tuple[int, int]]:
        """1..s per position, or the widest ranges the windows allow: the whole catalog."""
        if small_slope:
            return [(1, self.rank)] * len(self.order)
        bounds = self._bounds
        return [
            (lo - sum(bounds[c][1] for c in kids), hi - sum(bounds[c][0] for c in kids))
            for (lo, hi), kids in zip(bounds, self.children)
        ]

    def _reach(self, ranges: list[tuple[int, int]]) -> list[tuple[int, int]] | None:
        """Each subtree's sums inside its window with position p's degree in ranges[p].

        One pass up the tree, children before parents; None when some
        subtree reaches none, so that no tuple lies within the ranges.  The
        root's window is (d, d), so a span for every subtree means a tuple:
        each subtree's reachable sums form one interval.
        """
        sums: list[tuple[int, int]] = []
        for (wlo, whi), kids, (lo, hi) in zip(self._bounds, self.children, ranges):
            for c in kids:  # plain loops: the search runs this once per choice
                lo += sums[c][0]
                hi += sums[c][1]
            lo, hi = max(wlo, lo), min(whi, hi)
            if lo > hi:
                return None
            sums.append((lo, hi))
        return sums

    def _narrow(self, ranges: list[tuple[int, int]]) -> _Narrowed | None:
        """Each position's degrees and subtree sums over the tuples within ranges.

        None when there are no such tuples.  A pass up the tree (`_reach`)
        gives each subtree the sums it can reach inside its window when
        position p's degree lies in ranges[p]; a pass from the root down
        cuts each subtree's sums to those some whole tuple gives it, and
        reads off the own degrees that go with them.  Both passes are exact
        because each subtree's reachable sums form one interval: every
        value in either span is some tuple's.
        """
        sums = self._reach(ranges)
        if sums is None:
            return None
        children = self.children
        out = list(ranges)
        for p in reversed(range(len(ranges))):  # a parent's sums are cut before its children's
            lo, hi = sums[p]
            own_lo, own_hi = ranges[p]
            kids = children[p]
            kids_lo = kids_hi = 0
            for c in kids:
                kids_lo += sums[c][0]
                kids_hi += sums[c][1]
            out[p] = (max(own_lo, lo - kids_hi), min(own_hi, hi - kids_lo))
            for c in kids:
                c_lo, c_hi = sums[c]
                sums[c] = (max(c_lo, lo - own_hi - kids_hi + c_hi),
                           min(c_hi, hi - own_lo - kids_lo + c_lo))
        return out, sums

    def _tuples(self, narrowed: _Narrowed | None) -> Iterator[tuple[int, ...]]:
        """The degrees of every tuple `_narrow` held, in id order, as plain tuples, increasing.

        ``narrowed`` is `_narrow`'s pair or None.  Ids take their degrees in
        turn over their narrowed ranges, so every choice has a completion.
        Only ids with more than one degree left branch; the search keeps a
        [position, degree, last degree] for each and narrows the start once
        per choice with all of them fixed, the ranges being exact.  Two free
        ids: the total settles the second.  Tuples are plain.
        """
        if narrowed is None:
            return
        start = ranges = narrowed[0]
        where = sorted(range(len(start)), key=self.order.__getitem__)
        chosen: list[list[int]] = []  # O(gamma): the search's only state beyond the start
        while True:
            free = [i for i, p in enumerate(where) if ranges[p][0] < ranges[p][1]]
            if len(free) > 2:
                p = where[free[0]]
                chosen.append([p, *ranges[p]])
            else:
                degrees = [ranges[p][0] for p in where]
                if not free:
                    yield tuple(degrees)
                else:
                    a, b = free
                    lo, hi = ranges[where[a]]
                    total = lo + ranges[where[b]][1]
                    for x in range(lo, hi + 1):
                        degrees[a], degrees[b] = x, total - x
                        yield tuple(degrees)
                while chosen and chosen[-1][1] == chosen[-1][2]:
                    chosen.pop()
                if not chosen:
                    return
                chosen[-1][1] += 1
            ranges = list(start)
            for p, x, _ in chosen:
                ranges[p] = (x, x)
            ranges = self._narrow(ranges)[0]

    def _count(self, ranges: list[tuple[int, int]]) -> int:
        """Number of tuples within ranges: f_root[d].

        Only a parent reads a child's table, so each is dropped once its
        parent has convolved it and only the frontier's tables stay alive.
        One `_narrow` sizes the tables: each runs over the narrowed ranges,
        which hold the same tuples, and is cut to the sums some tuple gives
        its subtree.  So a table is as wide as those sums, and a leaf's as
        its whole narrowed range: with ranges 1..s and a wide window that
        is O(s) ints, copied a few times by a convolution (`bn certify` at
        s = d = 10^6 on two components peaks at 181 MB max RSS).
        """
        narrowed = self._narrow(ranges)
        if narrowed is None:
            return 0
        ranges, sums = narrowed
        tables: list[list[int] | None] = []
        for p, kids in enumerate(self.children):
            own_lo, own_hi = ranges[p]
            f, low = [1], own_lo  # low: the sum that f[0] counts, once v's degree is in
            for c in kids:
                f, low = _convolve(f, tables[c]), low + sums[c][0]
                tables[c] = None
            f = _convolve_ones(f, own_hi - own_lo + 1)
            lo, hi = sums[p]
            tables.append(f[lo - low : hi - low + 1])
        return tables[-1][0]


def _convolve(f: list[int], g: list[int]) -> list[int]:
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for k, b in enumerate(g):
            out[i + k] += a * b
    return out


def _convolve_ones(f: list[int], width: int) -> list[int]:
    """Convolution with width ones, out[i] = f[i-width+1] + ... + f[i], by running sums."""
    run = list(accumulate(f + [0] * (width - 1)))
    return list(map(operator.sub, run, [0] * width + run[:-width]))


def stability_windows(
    curve: NodalCurve,
    omega: Polarization,
    deco: OrderedDecomposition,
    s: int,
    d: int,
) -> WindowTable:
    """Build the window of every A_j from one split table, for rank s and total degree d.

    With w_j the weight and delta_j the defect of A_j, window j is
    w_j d - s delta_j < sigma_j < that + s.  The split table reads the tree
    of subcurves once, sums A_j's weight numerator (over the polarization's
    lcm) and genus sum up it and keeps the weight and defect numerators, so
    the windows cost O(gamma) once the children are read, and the table
    keeps them.  The library's
    own callers pass a walk (``ordering._walk``) for ``deco``: its tree is
    read from the parent positions and no A_j is built.  Faults are raised
    in this order: s and d are read through `operator.index`, as
    `ComponentTuple` reads its rank, and s must be at least 1 (ValueError);
    the curve must be of compact type; omega must have one weight per
    component (PolarizationError); then a decomposition handed in is
    refused with `verify_decomposition`'s own CurveError, or with a
    ValueError carrying its first violation.
    """
    s, d = _integer(s, "rank"), _integer(d, "degree")
    if s < 1:
        raise ValueError(f"rank must be >= 1, got {s}")
    return WindowTable(_SplitTable(curve, omega, deco), s, d)


def enumerate_components(
    curve: NodalCurve,
    omega: Polarization,
    deco: OrderedDecomposition,
    s: int,
    d: int,
) -> list[ComponentTuple]:
    """All degree tuples meeting every interval condition, sorted."""
    return stability_windows(curve, omega, deco, s, d).catalog()


def robustness_radius(
    curve: NodalCurve,
    omega: Polarization,
    deco: OrderedDecomposition,
    ctuple: ComponentTuple,
) -> Fraction | None:
    """Guaranteed sup-norm perturbation bound preserving all conditions.

    Any valid perturbation of omega with sup norm below the radius keeps
    every interval condition satisfied.  None means unbounded: either no
    conditions exist (gamma = 1) or the bounds do not move at all because
    d + s(1 - p_a) = 0.  The radius is a sound lower bound, not the exact
    persistence boundary.
    """
    table = stability_windows(curve, omega, deco, ctuple.rank, ctuple.total)
    found = table.binding(table.sums(ctuple))
    return None if found is None else found[1]


def binding_witness(
    curve: NodalCurve,
    omega: Polarization,
    deco: OrderedDecomposition,
    ctuple: ComponentTuple,
) -> Witness:
    """Perturbation that breaks the binding condition just past the radius.

    Concentrates weight on the argmin subcurve A_j (balanced on the
    complement so the entries sum to 0) with the sign that pushes the
    shifted interval over the binding bound.  Each entry on A_j is
    `DEFAULT_WITNESS_MULTIPLIER` (1.001) times the radius; any multiplier
    above 1 would produce a violation.
    """
    table = stability_windows(curve, omega, deco, ctuple.rank, ctuple.total)
    sums = table.sums(ctuple)
    found = table.binding(sums)
    if found is None:
        raise HypothesisError("no binding bound: the radius is unbounded")
    k, ratio = found
    A = table.splits.subcurve(k)
    x = sums[k] * table.denominator
    side = "lower" if x - table.lowers[k] <= table.uppers[k] - x else "upper"
    # lower bound rises (fails) when coeff * shift > 0, upper falls when < 0
    sign = 1 if (table.coeff > 0) == (side == "lower") else -1
    inside = DEFAULT_WITNESS_MULTIPLIER * ratio * sign
    a = len(A)
    outside = -inside * a / (curve.gamma - a)
    epsilon = tuple(inside if i in A else outside for i in curve.component_ids)
    return Witness(epsilon=epsilon, j=k + 1, side=side)


def catalog_invariance_check(
    curve: NodalCurve, omega: Polarization, s: int, d: int
) -> InvarianceReport:
    """Compare every root's windows with the first root's, node by node.

    A root agrees when each of its windows is the first root's window on
    the same subcurve, or the reflection (d - upper, d - lower) of it on
    the complementary subcurve: both say the same of the degree sum across
    that node.  A subcurve is keyed by its separating node and the node's
    end inside it, the component in its own position, and its bounds by
    their integer numerators, so each window is one lookup.  Only for a
    root that does not agree are both catalogs enumerated, and it is a
    mismatch only when they differ.  One root's table is held at a time
    besides the first's.  ``count`` is the first root's catalog size;
    `enumerate_components` on root 1 lists that catalog.
    """
    curve.require_compact_type()

    def table_at(root: int) -> WindowTable:
        return stability_windows(curve, omega, _walk(curve, root), s, d)

    first = table_at(1)
    D, ends = first.denominator, first.splits.ends
    reference = {}
    for inner, node, lo, hi in zip(
        first.order, first.splits.nodes, first.lowers, first.uppers
    ):
        a, b = ends[node]
        reference[node, inner] = (lo, hi)
        reference[node, b if inner == a else a] = (d * D - hi, d * D - lo)
    baseline: list[ComponentTuple] | None = None
    mismatches = []
    for root in curve.component_ids[1:]:
        table = table_at(root)
        if all(  # every table's bounds are over the polarization's D
            reference.get((node, inner)) == (lo, hi)
            for inner, node, lo, hi in zip(
                table.order, table.splits.nodes, table.lowers, table.uppers
            )
        ):
            continue
        if baseline is None:
            baseline = first.catalog()
        catalog = table.catalog()
        if catalog != baseline:
            base_set, this_set = set(baseline), set(catalog)
            mismatches.append(
                RootMismatch(
                    root=root,
                    missing=tuple(sorted(base_set - this_set)),
                    extra=tuple(sorted(this_set - base_set)),
                )
            )
    return InvarianceReport(
        passed=not mismatches,
        count=first.size(),
        mismatches=tuple(mismatches),
    )


# -- constructive builders (canonical polarization) --------------------


def build_small_slope_tuple(curve: NodalCurve, s: int, d: int) -> BuilderResult:
    """Three-case direct construction of a small-slope catalog member.

    Case a:  gamma <= d <= s/2 + 1; the last component takes d-gamma+1,
             the rest take 1.
    Case b:  s/2 + 1 < d <= s with s >= 2(gamma-1) and some component
             satisfying eta_i d >= s/2; the smallest such id takes
             d-gamma+1, the rest take 1.
    Case c:  s/2 + 1 < d <= s*gamma with s >= 2(gamma-1), writing
             d = n*gamma + m: needs eta_i d within s/(2(gamma-1)) of the
             central band around n for all but at most one component;
             the m smallest ids take n+1, the rest take n.

    Returns the first case that applies; raises HypothesisError when
    none does, and ValueError naming s or d when it is no integer.
    """
    s, d = _integer(s, "rank s"), _integer(d, "degree d")
    curve.require_compact_type()
    if s < 1:
        raise ValueError(f"rank must be >= 1, got {s}")
    gamma = curve.gamma
    half = Fraction(s, 2)

    if gamma <= d <= half + 1:
        degrees = [1] * gamma
        degrees[-1] = d - gamma + 1
        return BuilderResult("a", ComponentTuple(s, tuple(degrees)))

    eta = canonical(curve)
    if half + 1 < d <= s and half >= gamma - 1:
        heavy = [i for i in curve.component_ids if eta[i] * d >= half]
        if heavy:
            degrees = [1] * gamma
            degrees[heavy[0] - 1] = d - gamma + 1
            return BuilderResult("b", ComponentTuple(s, tuple(degrees)))

    if gamma >= 2 and half + 1 < d <= s * gamma and half >= gamma - 1:
        n, m = divmod(d, gamma)
        band = Fraction(s, 2 * (gamma - 1))
        off_band = [
            i for i in curve.component_ids if not (n + 1 - band < eta[i] * d < n + band)
        ]
        if len(off_band) <= 1:
            degrees = [n + 1 if i <= m else n for i in curve.component_ids]
            return BuilderResult("c", ComponentTuple(s, tuple(degrees)))

    raise HypothesisError(
        f"no construction case applies for rank {s}, degree {d} on this curve"
    )


def _shape_hypotheses(curve: NodalCurve, shape: CurveClass, s: int, d: int) -> tuple[int, int]:
    """The chain and comb builders' hypotheses: shape, s >= 2(gamma-1), gamma <= d <= s.

    Returns s and d read as integers; the first hypothesis that fails
    raises `HypothesisError`, in that order.
    """
    s, d = _integer(s, "rank s"), _integer(d, "degree d")
    found = curve.classify()
    if found not in (shape, CurveClass.CHAIN_AND_COMB):
        raise HypothesisError(f"curve is not a {shape.value} (classified {found.value})")
    gamma = curve.gamma
    if s < 2 * (gamma - 1):
        raise HypothesisError(f"rank {s} < 2(gamma-1) = {2 * (gamma - 1)}")
    if not gamma <= d <= s:
        raise HypothesisError(f"degree {d} outside gamma <= d <= s = [{gamma}, {s}]")
    return s, d


def build_chain_tuple(curve: NodalCurve, s: int, d: int) -> ComponentTuple:
    """Stepwise construction along a chain, smallest feasible sums first.

    At each position along the path the running degree sum must exceed
    the previous one, leave at least 1 for every later component, and lie
    strictly inside the canonical interval narrowed by the number of
    components still to come.  The smallest integer satisfying all of it
    is chosen; every degree then lands in 1..d-1.
    """
    s, d = _shape_hypotheses(curve, CurveClass.CHAIN, s, d)
    gamma = curve.gamma
    ends = [i for i in curve.component_ids if curve.node_degree(i) == 1]
    walk = _walk(curve, max(ends, default=1))
    path = walk.order
    degrees = [0] * gamma
    running = 0
    # rooted at an end, A_j is the first j components of the path; the
    # window's floor is read from its integer numerator over D
    table = stability_windows(curve, canonical(curve), walk, s, d)
    D = table.denominator
    for j, lower in enumerate(table.lowers, start=1):
        lo = max(running + 1, lower // D + 1)
        # lo never passes hi = min(d, ceil(w_j d + s/2)) - (gamma - j), so it is
        # in window j and leaves 1 for each later component.  Window j is
        # (w_j d - s/2, w_j d + s/2), w_j = eta(A_j) < 1 rises in j, and the
        # hypotheses s >= 2(gamma-1), gamma <= d <= s give s >= gamma - i + 1:
        # - floor(w_j d - s/2) + 1 <= d - gamma + 1, as w_j d - s/2 < d - gamma + 1;
        # - running + 1 <= d - gamma + j, by induction on j;
        # - for i <= j, floor(w_i d - s/2) + 1 + (gamma - i) <= w_i d + s/2
        #   <= w_j d + s/2; running is j - 1 or such a floor plus 1 + (j - 1 - i)
        #   for some i < j, and j + (gamma - j) = gamma <= ceil(w_j d + s/2).
        degrees[path[j - 1] - 1] = lo - running
        running = lo
    degrees[path[gamma - 1] - 1] = d - running
    return ComponentTuple(s, tuple(degrees))


def build_comb_tuple(curve: NodalCurve, s: int, d: int) -> ComponentTuple:
    """Grip-rooted construction for combs.

    When some component already wants more than half the rank's worth of
    degree (eta_j d >= s/2 + 1) the general case-b construction applies
    verbatim; otherwise every tooth takes 1 and the grip the rest.
    """
    s, d = _shape_hypotheses(curve, CurveClass.COMB, s, d)
    gamma = curve.gamma
    eta = canonical(curve)
    if any(eta[i] * d >= Fraction(s, 2) + 1 for i in curve.component_ids):
        return build_small_slope_tuple(curve, s, d).tuple
    grip = curve.grip()
    degrees = [1] * gamma
    degrees[grip - 1] = d - gamma + 1
    return ComponentTuple(s, tuple(degrees))
