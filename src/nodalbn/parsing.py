"""Text format for curves and sheaf descriptors.

Grammar (one directive per line, '#' starts a comment, blank lines are
ignored; a line ends at LF, CRLF or CR only):

    component <id> genus <g>          one line per component, ids 1..gamma
    node <id> <comp_a> <comp_b>       after all component lines

    sheaf                             optional block, at most one
    rank <r_1> ... <r_gamma>
    chi <int>
    degrees <d_1> ... <d_gamma>       optional
    stalk <node id> <s> <a_first> <a_second>   one line per node

Rational command-line values are comma-separated tokens, each read
exactly by ``Fraction``: an optional sign, then an integer ``p``, a
fraction ``p/q`` or a finite decimal with an optional exponent, such as
``0.375``, ``.5`` or ``1e-1``.  Every number token, here and in a file, that
holds ``_`` is refused, though ``int`` reads ``1_0`` as 10 (``Fraction``
too, from Python 3.11 on).  No token may pass ``int``'s limit on digits,
``sys.get_int_max_str_digits()`` (4300 by default): ``int`` refuses a
longer integer, and a rational whose length before its exponent plus the
exponent's magnitude passes the limit is refused before it is built.
"""

from __future__ import annotations

import itertools
import sys

from ._record import Record
from .curve import CurveError, NodalCurve
from .sheaf import DescriptorError, LocalType, SheafDescriptor

TYPE_CHECKING = False
if TYPE_CHECKING:
    from fractions import Fraction


class ParseError(ValueError):
    """Input text violating the grammar; names the line and the rule.

    ``line_no`` is None for text that is not a line of a file, such as a
    comma-separated value; the message then names no line.
    """

    def __init__(self, line_no: int | None, message: str):
        super().__init__(message if line_no is None else f"line {line_no}: {message}")
        self.line_no = line_no


class _Lines(Record):
    """The lines that hold words: each one's number (from 1) and its words."""

    numbers: list[int]
    rows: list[list[str]]

    def part(self, start: int) -> _Lines:
        return _Lines(self.numbers[start:], self.rows[start:])


def _tokens(text: str) -> _Lines:
    """The words of each line that holds any, with the line's number.

    A line ends only at LF, CRLF or CR, as text-mode ``open`` reads a file;
    form feed, U+2028 and the other breaks of ``str.splitlines`` are blanks
    inside a line, so a comment runs on past them.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if "#" in text:
        lines = [line.partition("#")[0] for line in lines]
    rows = list(map(str.split, lines))
    return _Lines(list(itertools.compress(itertools.count(1), rows)), list(filter(None, rows)))


def _number(read, token: str):
    """``read(token)``, refusing the ``_`` digit groups that ``int`` and ``Fraction`` take."""
    if "_" in token:
        raise ValueError(token)
    return read(token)


def _int(token: str, line_no: int, what: str) -> int:
    try:
        return _number(int, token)
    except ValueError:
        raise ParseError(line_no, f"{what} must be an integer, got {token!r}") from None


def parse_curve(text: str) -> NodalCurve:
    lines = _tokens(text)
    curve, sheaf_at = _parse_curve_part(lines)
    if sheaf_at is not None:
        raise ParseError(
            lines.numbers[sheaf_at], "unexpected sheaf block; this input takes a bare curve"
        )
    return curve


def parse_curve_with_sheaf(text: str) -> tuple[NodalCurve, SheafDescriptor | None]:
    lines = _tokens(text)
    curve, sheaf_at = _parse_curve_part(lines)
    if sheaf_at is None:
        return curve, None
    return curve, _parse_sheaf_part(lines.part(sheaf_at), curve)


def _parse_curve_part(lines: _Lines) -> tuple[NodalCurve, int | None]:
    """The curve, and the index in ``lines`` of the ``sheaf`` line if there is one."""
    cids, genera, nodes, sheaf_at = _curve_lines(lines)

    # faults of the whole file name no line
    if not cids:
        raise ParseError(None, "no component lines found")
    gamma = len(cids)
    if cids != list(range(1, gamma + 1)):
        ids = sorted(cids)
        if ids != list(range(1, gamma + 1)):
            raise ParseError(None, f"component ids must be exactly 1..{gamma}, got {ids}")
        genera = [g for _, g in sorted(zip(cids, genera))]
    try:
        curve = NodalCurve(genera, nodes)
    except CurveError as exc:
        if exc.item is None:
            line_no = None
        elif exc.item[0] == "component":  # the component lines come first
            line_no = lines.numbers[cids.index(exc.item[1])]
        else:
            line_no = lines.numbers[gamma + exc.item[1]]
        raise ParseError(line_no, str(exc)) from exc
    return curve, sheaf_at


def _curve_lines(
    lines: _Lines,
) -> tuple[list[int], list[int], list[tuple[int, int, int]], int | None]:
    """Component ids, their genera and the node triples, in line order.

    Also the index of the ``sheaf`` line, None if there is none.  Raises at
    the first fault.
    """
    components: dict[int, int] = {}
    nodes: list[tuple[int, int, int]] = []
    sheaf_at = None
    for at, (line_no, toks) in enumerate(zip(*lines)):
        if toks[0] == "component":
            if nodes:
                raise ParseError(line_no, "component lines must precede node lines")
            if len(toks) != 4 or toks[2] != "genus":
                raise ParseError(line_no, "expected: component <id> genus <g>")
            cid = _int(toks[1], line_no, "component id")
            g = _int(toks[3], line_no, "genus")
            if cid in components:
                raise ParseError(line_no, f"component {cid} defined twice")
            components[cid] = g
        elif toks[0] == "node":
            if len(toks) != 4:
                raise ParseError(line_no, "expected: node <id> <comp_a> <comp_b>")
            nodes.append(
                (
                    _int(toks[1], line_no, "node id"),
                    _int(toks[2], line_no, "endpoint"),
                    _int(toks[3], line_no, "endpoint"),
                )
            )
        elif toks[0] == "sheaf":
            sheaf_at = at
            break
        else:
            raise ParseError(line_no, f"unknown directive {toks[0]!r}")
    return list(components), list(components.values()), nodes, sheaf_at


def _parse_sheaf_part(lines: _Lines, curve: NodalCurve) -> SheafDescriptor:
    """The sheaf block from its ``sheaf`` line on."""
    start = lines.numbers[0]
    rank, chi, degrees, stalks = _sheaf_lines(lines, curve.gamma)
    if rank is None:
        raise ParseError(start, "sheaf block needs a rank line")
    if chi is None:
        raise ParseError(start, "sheaf block needs a chi line")
    try:
        return SheafDescriptor(
            curve=curve, multirank=rank, chi=chi, stalks=stalks, degrees=degrees
        )
    except DescriptorError as exc:
        raise ParseError(start, str(exc)) from exc


# rank, chi and degrees (each None if the block has no such line; a later
# line wins) and the stalks as (node id, LocalType) pairs in line order
_SheafLines = tuple[
    tuple[int, ...] | None, int | None, tuple[int, ...] | None, list[tuple[int, LocalType]]
]


def _sheaf_lines(lines: _Lines, gamma: int) -> _SheafLines:
    """The sheaf block's values, line by line: raises at the first fault."""
    rank: tuple[int, ...] | None = None
    chi: int | None = None
    degrees: tuple[int, ...] | None = None
    stalks: dict[int, LocalType] = {}
    in_block = False

    for line_no, toks in zip(*lines):
        if toks[0] == "sheaf":
            if len(toks) != 1:
                raise ParseError(line_no, "expected a bare 'sheaf' line")
            if in_block:
                raise ParseError(line_no, "only one sheaf block is allowed")
            in_block = True
        elif toks[0] == "rank":
            if len(toks) != gamma + 1:
                raise ParseError(line_no, f"rank needs {gamma} values, got {len(toks) - 1}")
            rank = tuple(_int(t, line_no, "rank") for t in toks[1:])
        elif toks[0] == "chi":
            if len(toks) != 2:
                raise ParseError(line_no, "expected: chi <int>")
            chi = _int(toks[1], line_no, "chi")
        elif toks[0] == "degrees":
            if len(toks) != gamma + 1:
                raise ParseError(line_no, f"degrees needs {gamma} values, got {len(toks) - 1}")
            degrees = tuple(_int(t, line_no, "degree") for t in toks[1:])
        elif toks[0] == "stalk":
            if len(toks) != 5:
                raise ParseError(line_no, "expected: stalk <node id> <s> <a_first> <a_second>")
            nid = _int(toks[1], line_no, "node id")
            if nid in stalks:
                raise ParseError(line_no, f"stalk at node {nid} defined twice")
            stalks[nid] = LocalType(
                _int(toks[2], line_no, "free rank"),
                _int(toks[3], line_no, "branch exponent"),
                _int(toks[4], line_no, "branch exponent"),
            )
        else:
            raise ParseError(line_no, f"unknown sheaf directive {toks[0]!r}")
    return rank, chi, degrees, list(stalks.items())


def render_curve(curve: NodalCurve) -> str:
    """Canonical text for a curve; re-parses to an equal model."""
    lines = [
        f"component {i} genus {curve.genus(i)}" for i in curve.component_ids
    ]
    lines += [f"node {n.id} {n.first} {n.second}" for n in curve.nodes]
    return "\n".join(lines) + "\n"


def parse_rationals(text: str) -> tuple[Fraction, ...]:
    """Comma-separated exact rationals: 'p', 'p/q' or finite decimal tokens (an
    exponent such as '1e-1' too), each perhaps signed, no '_', none past int's limit."""
    return _values(text, _rational, "rational")


def _rational(token: str) -> Fraction:
    """``Fraction(token)``, its exponent checked first: '1e-10000000' would build 10^10000000."""
    from fractions import Fraction

    mantissa, _, exponent = token.lower().partition("e")
    limit = getattr(sys, "get_int_max_str_digits", lambda: 4300)()  # 3.10.7 added it
    if exponent and limit and len(mantissa) + abs(int(exponent)) > limit:
        raise ValueError(token)
    return Fraction(token)


def parse_ints(text: str) -> tuple[int, ...]:
    """Comma-separated integers, no '_'."""
    return _values(text, int, "integer")


def _values(text: str, read, what: str) -> tuple:
    out = []
    for token in text.split(","):
        token = token.strip()
        try:
            out.append(_number(read, token))
        except (ValueError, ZeroDivisionError):
            raise ParseError(None, f"bad {what} token {token!r}") from None
    return tuple(out)
