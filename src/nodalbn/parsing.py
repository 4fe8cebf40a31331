"""Text format for curves and sheaf descriptors.

Grammar (one directive per line, '#' starts a comment, blank lines are
ignored):

    component <id> genus <g>          one line per component, ids 1..gamma
    node <id> <comp_a> <comp_b>       after all component lines

    sheaf                             optional block, at most one
    rank <r_1> ... <r_gamma>
    chi <int>
    degrees <d_1> ... <d_gamma>       optional
    stalk <node id> <s> <a_first> <a_second>   one line per node

Rational command-line values are comma-separated tokens, each an integer
``p``, a fraction ``p/q`` or a finite decimal such as ``0.375``, read
exactly by ``Fraction``.  Every number token, here and in a file, that
holds ``_`` is refused, though ``int`` reads ``1_0`` as 10 (``Fraction``
too, from Python 3.11 on).
"""

from __future__ import annotations

from fractions import Fraction

from .curve import CurveError, NodalCurve
from .sheaf import DescriptorError, LocalType, SheafDescriptor


class ParseError(ValueError):
    """Input text violating the grammar; names the line and the rule.

    ``line_no`` is None for text that is not a line of a file, such as a
    comma-separated value; the message then names no line.
    """

    def __init__(self, line_no: int | None, message: str):
        super().__init__(message if line_no is None else f"line {line_no}: {message}")
        self.line_no = line_no


# (line number, words) per line that is not blank or only a comment
_Tokens = list[tuple[int, list[str]]]


def _tokens(text: str) -> _Tokens:
    out = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            out.append((line_no, body.split()))
    return out


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
    tokens = _tokens(text)
    curve, sheaf_at = _parse_curve_part(tokens)
    if sheaf_at is not None:
        raise ParseError(
            tokens[sheaf_at][0], "unexpected sheaf block; this input takes a bare curve"
        )
    return curve


def parse_curve_with_sheaf(text: str) -> tuple[NodalCurve, SheafDescriptor | None]:
    tokens = _tokens(text)
    curve, sheaf_at = _parse_curve_part(tokens)
    if sheaf_at is None:
        return curve, None
    return curve, _parse_sheaf_part(tokens[sheaf_at:], curve)


def _parse_curve_part(tokens: _Tokens) -> tuple[NodalCurve, int | None]:
    """The curve, and the index in ``tokens`` of the ``sheaf`` line if there is one."""
    components: dict[int, int] = {}
    nodes: list[tuple[int, int, int]] = []
    # the line defining each item, indexed like CurveError.item
    lines: dict[str, dict[int, int] | list[int]] = {"component": {}, "node": []}
    seen_node = False
    sheaf_at: int | None = None

    for at, (line_no, toks) in enumerate(tokens):
        if toks[0] == "component":
            if seen_node:
                raise ParseError(line_no, "component lines must precede node lines")
            if len(toks) != 4 or toks[2] != "genus":
                raise ParseError(line_no, "expected: component <id> genus <g>")
            cid = _int(toks[1], line_no, "component id")
            g = _int(toks[3], line_no, "genus")
            if cid in components:
                raise ParseError(line_no, f"component {cid} defined twice")
            components[cid] = g
            lines["component"][cid] = line_no
        elif toks[0] == "node":
            if len(toks) != 4:
                raise ParseError(line_no, "expected: node <id> <comp_a> <comp_b>")
            seen_node = True
            nodes.append(
                (
                    _int(toks[1], line_no, "node id"),
                    _int(toks[2], line_no, "endpoint"),
                    _int(toks[3], line_no, "endpoint"),
                )
            )
            lines["node"].append(line_no)
        elif toks[0] == "sheaf":
            sheaf_at = at
            break
        else:
            raise ParseError(line_no, f"unknown directive {toks[0]!r}")

    # faults of the whole file name no line
    if not components:
        raise ParseError(None, "no component lines found")
    gamma = len(components)
    if sorted(components) != list(range(1, gamma + 1)):
        raise ParseError(
            None, f"component ids must be exactly 1..{gamma}, got {sorted(components)}"
        )
    genera = tuple(components[i] for i in range(1, gamma + 1))
    try:
        curve = NodalCurve(genera, tuple(nodes))
    except CurveError as exc:
        line_no = None if exc.item is None else lines[exc.item[0]][exc.item[1]]
        raise ParseError(line_no, str(exc)) from exc
    return curve, sheaf_at


def _parse_sheaf_part(tokens: _Tokens, curve: NodalCurve) -> SheafDescriptor:
    """The sheaf block from the tokens of its ``sheaf`` line on."""
    start = tokens[0][0]
    rank: tuple[int, ...] | None = None
    chi: int | None = None
    degrees: tuple[int, ...] | None = None
    stalks: dict[int, LocalType] = {}
    in_block = False

    for line_no, toks in tokens:
        if toks[0] == "sheaf":
            if len(toks) != 1:
                raise ParseError(line_no, "expected a bare 'sheaf' line")
            if in_block:
                raise ParseError(line_no, "only one sheaf block is allowed")
            in_block = True
        elif toks[0] == "rank":
            if len(toks) != curve.gamma + 1:
                raise ParseError(
                    line_no, f"rank needs {curve.gamma} values, got {len(toks) - 1}"
                )
            rank = tuple(_int(t, line_no, "rank") for t in toks[1:])
        elif toks[0] == "chi":
            if len(toks) != 2:
                raise ParseError(line_no, "expected: chi <int>")
            chi = _int(toks[1], line_no, "chi")
        elif toks[0] == "degrees":
            if len(toks) != curve.gamma + 1:
                raise ParseError(
                    line_no, f"degrees needs {curve.gamma} values, got {len(toks) - 1}"
                )
            degrees = tuple(_int(t, line_no, "degree") for t in toks[1:])
        elif toks[0] == "stalk":
            if len(toks) != 5:
                raise ParseError(
                    line_no, "expected: stalk <node id> <s> <a_first> <a_second>"
                )
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

    if rank is None:
        raise ParseError(start, "sheaf block needs a rank line")
    if chi is None:
        raise ParseError(start, "sheaf block needs a chi line")
    try:
        return SheafDescriptor(
            curve=curve,
            multirank=rank,
            chi=chi,
            stalks=tuple(stalks.items()),
            degrees=degrees,
        )
    except DescriptorError as exc:
        raise ParseError(start, str(exc)) from exc


def render_curve(curve: NodalCurve) -> str:
    """Canonical text for a curve; re-parses to an equal model."""
    lines = [
        f"component {i} genus {curve.genus(i)}" for i in curve.component_ids
    ]
    lines += [f"node {n.id} {n.first} {n.second}" for n in curve.nodes]
    return "\n".join(lines) + "\n"


def parse_rationals(text: str) -> tuple[Fraction, ...]:
    """Comma-separated exact rationals: 'p', 'p/q' or finite decimal tokens, no '_'."""
    return _values(text, Fraction, "rational")


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
