"""Command-line interface.

Reports are plain text: ``key: value`` lines grouped into blank-line
separated blocks, with tab-separated tables introduced by a
``#table <name>`` line.  A command that reads a curve file prints
``curve_digest`` second: the first 12 hex digits of the SHA-256 of the
file's bytes, comments and line ends included, so editing only a comment
changes it.  Rationals print reduced (``p/q``, or ``p`` for integers).
Output for identical inputs is byte-identical.

Exit codes: 0 for pass/certified, 1 for a failed hypothesis or verdict,
2 for unparseable input or bad command lines, and 2 with the one line
``error: out of memory`` when a handler runs out of memory, so that a
script cannot take it for a refusal.  Handlers fill the report
`main` hands them and return 0 or 1; `main` writes it only when the
handler returns, so a command that raises writes nothing to stdout.
If the reader of stdout goes away, the rest of the report is dropped
and the command still exits with its handler's code, which is known
before the first byte is written.

Each handler imports the modules it runs, so a command pays at start-up
only for what it uses.  This module loads no other module of the
package: a command that reads a curve loads ``parsing``, ``curve`` and
``sheaf``; ``ordering``, ``components`` and ``brill_noether`` load in the
handlers that call them.  Only a command that resolves ``--omega`` or
prints a rational loads ``polarization`` and ``fractions`` (with the
``decimal`` and ``numbers`` under it): ``bn number`` and ``bn bounds``
load neither, nor does any ``curve`` command or ``order``, even on a
file with a sheaf block.  An error's exit code is looked up only when a
handler raises (see ``_exit_code``).  The digest comes from CPython's
built-in SHA-256 module, so no command loads ``hashlib`` and the OpenSSL
library under it, unless the build has no such module.  No module
loads ``typing``, and a module with records loads their base ``_record``.

A well-formed command line is read without argparse (see ``_read``), so
such a command loads neither ``argparse`` nor the ``gettext`` and
``locale`` modules under it.  Every other command line goes to argparse,
whose parser is built in full (see ``_build_parser``): help, usage
errors and their exit codes are argparse's own.
"""

from __future__ import annotations

import itertools
import os
import sys
from types import SimpleNamespace

TYPE_CHECKING = False
if TYPE_CHECKING:
    import argparse

    from . import components as comp
    from .curve import NodalCurve
    from .polarization import Polarization
    from .sheaf import SheafDescriptor


class Report:
    """Accumulates the key/value and table lines of one command's output."""

    def __init__(self, argv: list[str]):
        self.lines: list[str] = ["command: nodalbn " + " ".join(argv)]

    def blank(self) -> None:
        if self.lines and self.lines[-1] != "":
            self.lines.append("")

    def kv(self, key: str, value: object) -> None:
        self.lines.append(f"{key}: {_fmt(value)}")

    def table(self, name: str, header: list[str], rows: list[list[object] | str]) -> None:
        """A table of rows, each a list of cells or its text already joined."""
        self.blank()
        self.lines.append(f"#table {name}")
        self.lines.append("\t".join(header))
        for row in rows:
            self.lines.append(row if row.__class__ is str else "\t".join(map(_fmt, row)))

    def raw(self, text: str) -> None:
        self.lines.append(text)

    def emit(self) -> None:
        """Write ``"\\n".join(lines).rstrip("\\n") + "\\n"`` line by line, copying no report."""
        lines = self.lines
        end = len(lines)
        while end > 1 and not lines[end - 1].rstrip("\n"):
            end -= 1
        write = sys.stdout.write
        for line in itertools.islice(lines, end - 1):
            write(line)
            write("\n")
        write(lines[end - 1].rstrip("\n") + "\n")


# _ID_TEXT[i] is str(i): a subcurve column prints each component id from here
# (every printed subcurve or split side is nonempty, its ids >= 1)
_ID_TEXT: list[str] = []


def _fmt(value: object) -> str:
    kind = type(value)  # a Fraction falls through to str(value)
    if kind is int or kind is str:
        return str(value)
    if kind is bool:
        return "yes" if value else "no"
    if isinstance(value, frozenset):
        ids = sorted(value)
        if ids[-1] >= len(_ID_TEXT):
            _ID_TEXT.extend(map(str, range(len(_ID_TEXT), ids[-1] + 1)))
        return ",".join(map(_ID_TEXT.__getitem__, ids))
    if isinstance(value, (tuple, list)):
        return ",".join(_fmt(v) for v in value)
    return str(value)


def _verdict(ok: bool) -> str:
    return "pass" if ok else "fail"


def _load_curve(path: str) -> tuple[NodalCurve, SheafDescriptor | None, str]:
    from .curve import CurveError
    from .parsing import parse_curve_with_sheaf

    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise CurveError(f"cannot read {path}: {exc.strerror}") from exc
    text = data.decode("utf-8")
    curve, sheaf = parse_curve_with_sheaf(text)
    return curve, sheaf, _digest(data)


def _digest(data: bytes) -> str:
    """The first 12 hex digits of the SHA-256 of a curve file's bytes.

    The hash comes from CPython's built-in module (``_sha2`` from 3.12,
    ``_sha256`` before), as ``random`` takes its SHA-512, so a curve command
    does not map the OpenSSL library that ``hashlib`` loads; ``hashlib`` is
    the fallback for a build without that module.  Imported here: ``bn
    number`` reads no curve.
    """
    try:  # by version: a failed import of the other name searches every sys.path entry
        if sys.version_info >= (3, 12):
            from _sha2 import sha256
        else:
            from _sha256 import sha256
    except ImportError:
        from hashlib import sha256
    return sha256(data).hexdigest()[:12]


def _option(flag: str, parse, text: str):
    """``parse(text)`` for the value of ``flag``; a bad token names the flag."""
    from .parsing import ParseError

    try:
        return parse(text)
    except ParseError as exc:
        raise ParseError(None, f"{flag}: {exc}") from None


def _resolve_omega(text: str, curve: NodalCurve) -> Polarization:
    from .parsing import parse_rationals
    from .polarization import Polarization, PolarizationError, _check_lengths, canonical

    if text == "canonical":
        return canonical(curve)
    weights = _option("--omega", parse_rationals, text)
    try:
        omega = Polarization(weights)
        _check_lengths(curve, omega)
    except PolarizationError as exc:
        raise ValueError(f"bad omega: {exc}") from exc
    return omega


def _begin(args: SimpleNamespace, report: Report) -> tuple[NodalCurve, SheafDescriptor | None]:
    curve, sheaf, digest = _load_curve(args.curve)
    report.kv("curve_digest", digest)
    report.blank()
    return curve, sheaf


# -- curve ------------------------------------------------------------


def cmd_curve_validate(args: SimpleNamespace, report: Report) -> int:
    curve, _ = _begin(args, report)
    report.kv("gamma", curve.gamma)
    report.kv("delta", curve.delta)
    report.kv("genera", curve.genera)
    report.kv("arithmetic_genus", curve.arithmetic_genus())
    report.kv("compact_type", curve.is_compact_type())
    report.kv("classification", curve.classify().value)
    if args.echo:
        from .parsing import render_curve

        report.blank()
        report.raw("#echo")
        report.raw(render_curve(curve).rstrip("\n"))
    return 0


def cmd_curve_classify(args: SimpleNamespace, report: Report) -> int:
    curve, _ = _begin(args, report)
    report.kv("classification", curve.classify().value)
    return 0


def cmd_order(args: SimpleNamespace, report: Report) -> int:
    from . import ordering

    curve, _ = _begin(args, report)
    walk = ordering._walk(curve, args.root)
    report.kv("root", walk.root)
    report.kv("order", walk.order)
    rows = [  # each A_j is built as its row is formatted, then dropped
        f"{j}\t{_fmt(walk.subcurve(j - 1))}\t{p}" for j, p in enumerate(walk.nodes, start=1)
    ]
    report.table("decomposition", ["j", "subcurve", "separating_node"], rows)
    return 0


# -- polarization -----------------------------------------------------


def _proxy_section(report: Report, curve: NodalCurve, omega: Polarization) -> bool:
    """`goodness_proxy`'s rows, each formatted as it is made, and the verdict they fold to."""
    from .polarization import _SplitTable

    passed, rows = True, []
    for row in _SplitTable(curve, omega).defect_rows():
        passed &= row.ok
        rows.append(f"{row.node}\t{_fmt(row.side)}\t{row.defect}\t{_verdict(row.ok)}")
    report.kv("goodness_proxy", _verdict(passed))
    report.table("splits", ["node", "side", "defect", "verdict"], rows)
    return passed


def cmd_polarization_canonical(args: SimpleNamespace, report: Report) -> int:
    from .polarization import canonical

    curve, _ = _begin(args, report)
    eta = canonical(curve)
    report.kv("eta", eta.weights)
    if curve.is_compact_type():
        _proxy_section(report, curve, eta)
    return 0


def cmd_polarization_check(args: SimpleNamespace, report: Report) -> int:
    curve, _ = _begin(args, report)
    omega = _resolve_omega(args.omega, curve)
    report.kv("omega", omega.weights)
    return 0 if _proxy_section(report, curve, omega) else 1


# -- sheaf ------------------------------------------------------------


def cmd_sheaf_info(args: SimpleNamespace, report: Report) -> int:
    from .sheaf import (
        DescriptorError,
        degree_defect,
        global_ext_defect,
        wdeg,
        wrank,
        wslope,
    )

    curve, sheaf = _begin(args, report)
    if sheaf is None:
        raise DescriptorError(f"{args.curve} has no sheaf block")
    omega = _resolve_omega(args.omega, curve)
    report.kv("multirank", sheaf.multirank)
    report.kv("chi", sheaf.chi)
    report.kv("locally_free", sheaf.is_locally_free())
    r = wrank(sheaf, omega)
    report.kv("wrank", r)
    report.kv("wdeg", wdeg(sheaf, omega))
    if r > 0:
        report.kv("wslope", wslope(sheaf, omega))
    if sheaf.degrees is not None:
        report.kv("degrees", sheaf.degrees)
        report.kv("degree_defect", degree_defect(sheaf, omega))
    report.kv("ext_defect_self", global_ext_defect(sheaf, sheaf))
    report.table(
        "stalks",
        ["node", "free_rank", "a_first", "a_second"],
        [[nid, lt.free_rank, lt.a_first, lt.a_second] for nid, lt in sheaf.stalks],
    )
    return 0


# -- components -------------------------------------------------------


def _catalog_table(report: Report, table: comp.WindowTable, small_slope: bool) -> None:
    """The ``count`` line and the catalog table, one row per degree tuple.

    Window k's cells (lower, sigma, upper) and its `slack_key` depend on
    sigma_k alone, so they are built once, up front, for each sigma in
    the span `WindowTable._narrow` gives window k: each is some row's.
    Each distinct radius is kept, keyed by the least slack key.  A row is
    then its subtree sums, one lookup per window, a min and a join.  The
    bounds print from the integer numerators; no A_j is built.
    """
    from fractions import Fraction

    D = table.denominator
    narrowed = table._narrow(table._ranges(small_slope))
    # each window's sigma span; zip drops the root's, last; empty spans when no tuple fits
    spans = narrowed[1] if narrowed else [(1, 0)] * len(table.lowers)
    header = ["tuple"]
    cells: list[dict[int, str]] = []  # per window: sigma -> its three cells
    keys: list[dict[int, int]] = []  # per window: sigma -> its slack key
    for k, (lo, hi, (first, last)) in enumerate(zip(table.lowers, table.uppers, spans)):
        header += [f"j{k + 1}_lower", f"j{k + 1}_sigma", f"j{k + 1}_upper"]
        lower, upper, span = Fraction(lo, D), Fraction(hi, D), range(first, last + 1)
        cells.append({sigma: f"{lower}\t{sigma}\t{upper}" for sigma in span})
        keys.append({sigma: table.slack_key(k, sigma) for sigma in span})
    header += ["verdict", "radius"]
    radii: dict[int, str] = {}  # least slack key -> radius text
    subtree_sums = table._subtree_sums
    tail = "\t" + _verdict(True) + "\t"  # the spans lie inside the windows
    rows = []
    for degrees in table._tuples(narrowed):
        sums = subtree_sums(degrees)
        row = list(map(dict.__getitem__, cells, sums))
        least = min(map(dict.__getitem__, keys, sums), default=None)
        radius = radii.get(least)
        if radius is None:
            found = None if least is None else table.radius_at(least)
            radius = radii[least] = "unbounded" if found is None else str(found)
        row.insert(0, ",".join(map(str, degrees)))
        rows.append("\t".join(row) + tail + radius)
    report.kv("count", len(rows))
    report.table("catalog", header, rows)


def _rooted(args: SimpleNamespace, report: Report):
    """The curve, omega and the walk from ``--root`` (default gamma); writes omega and rank."""
    from . import ordering

    curve, _ = _begin(args, report)
    omega = _resolve_omega(args.omega, curve)
    walk = ordering._walk(curve, curve.gamma if args.root is None else args.root)
    report.kv("omega", omega.weights)
    report.kv("rank", args.rank)
    return curve, omega, walk


def cmd_components_enumerate(args: SimpleNamespace, report: Report) -> int:
    from . import components as comp

    curve, omega, walk = _rooted(args, report)
    table = comp.stability_windows(curve, omega, walk, args.rank, args.degree)
    report.kv("degree", args.degree)
    report.kv("root", walk.root)
    report.kv("order", walk.order)
    _catalog_table(report, table, args.small_slope)
    return 0


def _tuple_setup(args: SimpleNamespace, report: Report):
    from . import components as comp
    from .parsing import parse_ints

    curve, omega, walk = _rooted(args, report)
    degrees = _option("--tuple", parse_ints, args.tuple)
    if len(degrees) != curve.gamma:
        raise ValueError(f"--tuple has {len(degrees)} degrees for {curve.gamma} components")
    ctuple = comp.ComponentTuple(rank=args.rank, degrees=degrees)
    report.kv("tuple", ctuple.degrees)
    report.kv("degree", ctuple.total)
    return curve, omega, walk, ctuple


def cmd_components_check(args: SimpleNamespace, report: Report) -> int:
    from . import components as comp

    curve, omega, walk, ctuple = _tuple_setup(args, report)
    table = comp.stability_windows(curve, omega, walk, ctuple.rank, ctuple.total)
    passed, rows = True, []
    for j, A, _, lower, sigma, upper, ok, *slacks in table._rows(table.sums(ctuple)):
        passed = passed and ok  # each A_j is built as its row is formatted, then dropped
        rows.append("\t".join(map(_fmt, (j, A, lower, sigma, upper, _verdict(ok), *slacks))))
    report.kv("verdict", _verdict(passed))
    report.table(
        "conditions",
        ["j", "subcurve", "lower", "sigma", "upper", "verdict", "slack_lower", "slack_upper"],
        rows,
    )
    return 0 if passed else 1


def cmd_components_radius(args: SimpleNamespace, report: Report) -> int:
    from . import components as comp

    radius = comp.robustness_radius(*_tuple_setup(args, report))
    report.kv("radius", "unbounded" if radius is None else radius)
    return 0


def cmd_components_invariance(args: SimpleNamespace, report: Report) -> int:
    from . import components as comp

    curve, _ = _begin(args, report)
    omega = _resolve_omega(args.omega, curve)
    inv = comp.catalog_invariance_check(curve, omega, args.rank, args.degree)
    report.kv("omega", omega.weights)
    report.kv("rank", args.rank)
    report.kv("degree", args.degree)
    report.kv("invariance", _verdict(inv.passed))
    report.kv("count", inv.count)
    if not inv.passed:
        report.table(
            "mismatches",
            ["root", "missing", "extra"],
            [
                [m.root, [t.degrees for t in m.missing] or "-", [t.degrees for t in m.extra] or "-"]
                for m in inv.mismatches
            ],
        )
    return 0 if inv.passed else 1


# -- brill-noether ----------------------------------------------------


def cmd_bn_number(args: SimpleNamespace, report: Report) -> int:
    from . import brill_noether as bn

    report.kv("beta", bn.bn_number(args.pa, args.r, args.d, args.k))
    return 0


def cmd_bn_bounds(args: SimpleNamespace, report: Report) -> int:
    from . import brill_noether as bn

    verdict = bn.bgn_bounds(args.pa, args.r, args.d, args.k)
    report.kv("bgn_bounds", _verdict(verdict.ok))
    for failure in verdict.failures:
        report.kv("failure", failure)
    return 0 if verdict.ok else 1


def cmd_bn_certify(args: SimpleNamespace, report: Report) -> int:
    from . import brill_noether as bn

    curve, _ = _begin(args, report)
    omega = _resolve_omega(args.omega, curve)
    result = bn.certify_bn_component(curve, omega, args.s, args.k, args.d)
    certified = isinstance(result, bn.BNCertificate)
    report.kv("certified", certified)
    report.kv("omega", omega.weights)
    report.kv("s", args.s)
    report.kv("k", args.k)
    report.kv("d", args.d)
    if certified:
        report.kv("r", result.r)
        report.kv("tuple", result.degree_tuple.degrees)
        report.kv("beta", result.beta)
        report.kv("moduli_dim", result.moduli_dim)
        report.kv("h1_dual", result.h1_dual)
        report.kv("fiber_dim", result.fiber_dim)
        report.kv(
            "identity",
            f"{result.beta} = {result.moduli_dim} + {result.fiber_dim}",
        )
    report.table(
        "checklist",
        ["item", "verdict", "detail"],
        [[item.name, _verdict(item.ok), item.detail] for item in result.checklist],
    )
    return 0 if certified else 1


def _scan_family(family: str, gamma_max: int, genus_max: int) -> list[NodalCurve]:
    from .curve import chain_curve, comb_curve

    curves = []
    choices = range(2, genus_max + 1)  # every genus a component may take
    if family == "chain":
        for gamma in range(2, gamma_max + 1):
            for path in itertools.product(choices, repeat=gamma):
                if path <= path[::-1]:  # dedupe path reversal
                    curves.append(chain_curve(path))
    else:  # comb: --family's choices refuse any other family
        for gamma in range(3, gamma_max + 1):
            for teeth in itertools.combinations_with_replacement(choices, gamma - 1):  # sorted
                curves.extend(comb_curve((*teeth, grip)) for grip in choices)
    return curves


def cmd_bn_scan(args: SimpleNamespace, report: Report) -> int:
    from . import brill_noether as bn

    curves = _scan_family(args.family, args.gamma_max, args.genus_max)
    rows = bn.conjecture_scan(curves, range(1, args.s_max + 1))
    open_rows = [r for r in rows if not r.certified]
    report.kv("family", args.family)
    report.kv("curves", len(curves))
    report.kv("rows", len(rows))
    report.kv("open", len(open_rows))
    genera = {c.genera: ",".join(map(str, c.genera)) for c in curves}  # joined once per curve
    report.table(
        "scan",
        ["shape", "gamma", "genera", "s", "d", "k", "status", "beta"],
        [
            f"{r.shape}\t{r.gamma}\t{genera[r.genera]}\t{r.s}\t{r.d}\t{r.k}\t{r.status}\t{r.beta}"
            for r in rows
        ],
    )
    return 0 if not open_rows else 1


# -- wiring -----------------------------------------------------------


def _int(text: str) -> int:
    """An integer option's value, refusing ``_`` digit groups as the curve grammar does.

    Only argparse calls this, on a command line that `_read` declined.
    """
    from .parsing import _number

    try:
        return _number(int, text)
    except ValueError:
        import argparse  # loaded already

        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


_CURVE = ("--curve", {"required": True, "help": "curve file"})
_OMEGA = ("--omega", {"default": "canonical", "help": "'canonical' or w_1,...,w_gamma"})
_ROOT = ("--root", {"type": _int, "default": None})


def _ints(*flags: str) -> tuple:
    return tuple((flag, {"type": _int, "required": True}) for flag in flags)


_TUPLE = (_CURVE, _OMEGA, *_ints("--rank"),
          ("--tuple", {"required": True, "help": "d_1,...,d_gamma"}), _ROOT)
_NUMBERS = _ints("--pa", "--r", "--d", "--k")


# group -> (help, leaves): each leaf maps an action to its options, and a group
# given options in place of leaves is a leaf itself.  The leaf `G A` runs
# cmd_G_A (`G` runs cmd_G), looked up by name when a command line is parsed,
# so a handler rebound on this module (as perfbench's tracer does) is the one run.
COMMANDS: dict[str, tuple[str, dict | tuple]] = {
    "curve": ("validate and classify curve files", {
        "validate": (_CURVE, ("--echo", {"action": "store_true",
                                         "help": "re-emit the canonical file"})),
        "classify": (_CURVE,),
    }),
    "order": ("root-first component order of a tree curve", (_CURVE, *_ints("--root"))),
    "polarization": ("canonical weights and goodness proxy", {
        "canonical": (_CURVE,),
        "check": (_CURVE, ("--omega", {"required": True, "help": "w_1,...,w_gamma"})),
    }),
    "sheaf": ("weighted invariants of a sheaf block", {
        "info": (_CURVE, _OMEGA),
    }),
    "components": ("degree-tuple catalogs and stability", {
        "enumerate": (_CURVE, _OMEGA, *_ints("--rank", "--degree"),
                      ("--small-slope", {"action": "store_true"}), _ROOT),
        "check": _TUPLE,
        "radius": _TUPLE,
        "invariance": (_CURVE, _OMEGA, *_ints("--rank", "--degree")),
    }),
    "bn": ("Brill-Noether numbers and certificates", {
        "number": _NUMBERS,
        "bounds": _NUMBERS,
        "certify": (_CURVE, _OMEGA, *_ints("--s", "--k", "--d")),
        "scan": (("--family", {"required": True, "choices": ["chain", "comb"]}),
                 *_ints("--gamma-max", "--genus-max", "--s-max")),
    }),
}


def _read(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse builds from a well-formed argv, or None for any other.

    Well-formed: the group, its action if it has actions, then that leaf's
    flags, each word spelled exactly as in ``COMMANDS``.  A flag other than
    a ``store_true`` one is followed by its value, which starts with ``-``
    only as a plain negative integer (argparse takes that as a value, since
    no flag looks like a number).  Each integer value is decimal digits,
    perhaps after a ``-``, read by ``int``; each value is among its flag's
    choices, and every required flag is given; a repeated flag keeps its
    last value.  Help, abbreviations, ``--flag=value``, an integer spelled
    otherwise (``+4``, `` 4``, ``1_0``) and every error return None and are
    left to argparse, whose `_int` reads any spelling ``int`` takes.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    name, options = argv[0], COMMANDS[argv[0]][1]
    values: dict[str, object] = {"group": name}
    words = iter(argv[1:])
    if isinstance(options, dict):  # a group of leaves: the next word names one
        action = next(words, None)
        if action not in options:
            return None
        values["action"] = action
        name, options = f"{name}_{action}", options[action]
    for flag, spec in options:
        store_true = spec.get("action") == "store_true"
        values[flag[2:].replace("-", "_")] = spec.get("default", False if store_true else None)
    specs = dict(options)
    given = set()
    for flag in words:
        spec = specs.get(flag)
        if spec is None:
            return None
        given.add(flag)
        value: object = True
        if spec.get("action") != "store_true":
            text = next(words, None)
            if text is None or text[:1] == "-" and not text[1:].isdecimal():
                return None
            value = text
            if spec.get("type") is _int:
                if not text.removeprefix("-").isdecimal():
                    return None
                try:  # more digits than int_max_str_digits allows
                    value = int(text)
                except ValueError:
                    return None
            elif "choices" in spec and text not in spec["choices"]:
                return None
        values[flag[2:].replace("-", "_")] = value
    if any(spec.get("required") and flag not in given for flag, spec in options):
        return None
    values["func"] = globals()[f"cmd_{name}"]
    return SimpleNamespace(**values)


def _build_parser() -> argparse.ArgumentParser:
    """The parser with every group and leaf of ``COMMANDS`` built in full.

    Only a command line that `_read` declines comes here: help, usage
    errors and the rare line argparse accepts in another spelling.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="nodalbn",
        description="Exact-rational Brill-Noether toolkit for nodal reducible curves",
    )
    top = parser.add_subparsers(dest="group", required=True)
    for group, (help_text, leaves) in COMMANDS.items():
        group_parser = top.add_parser(group, help=help_text)
        if isinstance(leaves, tuple):
            _leaf(group_parser, group, leaves)
            continue
        actions = group_parser.add_subparsers(dest="action", required=True)
        for action, options in leaves.items():
            _leaf(actions.add_parser(action), f"{group}_{action}", options)
    return parser


def _leaf(parser: argparse.ArgumentParser, name: str, options: tuple) -> None:
    for flag, spec in options:
        parser.add_argument(flag, **spec)
    parser.set_defaults(func=globals()[f"cmd_{name}"])


def _exit_code(exc: ValueError) -> int:
    """The exit code for an error a handler raised.

    1 is a negative answer about usable input, 2 is input that cannot be
    used.  The error takes the code of the first row it is an instance of,
    so subclasses come first.  The table is built only when a handler
    raises, so no command loads a module just for its error class.
    """
    from .curve import CurveError, HypothesisError, NotCompactTypeError
    from .parsing import ParseError
    from .polarization import PolarizationError
    from .sheaf import DescriptorError

    exit_codes = (
        (ParseError, 2),
        (HypothesisError, 1),
        (NotCompactTypeError, 1),
        (PolarizationError, 1),
        (CurveError, 2),
        (DescriptorError, 2),
        (ValueError, 2),
    )
    return next(code for kind, code in exit_codes if isinstance(exc, kind))


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _read(argv)
    if args is None:
        try:
            args = SimpleNamespace(**vars(_build_parser().parse_args(argv)))
        except SystemExit as exc:
            return 0 if exc.code in (0, None) else 2
    report = Report(argv)
    try:  # a handler that raises has written nothing to stdout
        code = args.func(args, report)
    except ValueError as exc:  # every class `_exit_code` lists is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)
    except MemoryError:
        code = None  # reported below, once the traceback and the frames it holds are freed
    if code is None:
        print("error: out of memory", file=sys.stderr)
        return 2
    try:
        report.emit()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away: what is left of the report, flushed again at
        # shutdown, goes to the null device, and the answer's code stands
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
