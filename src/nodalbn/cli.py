"""Command-line interface.

Reports are plain text: ``key: value`` lines grouped into blank-line
separated blocks, with tab-separated tables introduced by a
``#table <name>`` line.  Rationals print reduced (``p/q``, or ``p`` for
integers).  Output for identical inputs is byte-identical.

Exit codes: 0 for pass/certified, 1 for a failed hypothesis or verdict,
2 for unparseable input or bad command lines.

Each handler imports the modules it runs: ``ordering``, ``components``
and ``brill_noether`` load inside the handlers that call them, so a
command pays at start-up only for what it uses.  Parsing, curves,
sheaves and polarizations load with this module, since almost every
command reads a curve; ``hashlib`` loads only to take a curve file's
digest.  The parser is built for the command named on the command line
(see ``_build_parser``).
"""

from __future__ import annotations

import argparse
import itertools
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from .curve import (
    CurveError,
    HypothesisError,
    NodalCurve,
    NotCompactTypeError,
    chain_curve,
    comb_curve,
)
from .parsing import (
    ParseError,
    parse_curve_with_sheaf,
    parse_ints,
    parse_rationals,
    render_curve,
)
from .polarization import (
    Polarization,
    PolarizationError,
    _check_lengths,
    canonical,
    goodness_proxy,
)
from .sheaf import (
    DescriptorError,
    SheafDescriptor,
    degree_defect,
    global_ext_defect,
    wdeg,
    wrank,
    wslope,
)

if TYPE_CHECKING:
    from . import components as comp


class Report:
    """Accumulates the key/value and table lines of one command's output."""

    def __init__(self, argv: list[str]):
        self.lines: list[str] = ["command: nodalbn " + " ".join(argv)]

    def blank(self) -> None:
        if self.lines and self.lines[-1] != "":
            self.lines.append("")

    def kv(self, key: str, value: object) -> None:
        self.lines.append(f"{key}: {_fmt(value)}")

    def table(self, name: str, header: list[str], rows: list[list[object]]) -> None:
        self.blank()
        self.lines.append(f"#table {name}")
        self.lines.append("\t".join(header))
        for row in rows:
            self.lines.append("\t".join(map(_fmt, row)))

    def raw(self, text: str) -> None:
        self.lines.append(text)

    def emit(self) -> None:
        sys.stdout.write("\n".join(self.lines).rstrip("\n") + "\n")


# _ID_TEXT[i] is str(i): a subcurve column prints each component id from here
_ID_TEXT: list[str] = []


def _fmt(value: object) -> str:
    kind = type(value)  # exact types: isinstance on Fraction goes through the ABCs
    if kind is int or kind is str or kind is Fraction:
        return str(value)
    if kind is bool:
        return "yes" if value else "no"
    if isinstance(value, frozenset):
        ids = sorted(value)
        if not ids or ids[0] < 0:
            return ",".join(map(str, ids))
        if ids[-1] >= len(_ID_TEXT):
            _ID_TEXT.extend(map(str, range(len(_ID_TEXT), ids[-1] + 1)))
        return ",".join(map(_ID_TEXT.__getitem__, ids))
    if isinstance(value, (tuple, list)):
        return ",".join(_fmt(v) for v in value)
    return str(value)


def _verdict(ok: bool) -> str:
    return "pass" if ok else "fail"


def _load_curve(path: str) -> tuple[NodalCurve, SheafDescriptor | None, str]:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise CurveError(f"cannot read {path}: {exc.strerror}") from exc
    import hashlib  # loaded here: ``bn number`` reads no curve

    text = data.decode("utf-8")
    curve, sheaf = parse_curve_with_sheaf(text)
    return curve, sheaf, hashlib.sha256(data).hexdigest()[:12]


def _option(flag: str, parse, text: str):
    """``parse(text)`` for the value of ``flag``; a bad token names the flag."""
    try:
        return parse(text)
    except ParseError as exc:
        raise ParseError(None, f"{flag}: {exc}") from None


def _resolve_omega(text: str, curve: NodalCurve) -> Polarization:
    if text == "canonical":
        return canonical(curve)
    weights = _option("--omega", parse_rationals, text)
    try:
        omega = Polarization(weights)
        _check_lengths(curve, omega)
    except PolarizationError as exc:
        raise ValueError(f"bad omega: {exc}") from exc
    return omega


def _begin(args: argparse.Namespace) -> tuple[Report, NodalCurve, SheafDescriptor | None]:
    report = Report(args.argv)
    curve, sheaf, digest = _load_curve(args.curve)
    report.kv("curve_digest", digest)
    report.blank()
    return report, curve, sheaf


# -- curve ------------------------------------------------------------


def cmd_curve_validate(args: argparse.Namespace) -> int:
    report, curve, _ = _begin(args)
    report.kv("gamma", curve.gamma)
    report.kv("delta", curve.delta)
    report.kv("genera", curve.genera)
    report.kv("arithmetic_genus", curve.arithmetic_genus())
    report.kv("compact_type", curve.is_compact_type())
    report.kv("classification", curve.classify().value)
    if args.echo:
        report.blank()
        report.raw("#echo")
        report.raw(render_curve(curve).rstrip("\n"))
    report.emit()
    return 0


def cmd_curve_classify(args: argparse.Namespace) -> int:
    report, curve, _ = _begin(args)
    report.kv("classification", curve.classify().value)
    report.emit()
    return 0


def cmd_order(args: argparse.Namespace) -> int:
    from . import ordering

    report, curve, _ = _begin(args)
    deco = ordering.order_components(curve, args.root)
    report.kv("root", deco.root)
    report.kv("order", deco.order)
    rows = [
        [j, A, p]
        for j, (A, p) in enumerate(zip(deco.subcurves, deco.separating_nodes), start=1)
    ]
    report.table("decomposition", ["j", "subcurve", "separating_node"], rows)
    report.emit()
    return 0


# -- polarization -----------------------------------------------------


def _proxy_section(report: Report, curve: NodalCurve, omega: Polarization) -> bool:
    good = goodness_proxy(curve, omega)
    report.kv("goodness_proxy", _verdict(good.passed))
    report.table(
        "splits",
        ["node", "side", "defect", "verdict"],
        [[row.node, row.side, row.defect, _verdict(row.ok)] for row in good.splits],
    )
    return good.passed


def cmd_polarization_canonical(args: argparse.Namespace) -> int:
    report, curve, _ = _begin(args)
    eta = canonical(curve)
    report.kv("eta", eta.weights)
    if curve.is_compact_type():
        _proxy_section(report, curve, eta)
    report.emit()
    return 0


def cmd_polarization_check(args: argparse.Namespace) -> int:
    report, curve, _ = _begin(args)
    omega = _resolve_omega(args.omega, curve)
    report.kv("omega", omega.weights)
    passed = _proxy_section(report, curve, omega)
    report.emit()
    return 0 if passed else 1


# -- sheaf ------------------------------------------------------------


def cmd_sheaf_info(args: argparse.Namespace) -> int:
    report, curve, sheaf = _begin(args)
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
    report.emit()
    return 0


# -- components -------------------------------------------------------


def _catalog_table(
    report: Report,
    table: comp.WindowTable,
    catalog: list[comp.ComponentTuple],
) -> None:
    header = ["tuple"]
    for w in table.windows:
        header += [f"j{w.j}_lower", f"j{w.j}_sigma", f"j{w.j}_upper"]
    header += ["verdict", "radius"]
    # the bounds are the same on every row: format them once per window
    bounds = [(_fmt(w.lower), _fmt(w.upper)) for w in table.windows]
    passed = _verdict(True)  # `binding` raises for a failing tuple
    rows = []
    for t in catalog:
        sums = table.sums(t)
        found = table.binding(sums)
        row: list[object] = [t.degrees]
        for sigma, (lower, upper) in zip(sums, bounds):
            row += [lower, sigma, upper]
        row += [passed, "unbounded" if found is None else found[1]]
        rows.append(row)
    report.table("catalog", header, rows)


def cmd_components_enumerate(args: argparse.Namespace) -> int:
    from . import components as comp
    from . import ordering

    report, curve, _ = _begin(args)
    omega = _resolve_omega(args.omega, curve)
    root = args.root if args.root is not None else curve.gamma
    deco = ordering.order_components(curve, root)
    table = comp.stability_windows(curve, omega, deco, args.rank, args.degree)
    catalog = comp.SmallSlopeSearch(table).tuples() if args.small_slope else table.catalog()
    report.kv("omega", omega.weights)
    report.kv("rank", args.rank)
    report.kv("degree", args.degree)
    report.kv("root", root)
    report.kv("order", deco.order)
    report.kv("count", len(catalog))
    _catalog_table(report, table, catalog)
    report.emit()
    return 0


def _tuple_setup(args: argparse.Namespace):
    from . import components as comp
    from . import ordering

    report, curve, _ = _begin(args)
    omega = _resolve_omega(args.omega, curve)
    root = args.root if args.root is not None else curve.gamma
    deco = ordering.order_components(curve, root)
    degrees = _option("--tuple", parse_ints, args.tuple)
    if len(degrees) != curve.gamma:
        raise ValueError(f"--tuple has {len(degrees)} degrees for {curve.gamma} components")
    ctuple = comp.ComponentTuple(rank=args.rank, degrees=degrees)
    report.kv("omega", omega.weights)
    report.kv("rank", args.rank)
    report.kv("tuple", ctuple.degrees)
    report.kv("degree", ctuple.total)
    return report, curve, omega, deco, ctuple


def cmd_components_check(args: argparse.Namespace) -> int:
    from . import components as comp

    report, curve, omega, deco, ctuple = _tuple_setup(args)
    rep = comp.stability_conditions(curve, omega, deco, ctuple)
    report.kv("verdict", _verdict(rep.passed))
    report.table(
        "conditions",
        ["j", "subcurve", "lower", "sigma", "upper", "verdict", "slack_lower", "slack_upper"],
        [
            [r.j, r.subcurve, r.lower, r.partial_sum, r.upper, _verdict(r.ok), r.slack_lower, r.slack_upper]
            for r in rep.rows
        ],
    )
    report.emit()
    return 0 if rep.passed else 1


def cmd_components_radius(args: argparse.Namespace) -> int:
    from . import components as comp

    report, curve, omega, deco, ctuple = _tuple_setup(args)
    radius = comp.robustness_radius(curve, omega, deco, ctuple)
    report.kv("radius", "unbounded" if radius is None else radius)
    report.emit()
    return 0


def cmd_components_invariance(args: argparse.Namespace) -> int:
    from . import components as comp

    report, curve, _ = _begin(args)
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
    report.emit()
    return 0 if inv.passed else 1


# -- brill-noether ----------------------------------------------------


def cmd_bn_number(args: argparse.Namespace) -> int:
    from . import brill_noether as bn

    report = Report(args.argv)
    report.kv("beta", bn.bn_number(args.pa, args.r, args.d, args.k))
    report.emit()
    return 0


def cmd_bn_bounds(args: argparse.Namespace) -> int:
    from . import brill_noether as bn

    report = Report(args.argv)
    verdict = bn.bgn_bounds(args.pa, args.r, args.d, args.k)
    report.kv("bgn_bounds", _verdict(verdict.ok))
    for failure in verdict.failures:
        report.kv("failure", failure)
    report.emit()
    return 0 if verdict.ok else 1


def cmd_bn_certify(args: argparse.Namespace) -> int:
    from . import brill_noether as bn

    report, curve, _ = _begin(args)
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
    report.emit()
    return 0 if certified else 1


def _scan_family(family: str, gamma_max: int, genus_max: int) -> list[NodalCurve]:
    curves = []
    if family == "chain":
        for gamma in range(2, gamma_max + 1):
            for genera in _genus_vectors(gamma, genus_max):
                if genera <= tuple(reversed(genera)):  # dedupe path reversal
                    curves.append(chain_curve(genera))
    elif family == "comb":
        for gamma in range(3, gamma_max + 1):
            for genera in _genus_vectors(gamma, genus_max):
                if tuple(sorted(genera[:-1])) == genera[:-1]:  # teeth sorted once
                    curves.append(comb_curve(genera))
    else:
        raise ParseError(0, f"unknown family {family!r}")
    return curves


def _genus_vectors(gamma: int, genus_max: int):
    yield from itertools.product(range(2, genus_max + 1), repeat=gamma)


def cmd_bn_scan(args: argparse.Namespace) -> int:
    from . import brill_noether as bn

    report = Report(args.argv)
    curves = _scan_family(args.family, args.gamma_max, args.genus_max)
    rows = bn.conjecture_scan(curves, range(1, args.s_max + 1))
    open_rows = [r for r in rows if not r.certified]
    report.kv("family", args.family)
    report.kv("curves", len(curves))
    report.kv("rows", len(rows))
    report.kv("open", len(open_rows))
    report.table(
        "scan",
        ["shape", "gamma", "genera", "s", "d", "k", "status", "beta"],
        [
            [r.shape, r.gamma, r.genera, r.s, r.d, r.k, r.status, r.beta]
            for r in rows
        ],
    )
    report.emit()
    return 0 if not open_rows else 1


# -- wiring -----------------------------------------------------------


_CURVE = ("--curve", {"required": True, "help": "curve file"})
_OMEGA = ("--omega", {"default": "canonical", "help": "'canonical' or w_1,...,w_gamma"})
_ROOT = ("--root", {"type": int, "default": None})


def _ints(*flags: str) -> tuple:
    return tuple((flag, {"type": int, "required": True}) for flag in flags)


_TUPLE = (_CURVE, _OMEGA, *_ints("--rank"),
          ("--tuple", {"required": True, "help": "d_1,...,d_gamma"}), _ROOT)
_NUMBERS = _ints("--pa", "--r", "--d", "--k")


# group -> (help, leaves): each leaf maps an action to its options, and a group
# given options in place of leaves is a leaf itself.  The leaf `G A` runs
# cmd_G_A (`G` runs cmd_G), looked up by name when the parser is built, so a
# handler rebound on this module (as perfbench's tracer does) is the one run.
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


def _build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser for argv, with every group and leaf of ``COMMANDS`` listed.

    Only a group whose name is a word of argv gets its actions, and only
    such a leaf gets its options and handler.  argparse picks a subparser
    by its exact name, so the leaf that a parse of argv reaches is always
    built in full, and every help or error text is the full parser's.
    """
    words = set(argv)
    parser = argparse.ArgumentParser(
        prog="nodalbn",
        description="Exact-rational Brill-Noether toolkit for nodal reducible curves",
    )
    top = parser.add_subparsers(dest="group", required=True)
    for group, (help_text, leaves) in COMMANDS.items():
        group_parser = top.add_parser(group, help=help_text)
        if group not in words:
            continue
        if isinstance(leaves, tuple):
            _leaf(group_parser, group, leaves)
            continue
        actions = group_parser.add_subparsers(dest="action", required=True)
        for action, options in leaves.items():
            leaf_parser = actions.add_parser(action)
            if action in words:
                _leaf(leaf_parser, f"{group}_{action}", options)
    return parser


def _leaf(parser: argparse.ArgumentParser, name: str, options: tuple) -> None:
    for flag, spec in options:
        parser.add_argument(flag, **spec)
    parser.set_defaults(func=globals()[f"cmd_{name}"])


# Exit code per error class; the first match wins, so subclasses come first.
# 1 is a negative answer about usable input, 2 is input that cannot be used.
EXIT_CODES: tuple[tuple[type[ValueError], int], ...] = (
    (ParseError, 2),
    (HypothesisError, 1),
    (NotCompactTypeError, 1),
    (PolarizationError, 1),
    (CurveError, 2),
    (DescriptorError, 2),
    (ValueError, 2),
)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    args.argv = argv
    try:
        return args.func(args)
    except ValueError as exc:  # every class in EXIT_CODES is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
