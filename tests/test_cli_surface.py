"""The command-line surface: help texts, usage errors and their exit codes.

``golden/cli_surface.json`` holds the stdout, stderr and exit code of every
case below, recorded from the builder that made all twenty parsers on
every call.  argparse words its help and errors differently from one Python
version to the next, so the recording is compared byte for byte only on
the version that made it; on every version the parser is also compared
with that full builder, kept in ``oracles.full_parser``.  A well-formed
command line is read without argparse (``cli._read``); on random command
lines, well-formed and mutated, that reader must decline or agree with the
full builder, and it declines every case below.

    PYTHONPATH=src python tests/test_cli_surface.py

rewrites the recording from the current parser.
"""

import contextlib
import io
import json
import os
import random
import sys
from pathlib import Path

import pytest

from nodalbn import cli
from oracles import full_parser

RECORDING = Path(__file__).parent / "golden" / "cli_surface.json"
# group -> its actions; an empty tuple marks a group that is itself a leaf
TREE = {
    "curve": ("validate", "classify"),
    "order": (),
    "polarization": ("canonical", "check"),
    "sheaf": ("info",),
    "components": ("enumerate", "check", "radius", "invariance"),
    "bn": ("number", "bounds", "certify", "scan"),
}
LEAVES = [
    (group, *action) for group, actions in TREE.items()
    for action in ([(a,) for a in actions] or [()])
]
CASES = [
    [],
    ["--help"],
    ["widget"],  # unknown group
    *([group, "--help"] for group, actions in TREE.items() if actions),
    *([group] for group, actions in TREE.items() if actions),  # no action
    *([group, "widget"] for group, actions in TREE.items() if actions),  # unknown action
    *([*leaf, "--help"] for leaf in LEAVES),
    *(list(leaf) for leaf in LEAVES),  # every required option missing
    ["bn", "scan", "--family", "widget", "--gamma-max", "2", "--genus-max", "2", "--s-max", "2"],
    ["curve", "validate", "--curve", "x.crv", "--widget"],  # unknown option
    ["-h", "bn", "number"],
    # the leaf is not argv[1]
    ["curve", "--", "validate"],
    ["curve", "--widget", "validate", "--curve", "x.crv"],
]
RECORDED = json.loads(RECORDING.read_text(encoding="utf-8"))


def surface(parse, argv: list[str]) -> dict:
    """Exit code, stdout and stderr of parsing argv, as ``cli.main`` maps them."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            parse(argv)
            code = None  # parsed: main would run the handler
        except SystemExit as exc:
            code = 0 if exc.code in (0, None) else 2
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def new_parse(argv):
    return cli._build_parser(argv).parse_args(argv)


def old_parse(argv):
    return full_parser().parse_args(argv)


@pytest.fixture(autouse=True)
def fixed_width(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")


@pytest.mark.parametrize("argv", CASES, ids=lambda argv: " ".join(argv) or "-")
def test_parser_matches_full_builder(argv):
    assert surface(new_parse, argv) == surface(old_parse, argv)


@pytest.mark.skipif(
    sys.version_info[:2] != tuple(RECORDED["python"]),
    reason="argparse wording differs between Python versions",
)
@pytest.mark.parametrize("case", RECORDED["cases"], ids=lambda case: " ".join(case["argv"]) or "-")
def test_recorded_surface(case):
    assert surface(new_parse, case["argv"]) == case


@pytest.mark.parametrize("argv", CASES, ids=lambda argv: " ".join(argv) or "-")
def test_reader_declines_every_case(argv):
    assert cli._read(argv) is None


# words a mutation inserts or swaps in, and the values a flag is given: numbers
# argparse takes as values (plain negatives too) or refuses, empty and odd words
WORDS = [*TREE, *(a for actions in TREE.values() for a in actions), "-h", "--help", "--",
         "-", "--cur", "--curve=x.crv", "--pa=3", "--s-m", "--small", "--Curve", "-r"]
INTS = ["3", "0", "-2", "-10", "007", "1_0", "x", "", "-", "--", "-1.5", "1.5", " 4",
        "-5\n", "\u0663", "-\u0663", "-\u00b2", "-x", "1e3"]
TEXTS = ["x.crv", "", "-3", "1,2", "1/2,1/2", "canonical", "chain", "comb", "a b", "-x",
         "--", "-", "--curve", "-1.5", "-\u0663"]


def random_argv(rng: random.Random) -> list[str]:
    """A leaf's words and flags in random order, some repeated, then perhaps one mutation."""
    group = rng.choice(list(cli.COMMANDS))
    argv, leaves = [group], cli.COMMANDS[group][1]
    if isinstance(leaves, dict):
        action = rng.choice(list(leaves))
        argv.append(action)
        leaves = leaves[action]
    flags = [flag for flag, spec in leaves if spec.get("required") or rng.random() < 0.5]
    flags += rng.sample(flags, min(len(flags), rng.choice((0, 0, 1, 2))))
    rng.shuffle(flags)
    specs = dict(leaves)
    for flag in flags:
        argv.append(flag)
        spec = specs[flag]
        if spec.get("action") == "store_true":
            continue
        if "choices" in spec and rng.random() < 0.8:
            argv.append(rng.choice(spec["choices"]))
        elif spec.get("type") is cli._int:
            argv.append(rng.choice(INTS) if rng.random() < 0.2 else str(rng.randint(-9, 9)))
        else:
            argv.append(rng.choice(TEXTS))
    if rng.random() < 0.5:
        return argv  # well-formed, unless a value above is not
    kind = rng.choice(("drop", "insert", "swap", "replace", "truncate"))
    at = rng.randrange(len(argv))
    if kind == "drop":
        del argv[at]
    elif kind == "insert":
        argv.insert(at, rng.choice(WORDS + TEXTS))
    elif kind == "swap" and len(argv) > 1:
        argv[at - 1], argv[at] = argv[at], argv[at - 1]
    elif kind == "replace":
        argv[at] = rng.choice(WORDS + TEXTS + [argv[at][:-1], argv[at] + "=1"])
    elif kind == "truncate":
        del argv[at:]
    return argv


def test_reader_agrees_with_argparse_or_declines():
    rng = random.Random(20261019)
    parser = full_parser()
    accepted = 0
    for _ in range(3000):
        argv = random_argv(rng)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                want = vars(parser.parse_args(argv))
            except SystemExit:
                want = None  # help or a usage error
        got = cli._read(argv)
        if got is not None:
            accepted += 1
            assert vars(got) == want, argv
    assert accepted > 600  # the reader takes a good share of the lines argparse takes


def test_recording_covers_every_case():
    assert [case["argv"] for case in RECORDED["cases"]] == CASES


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    RECORDING.write_text(
        json.dumps(
            {"python": sys.version_info[:2], "cases": [surface(new_parse, a) for a in CASES]},
            indent=1,
            ensure_ascii=False,
        )
        + "\n",
        encoding="utf-8",
    )
