"""The command-line surface: help texts, usage errors and their exit codes.

``golden/cli_surface.json`` holds the stdout, stderr and exit code of every
case below, recorded from the builder that made all twenty parsers on
every call.  argparse words its help and errors differently from one Python
version to the next, so the recording is compared byte for byte only on
the version that made it; on every version the parser is also compared
with that full builder, kept in ``oracles.full_parser``.

    PYTHONPATH=src python tests/test_cli_surface.py

rewrites the recording from the current parser.
"""

import contextlib
import io
import json
import os
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
