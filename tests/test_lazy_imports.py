"""Which modules each entry point loads.

The test session has imported every module already, so each check runs in
a fresh interpreter and reads ``sys.modules`` there.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nodalbn as nb

SRC = Path(__file__).resolve().parent.parent / "src"
SUBMODULES = {
    "brill_noether", "components", "curve", "ordering", "parsing", "polarization", "sheaf",
}
# dir(nodalbn) after a bare import, as the package listed it when it imported
# every submodule eagerly: __all__, these dunders and the submodules
DUNDERS = {
    "__all__", "__builtins__", "__cached__", "__doc__", "__file__", "__loader__",
    "__name__", "__package__", "__path__", "__spec__", "__version__",
}

RUN_CLI = """
import sys
start = set(sys.modules)
import contextlib, io, json
from nodalbn import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps({
    "code": code, "loaded": sorted(sys.modules), "added": sorted(set(sys.modules) - start),
}))
"""

RUN_VERIFY = """
import sys
start = set(sys.modules)
import json
import nodalbn as nb
curve = nb.chain_curve([2, 3, 2])
check = nb.verify_decomposition(curve, nb.order_components(curve, 1))
print(json.dumps({"ok": check.ok, "added": sorted(set(sys.modules) - start)}))
"""

BARE_IMPORT = """
import json, sys
import nodalbn
loaded = sorted(m for m in sys.modules if m.startswith("nodalbn"))
names = sorted(dir(nodalbn))
star = {}
exec("from nodalbn import *", star)
unresolved = [
    n for n in [*nodalbn.__all__, *sys.argv[1:]]
    if getattr(nodalbn, n, None) is None
]
print(json.dumps({
    "loaded": loaded,
    "dir": names,
    "unbound": sorted(set(nodalbn.__all__) - set(star)),
    "unresolved": unresolved,
    "same_error": nodalbn.HypothesisError is nodalbn.components.HypothesisError,
}))
"""


def fresh_python(code: str, *argv: str, flags: tuple[str, ...] = ()) -> dict:
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, *flags, "-c", code, *argv],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return json.loads(done.stdout)


# fractions imports decimal and numbers: 2.0-2.1 ms of a command's start-up under
# -X importtime, 1.2 ms of it decimal, and 2.1 ms of wall time per process
# (`python3 -c "import fractions"` against `-c pass`, medians of 40 alternating runs;
# Python 3.11.7, 2 cores).  Only a command that prints a rational other than an
# integer-built weight needs them; the polarization layer loads only where a command
# resolves --omega.
FRACTIONS = {"fractions", "decimal", "numbers"}
RATIONALS = FRACTIONS | {"nodalbn.polarization"}
CERTIFICATES = {"nodalbn.components", "nodalbn.brill_noether"}
# a sheaf block: reading one must not load the polarization layer
SHEAF_FILE = ("component 1 genus 2\ncomponent 2 genus 3\nnode 1 1 2\n"
              "sheaf\nrank 2 2\nchi -6\nstalk 1 1 1 1\n")


@pytest.mark.parametrize(
    "argv, absent",
    [
        (("curve", "validate", "--curve", "{curve}", "--echo"), CERTIFICATES | RATIONALS),
        (("curve", "classify", "--curve", "{curve}"), CERTIFICATES | RATIONALS),
        (("polarization", "canonical", "--curve", "{curve}"), CERTIFICATES),
        (("order", "--curve", "{curve}", "--root", "2"), CERTIFICATES | RATIONALS),
        (("bn", "number", "--pa", "3", "--r", "2", "--d", "4", "--k", "1"),
         {f"nodalbn.{m}" for m in SUBMODULES - {"brill_noether"}} | RATIONALS),
        (("bn", "bounds", "--pa", "3", "--r", "2", "--d", "4", "--k", "1"),
         {f"nodalbn.{m}" for m in SUBMODULES - {"brill_noether"}} | RATIONALS),
    ],
    ids=["curve-validate", "curve-classify", "polarization-canonical", "order", "bn-number",
         "bn-bounds"],
)
def test_command_loads_only_what_it_runs(tmp_path, argv, absent):
    curve = tmp_path / "two.crv"
    curve.write_text(SHEAF_FILE)
    got = fresh_python(RUN_CLI, *(a.format(curve=curve) for a in argv))
    assert got["code"] == 0
    assert not absent & set(got["added"])


@pytest.mark.parametrize(
    "argv, code",
    [
        (("bn", "scan", "--family", "chain", "--gamma-max", "4", "--genus-max", "3",
          "--s-max", "8"), 0),
        (("bn", "scan", "--family", "comb", "--gamma-max", "4", "--genus-max", "3",
          "--s-max", "8"), 0),
        (("bn", "certify", "--curve", "{curve}", "--s", "4", "--k", "1", "--d", "1"), 1),
        (("components", "invariance", "--curve", "{curve}", "--rank", "2", "--degree", "2"), 0),
    ],
    ids=["bn-scan-chain", "bn-scan-comb", "bn-certify-refused", "components-invariance"],
)
def test_integer_command_at_canonical_omega_loads_no_fractions(tmp_path, argv, code):
    # canonical weights stay integers, and each verdict is an integer comparison;
    # the certify cell has d < gamma, so it is refused with no tuple to print
    got = run_command(tmp_path, argv)
    assert got["code"] == code
    assert not FRACTIONS & set(got["added"])


@pytest.mark.parametrize(
    "argv",
    [
        ("sheaf", "info", "--curve", "{curve}"),
        ("polarization", "canonical", "--curve", "{curve}"),
    ],
    ids=["sheaf-info", "polarization-canonical"],
)
def test_rational_command_loads_fractions(tmp_path, argv):
    # the probe sees fractions and polarization where a command loads them
    curve = tmp_path / "two.crv"
    curve.write_text(SHEAF_FILE)
    got = fresh_python(RUN_CLI, *(a.format(curve=curve) for a in argv))
    assert got["code"] == 0
    assert {"fractions", "nodalbn.polarization"} <= set(got["added"])


# importing hashlib maps OpenSSL's libcrypto: 4.4-4.8 ms under -X importtime (3.5-3.9 ms
# of it _hashlib), and max RSS 3.5 MB above an import of _sha256, which takes 0.3 ms
# (Python 3.11.7, 2 cores); the curve digest takes the built-in module instead
DIGEST = {"hashlib", "_hashlib"}
BUILTIN_SHA256 = any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256"))
IMPORT_CLI = """
import sys
start = set(sys.modules)
import json
import nodalbn.cli
print(json.dumps({"added": sorted(set(sys.modules) - start)}))
"""


@pytest.mark.parametrize(
    "code, argv",
    [
        (RUN_CLI, ("bn", "number", "--pa", "3", "--r", "2", "--d", "4", "--k", "1")),
        (RUN_CLI, ("bn", "bounds", "--pa", "3", "--r", "2", "--d", "4", "--k", "1")),
        (IMPORT_CLI, ()),
    ],
    ids=["bn-number", "bn-bounds", "import-cli"],
)
def test_no_digest_without_a_curve(code, argv):
    got = fresh_python(code, *argv)
    assert not DIGEST & set(got["added"])


@pytest.mark.skipif(not BUILTIN_SHA256, reason="no built-in SHA-256 module in this build")
@pytest.mark.parametrize(
    "argv",
    [
        ("curve", "validate", "--curve", "{curve}"),
        ("curve", "classify", "--curve", "{curve}"),
        ("order", "--curve", "{curve}", "--root", "2"),
        ("polarization", "canonical", "--curve", "{curve}"),
        ("sheaf", "info", "--curve", "{curve}"),
        ("components", "check", "--curve", "{curve}", "--rank", "2", "--tuple", "1,1"),
        ("bn", "certify", "--curve", "{curve}", "--s", "2", "--k", "1", "--d", "2"),
    ],
    ids=["curve-validate", "curve-classify", "order", "polarization-canonical", "sheaf-info",
         "components-check", "bn-certify"],
)
def test_curve_command_digests_without_openssl(tmp_path, argv):
    curve = tmp_path / "two.crv"
    curve.write_text("component 1 genus 2\ncomponent 2 genus 3\nnode 1 1 2\n"
                     "sheaf\nrank 2 2\nchi -6\nstalk 1 1 1 1\n")
    got = fresh_python(RUN_CLI, *(a.format(curve=curve) for a in argv))
    assert got["code"] == 0
    assert not DIGEST & set(got["added"])
    assert {"_sha2", "_sha256"} & set(got["loaded"])


def test_importing_the_cli_loads_no_other_module_of_the_package():
    got = fresh_python(IMPORT_CLI)
    assert [m for m in got["added"] if m.startswith("nodalbn")] == ["nodalbn", "nodalbn.cli"]


def test_bare_import_loads_nothing_and_resolves_every_name():
    got = fresh_python(BARE_IMPORT, *sorted(SUBMODULES))
    assert got["loaded"] == ["nodalbn"]
    assert got["unresolved"] == []
    assert got["unbound"] == []
    assert got["same_error"]


def test_dir_lists_exports_dunders_and_submodules():
    got = fresh_python(BARE_IMPORT)
    assert set(got["dir"]) == set(nb.__all__) | DUNDERS | SUBMODULES


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'nodalbn' has no attribute 'no_such_name'"):
        nb.no_such_name


# argparse imports gettext, and gettext imports locale on its first lookup: about
# 4-5 ms of a command's start-up (Python 3.11.7, 2 cores); a well-formed command
# line is read without them
ARGUMENT_PARSING = {"argparse", "gettext", "locale"}


# one well-formed line per command; "{curve}" is a two-component curve with a sheaf block
EVERY_COMMAND = [
    ("curve", "validate", "--curve", "{curve}", "--echo"),
    ("curve", "classify", "--curve", "{curve}"),
    ("order", "--curve", "{curve}", "--root", "2"),
    ("polarization", "canonical", "--curve", "{curve}"),
    ("polarization", "check", "--curve", "{curve}", "--omega", "1/2,1/2"),
    ("sheaf", "info", "--curve", "{curve}"),
    ("components", "enumerate", "--curve", "{curve}", "--rank", "2", "--degree", "2",
     "--small-slope"),
    ("components", "check", "--curve", "{curve}", "--rank", "2", "--tuple", "1,1"),
    ("components", "radius", "--curve", "{curve}", "--rank", "2", "--tuple", "1,1",
     "--root", "1"),
    ("components", "invariance", "--curve", "{curve}", "--rank", "2", "--degree", "2"),
    ("bn", "number", "--pa", "3", "--r", "2", "--d", "4", "--k", "1"),
    ("bn", "bounds", "--pa", "3", "--r", "2", "--d", "4", "--k", "1"),
    ("bn", "certify", "--curve", "{curve}", "--s", "2", "--k", "1", "--d", "2"),
    ("bn", "scan", "--family", "chain", "--gamma-max", "3", "--genus-max", "2", "--s-max", "4"),
]


def command_id(argv):
    return "-".join(word for word in argv[:2] if word[0] != "-")


def run_command(tmp_path, argv, flags=()):
    curve = tmp_path / "two.crv"
    curve.write_text(SHEAF_FILE)
    return fresh_python(RUN_CLI, *(a.format(curve=curve) for a in argv), flags=flags)


@pytest.mark.parametrize("argv", EVERY_COMMAND, ids=command_id)
def test_well_formed_command_loads_no_argument_parser(tmp_path, argv):
    got = run_command(tmp_path, argv)
    assert got["code"] in (0, 1)
    assert not ARGUMENT_PARSING & set(got["loaded"])


# importing typing took 15-17 ms under -S -X importtime (Python 3.11.7, 2 cores) where
# nothing preloads it; under -S no site hook can load it first and hide it
@pytest.mark.parametrize("argv", EVERY_COMMAND, ids=command_id)
def test_command_loads_no_typing(tmp_path, argv):
    got = run_command(tmp_path, argv, flags=("-S",))
    assert got["code"] in (0, 1)
    assert "typing" not in got["loaded"]


def test_help_still_loads_argparse():
    got = fresh_python(RUN_CLI, "bn", "number", "--help")
    assert got["code"] == 0
    assert "argparse" in got["loaded"]


# dataclasses pulls in inspect, ast, dis and tokenize: about 10 ms of every start-up
CODE_GENERATION = {"dataclasses", "inspect"}


@pytest.mark.parametrize(
    "argv",
    [
        ("bn", "scan", "--family", "chain", "--gamma-max", "3", "--genus-max", "2",
         "--s-max", "4"),
        ("bn", "certify", "--curve", "{curve}", "--s", "2", "--k", "1", "--d", "2"),
        ("components", "enumerate", "--curve", "{curve}", "--rank", "2", "--degree", "2"),
        ("components", "invariance", "--curve", "{curve}", "--rank", "2", "--degree", "2"),
        ("order", "--curve", "{curve}", "--root", "2"),
        ("curve", "validate", "--curve", "{curve}"),
    ],
    ids=["bn-scan", "bn-certify", "components-enumerate", "components-invariance", "order",
         "curve-validate"],
)
def test_command_loads_no_dataclass_machinery(tmp_path, argv):
    curve = tmp_path / "two.crv"
    curve.write_text("component 1 genus 2\ncomponent 2 genus 3\nnode 1 1 2\n")
    got = fresh_python(RUN_CLI, *(a.format(curve=curve) for a in argv))
    assert got["code"] == 0
    assert not CODE_GENERATION & set(got["added"])


IMPORT_COMPONENTS = """
import sys
start = set(sys.modules)
import json
import nodalbn as nb
from nodalbn import components
imported = sorted(set(sys.modules) - start)
value = components.DEFAULT_WITNESS_MULTIPLIER
print(json.dumps({
    "imported": imported,
    "value": [type(value).__name__, value.numerator, value.denominator],
    "same": nb.DEFAULT_WITNESS_MULTIPLIER is value,
    "missing": not hasattr(components, "no_such_name"),
}))
"""


def test_witness_multiplier_is_built_when_first_read():
    got = fresh_python(IMPORT_COMPONENTS)
    assert not FRACTIONS & set(got["imported"])
    assert got["value"] == ["Fraction", 1001, 1000]
    assert got["same"] and got["missing"]


def test_verify_decomposition_loads_no_dataclass_machinery():
    got = fresh_python(RUN_VERIFY)
    assert got["ok"]
    assert not CODE_GENERATION & set(got["added"])


def test_verify_decomposition_loads_no_polarization():
    got = fresh_python(RUN_VERIFY)
    assert got["ok"]
    assert not RATIONALS & set(got["added"])
