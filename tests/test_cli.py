"""Command-line surface: outputs, exit codes, determinism."""

from fractions import Fraction
from pathlib import Path

import pytest

import nodalbn as nb
from nodalbn.cli import _fmt, main
from conftest import forbid_enumeration, shift_first_window
from oracles import enumerating_invariance_check

TWO_CURVE = "component 1 genus 2\ncomponent 2 genus 3\nnode 1 1 2\n"
COMB4 = (
    "component 1 genus 2\ncomponent 2 genus 3\ncomponent 3 genus 4\n"
    "component 4 genus 5\nnode 1 1 4\nnode 2 2 4\nnode 3 3 4\n"
)
WITH_SHEAF = TWO_CURVE + "sheaf\nrank 2 2\nchi -6\nstalk 1 1 1 1\n"


@pytest.fixture
def two_path(tmp_path):
    path = tmp_path / "two.crv"
    path.write_text(TWO_CURVE)
    return str(path)


@pytest.fixture
def comb4_path(tmp_path):
    path = tmp_path / "comb4.crv"
    path.write_text(COMB4)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def kv(out: str) -> dict:
    pairs = {}
    for line in out.splitlines():
        if line.startswith("#"):
            break
        if ": " in line:
            key, value = line.split(": ", 1)
            pairs[key] = value
    return pairs


class TestCurveCommands:
    def test_validate(self, capsys, two_path):
        code, out, _ = run(capsys, "curve", "validate", "--curve", two_path)
        assert code == 0
        pairs = kv(out)
        assert out.startswith("command: nodalbn curve validate")
        assert len(pairs["curve_digest"]) == 12
        assert pairs["gamma"] == "2"
        assert pairs["delta"] == "1"
        assert pairs["genera"] == "2,3"
        assert pairs["arithmetic_genus"] == "5"
        assert pairs["compact_type"] == "yes"
        assert pairs["classification"] == "chain_and_comb"

    def test_validate_echo_round_trip(self, capsys, two_path):
        code, out, _ = run(capsys, "curve", "validate", "--curve", two_path, "--echo")
        assert code == 0
        echo = out.split("#echo\n", 1)[1]
        assert nb.parse_curve(echo) == nb.parse_curve(TWO_CURVE)
        # canonical text re-renders to itself
        assert echo.strip() == nb.render_curve(nb.parse_curve(TWO_CURVE)).strip()

    def test_validate_rejects_bad_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.crv"
        bad.write_text("component 1 genus 1\n")
        code, _, err = run(capsys, "curve", "validate", "--curve", str(bad))
        assert code == 2
        assert "error:" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "curve", "validate", "--curve", str(tmp_path / "x.crv"))
        assert code == 2
        assert "cannot read" in err

    def test_classify(self, capsys, comb4_path):
        code, out, _ = run(capsys, "curve", "classify", "--curve", comb4_path)
        assert code == 0
        assert kv(out)["classification"] == "comb"


class TestOrderCommand:
    def test_root_flag_is_required(self, capsys, two_path):
        code, _, _ = run(capsys, "order", "--curve", two_path)
        assert code == 2

    def test_worked_order(self, capsys, two_path):
        code, out, _ = run(capsys, "order", "--curve", two_path, "--root", "2")
        assert code == 0
        pairs = kv(out)
        assert pairs["root"] == "2"
        assert pairs["order"] == "1,2"

    def test_table_lists_tails(self, capsys, comb4_path):
        code, out, _ = run(capsys, "order", "--curve", comb4_path, "--root", "4")
        assert code == 0
        lines = out.split("#table decomposition\n", 1)[1].strip().splitlines()
        assert lines[0] == "j\tsubcurve\tseparating_node"
        assert lines[1] == "1\t1\t1"
        assert len(lines) == 4

    def test_bad_root(self, capsys, two_path):
        code, _, err = run(capsys, "order", "--curve", two_path, "--root", "9")
        assert code == 2
        assert "error:" in err


class TestPolarizationCommands:
    def test_canonical(self, capsys, two_path):
        code, out, _ = run(capsys, "polarization", "canonical", "--curve", two_path)
        assert code == 0
        pairs = kv(out)
        assert pairs["eta"] == "3/8,5/8"
        assert pairs["goodness_proxy"] == "pass"

    def test_check_good(self, capsys, two_path):
        code, out, _ = run(
            capsys, "polarization", "check", "--curve", two_path, "--omega", "3/8,5/8"
        )
        assert code == 0
        assert kv(out)["goodness_proxy"] == "pass"

    def test_check_bad_weights_exit_one(self, capsys, two_path):
        code, out, _ = run(
            capsys, "polarization", "check", "--curve", two_path, "--omega", "1/4,3/4"
        )
        assert code == 1
        assert kv(out)["goodness_proxy"] == "fail"
        assert "1\t1\t0\tfail" in out

    def test_check_invalid_weights_exit_two(self, capsys, two_path):
        code, _, err = run(
            capsys, "polarization", "check", "--curve", two_path, "--omega", "1/4,1/4"
        )
        assert code == 2
        assert "error:" in err


# a wrong number of weights is unusable input (exit 2), not a negative verdict (exit 1)
@pytest.mark.parametrize("argv", [
    ("polarization", "check"),
    ("components", "enumerate", "--rank", "2", "--degree", "2"),
    ("bn", "certify", "--s", "2", "--k", "1", "--d", "2"),
])
def test_wrong_length_omega_exits_two(capsys, two_path, argv):
    code, out, err = run(capsys, *argv, "--curve", two_path, "--omega", "1/2,1/4,1/4")
    assert code == 2
    assert out == ""
    assert err == "error: bad omega: polarization has 3 weights for 2 components\n"


# the degrees come from --tuple, not from a line of the curve file
@pytest.mark.parametrize("action", ["check", "radius"])
@pytest.mark.parametrize("degrees", ["1", "1,1,1"])
def test_wrong_length_tuple_names_the_option(capsys, two_path, action, degrees):
    code, out, err = run(
        capsys, "components", action, "--curve", two_path, "--rank", "2", "--tuple", degrees
    )
    assert code == 2
    assert out == ""
    n = degrees.count(",") + 1
    assert err == f"error: --tuple has {n} degrees for 2 components\n"


# a bad token in an option value names the option, not a line of the curve file
@pytest.mark.parametrize("argv, err", [
    (("components", "check", "--rank", "2", "--tuple", "1,x"),
     "error: --tuple: bad integer token 'x'\n"),
    (("polarization", "check", "--omega", "1/2,y"),
     "error: --omega: bad rational token 'y'\n"),
])
def test_bad_option_token_names_the_option(capsys, two_path, argv, err):
    code, out, got = run(capsys, *argv, "--curve", two_path)
    assert code == 2
    assert out == ""
    assert got == err


class TestSheafCommand:
    def test_info(self, capsys, tmp_path):
        path = tmp_path / "sheaf.crv"
        path.write_text(WITH_SHEAF)
        code, out, _ = run(capsys, "sheaf", "info", "--curve", str(path))
        assert code == 0
        pairs = kv(out)
        assert pairs["multirank"] == "2,2"
        assert pairs["chi"] == "-6"
        assert pairs["locally_free"] == "no"
        assert pairs["wrank"] == "2"
        assert pairs["wdeg"] == "2"
        assert pairs["wslope"] == "1"
        assert pairs["ext_defect_self"] == "2"

    def test_info_needs_block(self, capsys, two_path):
        code, _, err = run(capsys, "sheaf", "info", "--curve", two_path)
        assert code == 2
        assert "no sheaf block" in err


class TestComponentsCommands:
    def test_enumerate_worked(self, capsys, two_path):
        code, out, _ = run(
            capsys,
            "components", "enumerate", "--curve", two_path,
            "--rank", "2", "--degree", "2",
        )
        assert code == 0
        pairs = kv(out)
        assert pairs["omega"] == "3/8,5/8"
        assert pairs["count"] == "2"
        body = out.split("#table catalog\n", 1)[1].strip().splitlines()
        assert body[0] == "tuple\tj1_lower\tj1_sigma\tj1_upper\tverdict\tradius"
        assert body[1].startswith("0,2\t")
        assert body[2].startswith("1,1\t-1/4\t1\t7/4\tpass\t1/8")

    @pytest.mark.parametrize(
        "fixture, rank, degree", [("two_path", 2, 8), ("two_path", 3, 12), ("comb4_path", 3, 39)]
    )
    def test_enumerate_unbounded_when_coefficient_vanishes(
        self, capsys, request, fixture, rank, degree
    ):
        # d = s (p_a - 1): the bounds do not move with the weights
        path = request.getfixturevalue(fixture)
        curve = nb.parse_curve(Path(path).read_text())
        assert degree == rank * (curve.arithmetic_genus() - 1)
        code, out, _ = run(
            capsys,
            "components", "enumerate", "--curve", path,
            "--rank", str(rank), "--degree", str(degree),
        )
        assert code == 0
        body = out.split("#table catalog\n", 1)[1].strip().splitlines()
        assert int(kv(out)["count"]) == len(body) - 1 > 0
        assert body[0].endswith("\tverdict\tradius")
        assert all(row.endswith("\tpass\tunbounded") for row in body[1:])

    @pytest.mark.parametrize("extra", [(), ("--small-slope",)])
    def test_enumerate_builds_no_stability_rows(self, capsys, monkeypatch, comb4_path, extra):
        from nodalbn import components

        code, want, _ = run(
            capsys,
            "components", "enumerate", "--curve", comb4_path,
            "--rank", "3", "--degree", "5", *extra,
        )

        def refuse(*args, **kwargs):
            raise AssertionError("a StabilityRow was built")

        monkeypatch.setattr(components, "StabilityRow", refuse)
        assert run(
            capsys,
            "components", "enumerate", "--curve", comb4_path,
            "--rank", "3", "--degree", "5", *extra,
        ) == (code, want, "")
        assert code == 0 and "\tpass\t" in want

    def test_enumerate_small_slope(self, capsys, two_path):
        code, out, _ = run(
            capsys,
            "components", "enumerate", "--curve", two_path,
            "--rank", "2", "--degree", "2", "--small-slope",
        )
        assert code == 0
        assert kv(out)["count"] == "1"
        assert "0,2" not in out

    def test_enumerate_root_choice_same_catalog(self, capsys, comb4_path):
        _, out_a, _ = run(
            capsys,
            "components", "enumerate", "--curve", comb4_path,
            "--rank", "3", "--degree", "5", "--root", "1",
        )
        _, out_b, _ = run(
            capsys,
            "components", "enumerate", "--curve", comb4_path,
            "--rank", "3", "--degree", "5", "--root", "4",
        )
        tuples_a = sorted(line.split("\t")[0] for line in out_a.split("#table catalog\n")[1].strip().splitlines()[1:])
        tuples_b = sorted(line.split("\t")[0] for line in out_b.split("#table catalog\n")[1].strip().splitlines()[1:])
        assert tuples_a == tuples_b

    def test_check_pass(self, capsys, two_path):
        code, out, _ = run(
            capsys,
            "components", "check", "--curve", two_path,
            "--rank", "2", "--tuple", "1,1",
        )
        assert code == 0
        pairs = kv(out)
        assert pairs["verdict"] == "pass"
        assert pairs["degree"] == "2"

    def test_check_fail_exit_one(self, capsys, two_path):
        code, out, _ = run(
            capsys,
            "components", "check", "--curve", two_path,
            "--rank", "2", "--tuple", "3,-1",
        )
        assert code == 1
        assert kv(out)["verdict"] == "fail"

    def test_radius_worked(self, capsys, two_path):
        code, out, _ = run(
            capsys,
            "components", "radius", "--curve", two_path,
            "--rank", "2", "--tuple", "1,1",
        )
        assert code == 0
        assert kv(out)["radius"] == "1/8"

    def test_radius_unbounded(self, capsys, two_path):
        code, out, _ = run(
            capsys,
            "components", "radius", "--curve", two_path,
            "--rank", "2", "--tuple", "3,5",
        )
        assert code == 0
        assert kv(out)["radius"] == "unbounded"

    def test_radius_failing_tuple_exit_one(self, capsys, two_path):
        code, _, err = run(
            capsys,
            "components", "radius", "--curve", two_path,
            "--rank", "2", "--tuple", "3,-1",
        )
        assert code == 1
        assert "error:" in err

    def test_invariance(self, capsys, two_path):
        code, out, _ = run(
            capsys,
            "components", "invariance", "--curve", two_path,
            "--rank", "2", "--degree", "2",
        )
        assert code == 0
        pairs = kv(out)
        assert pairs["invariance"] == "pass"
        assert pairs["count"] == "2"


class TestBnCommands:
    def test_number(self, capsys):
        code, out, _ = run(
            capsys, "bn", "number", "--pa", "5", "--r", "3", "--d", "2", "--k", "1"
        )
        assert code == 0
        assert kv(out)["beta"] == "26"

    def test_bounds_pass(self, capsys):
        code, out, _ = run(
            capsys, "bn", "bounds", "--pa", "5", "--r", "3", "--d", "2", "--k", "1"
        )
        assert code == 0
        assert kv(out)["bgn_bounds"] == "pass"

    def test_bounds_fail_exit_one(self, capsys):
        code, out, _ = run(
            capsys, "bn", "bounds", "--pa", "2", "--r", "5", "--d", "1", "--k", "4"
        )
        assert code == 1
        assert kv(out)["bgn_bounds"] == "fail"

    def test_certify_worked(self, capsys, two_path):
        code, out, _ = run(
            capsys,
            "bn", "certify", "--curve", two_path, "--s", "2", "--k", "1", "--d", "2",
        )
        assert code == 0
        pairs = kv(out)
        assert pairs["certified"] == "yes"
        assert pairs["r"] == "3"
        assert pairs["tuple"] == "1,1"
        assert pairs["beta"] == "26"
        assert pairs["moduli_dim"] == "17"
        assert pairs["h1_dual"] == "10"
        assert pairs["fiber_dim"] == "9"
        assert pairs["identity"] == "26 = 17 + 9"
        table = out.split("#table checklist\n", 1)[1]
        assert "compact_type\tpass" in table
        assert "degree_range\tpass" in table

    def test_certify_failure_exit_one(self, capsys, two_path):
        code, out, _ = run(
            capsys,
            "bn", "certify", "--curve", two_path, "--s", "1", "--k", "1", "--d", "3",
        )
        assert code == 1
        assert kv(out)["certified"] == "no"
        assert "small_slope_tuple\tfail" in out

    def test_certify_bad_polarization_exit_one(self, capsys, two_path):
        code, _, err = run(
            capsys,
            "bn", "certify", "--curve", two_path, "--omega", "1/4,3/4",
            "--s", "2", "--k", "1", "--d", "2",
        )
        assert code == 1
        assert "goodness proxy" in err

    def test_scan_chain(self, capsys):
        code, out, _ = run(
            capsys,
            "bn", "scan", "--family", "chain",
            "--gamma-max", "2", "--genus-max", "3", "--s-max", "3",
        )
        assert code == 0
        pairs = kv(out)
        assert pairs["family"] == "chain"
        assert pairs["curves"] == "3"
        assert pairs["rows"] == "15"
        assert pairs["open"] == "0"
        assert out.count("CERTIFIED") == 15
        assert "OPEN" not in out

    def test_scan_comb(self, capsys):
        code, out, _ = run(
            capsys,
            "bn", "scan", "--family", "comb",
            "--gamma-max", "3", "--genus-max", "2", "--s-max", "4",
        )
        assert code == 0
        assert kv(out)["open"] == "0"


class TestHarness:
    def test_no_arguments_usage_error(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()

    def test_unknown_command(self, capsys):
        assert main(["widget"]) == 2
        capsys.readouterr()

    def test_deterministic_output(self, capsys, comb4_path):
        args = (
            "components", "enumerate", "--curve", comb4_path,
            "--rank", "4", "--degree", "6",
        )
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_command_echo_first_line(self, capsys, two_path):
        _, out, _ = run(capsys, "curve", "classify", "--curve", two_path)
        assert out.splitlines()[0] == f"command: nodalbn curve classify --curve {two_path}"


CYCLE = "component 1 genus 2\ncomponent 2 genus 3\nnode 1 1 2\nnode 2 1 2\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("order", "--root", "1"),
        ("components", "enumerate", "--rank", "2", "--degree", "2"),
    ],
)
def test_cyclic_curve_to_tree_command_exit_one(capsys, tmp_path, argv):
    path = tmp_path / "cycle.crv"
    path.write_text(CYCLE)
    code, out, err = run(capsys, *argv, "--curve", str(path))
    assert code == 1
    assert out == ""
    assert "tree dual graph" in err


# A gamma=5 tree classified "other": component 3 carries three nodes.  Node
# ids are scrambled and node 7 is written larger end first.  Rooted at 2,
# node 9 has its smaller endpoint on the root side, so its split side is the
# complement of the subtree below it.
OTHER5 = (
    "component 1 genus 3\ncomponent 2 genus 2\ncomponent 3 genus 4\n"
    "component 4 genus 2\ncomponent 5 genus 3\n"
    "node 4 1 2\nnode 9 2 3\nnode 2 3 4\nnode 7 5 3\n"
)
OTHER5_OMEGA = "11/52,2/13,17/52,3/26,5/26"  # canonical is 5/26,2/13,9/26,3/26,5/26
# A chain of seven genus-2 components: bn certify at s = d = 12 picks the first
# of 462 small-slope tuples out of a catalog of about three million.
CHAIN7 = "".join(f"component {i} genus 2\n" for i in range(1, 8)) + "".join(
    f"node {i} {i} {i + 1}\n" for i in range(1, 7)
)
GOLDEN_DIR = Path(__file__).parent / "golden"
# name -> (exit code, argv with {curve} for OTHER5 and {chain7} for CHAIN7)
GOLDEN_CASES = {
    "order": (0, ("order", "--curve", "{curve}", "--root", "2")),
    "polarization_canonical": (0, ("polarization", "canonical", "--curve", "{curve}")),
    "polarization_check": (
        0, ("polarization", "check", "--curve", "{curve}", "--omega", OTHER5_OMEGA)),
    "enumerate": (0, (
        "components", "enumerate", "--curve", "{curve}", "--omega", OTHER5_OMEGA,
        "--root", "2", "--rank", "3", "--degree", "7")),
    "enumerate_small_slope": (0, (
        "components", "enumerate", "--curve", "{curve}", "--omega", OTHER5_OMEGA,
        "--root", "2", "--rank", "3", "--degree", "7", "--small-slope")),
    "check_pass": (0, (
        "components", "check", "--curve", "{curve}", "--omega", OTHER5_OMEGA,
        "--root", "2", "--rank", "3", "--tuple", "1,1,2,1,2")),
    "check_fail": (1, (
        "components", "check", "--curve", "{curve}", "--omega", OTHER5_OMEGA,
        "--root", "2", "--rank", "3", "--tuple", "7,0,0,0,0")),
    "radius": (0, (
        "components", "radius", "--curve", "{curve}", "--omega", OTHER5_OMEGA,
        "--root", "2", "--rank", "3", "--tuple", "1,1,2,1,2")),
    "certify_chain7": (0, (
        "bn", "certify", "--curve", "{chain7}", "--s", "12", "--k", "1", "--d", "12")),
}


def golden_run(capsys, tmp_path, name):
    """Run one golden case; return its exit code and stdout with the paths masked."""
    path = tmp_path / "other5.crv"
    path.write_text(OTHER5)
    chain7 = tmp_path / "chain7.crv"
    chain7.write_text(CHAIN7)
    code, argv = GOLDEN_CASES[name]
    got = main([arg.format(curve=path, chain7=chain7) for arg in argv])
    out = capsys.readouterr().out
    return code, got, out.replace(str(path), "other5.crv").replace(str(chain7), "chain7.crv")


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_byte_golden(capsys, tmp_path, name):
    code, got, out = golden_run(capsys, tmp_path, name)
    assert got == code
    assert out == (GOLDEN_DIR / f"{name}.out").read_text(encoding="utf-8")


class TestInvarianceCommand:
    """`components invariance` reads windows, and enumerates only on a mismatch."""

    def test_agreeing_windows_enumerate_nothing(self, capsys, monkeypatch, comb4_path):
        curve = nb.parse_curve(COMB4)
        oracle = enumerating_invariance_check(curve, nb.canonical(curve), 3, 5)
        forbid_enumeration(monkeypatch)
        code, out, _ = run(
            capsys,
            "components", "invariance", "--curve", comb4_path,
            "--rank", "3", "--degree", "5",
        )
        assert code == 0
        assert kv(out)["invariance"] == "pass"
        assert kv(out)["count"] == str(len(oracle.catalog))
        assert "#table" not in out

    def test_mismatch_exits_one_with_table(self, capsys, monkeypatch, comb4_path):
        shift_first_window(monkeypatch, root=2, shift=1)
        curve = nb.parse_curve(COMB4)
        oracle = enumerating_invariance_check(curve, nb.canonical(curve), 3, 5)
        code, out, _ = run(
            capsys,
            "components", "invariance", "--curve", comb4_path,
            "--rank", "3", "--degree", "5",
        )
        assert code == 1
        pairs = kv(out)
        assert pairs["invariance"] == "fail"
        assert pairs["count"] == str(len(oracle.catalog))

        def cell(tuples):
            return ",".join(",".join(map(str, t.degrees)) for t in tuples) or "-"

        rows = [f"{m.root}\t{cell(m.missing)}\t{cell(m.extra)}" for m in oracle.mismatches]
        assert rows
        assert out.endswith("\n".join(["#table mismatches", "root\tmissing\textra", *rows]) + "\n")


class StrSubclass(str):
    pass


@pytest.mark.parametrize("value, text", [
    (True, "yes"),
    (False, "no"),
    (7, "7"),
    (-2, "-2"),
    ("pass", "pass"),
    (StrSubclass("chain"), "chain"),
    (Fraction(3, 4), "3/4"),
    (Fraction(4, 2), "2"),
    (frozenset({10, 2, 3}), "2,3,10"),
    (frozenset(), ""),
    ((1, True, Fraction(1, 2)), "1,yes,1/2"),
    ([frozenset({2, 1}), 3], "1,2,3"),
    (None, "None"),
])
def test_fmt_cells(value, text):
    assert _fmt(value) == text
