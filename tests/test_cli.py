"""Command-line surface: outputs, exit codes, determinism."""

import contextlib
import gc
import io
import os
import random
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import nodalbn as nb
from nodalbn import cli
from nodalbn.cli import _fmt, main
from conftest import (
    forbid_enumeration,
    random_good_polarization,
    random_tree_curve,
    shift_first_window,
)
from oracles import (
    brute_force_box_size,
    brute_force_catalog,
    brute_force_small_slope,
    enumerating_invariance_check,
    raw_arithmetic_genus,
    raw_row,
    raw_windows,
)

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


class TestCurveDigest:
    """``curve_digest`` is the first 12 hex digits of SHA-256 of the file's bytes."""

    @pytest.mark.parametrize("text", [
        "component 1 genus 2\n",
        "# two components, one node\n" + TWO_CURVE,
        "".join(f"component {i} genus 2\n" for i in range(1, 2001))
        + "".join(f"node {i} {i} {i + 1}\n" for i in range(1, 2000)),
    ], ids=["one-component", "two-crv", "chain-2000"])
    def test_digest_is_sha256_of_the_file_bytes(self, capsys, tmp_path, text):
        import hashlib

        path = tmp_path / "c.crv"
        path.write_bytes(text.encode())
        code, out, _ = run(capsys, "curve", "validate", "--curve", str(path))
        assert code == 0
        assert kv(out)["curve_digest"] == hashlib.sha256(text.encode()).hexdigest()[:12]

    def test_readme_two_crv_digest_reads_the_comment_line(self, capsys, tmp_path):
        digests = []
        for text in ("# two components, one node\n" + TWO_CURVE,
                     "# two components and one node\n" + TWO_CURVE, TWO_CURVE):
            path = tmp_path / "two.crv"
            path.write_text(text)
            code, out, _ = run(capsys, "curve", "validate", "--curve", str(path))
            assert code == 0
            digests.append(kv(out)["curve_digest"])
        assert digests[0] == "29a0003d328e"  # README's two.crv, as its transcript prints
        assert len(set(digests)) == 3  # a comment-only edit changes the digest


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

    @pytest.mark.parametrize("nodes, err", [
        ("node 1 1 2\nnode 2 1 9\n", "error: line 5: node 2 references unknown component 9\n"),
        ("node 1 1 2\n", "error: dual graph is not connected\n"),
    ], ids=["unknown-endpoint", "disconnected"])
    def test_validate_names_the_faulty_line(self, capsys, tmp_path, nodes, err):
        bad = tmp_path / "bad.crv"
        bad.write_text("component 1 genus 2\ncomponent 2 genus 2\ncomponent 3 genus 2\n" + nodes)
        code, out, got = run(capsys, "curve", "validate", "--curve", str(bad))
        assert (code, out, got) == (2, "", err)

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

    # a two-component genus-(2, 2) curve: component 1's side has defect 1 - 2 + 3 w_1
    def test_check_at_a_defect_of_one_over_the_denominator_passes(self, capsys, tmp_path):
        path = tmp_path / "twos.crv"
        path.write_text("component 1 genus 2\ncomponent 2 genus 2\nnode 1 1 2\n")
        code, out, _ = run(
            capsys, "polarization", "check", "--curve", str(path), "--omega", "2/5,3/5"
        )
        assert code == 0
        assert kv(out)["goodness_proxy"] == "pass"
        assert "\n1\t1\t1/5\tpass\n" in out

    def test_a_defect_of_one_fails_the_check_and_certify(self, capsys, tmp_path):
        path = tmp_path / "twos.crv"
        path.write_text("component 1 genus 2\ncomponent 2 genus 2\nnode 1 1 2\n")
        code, out, _ = run(
            capsys, "polarization", "check", "--curve", str(path), "--omega", "2/3,1/3"
        )
        assert code == 1
        assert kv(out)["goodness_proxy"] == "fail"
        assert "\n1\t1\t1\tfail\n" in out
        code, out, err = run(
            capsys, "bn", "certify", "--curve", str(path), "--omega", "2/3,1/3",
            "--s", "2", "--k", "1", "--d", "2",
        )
        assert (code, out) == (1, "")
        assert err == "error: polarization fails the goodness proxy at node(s) 1 (defect 1)\n"

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
    # Fraction reads '1_0' as 10 from Python 3.11 on; the grammar refuses it everywhere
    (("polarization", "check", "--omega", "1_0/20,1/2"),
     "error: --omega: bad rational token '1_0/20'\n"),
    # int reads '0_1' as 1 on every version; the tuple would have been 1,1
    (("components", "check", "--rank", "2", "--tuple", "0_1,1"),
     "error: --tuple: bad integer token '0_1'\n"),
])
def test_bad_option_token_names_the_option(capsys, two_path, argv, err):
    code, out, got = run(capsys, *argv, "--curve", two_path)
    assert code == 2
    assert out == ""
    assert got == err


def test_digit_group_in_a_curve_file_names_the_line(capsys, tmp_path):
    # int reads '1_0' as 10: the curve would have had a genus-10 component
    path = tmp_path / "grouped.crv"
    path.write_text("component 1 genus 2\ncomponent 2 genus 1_0\nnode 1 1 2\n")
    code, out, err = run(capsys, "polarization", "canonical", "--curve", str(path))
    assert code == 2
    assert out == ""
    assert err == "error: line 2: genus must be an integer, got '1_0'\n"


def _leaves():
    """(words, options) for every leaf of ``cli.COMMANDS``."""
    for group, (_, leaves) in cli.COMMANDS.items():
        if isinstance(leaves, dict):
            for action, options in leaves.items():
                yield (group, action), options
        else:
            yield (group,), leaves


# (words..., flag) for every option that argparse converts
INT_OPTIONS = [
    (*words, flag) for words, options in _leaves() for flag, spec in options if "type" in spec
]


def test_integer_options_are_listed():
    assert len(INT_OPTIONS) == 24
    assert ("order", "--root") in INT_OPTIONS
    assert ("components", "check", "--root") in INT_OPTIONS


@pytest.mark.parametrize("argv", INT_OPTIONS, ids=" ".join)
def test_integer_option_refuses_digit_groups(capsys, argv):
    # int reads '1_0' as 10; argparse's usage error names the option, as for 'x'
    for value in ("1_0", "x"):
        code, out, err = run(capsys, *argv, value)
        assert code == 2
        assert out == ""
        assert err.endswith(f" error: argument {argv[-1]}: invalid int value: {value!r}\n")


@pytest.mark.parametrize(
    "plain, spelled",
    [
        (["bn", "number", "--pa", "3", "--r", "2", "--d", "4", "--k", "1"],
         ["bn", "number", "--pa=3", "--r", "2", "--d", "4", "--k", "1"]),
        (["curve", "validate", "--curve", "{path}", "--echo"],
         ["curve", "validate", "--cur", "{path}", "--ec"]),
        (["order", "--curve", "{path}", "--root", "-1"],
         ["order", "--curve", "{path}", "--root=-1"]),
    ],
    ids=["flag=value", "abbreviations", "negative-root"],
)
def test_argparse_spellings_run_the_same_command(capsys, two_path, plain, spelled):
    # the reader declines these spellings and argparse reads them
    fill = [[word.format(path=two_path) for word in argv] for argv in (plain, spelled)]
    assert cli._read(fill[0]) is not None and cli._read(fill[1]) is None
    (code, out, err), (code2, out2, err2) = (run(capsys, *argv) for argv in fill)
    assert (code, err, out.splitlines()[1:]) == (code2, err2, out2.splitlines()[1:])


def test_omega_reads_a_finite_decimal_exactly(capsys, two_path):
    code, out, err = run(
        capsys, "polarization", "check", "--curve", two_path, "--omega", "0.5,1/2"
    )
    assert err == ""
    assert kv(out)["omega"] == "1/2,1/2"
    assert (code, kv(out)["goodness_proxy"]) == (1, "fail")  # the side {1} has defect 1


# Fraction('1e-10000000') builds 10^10000000 before it checks anything, seconds of
# work; '1e-5000' parses, but its 5,001-digit denominator cannot be printed under
# int's limit on string conversion
@pytest.mark.parametrize("omega", ["1e-10000000,1", "1e-5000,5e-1"])
def test_omega_exponent_past_the_int_limit_is_refused_unbuilt(tmp_path, omega):
    (tmp_path / "two.crv").write_text(TWO_CURVE)
    argv = ("polarization", "check", "--curve", "two.crv", "--omega", omega)
    with fresh_cli(tmp_path, *argv) as proc:
        try:
            out, err = proc.communicate(timeout=5)
        finally:
            proc.kill()
    token = omega.split(",")[0]
    want = f"error: --omega: bad rational token {token!r}\n"
    assert (proc.returncode, out, err.decode()) == (2, b"", want)


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

    @pytest.mark.parametrize("text, err", [
        (WITH_SHEAF + "sheaf\n", "error: line 8: only one sheaf block is allowed\n"),
        (WITH_SHEAF.replace("stalk", "degrees 1\nstalk"),
         "error: line 7: degrees needs 2 values, got 1\n"),
        (WITH_SHEAF.replace("sheaf", "sheaf x"), "error: line 4: expected a bare 'sheaf' line\n"),
        (WITH_SHEAF.replace("chi -6", "chi -6 1"), "error: line 6: expected: chi <int>\n"),
        (WITH_SHEAF.replace("stalk 1 1 1 1", "stalk 1 1 1"),
         "error: line 7: expected: stalk <node id> <s> <a_first> <a_second>\n"),
        (WITH_SHEAF.replace("stalk", "torsion"),
         "error: line 7: unknown sheaf directive 'torsion'\n"),
    ], ids=["second-sheaf-line", "short-degrees-line", "sheaf-line-with-a-word", "long-chi-line",
            "short-stalk-line", "unknown-directive"])
    def test_info_names_a_faulty_block_line(self, capsys, tmp_path, text, err):
        path = tmp_path / "sheaf.crv"
        path.write_text(text)
        assert run(capsys, "sheaf", "info", "--curve", str(path)) == (2, "", err)


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

    @pytest.mark.parametrize("extra", [(), ("--small-slope",)])
    def test_enumerate_builds_no_component_tuple(self, capsys, monkeypatch, comb4_path, extra):
        from nodalbn import components

        argv = ("components", "enumerate", "--curve", comb4_path,
                "--rank", "3", "--degree", "5", *extra)
        code, want, _ = run(capsys, *argv)

        def refuse(*args, **kwargs):
            raise AssertionError("a ComponentTuple was built")

        monkeypatch.setattr(components.ComponentTuple, "__init__", refuse)
        assert run(capsys, *argv) == (code, want, "")
        assert code == 0 and int(kv(want)["count"]) > 1

    @pytest.mark.parametrize("extra, s", [((), 5), (("--small-slope",), 8)])
    def test_enumerate_formats_each_cell_and_radius_once(self, monkeypatch, extra, s):
        """One `slack_key` per (window, sigma) and one `radius_at` per distinct radius."""
        from nodalbn import components

        keys, radii = [], []
        slack_key, radius_at = components.WindowTable.slack_key, components.WindowTable.radius_at

        def counted_key(table, k, sigma):
            keys.append((k, sigma))
            return slack_key(table, k, sigma)

        def counted_radius(table, key):
            radii.append(key)
            return radius_at(table, key)

        monkeypatch.setattr(components.WindowTable, "slack_key", counted_key)
        monkeypatch.setattr(components.WindowTable, "radius_at", counted_radius)
        curve = nb.chain_curve((2, 3, 2, 2, 3))
        code, count, lines = _enumerate_rows(curve, nb.canonical(curve), 5, s, s, *extra)
        rows = [line.split("\t") for line in lines[1:]]
        assert code == 0 and count == len(rows) > 30
        cells = {(k, row[2 + 3 * k]) for row in rows for k in range(4)}
        assert sorted((k, str(sigma)) for k, sigma in keys) == sorted(cells)
        assert len(radii) == len({row[-1] for row in rows}) > 1

    def test_enumerate_on_huge_windows_fills_cells_on_first_use(self, capsys, tmp_path):
        # windows 10^12 wide: a table filled over its window would never finish
        path = tmp_path / "chain3.crv"
        path.write_text(nb.render_curve(nb.chain_curve((2, 2, 2))))
        start = time.perf_counter()
        code, out, _ = run(
            capsys,
            "components", "enumerate", "--curve", str(path),
            "--rank", str(10**12), "--degree", "4", "--small-slope",
        )
        assert time.perf_counter() - start < 2
        body = out.split("#table catalog\n", 1)[1].strip().splitlines()
        assert code == 0 and kv(out)["count"] == "3"
        assert [row.split("\t", 1)[0] for row in body[1:]] == ["1,1,2", "1,2,1", "2,1,1"]

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


# -- catalog rows against raw Fractions -------------------------------


def _enumerate_rows(curve, omega, root, s, d, *extra):
    """Exit code, count and catalog table lines of `components enumerate`, run in process."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "curve.crv"
        path.write_text(nb.render_curve(curve))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([
                "components", "enumerate", "--curve", str(path),
                "--omega", ",".join(map(str, omega.weights)),
                "--rank", str(s), "--degree", str(d), "--root", str(root), *extra,
            ])
    text = out.getvalue()
    return code, int(kv(text)["count"]), text.split("#table catalog\n", 1)[1].splitlines()


def _raw_catalog_lines(curve, omega, deco, s, d, tuples):
    """The catalog table's lines with every cell from `raw_row`'s raw Fractions."""
    windows = raw_windows(curve, omega, deco, s, d)
    coeff = d + s * (1 - raw_arithmetic_genus(curve.genera, curve.nodes))
    header = ["tuple"]
    for j in range(1, len(windows) + 1):
        header += [f"j{j}_lower", f"j{j}_sigma", f"j{j}_upper"]
    lines = ["\t".join([*header, "verdict", "radius"])]
    for degrees in tuples:
        want = raw_row(windows, coeff, degrees)
        assert want.passed
        cells = [",".join(map(str, degrees))]
        for x, (_, lower, upper) in zip(want.sums, windows):
            cells += [str(lower), str(x), str(upper)]
        cells += ["pass", "unbounded" if want.radius is None else str(want.radius)]
        lines.append("\t".join(cells))
    return lines


def _assert_catalog_rows_match_raw_fractions(curve, omega, root, s, d):
    """Whole and small-slope catalog rows, tuples from the oracle when its box is small.

    Returns the whole catalog's lines.
    """
    deco = nb.order_components(curve, root)
    small_box = brute_force_box_size(curve, omega, deco, s, d) <= 20_000
    whole = None
    for extra, oracle in (((), brute_force_catalog), (("--small-slope",), brute_force_small_slope)):
        code, count, lines = _enumerate_rows(curve, omega, root, s, d, *extra)
        if small_box:
            tuples = oracle(curve, omega, deco, s, d)
        else:
            tuples = [tuple(map(int, line.split("\t", 1)[0].split(","))) for line in lines[1:]]
            assert tuples == sorted(set(tuples))
        assert (code, count) == (0, len(tuples))
        assert lines == _raw_catalog_lines(curve, omega, deco, s, d, tuples)
        whole = whole or lines
    return whole


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_catalog_rows_match_raw_fractions(seed):
    """Every row of `components enumerate`, radius text included, against raw Fractions.

    Random Pruefer trees (gamma <= 7, gamma = 1 included), random roots,
    canonical and good perturbed polarizations, whole and small-slope
    catalogs; d = s (p_a - 1), where coeff = 0, in a fifth of the draws.
    """
    rng = random.Random(seed)
    curve = random_tree_curve(rng, gamma_max=7, genus_range=(2, 4))
    omega = nb.canonical(curve) if rng.random() < 0.5 else random_good_polarization(rng, curve)
    s = rng.randint(1, 3)
    if rng.random() < 0.2:
        d = s * (curve.arithmetic_genus() - 1)
    else:
        d = rng.randint(0, s * curve.gamma + 1)
    _assert_catalog_rows_match_raw_fractions(curve, omega, rng.randint(1, curve.gamma), s, d)


def test_catalog_rows_without_windows():
    # gamma = 1: the table has no windows and the one row is unbounded
    curve = nb.NodalCurve((3,))
    lines = _assert_catalog_rows_match_raw_fractions(curve, nb.canonical(curve), 1, 4, 7)
    assert lines == ["tuple\tverdict\tradius", "7\tpass\tunbounded"]


@pytest.mark.parametrize("genera, s", [((2, 3), 2), ((2, 3), 3), ((2, 3, 4, 5), 3)])
def test_catalog_rows_when_the_bounds_do_not_move(genera, s):
    # d = s (p_a - 1): coeff = 0, so every row prints unbounded
    curve = nb.comb_curve(genera)
    d = s * (curve.arithmetic_genus() - 1)
    lines = _assert_catalog_rows_match_raw_fractions(curve, nb.canonical(curve), 1, s, d)
    assert len(lines) > 1 and all(line.endswith("\tpass\tunbounded") for line in lines[1:])


@pytest.mark.parametrize(
    "genera, root, s, d, degrees, tied",
    [
        ((2, 2, 2, 2), 1, 4, 7, (1, 2, 1, 3), (0, 2)),  # A_1 = {4}, A_3 = {2, 3, 4}
        ((2, 2, 2), 3, 5, 5, (0, 3, 2), (0, 1)),  # A_1 = {1}, A_2 = {1, 2}
    ],
)
def test_catalog_rows_with_an_exact_slack_tie(genera, root, s, d, degrees, tied):
    """Tied windows give one radius; `binding` names the smallest j."""
    from nodalbn import components

    curve = nb.chain_curve(genera)
    eta = nb.canonical(curve)
    lines = _assert_catalog_rows_match_raw_fractions(curve, eta, root, s, d)
    deco = nb.order_components(curve, root)
    table = components.stability_windows(curve, eta, deco, s, d)
    sums = table.sums(nb.ComponentTuple(s, degrees))
    keys = [table.slack_key(k, sigma) for k, sigma in enumerate(sums)]
    assert tied == tuple(k for k, key in enumerate(keys) if key == min(keys))
    assert len({len(deco.subcurves[k]) for k in tied}) == len(tied)
    k, radius = table.binding(sums)
    assert k == tied[0]
    text = ",".join(map(str, degrees))
    assert [line.rsplit("\t", 1)[1] for line in lines if line.startswith(text + "\t")] == [
        str(radius)
    ]


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

    def test_bounds_refuses_a_negative_genus(self, capsys):
        code, out, err = run(
            capsys, "bn", "bounds", "--pa", "-3", "--r", "3", "--d", "2", "--k", "1"
        )
        assert (code, out, err) == (2, "", "error: arithmetic genus pa must be >= 0, got -3\n")

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

    def test_scan_with_an_open_cell_exits_one(self, capsys, monkeypatch):
        from nodalbn import polarization

        # the scan's one existence test per cell, which `WindowTable.has_small_slope` calls too
        monkeypatch.setattr(polarization._SplitTable, "has_small_slope", lambda self, s, d: False)
        code, out, _ = run(
            capsys,
            "bn", "scan", "--family", "comb",
            "--gamma-max", "3", "--genus-max", "2", "--s-max", "4",
        )
        assert code == 1
        pairs = kv(out)
        assert pairs["open"] == pairs["rows"] != "0"
        assert out.count("\tOPEN\t") == int(pairs["rows"])
        assert "CERTIFIED" not in out


@pytest.mark.parametrize("family", ["chain", "comb"])
@pytest.mark.parametrize("genus_max", [2, 3, 4])
def test_scan_family_lists_curves_in_increasing_order(family, genus_max):
    """`bn scan` prints rows as they come, so its curves must come sorted: gamma <= 5."""
    curves = cli._scan_family(family, 5, genus_max)
    keys = [(curve.gamma, curve.genera) for curve in curves]
    assert keys and all(a < b for a, b in zip(keys, keys[1:]))
    assert {curve.gamma for curve in curves} == set(range(2 if family == "chain" else 3, 6))


@settings(max_examples=30, deadline=None)
@given(
    family=st.sampled_from(["chain", "comb"]),
    gamma_max=st.integers(2, 4),
    genus_max=st.integers(2, 3),
    s_max=st.integers(1, 9),
)
def test_scan_prints_the_sorted_rows_of_conjecture_scan(family, gamma_max, genus_max, s_max):
    """The rows `bn scan` formats as its cells come are `conjecture_scan`'s, sorted."""
    argv = ["bn", "scan", "--family", family, "--gamma-max", str(gamma_max),
            "--genus-max", str(genus_max), "--s-max", str(s_max)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    rows = nb.conjecture_scan(cli._scan_family(family, gamma_max, genus_max), range(1, s_max + 1))
    want = [
        f"{r.shape}\t{r.gamma}\t{','.join(map(str, r.genera))}\t{r.s}\t{r.d}\t{r.k}"
        f"\t{r.status}\t{r.beta}"
        for r in rows
    ]
    text = out.getvalue()
    assert text.split("\nshape\tgamma\tgenera\ts\td\tk\tstatus\tbeta\n", 1)[1].splitlines() == want
    opened = sum(not r.certified for r in rows)
    assert (kv(text)["rows"], kv(text)["open"], code) == (str(len(rows)), str(opened), int(opened > 0))


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

    @pytest.mark.parametrize("spelling", [("--s", "2"), ("--s=2",)])
    def test_out_of_memory_exits_two_with_one_line(self, capsys, monkeypatch, two_path, spelling):
        """A handler that runs out of memory exits 2, not 1: one stderr line, no report.

        Both readers of the command line (`_read` and argparse's) reach the
        same handler.
        """
        def exhaust(args, report):
            report.kv("partial", "written")
            raise MemoryError

        monkeypatch.setattr(cli, "cmd_bn_certify", exhaust)
        code, out, err = run(
            capsys, "bn", "certify", "--curve", two_path, *spelling, "--k", "1", "--d", "2"
        )
        assert (code, out, err) == (2, "", "error: out of memory\n")


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
# Two components with a sheaf block that records degrees: sheaf info prints
# its degrees and degree_defect lines, and unequal ranks make wslope a fraction.
SHEAF2 = TWO_CURVE + "sheaf\nrank 2 1\nchi -3\ndegrees 3 -2\nstalk 1 1 1 0\n"
GOLDEN_DIR = Path(__file__).parent / "golden"
# name -> (exit code, argv with {curve} for OTHER5, {chain7} for CHAIN7 and
# {sheaf} for SHEAF2)
GOLDEN_CASES = {
    "validate_echo": (0, ("curve", "validate", "--curve", "{curve}", "--echo")),
    "classify": (0, ("curve", "classify", "--curve", "{curve}")),
    "sheaf_info": (0, ("sheaf", "info", "--curve", "{sheaf}", "--omega", "1/4,3/4")),
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
    "invariance": (0, (
        "components", "invariance", "--curve", "{curve}", "--omega", OTHER5_OMEGA,
        "--rank", "3", "--degree", "7")),
    "certify_chain7": (0, (
        "bn", "certify", "--curve", "{chain7}", "--s", "12", "--k", "1", "--d", "12")),
    "certify_refused_section": (1, (
        "bn", "certify", "--curve", "{curve}", "--s", "8", "--k", "12", "--d", "8")),
    "certify_refused_both": (1, (
        "bn", "certify", "--curve", "{curve}", "--s", "8", "--k", "20", "--d", "41")),
    "bn_number": (0, ("bn", "number", "--pa", "5", "--r", "3", "--d", "2", "--k", "1")),
    "bn_bounds": (1, ("bn", "bounds", "--pa", "2", "--r", "5", "--d", "1", "--k", "4")),
    "bn_scan": (0, (
        "bn", "scan", "--family", "chain", "--gamma-max", "3", "--genus-max", "3",
        "--s-max", "4")),
}


def golden_run(capsys, tmp_path, name):
    """Run one golden case; return its exit code and stdout with the paths masked."""
    path = tmp_path / "other5.crv"
    path.write_text(OTHER5)
    chain7 = tmp_path / "chain7.crv"
    chain7.write_text(CHAIN7)
    sheaf = tmp_path / "sheaf2.crv"
    sheaf.write_text(SHEAF2)
    code, argv = GOLDEN_CASES[name]
    got = main([arg.format(curve=path, chain7=chain7, sheaf=sheaf) for arg in argv])
    out = capsys.readouterr().out
    for file, shown in ((path, "other5.crv"), (chain7, "chain7.crv"), (sheaf, "sheaf2.crv")):
        out = out.replace(str(file), shown)
    return code, got, out


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_byte_golden(capsys, tmp_path, name):
    code, got, out = golden_run(capsys, tmp_path, name)
    assert got == code
    assert out == (GOLDEN_DIR / f"{name}.out").read_text(encoding="utf-8")


COMB_SCAN = ("bn", "scan", "--family", "comb", "--gamma-max", "4", "--genus-max", "3",
             "--s-max", "24")


def test_no_command_builds_window_records(capsys, tmp_path, monkeypatch):
    """Every command decides and prints from the integer bounds alone.

    A `components.Window` record holds its A_j, O(gamma^2) ids over a chain
    rooted at an end.  With `Window` refusing to be built, bn certify, bn
    scan and the invariance check give their usual answers, and every
    golden (`components enumerate` and `components check` print bounds)
    matches byte for byte.  The `windows` view still builds one record per
    window when a caller asks for it.
    """
    from nodalbn import components

    scan = run(capsys, *COMB_SCAN)
    assert scan[0] == 0 and "rows: 30909\n" in scan[1]
    real = components.Window
    built = []

    def refuse(*args, **kwargs):
        raise AssertionError("a Window record was built")

    monkeypatch.setattr(components, "Window", refuse)
    for name in sorted(GOLDEN_CASES):
        code, got, out = golden_run(capsys, tmp_path, name)
        assert got == code
        assert out == (GOLDEN_DIR / f"{name}.out").read_text(encoding="utf-8")
    assert run(capsys, *COMB_SCAN) == scan
    chain = nb.chain_curve((2, 3, 2, 2, 3, 2, 2))
    report = nb.catalog_invariance_check(chain, nb.canonical(chain), 12, 12)
    assert report == nb.InvarianceReport(True, 2985984, ())

    def counted(*args, **kwargs):
        built.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(components, "Window", counted)
    curve = nb.parse_curve(OTHER5)
    deco = nb.order_components(curve, 2)
    table = components.stability_windows(curve, nb.canonical(curve), deco, 3, 7)
    assert [w.subcurve for w in table.windows] == list(deco.subcurves)
    assert built == [1, 2, 3, 4]  # one record per window of the five-component curve


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
    (frozenset({1}), "1"),
    ((1, True, Fraction(1, 2)), "1,yes,1/2"),
    ([frozenset({2, 1}), 3], "1,2,3"),
    (None, "None"),
])
def test_fmt_cells(value, text):
    assert _fmt(value) == text


def _joined(lines):
    """The report's bytes as one join, an rstrip and a concatenation: the oracle for emit."""
    return "\n".join(lines).rstrip("\n") + "\n"


@pytest.mark.parametrize("lines", [
    ["command: nodalbn bn number"],  # only the command line
    ["command: nodalbn x", "a: 1", ""],  # a trailing blank line
    ["command: nodalbn x", "", "a: 1", "", "", ""],
    ["command: nodalbn x", "", "#echo", "component 1 genus 2\nnode 1 1 2\n"],  # raw, ends in \n
    ["command: nodalbn x", "raw\n\n", "", "\n", ""],  # blank and newline-only lines after it
    ["command: nodalbn x", "mid\n", "", "end"],
    ["", "\n", ""],
])
def test_emit_writes_the_joined_bytes(capsys, lines):
    report = cli.Report(["x"])
    report.lines = list(lines)
    report.emit()
    assert capsys.readouterr().out == _joined(lines)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(["", "\n", "\n\n", "a", "b\n", "c\n\nd", "\te\t"]), max_size=8))
def test_emit_matches_the_join_on_any_lines(lines):
    report = cli.Report(["x"])
    report.lines += lines
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        report.emit()
    assert out.getvalue() == _joined(report.lines)


@pytest.mark.parametrize("argv", [
    ("curve", "validate", "--curve", "{curve}", "--echo"),
    ("order", "--curve", "{curve}", "--root", "3"),
    ("polarization", "canonical", "--curve", "{curve}"),
    ("components", "check", "--curve", "{curve}", "--rank", "3", "--tuple", "1,1,2,1,2"),
    ("bn", "number", "--pa", "3", "--r", "2", "--d", "4", "--k", "1"),
])
def test_commands_emit_the_joined_bytes(capsys, monkeypatch, tmp_path, argv):
    path = tmp_path / "other5.crv"
    path.write_text(OTHER5)
    argv = [arg.format(curve=path) for arg in argv]
    code = main(argv)
    out = capsys.readouterr().out
    monkeypatch.setattr(cli.Report, "emit", lambda self: sys.stdout.write(_joined(self.lines)))
    assert (main(argv), capsys.readouterr().out) == (code, out)
    assert out.endswith("\n") and not out.endswith("\n\n")


SRC = Path(__file__).resolve().parent.parent / "src"


# the two ways a command starts: the console script's (and the benchmark's) line, and -m
ENTRIES = {
    "console-script": ("-c", "import sys; from nodalbn.cli import main; sys.exit(main())"),
    "module": ("-m", "nodalbn.cli"),
}


def fresh_cli(cwd, *argv, entry=ENTRIES["module"], paths=()):
    """``python -m nodalbn.cli argv`` in a fresh interpreter, as a started Popen.

    ``entry`` replaces ``-m nodalbn.cli``; ``paths`` go ahead of ``src`` on the path.
    """
    path = os.pathsep.join(p for p in (*paths, str(SRC), os.environ.get("PYTHONPATH")) if p)
    return subprocess.Popen(
        [sys.executable, *entry, *argv],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )


# One case or more per row of `cli._exit_code`'s table, run in a fresh interpreter.
# In this process every module is loaded already, so a row whose class the
# error branch failed to import would go unseen by the in-process tests.
EXIT_CASES = {  # row's class -> (exit code, stderr line, argv)
    "ParseError": (2, "error: line 3: node 1 references unknown component 9",
                   ("curve", "validate", "--curve", "bad.crv")),
    "HypothesisError": (
        1, "error: tuple fails condition 1: -1/4 < 2 < 7/4 is false",
        ("components", "radius", "--curve", "two.crv", "--rank", "2", "--tuple", "2,0")),
    "NotCompactTypeError": (
        1, "error: operation needs a tree dual graph; curve has 2 nodes on 2 components",
        ("order", "--curve", "cycle.crv", "--root", "1")),
    "PolarizationError": (
        1, "error: polarization fails the goodness proxy at node(s) 1 (defect -24/25)",
        ("bn", "certify", "--curve", "two.crv", "--omega", "1/100,99/100", "--s", "2",
         "--k", "1", "--d", "2")),
    "CurveError": (2, "error: cannot read missing.crv: No such file or directory",
                   ("curve", "validate", "--curve", "missing.crv")),
    "DescriptorError": (2, "error: two.crv has no sheaf block",
                        ("sheaf", "info", "--curve", "two.crv")),
    "ValueError": (2, "error: rank must be >= 2, got 1",
                   ("bn", "bounds", "--pa", "3", "--r", "1", "--d", "4", "--k", "1")),
    "ValueError-omega": (
        2, "error: bad omega: polarization has 3 weights for 2 components",
        ("components", "check", "--curve", "two.crv", "--omega", "1/2,1/4,1/4", "--rank", "2",
         "--tuple", "1,1")),
}


@pytest.mark.parametrize("code, err, argv", EXIT_CASES.values(), ids=EXIT_CASES)
def test_exit_code_in_a_fresh_interpreter(tmp_path, code, err, argv):
    (tmp_path / "two.crv").write_text(TWO_CURVE)
    (tmp_path / "cycle.crv").write_text(CYCLE)
    (tmp_path / "bad.crv").write_text("component 1 genus 2\ncomponent 2 genus 3\nnode 1 1 9\n")
    with fresh_cli(tmp_path, *argv) as proc:
        out, got_err = proc.communicate(timeout=60)
    assert (proc.returncode, out, got_err.decode()) == (code, b"", err + "\n")


CHAIN5 = "".join(f"component {i} genus 2\n" for i in range(1, 6)) + "".join(
    f"node {i} {i} {i + 1}\n" for i in range(1, 5)
)
# components enumerate on CHAIN5 at s = d = 8 prints about 280 kB, four times a
# 64 KiB pipe buffer, so the command is still writing when the reader leaves
BROKEN_PIPE_CASES = [
    (0, 1, ("components", "enumerate", "--curve", "chain5.crv", "--rank", "8", "--degree", "8")),
    (0, 0, ("bn", "number", "--pa", "3", "--r", "2", "--d", "4", "--k", "1")),
    (1, 0, ("bn", "bounds", "--pa", "2", "--r", "5", "--d", "1", "--k", "4")),
]


@pytest.mark.parametrize("code, lines, argv", BROKEN_PIPE_CASES,
                         ids=["enumerate", "bn-number", "bn-bounds-fail"])
def test_reader_leaving_early_keeps_the_exit_code(capsys, monkeypatch, tmp_path, code, lines,
                                                  argv):
    (tmp_path / "chain5.crv").write_text(CHAIN5)
    if lines:  # the whole report would overflow the pipe
        monkeypatch.chdir(tmp_path)
        assert main(list(argv)) == code
        assert len(capsys.readouterr().out) > 4 * 65536
    with fresh_cli(tmp_path, *argv) as proc:
        read = [proc.stdout.readline() for _ in range(lines)]
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == code
    assert err == b""
    assert all(line.startswith(b"command: nodalbn ") for line in read)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd to count descriptors")
@pytest.mark.parametrize("code, argv", [(code, argv) for code, _, argv in BROKEN_PIPE_CASES[1:]],
                         ids=["bn-number", "bn-bounds-fail"])
def test_closed_reader_in_process_keeps_the_code_and_every_descriptor(monkeypatch, code, argv):
    # the BrokenPipeError branch, reached in this process: the report goes to a
    # pipe nobody reads, and the null device put in its place must be the only trace
    before = len(os.listdir("/dev/fd"))
    read, write = os.pipe()
    os.close(read)
    with open(write, "w", encoding="utf-8") as pipe, monkeypatch.context() as patch:
        patch.setattr(sys, "stdout", pipe)
        assert main(list(argv)) == code
    assert len(os.listdir("/dev/fd")) == before


# A sitecustomize module registers this probe before any command runs.  Exit
# handlers run last in, first out, so the probe runs after the one `main`
# registers and appends whether the heap was frozen by then.
FREEZE_PROBE = """
import atexit, gc, os

def _probe(path=os.path.join(os.path.dirname(os.path.abspath(__file__)), "frozen.txt")):
    with open(path, "a", encoding="utf-8") as seen:
        seen.write(f"{gc.get_freeze_count() > 0}\\n")

atexit.register(_probe)
"""
FREEZE_CASES = {  # case -> (exit code, argv)
    "exit-0": (0, ("components", "enumerate", "--curve", "two.crv", "--rank", "2",
                   "--degree", "2")),
    "refused-certify": (1, ("bn", "certify", "--curve", "two.crv", "--s", "2", "--k", "1",
                            "--d", "1")),
    "parse-fault": (2, ("curve", "validate", "--curve", "bad.crv")),
    "argparse": (0, ("bn", "number", "--pa=3", "--r", "2", "--d", "4", "--k", "1")),
}


@pytest.mark.parametrize("entry", ENTRIES.values(), ids=ENTRIES)
@pytest.mark.parametrize("code, argv", FREEZE_CASES.values(), ids=FREEZE_CASES)
def test_command_exits_with_a_frozen_heap(capsys, monkeypatch, tmp_path, entry, code, argv):
    (tmp_path / "two.crv").write_text(TWO_CURVE)
    (tmp_path / "bad.crv").write_text("component 1 genus 2\ncomponent 2 genus 3\nnode 1 1 9\n")
    probe = tmp_path / "probe"
    probe.mkdir()
    (probe / "sitecustomize.py").write_text(FREEZE_PROBE)
    monkeypatch.chdir(tmp_path)
    assert main(list(argv)) == code
    want = capsys.readouterr().out.encode()
    with fresh_cli(tmp_path, *argv, entry=entry, paths=(str(probe),)) as proc:
        out, err = proc.communicate(timeout=60)
    assert (proc.returncode, out) == (code, want)
    assert code or err == b""
    assert (probe / "frozen.txt").read_text() == "True\n"


def test_main_in_process_freezes_nothing(capsys, two_path):
    frozen = gc.get_freeze_count()
    main(["curve", "validate", "--curve", two_path])
    main(["bn", "number", "--pa=3", "--r", "2", "--d", "4", "--k", "1"])
    capsys.readouterr()
    assert gc.get_freeze_count() == frozen


ONE_EXIT_HANDLER = """
import atexit, contextlib, io
from nodalbn.cli import main
before = atexit._ncallbacks()
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["bn", "number", "--pa", "3", "--r", "2", "--d", "4", "--k", "1"])
             for _ in range(3)]
print(codes, atexit._ncallbacks() - before)
"""


def test_three_calls_register_one_exit_handler(tmp_path):
    with fresh_cli(tmp_path, entry=("-c", ONE_EXIT_HANDLER)) as proc:
        out, err = proc.communicate(timeout=60)
    assert (proc.returncode, out, err) == (0, b"[0, 0, 0] 1\n", b"")
