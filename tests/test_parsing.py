"""Text format: parsing, rendering, line-numbered errors."""

import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import nodalbn as nb
from nodalbn.parsing import _tokens

TWO_CURVE_TEXT = """\
# two components, one node
component 1 genus 2
component 2 genus 3
node 1 1 2
"""

WITH_SHEAF_TEXT = """\
component 1 genus 2
component 2 genus 3
node 1 1 2

sheaf
rank 2 2
chi -6
stalk 1 1 1 1
"""


class TestParseCurve:
    def test_basic(self, two_curve):
        assert nb.parse_curve(TWO_CURVE_TEXT) == two_curve

    def test_comments_and_blank_lines_ignored(self):
        text = "\n# lead\ncomponent 1 genus 4  # trailing\n\n"
        assert nb.parse_curve(text) == nb.NodalCurve((4,))

    def test_component_order_free(self):
        text = "component 2 genus 3\ncomponent 1 genus 2\nnode 1 1 2\n"
        assert nb.parse_curve(text) == nb.NodalCurve((2, 3), ((1, 1, 2),))

    def test_rejects_sheaf_block(self):
        with pytest.raises(nb.ParseError, match="sheaf"):
            nb.parse_curve(WITH_SHEAF_TEXT)

    def test_error_carries_line_number(self):
        text = "component 1 genus 2\nwidget 5\n"
        with pytest.raises(nb.ParseError, match="line 2") as info:
            nb.parse_curve(text)
        assert info.value.line_no == 2

    def test_component_after_node(self):
        text = "component 1 genus 2\ncomponent 2 genus 2\nnode 1 1 2\ncomponent 3 genus 2\n"
        with pytest.raises(nb.ParseError, match="line 4"):
            nb.parse_curve(text)

    def test_component_ids_must_be_contiguous(self):
        text = "component 1 genus 2\ncomponent 3 genus 2\nnode 1 1 3\n"
        with pytest.raises(nb.ParseError, match="1..2"):
            nb.parse_curve(text)

    def test_duplicate_component(self):
        text = "component 1 genus 2\ncomponent 1 genus 3\n"
        with pytest.raises(nb.ParseError, match="twice"):
            nb.parse_curve(text)

    def test_non_integer_genus(self):
        with pytest.raises(nb.ParseError, match="integer"):
            nb.parse_curve("component 1 genus x\n")

    def test_curve_errors_become_parse_errors(self):
        text = "component 1 genus 1\n"
        with pytest.raises(nb.ParseError, match="genus"):
            nb.parse_curve(text)

    def test_empty_input(self):
        with pytest.raises(nb.ParseError, match="no component"):
            nb.parse_curve("# nothing\n")


THREE_COMPONENTS = "# three\ncomponent 1 genus 2\ncomponent 2 genus 2\ncomponent 3 genus 2\n"


class TestCurveFaultLines:
    """A fault of one component or node names its line; a fault of the whole file none."""

    @pytest.mark.parametrize("nodes, line_no, message", [
        ("node 1 1 2\nnode 2 1 9\n", 6, "node 2 references unknown component 9"),
        ("node 1 1 2\nnode 2 3 3\n", 6, "node 2 joins component 3 to itself"),
        ("node 1 1 2\n\nnode 1 2 3\n", 7, "duplicate node id 1"),
        ("node 1 1 2\nnode 0 2 3\n", 6, "node id 0 must be a positive integer"),
        ("node 1 1 2\nnode 2 1\n", 6, "expected: node <id> <comp_a> <comp_b>"),
    ], ids=["unknown-endpoint", "self-loop", "duplicate-id", "id-zero", "short-line"])
    def test_node_fault_names_its_line(self, nodes, line_no, message):
        with pytest.raises(nb.ParseError) as info:
            nb.parse_curve(THREE_COMPONENTS + nodes)
        assert info.value.line_no == line_no
        assert str(info.value) == f"line {line_no}: {message}"

    def test_short_component_line_names_its_form(self):
        with pytest.raises(nb.ParseError) as info:
            nb.parse_curve(THREE_COMPONENTS + "component 4 genus\n")
        assert str(info.value) == "line 5: expected: component <id> genus <g>"

    def test_genus_fault_names_the_component_line(self):
        text = "component 2 genus 3\ncomponent 1 genus 2\n# c\ncomponent 3 genus 1\n"
        with pytest.raises(nb.ParseError) as info:
            nb.parse_curve(text + "node 1 1 2\nnode 2 2 3\n")
        assert str(info.value) == "line 4: component 3 has genus 1; each genus must be >= 2"

    def test_first_fault_is_reported(self):
        # genera are checked before nodes, and nodes in the order given
        text = "component 1 genus 2\ncomponent 2 genus 1\nnode 1 1 9\nnode 2 2 2\n"
        with pytest.raises(nb.ParseError, match="^line 2: component 2 has genus 1"):
            nb.parse_curve(text)

    @pytest.mark.parametrize("text, message", [
        (THREE_COMPONENTS + "node 1 1 2\n", "dual graph is not connected"),
        ("# nothing\n", "no component lines found"),
        ("component 1 genus 2\ncomponent 3 genus 2\n",
         "component ids must be exactly 1..2, got [1, 3]"),
    ], ids=["disconnected", "no-components", "ids-not-contiguous"])
    def test_whole_file_fault_names_no_line(self, text, message):
        with pytest.raises(nb.ParseError) as info:
            nb.parse_curve(text)
        assert info.value.line_no is None
        assert str(info.value) == message


# what str.splitlines also breaks at: "\v", "\f", "\x1c"-"\x1e", "\x85", U+2028, U+2029
OTHER_BREAKS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


class TestLineEnds:
    """A line ends at LF, CRLF or CR only, as text-mode ``open`` reads a file."""

    @pytest.mark.parametrize("char", OTHER_BREAKS, ids=[hex(ord(c)) for c in OTHER_BREAKS])
    def test_other_breaks_stay_inside_a_comment(self, char):
        assert nb.parse_curve(f"# a{char}b\ncomponent 1 genus 2\n") == nb.NodalCurve((2,))

    @pytest.mark.parametrize("char", OTHER_BREAKS, ids=[hex(ord(c)) for c in OTHER_BREAKS])
    def test_errors_name_the_line_an_editor_shows(self, char):
        text = f"component 1 genus 2 # x{char}y\nwidget 5\n"
        with pytest.raises(nb.ParseError) as info:
            nb.parse_curve(text)
        assert str(info.value) == "line 2: unknown directive 'widget'"

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_each_line_end_gives_the_same_curve_and_line_numbers(self, end, two_curve):
        lines = ["# two", "component 1 genus 2", "", "component 2 genus 3", "node 1 1 2"]
        assert nb.parse_curve(end.join(lines) + end) == two_curve
        with pytest.raises(nb.ParseError, match="^line 6: unknown directive 'widget'$"):
            nb.parse_curve(end.join([*lines, "widget"]))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(
        ["component 1 genus 2", "node 1 1 2", "# c", " ", "\t", "x", "\r", "\n", "\r\n"]
    )))
    def test_cr_and_crlf_split_as_splitlines_did(self, pieces):
        text = "".join(pieces)
        before = [
            (line_no, body.split())
            for line_no, raw in enumerate(text.splitlines(), start=1)
            if (body := raw.split("#", 1)[0].strip())
        ]
        assert list(zip(*_tokens(text))) == before


class TestParseSheaf:
    def test_full_block(self, two_curve):
        curve, desc = nb.parse_curve_with_sheaf(WITH_SHEAF_TEXT)
        assert curve == two_curve
        assert desc is not None
        assert desc.multirank == (2, 2)
        assert desc.chi == -6
        assert desc.stalk(1) == nb.LocalType(1, 1, 1)

    def test_absent_block(self):
        curve, desc = nb.parse_curve_with_sheaf(TWO_CURVE_TEXT)
        assert desc is None

    def test_degrees_line(self):
        text = WITH_SHEAF_TEXT + "degrees 1 1\n"
        _, desc = nb.parse_curve_with_sheaf(text)
        assert desc.degrees == (1, 1)

    def test_missing_rank(self):
        text = TWO_CURVE_TEXT + "sheaf\nchi -6\nstalk 1 1 1 1\n"
        with pytest.raises(nb.ParseError, match="rank"):
            nb.parse_curve_with_sheaf(text)

    def test_missing_chi(self):
        text = TWO_CURVE_TEXT + "sheaf\nrank 1 1\nstalk 1 1 0 0\n"
        with pytest.raises(nb.ParseError, match="chi"):
            nb.parse_curve_with_sheaf(text)

    def test_wrong_rank_arity(self):
        text = TWO_CURVE_TEXT + "sheaf\nrank 2\nchi -6\nstalk 1 1 1 1\n"
        with pytest.raises(nb.ParseError, match="rank needs 2"):
            nb.parse_curve_with_sheaf(text)

    def test_duplicate_stalk(self):
        text = WITH_SHEAF_TEXT + "stalk 1 1 1 1\n"
        with pytest.raises(nb.ParseError, match="twice"):
            nb.parse_curve_with_sheaf(text)

    def test_descriptor_errors_become_parse_errors(self):
        text = TWO_CURVE_TEXT + "sheaf\nrank 2 2\nchi -6\n"
        with pytest.raises(nb.ParseError, match="no stalk at node 1"):
            nb.parse_curve_with_sheaf(text)

    @pytest.mark.parametrize(
        "ids, fault",
        [
            (range(1, 999), "no stalk at node 999"),
            (range(1, 1001), "stalk at node 1000, which the curve does not have"),
        ],
        ids=["missing", "extra"],
    )
    def test_coverage_fault_names_one_node(self, ids, fault):
        # listing every node id made this error 9,819 bytes long
        gamma = 1000
        lines = [f"component {i} genus 2" for i in range(1, gamma + 1)]
        lines += [f"node {i} {i} {i + 1}" for i in range(1, gamma)]
        lines += ["sheaf", "rank " + " ".join(["1"] * gamma), "chi 0"]
        lines += [f"stalk {i} 1 0 0" for i in ids]
        with pytest.raises(nb.ParseError) as info:
            nb.parse_curve_with_sheaf("\n".join(lines) + "\n")
        assert str(info.value) == f"line {2 * gamma}: {fault}"  # the sheaf line
        assert len(str(info.value)) < 80


class TestRender:
    def test_round_trip(self, two_curve, chain4, comb4):
        for curve in (two_curve, chain4, comb4):
            assert nb.parse_curve(nb.render_curve(curve)) == curve

    def test_canonical_text(self, two_curve):
        assert nb.render_curve(two_curve) == (
            "component 1 genus 2\ncomponent 2 genus 3\nnode 1 1 2\n"
        )

    def test_render_is_fixed_point(self, comb4):
        text = nb.render_curve(comb4)
        assert nb.render_curve(nb.parse_curve(text)) == text


class TestScalarParsers:
    def test_rationals(self):
        assert nb.parse_rationals("3/8, 5/8") == (Fraction(3, 8), Fraction(5, 8))
        assert nb.parse_rationals("1") == (Fraction(1),)
        assert nb.parse_rationals("0.375, -2") == (Fraction(3, 8), Fraction(-2))
        # a sign, a bare point and an exponent, read exactly as Fraction reads them
        assert nb.parse_rationals("1e-1,0.9") == (Fraction(1, 10), Fraction(9, 10))
        assert nb.parse_rationals("+1/2, .5, 5., 2.5E1, -1e0") == (
            Fraction(1, 2), Fraction(1, 2), Fraction(5), Fraction(25), Fraction(-1)
        )

    def test_exponent_within_the_int_limit(self):
        assert nb.parse_rationals("3e-1,7e-1") == (Fraction(3, 10), Fraction(7, 10))
        # the length before the exponent plus its magnitude may reach the limit, not pass it
        limit = sys.get_int_max_str_digits()
        assert nb.parse_rationals(f"1e-{limit - 1}") == (Fraction(1, 10 ** (limit - 1)),)
        for token in (f"1e-{limit}", f"1e{limit}", f"-1E+{limit - 1}", f"0.5e-{limit - 2}"):
            with pytest.raises(nb.ParseError, match=f"bad rational token '{re.escape(token)}'"):
                nb.parse_rationals(f"1/2,{token}")

    def test_rational_errors(self):
        with pytest.raises(nb.ParseError):
            nb.parse_rationals("3/8, x")
        with pytest.raises(nb.ParseError):
            nb.parse_rationals("1/0")
        for token in ("1_0/20", "1/2_0", "0.1_2", "1_000"):  # read by Fraction on 3.11+
            with pytest.raises(nb.ParseError, match=f"bad rational token '{token}'"):
                nb.parse_rationals(f"1/2,{token}")

    def test_int_tokens_refuse_digit_groups(self):
        for token in ("1_0", "0_1", "-1_000"):  # int reads each as a digit group
            with pytest.raises(nb.ParseError, match=f"bad integer token '{token}'"):
                nb.parse_ints(f"1,{token}")
            want = f"line 1: genus must be an integer, got '{token}'"
            with pytest.raises(nb.ParseError, match=want):
                nb.parse_curve(f"component 1 genus {token}\n")

    def test_ints(self):
        assert nb.parse_ints("1, 2,3") == (1, 2, 3)
        with pytest.raises(nb.ParseError):
            nb.parse_ints("1, 2.5")
