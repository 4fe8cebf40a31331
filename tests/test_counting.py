"""The call counters that CI's gates and the tests read (tests/counting.py)."""

import pytest

from counting import _modules, count_calls, gate
from nodalbn import cli, components, curve, parsing

TWO_CURVE = "# two components, one node\ncomponent 1 genus 2\ncomponent 2 genus 3\nnode 1 1 2\n"


@pytest.fixture
def two_path(tmp_path):
    path = tmp_path / "two.crv"
    path.write_text(TWO_CURVE)
    return str(path)


def _fault(capsys, argv, counts, **kwargs) -> str:
    """The message a failing gate exits with."""
    with pytest.raises(SystemExit) as failed:
        gate(argv, counts, **kwargs)
    capsys.readouterr()
    return str(failed.value.code)


def test_count_calls_counts_a_function_of_any_module(monkeypatch, capsys, two_path):
    # parsing's tokenizer is looked up by parsing itself, outside the modules that
    # bind each other's functions by name
    calls = {}
    count_calls(calls, parsing, "_tokens", monkeypatch.setattr)
    count_calls(calls, curve.NodalCurve, "_reachable_from", monkeypatch.setattr)
    assert cli.main(["curve", "validate", "--curve", two_path]) == 0
    capsys.readouterr()
    assert calls == {"_tokens": 1, "_reachable_from": 1}


def test_gate_passes_and_prints_one_line(capsys, two_path):
    argv = ["curve", "validate", "--curve", two_path]
    gate(argv, {"parsing._tokens": 1, "curve.NodalCurve._reachable_from": 1})
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    assert out.startswith(" ".join(argv) + ": exit 0, calls ")
    assert "'parsing._tokens': 1" in out


def test_gate_names_each_fault(capsys, two_path):
    argv = ["curve", "validate", "--curve", two_path]
    assert _fault(capsys, argv, {"parsing._tokens": 2}) == "parsing._tokens: 1 calls, not 2"
    assert _fault(capsys, argv, {"parsing._tokens": 1}, code=1) == "exit 0, not 1"
    assert _fault(capsys, argv, {}, want=["no such line"]) == "no 'no such line' in stdout"
    for unknown in ("parsing._no_tokens", "nosuchmodule._tokens", "curve.NodalCurve.nope", "_walk"):
        assert _fault(capsys, argv, {unknown: 0}) == f"{unknown}: no such name in nodalbn"
    # every difference at once, in one message
    both = _fault(capsys, argv, {"parsing._tokens": 0, "ordering._walk": 1}, code=2)
    assert both == "exit 0, not 2; parsing._tokens: 1 calls, not 0; ordering._walk: 0 calls, not 1"


def test_two_gates_in_one_process_count_independently(capsys, two_path):
    enumerate_ = ["components", "enumerate", "--curve", two_path, "--rank", "2", "--degree", "2"]
    counts = {"parsing._tokens": 1, "ordering._walk": 1}
    gate(enumerate_, counts, want=["\ncount: "])
    gate(["curve", "validate", "--curve", two_path], {**counts, "ordering._walk": 0})
    gate(enumerate_, counts, want=["\ncount: "])
    assert capsys.readouterr().out.count("\n") == 3


def test_a_gate_puts_every_binding_back(capsys, two_path):
    def bindings():
        return {
            (module.__name__, name): value
            for module in _modules()
            for name, value in vars(module).items()
            if callable(value)
        }

    classes = (curve.NodalCurve, components.ComponentTuple, components.WindowTable)
    before = bindings()
    methods = [dict(vars(cls)) for cls in classes]
    counts = {
        "parsing._tokens": 1,
        "ordering._walk": 0,
        "components.Window": 0,
        "components.ComponentTuple.__init__": 0,
        "curve.NodalCurve.__repr__": 0,  # inherited: set on the class, then deleted
        "components.WindowTable._narrow": 0,
        "curve.NodalCurve._reachable_from": 1,
    }
    argv = ["curve", "validate", "--curve", two_path]
    gate(argv, counts)
    _fault(capsys, argv, {**counts, "parsing._tokens": 5})
    after = bindings()
    assert all(after[key] is value for key, value in before.items())
    assert [dict(vars(cls)) for cls in classes] == methods
