"""Call counters for the CI steps and tests that gate a command by what it calls.

A CI step gates one command line with `gate`, which runs it in process:

    from counting import gate
    gate(["bn", "certify", "--curve", path, "--s", "12", "--k", "1", "--d", "12"],
         {"ordering._walk": 1, "components.WindowTable.catalog": 0},
         want=["first of 462"])

It prints one line, and exits non-zero naming each difference: the exit
code, a missing ``want`` substring, or a count.  Run locally as
``PYTHONPATH=src:tests python -c 'from counting import gate; gate(...)'``.

A test counts calls around library code with `count_calls`:

    calls = {}
    count_calls(calls, ordering, "order_components")
    count_calls(calls, components.WindowTable, "catalog")
    ...  # run the code
    assert calls == {"order_components": 1, "catalog": 0}

A test that asks which calls were made, and wants its wrappers undone,
uses `record_calls` with ``monkeypatch.setattr``.  Counts do not move
with load, so they pin what a timeout cannot.

A method is wrapped on its class.  A module's function or class is
wrapped wherever a `nodalbn` module holds it, under any name: modules
bind each other's functions by name, so a call made through any of them
counts.  Every submodule is loaded first, so none binds the wrapper
itself while a command runs.
"""

import contextlib
import importlib
import io
import pkgutil
import sys

import nodalbn
from nodalbn import cli

_UNSET = object()


def gate(argv: list[str], counts: dict[str, int], code: int = 0, want=()) -> None:
    """Run ``nodalbn.cli.main(argv)`` and exit non-zero unless it did what is asked.

    ``counts`` maps a qualified name below `nodalbn`, such as
    ``"ordering._walk"`` or ``"components.WindowTable._narrow"``, to the
    number of calls it must get.  The run must exit ``code``, and its
    stdout must hold each string of ``want``.  Every wrapper comes out
    before the verdict, so gates in one process count independently.
    """
    homes = {}
    for key in counts:
        try:
            module, *path, name = key.split(".")
            home = importlib.import_module(f"nodalbn.{module}")
            for part in path:
                home = getattr(home, part)
            getattr(home, name)
        except (ImportError, AttributeError, ValueError):
            sys.exit(f"{key}: no such name in nodalbn")
        homes[key] = (home, name)

    calls: dict[str, int] = {}
    undo = []

    def patch(owner: object, attr: str, value: object) -> None:
        undo.append((owner, attr, vars(owner).get(attr, _UNSET)))
        setattr(owner, attr, value)

    out = io.StringIO()
    try:
        for key, (home, name) in homes.items():
            _wrap(home, name, _adder(calls, key), patch)
        with contextlib.redirect_stdout(out):
            got = cli.main(list(argv))
    finally:
        for owner, attr, old in reversed(undo):
            if old is _UNSET:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)
    faults = [f"exit {got}, not {code}"] if got != code else []
    faults += [f"no {text!r} in stdout" for text in want if text not in out.getvalue()]
    faults += [f"{key}: {calls[key]} calls, not {n}" for key, n in counts.items() if calls[key] != n]
    print(f"{' '.join(argv)}: exit {got}, calls {calls}")
    if faults:
        sys.exit("; ".join(faults))


def count_calls(calls: dict[str, int], home: object, name: str, patch=setattr) -> None:
    """Make every call of ``home.name`` add 1 to ``calls[name]``, which starts at 0.

    Each wrapper goes in through ``patch``, as in `record_calls`.
    """
    _wrap(home, name, _adder(calls, name), patch)


def record_calls(home: object, name: str, key, patch=setattr) -> list:
    """Make every call of ``home.name`` append ``key(*args)`` to the list returned.

    Each wrapper goes in through ``patch``; a test passes
    ``monkeypatch.setattr`` so that the wrappers come out after it.
    """
    keys = []
    _wrap(home, name, lambda *args, **kwargs: keys.append(key(*args)), patch)
    return keys


def _adder(calls: dict[str, int], key: str):
    calls[key] = 0

    def add(*args, **kwargs):
        calls[key] += 1

    return add


def _wrap(home: object, name: str, before, patch) -> None:
    """Run ``before(*args, **kwargs)`` ahead of every call of ``home.name``.

    A class attribute is replaced on the class.  A module's function or
    class is replaced in ``home`` and under every name that holds the
    same object in a `nodalbn` module.
    """
    real = getattr(home, name)

    def counted(*args, **kwargs):
        before(*args, **kwargs)
        return real(*args, **kwargs)

    patch(home, name, counted)
    if isinstance(home, type):
        return
    for module in _modules():
        for attr, value in list(vars(module).items()):
            if value is real:
                patch(module, attr, counted)


def _modules() -> list:
    """`nodalbn` and every submodule, each imported now if it was not yet."""
    names = (f"nodalbn.{info.name}" for info in pkgutil.iter_modules(nodalbn.__path__))
    return [nodalbn, *map(importlib.import_module, names)]
