"""Call counters for the CI steps and tests that gate a command by what it calls.

    from counting import count_calls
    calls = {}
    count_calls(calls, ordering, "order_components")
    count_calls(calls, components.WindowTable, "catalog")
    ...  # run the command in process
    assert calls == {"order_components": 1, "catalog": 0}

A test that asks which calls were made, and wants its wrappers undone,
uses `record_calls` with ``monkeypatch.setattr``.  Counts do not move
with load, so they pin what a timeout cannot.
"""

from nodalbn import brill_noether, components, ordering, polarization

# the modules that import each other's functions by name
MODULES = (ordering, polarization, components, brill_noether)


def count_calls(calls: dict[str, int], home: object, name: str) -> None:
    """Make every call of ``home.name`` add 1 to ``calls[name]``, which starts at 0."""
    calls[name] = 0

    def add(*args, **kwargs):
        calls[name] += 1

    _wrap(home, name, add, setattr)


def record_calls(home: object, name: str, key, patch=setattr) -> list:
    """Make every call of ``home.name`` append ``key(*args)`` to the list returned.

    Each wrapper goes in through ``patch``; a test passes
    ``monkeypatch.setattr`` so that the wrappers come out after it.
    """
    keys = []
    _wrap(home, name, lambda *args, **kwargs: keys.append(key(*args)), patch)
    return keys


def _wrap(home: object, name: str, before, patch) -> None:
    """Run ``before(*args, **kwargs)`` ahead of every call of ``home.name``.

    A class attribute is replaced on the class.  A module's function or
    class is replaced in every module of `MODULES` that holds the same
    object, since each binds it under its own name.
    """
    real = getattr(home, name)

    def counted(*args, **kwargs):
        before(*args, **kwargs)
        return real(*args, **kwargs)

    if isinstance(home, type):
        patch(home, name, counted)
        return
    for module in MODULES:
        if getattr(module, name, None) is real:
            patch(module, name, counted)
