"""Call counters for the CI steps that gate a command by what it calls.

    from counting import count_calls
    calls = {}
    count_calls(calls, ordering, "order_components")
    count_calls(calls, components.WindowTable, "catalog")
    ...  # run the command in process
    assert calls == {"order_components": 1, "catalog": 0}

Counts do not move with load, so they pin what a timeout cannot.
"""

from nodalbn import brill_noether, components, ordering, polarization

# the modules that import each other's functions by name
MODULES = (ordering, polarization, components, brill_noether)


def count_calls(calls: dict[str, int], home: object, name: str) -> None:
    """Make every call of ``home.name`` add 1 to ``calls[name]``, which starts at 0.

    A class attribute is replaced on the class.  A module's function or
    class is replaced in every module of `MODULES` that holds the same
    object, since each binds it under its own name.
    """
    real = getattr(home, name)
    calls[name] = 0

    def counted(*args, **kwargs):
        calls[name] += 1
        return real(*args, **kwargs)

    if isinstance(home, type):
        setattr(home, name, counted)
        return
    for module in MODULES:
        if getattr(module, name, None) is real:
            setattr(module, name, counted)
