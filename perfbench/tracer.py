"""Run one benchmark job with spans and counts recorded around each layer.

    python3 perfbench/tracer.py OUT JOB_ID cli ARGS...
    python3 perfbench/tracer.py OUT JOB_ID lib ARGS...

The layers are the modules of the ``nodalbn`` package.  Before the job runs,
every public function of each module, the public methods of its classes and a
few named private helpers are replaced by a wrapper that records a span
(layer, name, parent span, start, end) and updates the counts below.  Modules
import each other's functions by name, so each wrapper is bound into every
``nodalbn`` namespace that holds the original.  Accessors that do O(1) work
stay unwrapped to keep the overhead modest.  Nothing under ``src/`` changes.

Spans are kept in memory and written to OUT as JSON when the job ends, with
the job id and the counts.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("parsing", "curve", "ordering", "polarization", "components",
          "brill_noether", "sheaf", "cli")

# Private helpers that do real work and are worth a span of their own.
PRIVATE = {"curve.NodalCurve._reachable_from", "brill_noether._small_slope_catalog",
           "cli._catalog_table", "cli._load_curve", "cli._scan_family"}
# O(1) accessors, report plumbing and per-tuple construction, left unwrapped.
# The last runs once per enumerated tuple inside its own layer, so a span
# there would add overhead without moving time between layers.
SKIP = {"curve.NodalCurve.genus", "curve.NodalCurve.is_compact_type",
        "curve.NodalCurve.require_compact_type", "ordering.OrderedDecomposition.position",
        "sheaf.SheafDescriptor.is_locally_free", "cli.Report.blank", "cli.Report.kv",
        "cli.Report.raw", "components.ComponentTuple.__post_init__"}


class Recorder:
    """Spans and counts of one traced job."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name id, parent index or -1, start, end]
        self.stack: list[int] = []  # indices into spans of the open spans
        self.counts: dict[str, int] = {}

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def inside(self, name: str) -> bool:
        target = self.name_ids.get(name)
        return any(self.spans[i][0] == target for i in self.stack)

    def wrap(self, qualname: str, func, hook=None):
        name_id = self.name_ids[qualname] = len(self.names)
        self.names.append(qualname)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = [name_id, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = clock()
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

    def dump(self, path: str, job: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"job": job, "names": self.names, "spans": self.spans,
                       "counts": self.counts}, fh, separators=(",", ":"))


def _count(key):
    return lambda rec, args, result: rec.count(key)


def _count_len(key, of):
    return lambda rec, args, result: rec.count(key, len(of(args, result)))


def _enumerated(rec, args, result):
    rec.count("components.tuples_enumerated", len(result))
    if rec.inside("brill_noether.certify_bn_component"):
        rec.count("brill_noether.tuples_enumerated", len(result))


def _small_slope(rec, args, result):
    rec.count("components.small_slope_in", len(args[0]))
    rec.count("components.tuples_small_slope", len(result))


def _certified(rec, args, result):
    rec.count("brill_noether.cells")
    if type(result).__name__ == "BNCertificate":
        rec.count("brill_noether.certified")


HOOKS = {
    "parsing.parse_curve": _count_len("parsing.bytes", lambda args, result: args[0]),
    "parsing.parse_curve_with_sheaf": _count_len("parsing.bytes", lambda args, result: args[0]),
    "curve.NodalCurve.edge_splits": _count("curve.edge_splits_calls"),
    "curve.NodalCurve._reachable_from": _count("curve.connectivity_checks"),
    "ordering.order_components": _count("ordering.decompositions"),
    "polarization.delta_structure_sheaf": _count("polarization.defect_evals"),
    "polarization.goodness_proxy": _count_len(
        "polarization.splits_checked", lambda args, result: result.splits),
    "components.enumerate_components": _enumerated,
    "components.small_slope_filter": _small_slope,
    "components.stability_conditions": _count("components.stability_evals"),
    "components.robustness_radius": _count("components.radius_evals"),
    "brill_noether.certify_bn_component": _certified,
    "cli.Report.table": _count_len("cli.table_rows", lambda args, result: args[3]),
}


def _wrappable(key: str) -> bool:
    name = key.rsplit(".", 1)[1]
    return (not name.startswith("_") or name == "__post_init__" or key in PRIVATE) \
        and key not in SKIP


def install(rec: Recorder) -> None:
    """Wrap every layer's functions and methods and rebind them everywhere."""
    modules = {layer: importlib.import_module(f"nodalbn.{layer}") for layer in LAYERS}
    replaced: dict[int, object] = {}
    for layer, module in modules.items():
        for name, obj in list(vars(module).items()):
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                for attr, member in list(vars(obj).items()):
                    key = f"{layer}.{name}.{attr}"
                    if inspect.isfunction(member) and _wrappable(key):
                        setattr(obj, attr, rec.wrap(key, member, HOOKS.get(key)))
            elif callable(obj) and _wrappable(f"{layer}.{name}"):
                key = f"{layer}.{name}"
                replaced[id(obj)] = rec.wrap(key, obj, HOOKS.get(key))
    for module in [importlib.import_module("nodalbn"), *modules.values()]:
        for name, obj in list(vars(module).items()):
            if id(obj) in replaced:
                setattr(module, name, replaced[id(obj)])


def main(argv: list[str]) -> int:
    out, job, kind, args = argv[0], argv[1], argv[2], argv[3:]
    rec = Recorder()
    install(rec)
    try:
        if kind == "cli":
            from nodalbn import cli

            return cli.main(args)
        import libjob  # imported after install so its names bind the wrappers

        return libjob.main(args)
    finally:
        sys.stdout.flush()
        rec.dump(out, job)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
