"""Exact-rational Brill-Noether toolkit for polarized nodal reducible curves.

Everything that decides a statement is exact: integers, or
``fractions.Fraction`` where a rational is built for a caller or for
printing, and no verdict depends on floating point.  The verdicts
themselves are integer comparisons of numerators over a common
denominator, so a path that prints no rational, such as ``bn scan`` at
the canonical polarization, never imports ``fractions``.

Names load on first use (PEP 562).  ``_EXPORTS`` maps each public name
to the submodule that defines it, and ``__all__`` is its keys.  The
module-level ``__getattr__`` imports that submodule the first time the
name is read, binds the value here so later reads skip the hook, and
returns it.  The submodule names
themselves resolve the same way.  So ``import nodalbn`` loads no
submodule, ``nodalbn.comb_curve`` loads ``curve`` alone, and
``from nodalbn import *`` loads every submodule that ``__all__`` names.
"""

from importlib import import_module as _import_module

_EXPORTS = {
    "BNCertificate": "brill_noether",
    "CertificationFailure": "brill_noether",
    "ScanRow": "brill_noether",
    "bgn_bounds": "brill_noether",
    "bn_number": "brill_noether",
    "certify_bn_component": "brill_noether",
    "conjecture_scan": "brill_noether",
    "max_section_count": "brill_noether",
    "per_component_bgn": "brill_noether",
    "DEFAULT_WITNESS_MULTIPLIER": "components",
    "BuilderResult": "components",
    "ComponentTuple": "components",
    "InvarianceReport": "components",
    "StabilityReport": "components",
    "Witness": "components",
    "binding_witness": "components",
    "build_chain_tuple": "components",
    "build_comb_tuple": "components",
    "build_small_slope_tuple": "components",
    "catalog_invariance_check": "components",
    "enumerate_components": "components",
    "robustness_radius": "components",
    "HypothesisError": "curve",
    "CurveClass": "curve",
    "CurveError": "curve",
    "NodalCurve": "curve",
    "Node": "curve",
    "NotCompactTypeError": "curve",
    "chain_curve": "curve",
    "comb_curve": "curve",
    "DecompositionCheck": "ordering",
    "OrderedDecomposition": "ordering",
    "order_components": "ordering",
    "verify_decomposition": "ordering",
    "ParseError": "parsing",
    "parse_curve": "parsing",
    "parse_curve_with_sheaf": "parsing",
    "parse_ints": "parsing",
    "parse_rationals": "parsing",
    "render_curve": "parsing",
    "GoodnessReport": "polarization",
    "Polarization": "polarization",
    "PolarizationError": "polarization",
    "canonical": "polarization",
    "goodness_proxy": "polarization",
    "perturb": "polarization",
    "DescriptorError": "sheaf",
    "LocalType": "sheaf",
    "SheafDescriptor": "sheaf",
    "degree_defect": "sheaf",
    "global_ext_defect": "sheaf",
    "local_ext_dim": "sheaf",
    "wdeg": "sheaf",
    "wrank": "sheaf",
    "wslope": "sheaf",
}

__version__ = "0.1.0"

__all__ = list(_EXPORTS)


_SUBMODULES = frozenset(_EXPORTS.values())


def __getattr__(name: str) -> object:
    if name in _EXPORTS:
        value = getattr(_import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = _import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    shown = {name for name in globals() if not name.startswith("_") or name.endswith("__")}
    return sorted((shown - {"__getattr__", "__dir__"}) | set(__all__) | _SUBMODULES)
