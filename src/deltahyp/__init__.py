"""Exact symbolic replay of a curvature-flow elimination, plus numeric
delta-invariant tooling for hypersurface shape operators.

The package has three layers:

* an exact-rational sparse polynomial kernel (:mod:`deltahyp.poly`,
  :mod:`deltahyp.resultant`) with Sylvester resultants and gcds;
* a symbolic derivation pipeline (:mod:`deltahyp.derivation`,
  :mod:`deltahyp.replay`) that rebuilds the master equations, first
  integrals, tangency curves, and the final beta-eliminant for each
  dimension ``n >= 4``, checking every step against frozen reference
  forms;
* numeric geometry (:mod:`deltahyp.shape`, :mod:`deltahyp.delta`,
  :mod:`deltahyp.surfaces`) for delta(r) invariants, the universal
  curvature bound, ideality detection, and shape operators sampled from
  catalog surfaces or immersion grids.

``deltahyp.cli`` exposes all of it behind the ``deltahyp`` console script.
Each export is listed once, under its home module, in ``_EXPORTS``; that
table drives the imports and ``__all__``.  The exact layers load eagerly; the
numeric one, and with it NumPy, loads on first use.
"""

import importlib

_EXPORTS = {
    "derivation": ("FRAME_VARS", "Derivation", "DerivationAlgebra", "ReplayConfig",
                   "build_algebra"),
    "errors": ("CheckpointFailure", "ConfigError", "DegreeError", "DeltahypError",
               "GeometryError", "GridError", "ParseError", "SchemaError",
               "UnknownVariableError"),
    "jsonio": ("canonical_dumps", "dump_path", "load_path"),
    "poly": ("Polynomial", "PolynomialRing", "RationalFunction", "poly_gcd"),
    "replay": ("Checkpoint", "EliminationReport", "derive_first_integrals",
               "derive_master_equations", "derive_prolonged_curve", "derive_tangency_curve",
               "eliminate_beta", "replay_all", "verify_lemma31", "verify_lemma32",
               "verify_omega_identities"),
    # last of the eager modules, so that ``deltahyp.resultant`` is the function
    # and not the submodule that the import binds on the package
    "resultant": ("det_bareiss", "resultant", "sylvester_matrix"),
    # the numeric layer: these load NumPy, so each is imported on first access
    # (PEP 562) and then cached in the module globals
    "delta": ("DeltaResult", "IdealPattern", "Null2TypeReport", "chen_bound",
              "combinatorial_inf", "delta_from_spectrum", "delta_invariant",
              "detect_ideal_pattern", "ideality_gap", "null2type_check",
              "tau_from_spectrum"),
    "shape": ("ShapeOperator", "SpectrumReport", "curvature_report", "restricted_scalar"),
    "surfaces": ("ImmersionGrid", "SurfaceSpec", "catalog_shape_operator", "load_case",
                 "shape_operator_from_grid"),
}
_NUMERIC = ("delta", "shape", "surfaces")
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

for _module, _names in _EXPORTS.items():
    if _module not in _NUMERIC:
        _loaded = importlib.import_module(f".{_module}", __name__)
        globals().update({name: getattr(_loaded, name) for name in _names})
del _module, _names, _loaded


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})


__version__ = "0.1.0"

__all__ = list(_HOME)
