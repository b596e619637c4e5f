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
The exact layers load eagerly; the numeric one, and with it NumPy, loads on
first use.
"""

import importlib

from .derivation import FRAME_VARS, Derivation, DerivationAlgebra, ReplayConfig, build_algebra
from .errors import (
    CheckpointFailure,
    ConfigError,
    DegreeError,
    DeltahypError,
    GeometryError,
    GridError,
    ParseError,
    SchemaError,
    UnknownVariableError,
)
from .jsonio import canonical_dumps, dump_path, load_path
from .poly import Polynomial, PolynomialRing, RationalFunction, poly_gcd
from .replay import (
    Checkpoint,
    EliminationReport,
    derive_first_integrals,
    derive_master_equations,
    derive_prolonged_curve,
    derive_tangency_curve,
    eliminate_beta,
    replay_all,
    verify_lemma31,
    verify_lemma32,
    verify_omega_identities,
)
from .resultant import det_bareiss, resultant, sylvester_matrix

#: Exports of the numeric layer, by home module.  They load NumPy, so each is
#: imported on first access (PEP 562) and then cached in the module globals.
_NUMERIC_EXPORTS = {
    "delta": (
        "DeltaResult",
        "IdealPattern",
        "Null2TypeReport",
        "chen_bound",
        "combinatorial_inf",
        "delta_from_spectrum",
        "delta_invariant",
        "detect_ideal_pattern",
        "ideality_gap",
        "null2type_check",
        "tau_from_spectrum",
    ),
    "shape": ("ShapeOperator", "SpectrumReport", "curvature_report", "restricted_scalar"),
    "surfaces": (
        "ImmersionGrid",
        "SurfaceSpec",
        "catalog_shape_operator",
        "load_case",
        "shape_operator_from_grid",
    ),
}
_HOME = {name: module for module, names in _NUMERIC_EXPORTS.items() for name in names}


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

__all__ = [
    "CheckpointFailure",
    "Checkpoint",
    "ConfigError",
    "DegreeError",
    "DeltaResult",
    "DeltahypError",
    "Derivation",
    "DerivationAlgebra",
    "EliminationReport",
    "FRAME_VARS",
    "GeometryError",
    "GridError",
    "IdealPattern",
    "ImmersionGrid",
    "Null2TypeReport",
    "ParseError",
    "Polynomial",
    "PolynomialRing",
    "RationalFunction",
    "ReplayConfig",
    "SchemaError",
    "ShapeOperator",
    "SpectrumReport",
    "SurfaceSpec",
    "UnknownVariableError",
    "build_algebra",
    "canonical_dumps",
    "catalog_shape_operator",
    "chen_bound",
    "combinatorial_inf",
    "curvature_report",
    "delta_from_spectrum",
    "delta_invariant",
    "derive_first_integrals",
    "derive_master_equations",
    "derive_prolonged_curve",
    "derive_tangency_curve",
    "det_bareiss",
    "detect_ideal_pattern",
    "dump_path",
    "eliminate_beta",
    "ideality_gap",
    "load_case",
    "load_path",
    "null2type_check",
    "poly_gcd",
    "replay_all",
    "restricted_scalar",
    "resultant",
    "shape_operator_from_grid",
    "sylvester_matrix",
    "tau_from_spectrum",
    "verify_lemma31",
    "verify_lemma32",
    "verify_omega_identities",
]
