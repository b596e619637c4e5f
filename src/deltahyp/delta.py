"""Delta invariants, the universal curvature bound, and type diagnostics."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Optional, Union

import numpy as np

from .errors import ConfigError, GeometryError, UnsupportedModeError
from .shape import ShapeOperator, SpectrumReport, curvature_report
from .stiefel import minimize_tau

DEFAULT_TOL = 1e-8
DEFAULT_RESTARTS = 32
DEFAULT_SEED = 20240

Number = Union[int, float, Fraction]


@dataclass(frozen=True)
class DeltaResult:
    """Outcome of the restricted-scalar-curvature minimization."""

    r: int
    delta: float
    inf_tau_L: float
    witness: Union[tuple[int, ...], np.ndarray]
    method: str  # combinatorial | optimizer | both-agree
    tau: float
    combinatorial_inf: float
    optimizer_inf: Optional[float]
    # the operator's curvature report, for callers; not part of the JSON form
    spectrum: SpectrumReport = field(repr=False, compare=False)

    def to_json_dict(self) -> dict:
        if isinstance(self.witness, tuple):
            witness = list(self.witness)
        else:
            witness = [list(map(float, row)) for row in self.witness]
        return {
            "r": self.r,
            "delta": float(self.delta),
            "inf_tau_L": float(self.inf_tau_L),
            "witness": witness,
            "method": self.method,
            "tau": float(self.tau),
            "combinatorial_inf": float(self.combinatorial_inf),
            "optimizer_inf": (
                None if self.optimizer_inf is None else float(self.optimizer_inf)
            ),
        }


@dataclass(frozen=True)
class IdealPattern:
    """Assignment of a spectrum to the pattern (alpha, beta, gamma, s, ..., s)."""

    alpha: float
    beta: float
    gamma: float
    repeated: float
    permutation: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "gamma": self.gamma,
            "repeated": self.repeated,
            "permutation": list(self.permutation),
        }


@dataclass(frozen=True)
class Null2TypeReport:
    """Pointwise null-2-type diagnostic."""

    status: str  # null-2-type-candidate | rejected-minimal | rejected-umbilical-1-type
    a: Optional[float]
    H: float
    trA2: float

    def to_json_dict(self) -> dict:
        return {"status": self.status, "a": self.a, "H": self.H, "trA2": self.trA2}


# -- exact combinatorial layer ----------------------------------------------------


def tau_from_spectrum(spectrum: list[Number]) -> Number:
    """Pair sum of eigenvalue products; exact when the inputs are exact."""
    total = 0
    for i, j in combinations(range(len(spectrum)), 2):
        total = total + spectrum[i] * spectrum[j]
    return total


def combinatorial_inf(spectrum: list[Number], r: int) -> tuple[Number, tuple[int, ...]]:
    """Minimum of the restricted pair sum over all r-subsets of directions.

    Ties break toward the lexicographically first subset of the (sorted-input)
    index range, so witnesses are reproducible.
    """
    n = len(spectrum)
    if not 2 <= r <= n - 1:
        raise GeometryError(f"r must satisfy 2 <= r <= n-1, got r={r}, n={n}")
    best = None
    best_subset = None
    for subset in combinations(range(n), r):
        value = tau_from_spectrum([spectrum[i] for i in subset])
        if best is None or value < best:
            best, best_subset = value, subset
    return best, best_subset


def delta_from_spectrum(spectrum: list[Number], r: int) -> tuple[Number, Number, tuple]:
    """Exact (tau, inf over subsets, witness) -> returns (delta, inf, witness)."""
    tau = tau_from_spectrum(spectrum)
    inf_value, witness = combinatorial_inf(spectrum, r)
    return tau - inf_value, inf_value, witness


# -- floating-point operations ------------------------------------------------------


def delta_invariant(
    A: ShapeOperator,
    r: int,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = DEFAULT_SEED,
    tol: float = DEFAULT_TOL,
    use_optimizer: bool = True,
) -> DeltaResult:
    """delta(r) = tau - inf tau(L) over r-dimensional tangent subspaces.

    The combinatorial candidate scans spans of principal directions; the
    optimizer candidate searches all orthonormal r-frames by projected
    gradient descent.  The smaller value wins and both are recorded.
    """
    if use_optimizer and restarts < 1:
        raise ConfigError(f"the optimizer needs at least one restart, got {restarts}")
    report = curvature_report(A)
    spectrum = list(report.principal_curvatures)
    comb_value, witness_subset = combinatorial_inf(spectrum, r)
    comb_value = float(comb_value)

    opt_value = None
    opt_frame = None
    if use_optimizer:
        value, frame = minimize_tau(A.matrix, r, restarts=restarts, seed=seed)
        opt_value, opt_frame = float(value), frame

    if opt_value is not None and opt_value < comb_value - tol:
        inf_value: float = opt_value
        witness: Union[tuple[int, ...], np.ndarray] = opt_frame
        method = "optimizer"
    else:
        inf_value = comb_value
        witness = witness_subset
        method = "combinatorial"
        if opt_value is not None and abs(opt_value - comb_value) <= tol:
            method = "both-agree"
    return DeltaResult(
        r=r,
        delta=report.tau - inf_value,
        inf_tau_L=inf_value,
        witness=witness,
        method=method,
        tau=report.tau,
        combinatorial_inf=comb_value,
        optimizer_inf=opt_value,
        spectrum=report,
    )


def chen_bound(n: int, r: int, H: Number) -> Number:
    """Universal upper bound n^2 (n-r) / (2 (n-r+1)) * H^2 for delta(r)."""
    if not 2 <= r <= n - 1:
        raise GeometryError(f"r must satisfy 2 <= r <= n-1, got r={r}, n={n}")
    if isinstance(H, Fraction) or isinstance(H, int):
        return Fraction(n * n * (n - r), 2 * (n - r + 1)) * H * H
    return n * n * (n - r) / (2.0 * (n - r + 1)) * H * H


def ideality_gap(
    A: ShapeOperator,
    r: int,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = DEFAULT_SEED,
    tol: float = DEFAULT_TOL,
    use_optimizer: bool = True,
) -> dict:
    """Gap between the universal bound and delta(r); ideal when the gap closes."""
    result = delta_invariant(
        A, r, restarts=restarts, seed=seed, tol=tol, use_optimizer=use_optimizer
    )
    bound = float(chen_bound(A.n, r, result.spectrum.H))
    gap = bound - result.delta
    return {
        "r": r,
        "delta": result.delta,
        "bound": bound,
        "gap": gap,
        "ideal": abs(gap) <= tol,
        "result": result,
    }


def detect_ideal_pattern(A: ShapeOperator, tol: float = DEFAULT_TOL) -> Optional[IdealPattern]:
    """Match the spectrum against (alpha, beta, gamma, s, ..., s) with s their sum.

    Scans triples of sorted-eigenvalue indices in lexicographic order and
    returns the first assignment whose remaining n-3 values are mutually equal
    and equal to alpha+beta+gamma, all within tol; None when no triple works.
    """
    eig = np.sort(A.eigenvalues())
    n = A.n
    if n < 4:
        return None
    scale = max(1.0, float(np.max(np.abs(eig))))
    for triple in combinations(range(n), 3):
        rest = [i for i in range(n) if i not in triple]
        rest_values = eig[rest]
        s = float(eig[triple[0]] + eig[triple[1]] + eig[triple[2]])
        if float(np.max(np.abs(rest_values - s))) <= tol * scale:
            return IdealPattern(
                alpha=float(eig[triple[0]]),
                beta=float(eig[triple[1]]),
                gamma=float(eig[triple[2]]),
                repeated=s,
                permutation=tuple(triple) + tuple(rest),
            )
    return None


def null2type_check(
    A: ShapeOperator,
    assume_constant_H: bool = True,
    tol: float = DEFAULT_TOL,
) -> Null2TypeReport:
    """Pointwise screen for the null-2-type condition with constant mean curvature.

    With constant H the gradient part of the type equation is vacuous and the
    remaining scalar equation pins the spectral constant to a = tr A^2.
    Minimal points (H = 0) and umbilical points (1-type sphere) are rejected.
    """
    if not assume_constant_H:
        raise UnsupportedModeError(
            "pointwise data cannot certify a varying mean curvature; only "
            "assume_constant_H=True is supported"
        )
    report = curvature_report(A)
    if abs(report.H) <= tol:
        return Null2TypeReport(
            status="rejected-minimal", a=None, H=report.H, trA2=report.trA2
        )
    eig = np.array(report.principal_curvatures)
    if float(np.max(np.abs(eig - report.H))) <= tol * max(1.0, abs(report.H)):
        return Null2TypeReport(
            status="rejected-umbilical-1-type", a=None, H=report.H, trA2=report.trA2
        )
    return Null2TypeReport(
        status="null-2-type-candidate", a=report.trA2, H=report.H, trA2=report.trA2
    )


__all__ = [
    "DeltaResult",
    "IdealPattern",
    "Null2TypeReport",
    "SpectrumReport",
    "ShapeOperator",
    "tau_from_spectrum",
    "combinatorial_inf",
    "delta_from_spectrum",
    "delta_invariant",
    "chen_bound",
    "ideality_gap",
    "detect_ideal_pattern",
    "null2type_check",
]
