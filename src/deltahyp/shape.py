"""Shape operators and pointwise curvature invariants of hypersurfaces."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError
from .stiefel import tau_of_frame

#: Relative tolerance for accepting a matrix as symmetric.
SYMMETRY_RTOL = 1e-12

#: Relative tolerance for accepting a frame as orthonormal.
ORTHONORMAL_TOL = 1e-10


class ShapeOperator:
    """Symmetric endomorphism of the tangent space at one point.

    Eigenvalues are the principal curvatures (units: inverse length).
    """

    __slots__ = ("n", "matrix")

    def __init__(self, matrix):
        m = np.array(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise GeometryError(f"shape operator must be square, got shape {m.shape}")
        n = m.shape[0]
        if n < 2:
            raise GeometryError(f"shape operator needs dimension >= 2, got {n}")
        peak = float(np.max(np.abs(m)))  # NaN or inf if any entry is
        if not math.isfinite(peak):
            raise GeometryError("shape operator entries must be finite")
        scale = max(1.0, peak)
        skew = float(np.max(np.abs(m - m.T)))
        if skew > SYMMETRY_RTOL * scale:
            raise GeometryError(
                f"matrix is not symmetric within tolerance: max|A - A^T| = {skew:.3e}"
            )
        m = 0.5 * (m + m.T)
        m.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "matrix", m)

    def __setattr__(self, *_):  # pragma: no cover - guard
        raise AttributeError("ShapeOperator is immutable")

    @classmethod
    def from_spectrum(cls, spectrum) -> "ShapeOperator":
        values = [float(x) for x in spectrum]
        return cls(np.diag(values))

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "matrix": [list(map(float, row)) for row in self.matrix]}

    def __repr__(self):
        return f"ShapeOperator(n={self.n})"


@dataclass(frozen=True)
class SpectrumReport:
    """Principal curvatures and the derived pointwise invariants."""

    principal_curvatures: tuple[float, ...]
    H: float
    trA2: float
    tau: float

    def to_json_dict(self) -> dict:
        return {
            "principal_curvatures": list(self.principal_curvatures),
            "H": self.H,
            "trA2": self.trA2,
            "tau": self.tau,
        }


def curvature_report(A: ShapeOperator) -> SpectrumReport:
    """Eigenvalues plus mean curvature, trace of A^2, and scalar curvature.

    tau = (n^2 H^2 - tr A^2) / 2, which equals the pair sum of eigenvalue
    products for a symmetric operator.
    """
    eig = np.sort(A.eigenvalues())
    n = A.n
    H = float(np.sum(eig) / n)
    with np.errstate(over="ignore"):  # an overflow is reported just below
        tr2 = float(np.sum(eig * eig))
    tau = 0.5 * (n * n * H * H - tr2)
    if not all(map(math.isfinite, (H, tr2, tau))):
        raise GeometryError("curvature invariants overflow the float range")
    return SpectrumReport(
        principal_curvatures=tuple(float(x) for x in eig),
        H=H,
        trA2=tr2,
        tau=float(tau),
    )


def restricted_scalar(A: ShapeOperator, frame) -> float:
    """Scalar curvature of the subspace spanned by an orthonormal frame.

    With B the compression of A to the span, tau(L) = ((tr B)^2 - tr B^2) / 2.
    The value only depends on the span, not the particular orthonormal basis.
    """
    F = np.array(frame, dtype=float)
    if F.ndim == 1:
        F = F.reshape(-1, 1)
    if F.shape[0] != A.n:
        raise GeometryError(
            f"frame has ambient dimension {F.shape[0]}, operator has {A.n}"
        )
    r = F.shape[1]
    if not 1 <= r <= A.n:
        raise GeometryError(f"frame rank must be between 1 and n, got {r}")
    gram = F.T @ F
    if float(np.max(np.abs(gram - np.eye(r)))) > ORTHONORMAL_TOL:
        raise GeometryError("frame columns are not orthonormal within tolerance")
    return tau_of_frame(A.matrix, F)
