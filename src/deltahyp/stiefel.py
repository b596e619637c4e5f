"""Projected-gradient minimization of the restricted scalar curvature.

The search space is the Stiefel manifold of orthonormal r-frames in n-space.
For a frame F and symmetric operator A, with B = F^T A F, the objective is

    tau(F) = ((tr B)^2 - tr B^2) / 2

whose Euclidean gradient is G = 2 ((tr B) A F - A F B).  Steps follow the
tangent projection of -G with backtracking line search and a QR retraction.
"""

from __future__ import annotations

import numpy as np

GRAD_TOL = 1e-10
MAX_ITERS = 500
ARMIJO_C = 1e-4
MAX_HALVINGS = 60


def tau_of_frame(A: np.ndarray, F: np.ndarray) -> float:
    B = F.T @ A @ F
    tr = float(np.trace(B))
    tr2 = float(np.trace(B @ B))
    return 0.5 * (tr * tr - tr2)


def tau_gradient(A: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Euclidean gradient of tau_of_frame with respect to the frame entries."""
    B = F.T @ A @ F
    tr = float(np.trace(B))
    return 2.0 * (tr * (A @ F) - A @ F @ B)


def project_tangent(F: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Project an ambient direction onto the tangent space at F."""
    FtG = F.T @ G
    sym = 0.5 * (FtG + FtG.T)
    return G - F @ sym


def retract_qf(Y: np.ndarray) -> np.ndarray:
    """QR retraction with the sign convention making R's diagonal positive."""
    Q, R = np.linalg.qr(Y)
    signs = np.sign(np.diag(R))
    signs[signs == 0.0] = 1.0
    return Q * signs


def minimize_tau(
    A: np.ndarray,
    r: int,
    restarts: int = 32,
    seed: int = 0,
) -> tuple[float, np.ndarray]:
    """Best frame found over independent random restarts.

    Restart k uses its own generator derived from (seed, k), so runs are
    reproducible and restarts are order-independent.
    """
    n = A.shape[0]
    best_val = np.inf
    best_F = None
    for k in range(restarts):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(k,)))
        F = retract_qf(rng.standard_normal((n, r)))
        val = tau_of_frame(A, F)
        for _ in range(MAX_ITERS):
            grad = project_tangent(F, tau_gradient(A, F))
            gnorm = float(np.linalg.norm(grad))
            if gnorm <= GRAD_TOL:
                break
            step = 1.0
            accepted = False
            for _ in range(MAX_HALVINGS):
                candidate = retract_qf(F - step * grad)
                cand_val = tau_of_frame(A, candidate)
                if cand_val <= val - ARMIJO_C * step * gnorm * gnorm:
                    F, val = candidate, cand_val
                    accepted = True
                    break
                step *= 0.5
            if not accepted:
                break
        if val < best_val:
            best_val, best_F = val, F
    return best_val, best_F
