"""Projected-gradient minimization of the restricted scalar curvature.

The search space is the Stiefel manifold of orthonormal r-frames in n-space.
For a frame F and symmetric operator A, with B = F^T A F, the objective is

    tau(F) = ((tr B)^2 - tr B^2) / 2

whose Euclidean gradient is G = 2 ((tr B) A F - A F B).  Steps follow the
tangent projection of -G with backtracking line search and a QR retraction
(Absil, Mahony & Sepulchre, *Optimization Algorithms on Matrix Manifolds*,
2008).

The kernels take one (n, r) frame or a (..., n, r) stack of frames and work
slice by slice, so ``minimize_tau`` moves all its restarts as one
(restarts, n, r) stack.  Each restart's trial step is the Barzilai-Borwein
step |<s, s> / <s, y>| (*IMA J. Numer. Anal.* 8, 1988), with s its last move
and y the change of its projected gradient, clipped at ``BB_MAX_STEP``; it is
1.0 on the first iteration and wherever that quotient is undefined.  Armijo
halvings follow.  A restart stops when its projected gradient norm is at most
``GRAD_TOL``, when its Armijo target ``val - ARMIJO_C * step * |g|^2`` is no
longer below ``val`` in floating point (no decrease is left that the value
can show), or when ``MAX_HALVINGS`` halvings find no acceptable step.
"""

from __future__ import annotations

import numpy as np

GRAD_TOL = 1e-10
MAX_ITERS = 500
ARMIJO_C = 1e-4
MAX_HALVINGS = 60
BB_MAX_STEP = 1e3


def _transpose(X: np.ndarray) -> np.ndarray:
    return np.swapaxes(X, -1, -2)


def _inner(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Frobenius inner product of each (n, r) slice."""
    return np.sum(X * Y, axis=(-2, -1))


def tau_of_frame(A: np.ndarray, F: np.ndarray):
    """tau of one frame (a float) or of each frame of a stack (an array)."""
    B = _transpose(F) @ A @ F
    tr = np.trace(B, axis1=-2, axis2=-1)
    value = 0.5 * (tr * tr - _inner(B, _transpose(B)))
    return float(value) if F.ndim == 2 else value


def tau_gradient(A: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Euclidean gradient of tau_of_frame with respect to the frame entries."""
    AF = A @ F
    B = _transpose(F) @ AF
    tr = np.trace(B, axis1=-2, axis2=-1)[..., None, None]
    return 2.0 * (tr * AF - AF @ B)


def project_tangent(F: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Project an ambient direction onto the tangent space at F."""
    FtG = _transpose(F) @ G
    return G - F @ (0.5 * (FtG + _transpose(FtG)))


def retract_qf(Y: np.ndarray) -> np.ndarray:
    """QR retraction with the sign convention making R's diagonal positive."""
    Q, R = np.linalg.qr(Y)
    signs = np.sign(np.diagonal(R, axis1=-2, axis2=-1))
    signs[signs == 0.0] = 1.0
    return Q * signs[..., None, :]


def _trial_steps(move, grad_change) -> np.ndarray:
    """Barzilai-Borwein steps |<s, s> / <s, y>|, capped; 1.0 where undefined."""
    with np.errstate(divide="ignore", invalid="ignore"):
        bb = np.abs(_inner(move, move) / _inner(move, grad_change))
    return np.where(np.isfinite(bb) & (bb > 0.0), np.minimum(bb, BB_MAX_STEP), 1.0)


def _line_search(A, F, val, grad, step):
    """Armijo backtracking from each frame's trial step.

    Returns the new frames and values and a mask of the frames that moved;
    a frame that did not move has converged, stalled or run out of halvings.
    """
    g2 = _inner(grad, grad)
    new_F, new_val = F.copy(), val.copy()
    moved = np.zeros(len(val), dtype=bool)
    pending = np.flatnonzero(np.sqrt(g2) > GRAD_TOL)
    for _ in range(MAX_HALVINGS):
        target = val[pending] - ARMIJO_C * step[pending] * g2[pending]
        below = target < val[pending]
        pending, target = pending[below], target[below]
        if not pending.size:
            break
        candidate = retract_qf(F[pending] - step[pending, None, None] * grad[pending])
        cand_val = tau_of_frame(A, candidate)
        accept = cand_val <= target
        done = pending[accept]
        new_F[done], new_val[done], moved[done] = candidate[accept], cand_val[accept], True
        pending = pending[~accept]
        step[pending] *= 0.5
    return new_F, new_val, moved


def minimize_tau(
    A: np.ndarray,
    r: int,
    restarts: int = 32,
    seed: int = 0,
) -> tuple[float, np.ndarray]:
    """Best frame found over independent random restarts.

    Restart k starts from its own generator derived from (seed, k), and no
    restart reads another's state, so runs are reproducible and a restart's
    result does not depend on how many run beside it.  Ties go to the first
    restart with the smallest value.
    """
    n = A.shape[0]
    starts = np.empty((restarts, n, r))
    for k in range(restarts):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(k,)))
        starts[k] = rng.standard_normal((n, r))
    frames = retract_qf(starts)
    values = tau_of_frame(A, frames)
    rows = np.arange(restarts)  # restart index of each frame still moving
    F, val = frames.copy(), values.copy()
    move = last_grad = None
    for _ in range(MAX_ITERS):
        grad = project_tangent(F, tau_gradient(A, F))
        if move is None:
            step = np.ones(len(rows))
        else:
            step = _trial_steps(move, grad - last_grad)
        new_F, new_val, moved = _line_search(A, F, val, grad, step)
        frames[rows], values[rows] = new_F, new_val
        rows = rows[moved]
        if not rows.size:
            break
        move, last_grad = new_F[moved] - F[moved], grad[moved]
        F, val = new_F[moved], new_val[moved]
    best = int(np.argmin(values))
    return float(values[best]), frames[best]
