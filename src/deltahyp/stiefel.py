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
1.0 on the first iteration and wherever that quotient is undefined.

Halvings follow under the nonmonotone Armijo rule of Zhang & Hager (*SIAM J.
Optim.* 14, 2004), which Wen & Yin (*Math. Program.* 142, 2013) pair with BB
steps on the Stiefel manifold: a candidate is accepted when its value is at
most C - ARMIJO_C * step * |g|^2, where C is the restart's reference value.  C
starts at the restart's first value with weight Q = 1; after each accepted
value f, Q' = ETA * Q + 1 and C' = (ETA * Q * C + f) / Q'.  C is a weighted
mean of the values so far, so a BB step may rise above the last value, and
fewer steps are halved than under the monotone rule (ETA = 0).  A restart
stops when its projected gradient norm is at most ``GRAD_TOL``, when
``val - ARMIJO_C * step * |g|^2`` is no longer below its own value ``val`` in
floating point (no decrease is left that the value can show), or when
``MAX_HALVINGS`` halvings find no acceptable step.  Each restart returns its
last frame.

A mask filters the stack only when it drops a restart, and a line search
whose first round accepts every searching restart hands its candidates on
without a copy.  The arrays the kernels see, and so every restart's
floating-point operations, are those of a loop that filters through every
mask in every round; the results are bit-identical to it
(``reference_minimize_tau`` in the tests).
"""

from __future__ import annotations

import math

import numpy as np

GRAD_TOL = 1e-10
MAX_ITERS = 500
ARMIJO_C = 1e-4
MAX_HALVINGS = 60
BB_MAX_STEP = 1e3
ETA = 0.85  # Zhang-Hager weight of the past values in the reference value


def _inner(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Frobenius inner product of each (n, r) slice."""
    return (X * Y).sum(axis=(-2, -1))


def tau_of_frame(A: np.ndarray, F: np.ndarray):
    """tau of one frame (a float) or of each frame of a stack (an array)."""
    B = F.swapaxes(-1, -2) @ A @ F
    tr = B.trace(0, -2, -1)
    value = 0.5 * (tr * tr - _inner(B, B.swapaxes(-1, -2)))
    return float(value) if F.ndim == 2 else value


def tau_gradient(A: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Euclidean gradient of tau_of_frame with respect to the frame entries."""
    AF = A @ F
    B = F.swapaxes(-1, -2) @ AF
    tr = B.trace(0, -2, -1)[..., None, None]
    return 2.0 * (tr * AF - AF @ B)


def project_tangent(F: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Project an ambient direction onto the tangent space at F."""
    FtG = F.swapaxes(-1, -2) @ G
    return G - F @ (0.5 * (FtG + FtG.swapaxes(-1, -2)))


def retract_qf(Y: np.ndarray) -> np.ndarray:
    """QR retraction with the sign convention making R's diagonal positive."""
    Q, R = np.linalg.qr(Y)
    signs = np.sign(R.diagonal(0, -2, -1))
    signs[signs == 0.0] = 1.0
    return Q * signs[..., None, :]


def _trial_steps(move, grad_change) -> np.ndarray:
    """Barzilai-Borwein steps |<s, s> / <s, y>|, capped; 1.0 where undefined.

    Only quotients below the cap are divided, so no division can overflow or
    meet a zero.
    """
    ss = _inner(move, move)
    sy = np.abs(_inner(move, grad_change))
    defined = (ss > 0.0) & (sy > 0.0)
    steps = np.where(defined, BB_MAX_STEP, 1.0)
    np.divide(ss, sy, out=steps, where=defined & (ss < BB_MAX_STEP * sy))
    return steps


def _line_search(A, F, val, ref, grad, step):
    """Nonmonotone backtracking from each frame's trial step.

    ``ref`` holds each frame's reference value C.  Returns the ascending
    indices of the frames that moved, with their new frames and values in
    that order; a frame that did not move has converged, stalled or run out
    of halvings.  A round retracts and evaluates only the frames still
    searching.  A mask filters the arrays only when it drops a frame, and
    when the first round accepts every frame its candidates are returned
    without a copy.  Keeping the caller's order keeps each array the kernels
    see equal to the one a search filtering every round would build.
    """
    idx = np.arange(len(val))
    g2 = _inner(grad, grad)
    searching = np.sqrt(g2) > GRAD_TOL
    if not searching.all():
        idx, F, val, ref, grad, g2, step = (
            x[searching] for x in (idx, F, val, ref, grad, g2, step)
        )
    moved = []  # (indices, frames, values) accepted in each round
    for _ in range(MAX_HALVINGS):
        decrease = ARMIJO_C * step * g2
        live = val - decrease < val
        if not live.all():
            idx, F, val, ref, grad, g2, step, decrease = (
                x[live] for x in (idx, F, val, ref, grad, g2, step, decrease)
            )
        if not idx.size:
            break
        candidate = retract_qf(F - step[:, None, None] * grad)
        cand_val = tau_of_frame(A, candidate)
        accept = cand_val <= ref - decrease
        if accept.all():
            moved.append((idx, candidate, cand_val))
            break
        moved.append((idx[accept], candidate[accept], cand_val[accept]))
        rest = ~accept
        idx, F, val, ref, grad, g2 = (x[rest] for x in (idx, F, val, ref, grad, g2))
        step = 0.5 * step[rest]
    if len(moved) == 1:
        return moved[0]
    if not moved:  # no frame searched: idx, F and val are empty
        return idx, F, val
    idx, F, val = (np.concatenate(parts) for parts in zip(*moved))
    order = np.argsort(idx)
    return idx[order], F[order], val[order]


def minimize_tau(
    A: np.ndarray,
    r: int,
    restarts: int = 32,
    seed: int = 0,
) -> tuple[float, np.ndarray]:
    """Best frame found over independent random restarts.

    The search runs on A / s and returns s^2 times its value, tau being
    quadratic in A.  s = 1 when max|A_ij| >= 1 or A = 0; otherwise s is the
    largest power of two at most max|A_ij|.  A small operator's natural step
    grows like 1 / max|A_ij|^2, past ``BB_MAX_STEP``; dividing by a power of
    two is exact, so the value is still the returned frame's tau.

    Restart k starts from its own generator derived from (seed, k), and no
    restart reads another's state, so runs are reproducible and a restart's
    result does not depend on how many run beside it.  A restart's result is
    its last frame; ties go to the first restart with the smallest value.
    """
    n = A.shape[0]
    peak = float(np.max(np.abs(A), initial=0.0))
    s = math.ldexp(0.5, math.frexp(peak)[1]) if 0.0 < peak < 1.0 else 1.0
    A = A / s
    starts = np.empty((restarts, n, r))
    for k in range(restarts):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(k,)))
        starts[k] = rng.standard_normal((n, r))
    frames = retract_qf(starts)
    values = tau_of_frame(A, frames)
    rows = np.arange(restarts)  # restart index of each frame still moving
    F, val = frames.copy(), values.copy()
    ref, weight = values.copy(), np.ones(restarts)  # Zhang-Hager C and Q
    move = last_grad = None
    for _ in range(MAX_ITERS):
        grad = project_tangent(F, tau_gradient(A, F))
        if move is None:
            step = np.ones(len(rows))
        else:
            step = _trial_steps(move, grad - last_grad)
        moved, new_F, new_val = _line_search(A, F, val, ref, grad, step)
        if moved.size < rows.size:
            if not moved.size:
                break
            rows, F, grad, weight, ref = (x[moved] for x in (rows, F, grad, weight, ref))
        frames[rows], values[rows] = new_F, new_val
        move, last_grad = new_F - F, grad
        past = ETA * weight
        weight = past + 1.0
        ref = (past * ref + new_val) / weight
        F, val = new_F, new_val
    best = int(np.argmin(values))
    return float(values[best]) * s * s, frames[best]
