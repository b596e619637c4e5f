"""Test oracles that the package does not ship."""

import math
import operator

import numpy as np

from deltahyp.errors import ExactDivisionError
from deltahyp.poly import MODULUS


def det_cofactor(matrix):
    """Naive cofactor expansion; exponential, intended as a test oracle (dim <= 8)."""
    size = len(matrix)
    ring = matrix[0][0].ring
    if size == 1:
        return matrix[0][0]
    total = ring.zero()
    for j in range(size):
        entry = matrix[0][j]
        if entry.is_zero():
            continue
        minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
        sub = det_cofactor(minor)
        term = entry * sub
        total = total + (term if j % 2 == 0 else -term)
    return total


# The polynomial kernel's loops as they ran on exponent tuples, before each
# exponent vector became one packed int, over ``terms`` ({exp: Fraction}):
# products add exponent tuples, exact quotients subtract them, and
# ``grlex_key`` orders the terms.  ``deltahyp.poly`` must agree with them.


def grlex_key(exp: tuple) -> tuple:
    """Graded lexicographic order: total degree, then the exponents left to right."""
    return (sum(exp), exp)


def tuple_add(t1: dict, t2: dict) -> dict:
    out = dict(t1)
    for exp, coeff in t2.items():
        coeff += out.get(exp, 0)
        if coeff:
            out[exp] = coeff
        else:
            out.pop(exp, None)
    return out


def tuple_mul(t1: dict, t2: dict) -> dict:
    add = operator.add
    # a one-term factor shifts the other's exponents: no two products meet
    if len(t2) == 1 or len(t1) == 1:
        many, one = (t1, t2) if len(t2) == 1 else (t2, t1)
        ((e2, c2),) = one.items()
        return {tuple(map(add, e1, e2)): c1 * c2 for e1, c1 in many.items()}
    out = {}
    for e1, c1 in t1.items():
        for e2, c2 in t2.items():
            exp = tuple(map(add, e1, e2))
            out[exp] = out.get(exp, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def tuple_exact_div(t1: dict, t2: dict) -> dict:
    """t1 / t2 by leading terms; ExactDivisionError on a nonzero remainder."""
    add, sub = operator.add, operator.sub
    div_exp = max(t2, key=grlex_key)
    div_coeff = t2[div_exp]
    remainder, quotient = dict(t1), {}
    while remainder:
        exp = max(remainder, key=grlex_key)
        q_exp = tuple(map(sub, exp, div_exp))
        if min(q_exp, default=0) < 0:
            raise ExactDivisionError("division left a nonzero remainder")
        q_coeff = remainder[exp] / div_coeff
        quotient[q_exp] = q_coeff
        for d_exp, d_coeff in t2.items():
            key = tuple(map(add, q_exp, d_exp))
            val = remainder.get(key, 0) - q_coeff * d_coeff
            if val:
                remainder[key] = val
            else:
                remainder.pop(key, None)
    return quotient


def tuple_render(names: tuple, terms: dict) -> str:
    """The canonical text: terms in descending ``grlex_key`` order."""
    pieces = []
    for position, exp in enumerate(sorted(terms, key=grlex_key, reverse=True)):
        mono = "*".join(name if e == 1 else f"{name}^{e}" for name, e in zip(names, exp) if e)
        coeff = terms[exp]
        mag = str(abs(coeff))
        body = mag if not mono else mono if abs(coeff) == 1 else f"{mag}*{mono}"
        sign = ("" if coeff > 0 else "-") if position == 0 else ("+ " if coeff > 0 else "- ")
        pieces.append(sign + body)
    return " ".join(pieces) or "0"


# The spot check's residue evaluation at both variables (H0, a0), kept as the
# oracle of the one-variable images in ``deltahyp.replay`` (t = a0/H0^2).


def dense_mod_p(terms: dict, ring, main: str, values: dict) -> list[int]:
    """Dense coefficient list [c_0, ..., c_d] in ``main`` of residue ``terms``
    (as from ``residues``), every other ring variable set to its residue in
    ``values``; d is the degree of ``terms`` in ``main``, so c_d may be 0."""
    i = ring.index(main)
    # one table of powers mod P per other variable, up to its degree in terms
    tables = []
    for j, var in enumerate(ring.vars):
        if j != i:
            x, table = values[var] % MODULUS, [1]
            for _ in range(max((exp[j] for exp in terms), default=0)):
                table.append(table[-1] * x % MODULUS)
            tables.append((j, table))
    dense = [0] * (max((exp[i] for exp in terms), default=-1) + 1)
    for exp, coeff in terms.items():
        for j, table in tables:
            coeff *= table[exp[j]]
        dense[exp[i]] += coeff
    return [c % MODULUS for c in dense]


# The Stiefel optimizer's batched loop as BENCH_nonmonotone_search.json
# measured it, kept verbatim: every mask filters the stack in every round,
# even one that drops nothing, and the line search scatters into full-size
# outputs.  ``deltahyp.stiefel.minimize_tau`` must return the same bits.

GRAD_TOL = 1e-10
MAX_ITERS = 500
ARMIJO_C = 1e-4
MAX_HALVINGS = 60
BB_MAX_STEP = 1e3
ETA = 0.85  # Zhang-Hager weight of the past values in the reference value


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

    ``ref`` holds each frame's reference value C.  The frames still searching
    are filtered once per round, so a round retracts and evaluates only them.
    Returns the new frames and values, set only where the returned mask
    marks the frames that moved; a frame that did not move has converged,
    stalled or run out of halvings.
    """
    new_F, new_val = np.empty_like(F), np.empty_like(val)
    moved = np.zeros(len(val), dtype=bool)
    g2 = _inner(grad, grad)
    idx = np.flatnonzero(np.sqrt(g2) > GRAD_TOL)
    F, val, ref, grad, g2, step = F[idx], val[idx], ref[idx], grad[idx], g2[idx], step[idx]
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
        done = idx[accept]
        new_F[done], new_val[done], moved[done] = candidate[accept], cand_val[accept], True
        rest = ~accept
        idx, F, val, ref, grad, g2 = (x[rest] for x in (idx, F, val, ref, grad, g2))
        step = 0.5 * step[rest]
    return new_F, new_val, moved


def reference_minimize_tau(
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
        new_F, new_val, moved = _line_search(A, F, val, ref, grad, step)
        rows = rows[moved]
        if not rows.size:
            break
        new_F, new_val = new_F[moved], new_val[moved]
        frames[rows], values[rows] = new_F, new_val
        move, last_grad = new_F - F[moved], grad[moved]
        past = ETA * weight[moved]
        weight = past + 1.0
        ref = (past * ref[moved] + new_val) / weight
        F, val = new_F, new_val
    best = int(np.argmin(values))
    return float(values[best]) * s * s, frames[best]
