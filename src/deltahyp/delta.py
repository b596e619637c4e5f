"""Delta invariants, the universal curvature bound, and type diagnostics."""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Optional, Union

import numpy as np

from .errors import ConfigError, GeometryError
from .limits import DEFAULT_RESTARTS, DEFAULT_SEED, DEFAULT_TOL, MAX_DIMENSION
from .shape import ShapeOperator, SpectrumReport, curvature_report
from .stiefel import minimize_tau

#: The default run's frame stack at the largest operator: the cap on restarts * n * r.
MAX_FRAME_ENTRIES = DEFAULT_RESTARTS * MAX_DIMENSION * (MAX_DIMENSION - 1)

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


def _least_doubled_pair_sum(pool: list[int], q: int, total: int, twice: int) -> int:
    """Least 2 e2(P + T) over the q-subsets T of the sorted ``pool``.

    P is a fixed prefix with sum ``total`` and doubled pair sum ``twice``;
    2 e2(P + T) = twice + 2 total S + S^2 - Q, with S and Q the sum and the
    sum of squares of T.  Only the q + 1 end sets of the pool are tried (see
    ``combinatorial_inf``): starting from the q largest values, step j swaps
    the j-th smallest in for the j-th of those, keeping S and Q as running
    sums.
    """
    high = pool[len(pool) - q:]
    s, sq = sum(high), sum(y * y for y in high)
    best = s * (2 * total + s) - sq
    for x, y in zip(pool, high):
        s, sq = s + x - y, sq + x * x - y * y
        best = min(best, s * (2 * total + s) - sq)
    return twice + best


def combinatorial_inf(spectrum: list[Number], r: int) -> tuple[Number, tuple[int, ...]]:
    """Minimum of the restricted pair sum e2 over all r-subsets of directions.

    Returns the value and its witness, the lexicographically first r-subset
    of indices (in input order) that attains the minimum.  The value is
    ``tau_from_spectrum`` of the witness's own entries: exact for int and
    Fraction input; for floats it is the float pair sum of that subset.

    The search runs in exact integers for every input type: the values are
    put over one common denominator (a float's ``as_integer_ratio`` is
    exact, so float input is searched as the rationals it stores) and the
    comparisons use 2 e2 of the numerators.  Ties are exact ties.

    End sets.  Sort the values.  For q-subsets T of a pool and a constant
    c, f(T) = c sum(T) + e2(T) (e2 itself is c = 0) is least at an end set,
    the j smallest plus the q - j largest values for some j.  Proof: with
    T' = T minus x, f(T) = x (c + sum(T')) + f(T'), affine in x.  Among the
    minimizers take one with the most sorted positions in its bottom run
    (0, 1, ...) plus its top run (..., m-1, m).  If it is not an end set,
    some chosen x lies strictly between the first unused position from the
    bottom and the first unused position from the top; moving x to one of
    them changes f by (y - x)(c + sum(T')) or (z - x)(c + sum(T')) with
    y <= x <= z, and one of these is <= 0.  That gives a minimizer with a
    longer run, a contradiction.  So the minimum over C(n, r) subsets is
    the least of r + 1 end-set values, kept as running sums of the sorted
    values and of their squares.

    Witness.  A greedy fills positions left to right: for the next position
    it accepts the first index i after the last accepted one for which some
    completion from indices > i still reaches the minimum.  With the prefix
    P fixed, e2(P + {i} + T) = e2(P + {i}) + sum(P + {i}) sum(T) + e2(T) is
    f above with c = sum(P + {i}), so the completion minimum is the least
    end set of the remaining pool, in exact arithmetic.  If the prefix
    agrees with the lexicographically first minimizer w, every i before
    the next entry of w is rejected (accepting it would give a smaller
    minimizer) and that entry is accepted (w completes it), so the greedy
    returns w.  Candidates only increase, so at most n checks are made,
    each O(r) after an O(n) update of the sorted pool.

    Fan and Pall's converse of Cauchy interlacing (Canad. J. Math. 9, 1957):
    the r x r compressions of a symmetric operator with sorted eigenvalues
    l_1 <= ... <= l_n have exactly the spectra m_1 <= ... <= m_r with
    l_i <= m_i <= l_(i+n-r).  Both bounds grow with i, so sorting a point
    of that box keeps it in the box; e2 is symmetric, so the infimum over
    r-planes is the minimum of e2 over the box, and e2 is affine in each
    m_i, so it is reached at a vertex, each m_i equal to l_i or l_(i+n-r).
    When n >= 2r those index ranges are disjoint, a vertex is an r-subset
    of the eigenvalues, and this minimum is the infimum of tau(L) over all
    r-planes.  When n < 2r a vertex can repeat an eigenvalue and that step
    is not proved here; the optimizer in ``delta_invariant`` remains the
    cross-check.
    """
    n = len(spectrum)
    if not 2 <= r <= n - 1:
        raise GeometryError(f"r must satisfy 2 <= r <= n-1, got r={r}, n={n}")
    ratios = [x.as_integer_ratio() for x in spectrum]
    scale = math.lcm(*(d for _, d in ratios))
    ints = [m * (scale // d) for m, d in ratios]
    pool = sorted(ints)
    target = _least_doubled_pair_sum(pool, r, 0, 0)
    witness: list[int] = []
    total = twice = 0
    for i, x in enumerate(ints):
        del pool[bisect_left(pool, x)]
        need = r - len(witness) - 1
        with_x = (total + x, twice + 2 * total * x)
        if _least_doubled_pair_sum(pool, need, *with_x) == target:
            witness.append(i)
            total, twice = with_x
            if not need:
                break
    return tau_from_spectrum([spectrum[i] for i in witness]), tuple(witness)


def delta_from_spectrum(spectrum: list[Number], r: int) -> tuple[Number, Number, tuple]:
    """Exact (tau, inf over subsets, witness) -> returns (delta, inf, witness).

    tau is ((sum l)^2 - sum l^2) / 2, the pair sum in O(n) operations.
    """
    total = sum(spectrum)
    tau = Fraction(1, 2) * (total * total - sum(x * x for x in spectrum))
    inf_value, witness = combinatorial_inf(spectrum, r)
    return tau - inf_value, inf_value, witness


# -- floating-point operations ------------------------------------------------------


def _quadratic_tol(spectrum, tol: float) -> float:
    """tol * scale**2, scale = max(1, max|lambda|): the tolerance of a
    quantity quadratic in the eigenvalues, whose float rounding grows with
    their square (delta(r), tau(L) and the gap to the universal bound)."""
    return tol * max(1.0, max(abs(x) for x in spectrum)) ** 2


def delta_invariant(
    A: ShapeOperator,
    r: int,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = DEFAULT_SEED,
    tol: float = DEFAULT_TOL,
    use_optimizer: bool = True,
) -> DeltaResult:
    """delta(r) = tau - inf tau(L) over r-dimensional tangent subspaces.

    The combinatorial candidate is the exact minimum over spans of r
    principal directions (``combinatorial_inf``: the least of r + 1 end
    sets, with the first minimizing subset as witness), which for n >= 2r
    is the infimum over all r-planes.  The optimizer candidate searches all
    orthonormal r-frames by projected gradient descent and is the
    cross-check.  The smaller value wins and both are recorded.  Both
    comparisons are judged on ``_quadratic_tol``: tau(L) is quadratic in the
    eigenvalues, so the optimizer's float rounding grows with their square,
    and a value below the exact one by less than that is rounding, not a
    better plane.
    """
    if use_optimizer and restarts < 1:
        raise ConfigError(f"the optimizer needs at least one restart, got {restarts}")
    if use_optimizer and seed < 0:
        raise ConfigError(f"the optimizer seed must be non-negative, got {seed}")
    if use_optimizer and restarts * A.n * r > MAX_FRAME_ENTRIES:
        raise ConfigError(f"the optimizer's restarts * n * r must be at most {MAX_FRAME_ENTRIES}")
    report = curvature_report(A)
    spectrum = list(report.principal_curvatures)
    comb_value, witness_subset = combinatorial_inf(spectrum, r)
    comb_value = float(comb_value)
    scaled_tol = _quadratic_tol(spectrum, tol)

    opt_value = None
    opt_frame = None
    if use_optimizer:
        value, frame = minimize_tau(A.matrix, r, restarts=restarts, seed=seed)
        opt_value, opt_frame = float(value), frame

    if opt_value is not None and opt_value < comb_value - scaled_tol:
        inf_value: float = opt_value
        witness: Union[tuple[int, ...], np.ndarray] = opt_frame
        method = "optimizer"
    else:
        inf_value = comb_value
        witness = witness_subset
        method = "combinatorial"
        if opt_value is not None and abs(opt_value - comb_value) <= scaled_tol:
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
    return Fraction(n * n * (n - r), 2 * (n - r + 1)) * H * H


def ideality_gap(
    A: ShapeOperator,
    r: int,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = DEFAULT_SEED,
    tol: float = DEFAULT_TOL,
    use_optimizer: bool = True,
) -> dict:
    """Gap between the universal bound and delta(r); ideal when the gap closes.

    Both terms are quadratic in the eigenvalues, so the gap is judged on
    ``_quadratic_tol``, as ``delta_invariant`` judges the optimizer.
    """
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
        "ideal": abs(gap) <= _quadratic_tol(result.spectrum.principal_curvatures, tol),
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


def null2type_check(A: ShapeOperator, tol: float = DEFAULT_TOL) -> Null2TypeReport:
    """Pointwise screen for the null-2-type condition with constant mean curvature.

    With constant H the gradient part of the type equation is vacuous and the
    remaining scalar equation pins the spectral constant to a = tr A^2.
    Minimal points (H = 0) and umbilical points (1-type sphere) are rejected.
    Pointwise data cannot certify a varying mean curvature, so H is always
    assumed constant.
    """
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
