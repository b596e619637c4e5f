"""The Stiefel optimizer: stacked kernels, restart independence, the stall exit,
and its value against the exact subset infimum."""

import numpy as np
import pytest

from deltahyp import stiefel
from deltahyp.delta import combinatorial_inf
from deltahyp.stiefel import (
    MAX_ITERS,
    minimize_tau,
    project_tangent,
    retract_qf,
    tau_gradient,
    tau_of_frame,
)


def random_symmetric(rng, n):
    raw = rng.normal(size=(n, n))
    return (raw + raw.T) / 2


def assert_close(stacked, sliced):
    scale = max(1.0, float(np.max(np.abs(sliced))))
    assert np.max(np.abs(np.asarray(stacked) - sliced)) <= 1e-12 * scale


@pytest.mark.parametrize("batch", [(1,), (5,), (2, 3)])
def test_stacked_kernels_equal_per_slice_calls(batch):
    rng = np.random.default_rng(31)
    n, r = 6, 3
    A = random_symmetric(rng, n)
    Y = rng.normal(size=batch + (n, r))
    F = retract_qf(Y)
    G = rng.normal(size=batch + (n, r))
    slices = list(np.ndindex(*batch))
    assert_close(F, np.array([retract_qf(Y[i]) for i in slices]).reshape(F.shape))
    assert_close(tau_of_frame(A, F), np.array([tau_of_frame(A, F[i]) for i in slices]).reshape(batch))
    assert_close(
        tau_gradient(A, F), np.array([tau_gradient(A, F[i]) for i in slices]).reshape(F.shape)
    )
    assert_close(
        project_tangent(F, G),
        np.array([project_tangent(F[i], G[i]) for i in slices]).reshape(F.shape),
    )


def test_two_dimensional_kernels_keep_their_types():
    rng = np.random.default_rng(32)
    A = random_symmetric(rng, 5)
    F = retract_qf(rng.normal(size=(5, 2)))
    assert isinstance(tau_of_frame(A, F), float)
    assert tau_gradient(A, F).shape == (5, 2)


def test_more_restarts_never_do_worse():
    # restart k depends on (seed, k) only, so the first 4 of 32 restarts end
    # exactly where a 4-restart run ends
    rng = np.random.default_rng(33)
    for k in range(40):
        n = int(rng.integers(3, 9))
        r = int(rng.integers(2, n))
        A = random_symmetric(rng, n)
        assert minimize_tau(A, r, 32, 500 + k)[0] <= minimize_tau(A, r, 4, 500 + k)[0]


@pytest.mark.parametrize("r, exact", [(3, 11.0), (2, 2.0)])
def test_stall_exit_ends_before_the_iteration_cap(monkeypatch, r, exact):
    # without the stall exit, r = 2 keeps accepting steps that leave the
    # value unchanged until the cap; each tau_gradient call is one round
    rounds = []
    gradient = stiefel.tau_gradient

    def counted(A, F):
        rounds.append(len(F))
        return gradient(A, F)

    monkeypatch.setattr(stiefel, "tau_gradient", counted)
    value, frame = minimize_tau(np.diag([1.0, 2.0, 3.0, 6.0]), r)
    assert len(rounds) < MAX_ITERS
    assert abs(value - exact) <= 1e-12
    assert frame.shape == (4, r)


hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@st.composite
def operators(draw):
    n = draw(st.integers(3, 8))
    r = draw(st.integers(2, n - 1))
    entries = st.one_of(st.floats(-10, 10), st.integers(-3, 3))
    upper = [[draw(entries) if j >= i else 0.0 for j in range(n)] for i in range(n)]
    M = np.array(upper, dtype=float)
    return M + np.triu(M, 1).T, r, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(operators())
def test_optimizer_matches_the_exact_subset_infimum(case):
    # Fan-Pall: no r-plane goes below the best eigenvector subset, so the
    # optimizer may only undershoot by rounding; 8 restarts must reach it
    A, r, seed = case
    eig = np.linalg.eigvalsh(A)
    exact = float(combinatorial_inf(list(eig), r)[0])
    scale = max(1.0, float(np.max(np.abs(eig)))) ** 2
    value = minimize_tau(A, r, 8, seed)[0]
    assert value >= exact - 1e-9 * scale
    assert value <= exact + 1e-6 * scale
