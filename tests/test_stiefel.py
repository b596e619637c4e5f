"""The Stiefel optimizer: stacked kernels, restart independence, the stall exit,
the line search's effort, its bits against the reference loop, and its value
against the exact subset infimum."""

import numpy as np
import pytest
from oracles import reference_minimize_tau

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


def record_kernel_calls(monkeypatch):
    """Log (kernel, frames in the call) for each kernel call minimize_tau makes.

    The kernels are module globals looked up at call time, as
    ``bench/tracer.py`` counts them: each ``tau_gradient`` call is one
    gradient step, and each ``retract_qf`` or ``tau_of_frame`` call after it
    one line-search round.
    """
    calls = []
    for name in ("retract_qf", "tau_of_frame", "tau_gradient"):

        def counted(*args, name=name, kernel=getattr(stiefel, name)):
            calls.append((name, len(args[-1])))
            return kernel(*args)

        monkeypatch.setattr(stiefel, name, counted)
    return calls


def calls_and_frames(calls, name):
    frames = [k for kernel, k in calls if kernel == name]
    return len(frames), sum(frames)


def rounds_per_step(calls):
    """Frames each line-search round evaluates, one list per gradient step."""
    steps = []
    for kernel, k in calls:
        if kernel == "tau_gradient":
            steps.append([])
        elif kernel == "tau_of_frame" and steps:
            steps[-1].append(k)
    return steps


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
    # value unchanged until the cap
    calls = record_kernel_calls(monkeypatch)
    value, frame = minimize_tau(np.diag([1.0, 2.0, 3.0, 6.0]), r)
    assert calls_and_frames(calls, "tau_gradient")[0] < MAX_ITERS
    assert abs(value - exact) <= 1e-12
    assert frame.shape == (4, r)


@pytest.mark.parametrize(
    "A",
    [np.diag([1.0, 2.0, 3.0, 6.0]), random_symmetric(np.random.default_rng(7), 6)],
    ids=["diag(1, 2, 3, 6)", "random 6x6"],
)
def test_line_search_needs_fewer_than_two_rounds_per_step(monkeypatch, A):
    # the monotone Armijo rule took about 2.1 and 4.1 retraction rounds per
    # gradient step here
    calls = record_kernel_calls(monkeypatch)
    minimize_tau(A, 3)
    rounds = calls_and_frames(calls, "retract_qf")[0]
    assert rounds < 2 * calls_and_frames(calls, "tau_gradient")[0]


DIAG_1236 = np.diag([1.0, 2.0, 3.0, 6.0])
RANDOM_6 = random_symmetric(np.random.default_rng(7), 6)


@pytest.mark.parametrize(
    "A, r, pinned",
    [
        (DIAG_1236, 3, {"retract_qf": (29, 462), "tau_of_frame": (29, 462), "tau_gradient": (20, 420)}),
        (DIAG_1236, 2, {"retract_qf": (47, 813), "tau_of_frame": (47, 813), "tau_gradient": (31, 764)}),
        (RANDOM_6, 3, {"retract_qf": (100, 1698), "tau_of_frame": (100, 1698), "tau_gradient": (69, 1610)}),
    ],
    ids=["diag(1, 2, 3, 6) r=3", "diag(1, 2, 3, 6) r=2", "random 6x6 r=3"],
)
def test_kernel_calls_and_frames_are_pinned(monkeypatch, A, r, pinned):
    # (calls, frames) per kernel with 32 restarts and seed 0, as counted
    # before the loop stopped filtering through masks that drop nothing; the
    # stiefel.* benchmark rows read these calls
    calls = record_kernel_calls(monkeypatch)
    minimize_tau(A, r)
    assert {name: calls_and_frames(calls, name) for name in pinned} == pinned


def test_value_is_tau_of_the_returned_orthonormal_frame():
    # a nonmonotone search may end above a value it visited, so the reported
    # value must be the returned frame's own
    rng = np.random.default_rng(34)
    for k in range(60):
        n = 4 + k % 6
        r = int(rng.integers(2, n))
        A = random_symmetric(rng, n) * 10.0 ** int(rng.integers(-3, 4))
        value, frame = minimize_tau(A, r, 8, 700 + k)
        assert value == tau_of_frame(A, frame)
        assert np.max(np.abs(frame.T @ frame - np.eye(r))) <= 1e-12


def assert_same_bits(A, r, restarts, seed):
    value, frame = minimize_tau(A, r, restarts, seed)
    expected_value, expected_frame = reference_minimize_tau(A, r, restarts, seed)
    assert value == expected_value
    assert np.array_equal(frame, expected_frame)


@pytest.mark.parametrize(
    "A, r",
    [(np.zeros((5, 5)), 2), (2.0 * np.eye(5), 3)],
    ids=["zero", "2I"],
)
def test_no_restart_searches_when_every_gradient_vanishes(monkeypatch, A, r):
    calls = record_kernel_calls(monkeypatch)
    assert_same_bits(A, r, 32, 0)
    assert rounds_per_step(calls) == [[]]


def test_stall_exits_keep_their_bits():
    # diag(1, 2, 3, 6) at r = 2 ends its restarts by the stall exit
    for seed in range(4):
        assert_same_bits(DIAG_1236, 2, 32, seed)


def test_restarts_that_halve_beside_restarts_that_accept_keep_their_bits(monkeypatch):
    calls = record_kernel_calls(monkeypatch)
    assert_same_bits(RANDOM_6, 3, 32, 0)
    # a second round on fewer frames: the others accepted their first trial
    assert any(len(rounds) > 1 and rounds[1] < rounds[0] for rounds in rounds_per_step(calls))


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


@st.composite
def scaled_problems(draw):
    n = draw(st.integers(3, 9))
    r = draw(st.integers(2, n - 1))
    upper = [[draw(st.floats(-1, 1)) if j >= i else 0.0 for j in range(n)] for i in range(n)]
    M = np.array(upper) * 10.0 ** draw(st.integers(-3, 3))
    restarts = draw(st.sampled_from([1, 3, 32]))
    return M + np.triu(M, 1).T, r, restarts, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(scaled_problems())
def test_minimize_tau_is_bit_identical_to_the_reference_loop(problem):
    # entries below 1 in size take the power-of-two rescaling
    assert_same_bits(*problem)
