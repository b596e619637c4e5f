"""Delta invariants, the universal curvature bound, patterns, and the optimizer."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from deltahyp import (
    GeometryError,
    ShapeOperator,
    UnsupportedModeError,
    chen_bound,
    combinatorial_inf,
    delta_from_spectrum,
    delta_invariant,
    detect_ideal_pattern,
    ideality_gap,
    null2type_check,
    tau_from_spectrum,
)
from deltahyp.stiefel import project_tangent, retract_qf, tau_gradient, tau_of_frame


class TestExactLayer:
    def test_tau_from_spectrum(self):
        assert tau_from_spectrum([1, 2, 3, 6]) == 47
        assert tau_from_spectrum([Fraction(1, 2), Fraction(1, 2)]) == Fraction(1, 4)

    def test_combinatorial_inf_worked_example(self):
        value, witness = combinatorial_inf([1, 2, 3, 6], 3)
        assert value == 11
        assert witness == (0, 1, 2)

    def test_combinatorial_inf_tie_break_is_lexicographic(self):
        value, witness = combinatorial_inf([1, 1, 1, 1], 2)
        assert value == 1
        assert witness == (0, 1)

    def test_combinatorial_inf_range_checks(self):
        with pytest.raises(GeometryError):
            combinatorial_inf([1, 2, 3], 1)
        with pytest.raises(GeometryError):
            combinatorial_inf([1, 2, 3], 3)

    def test_delta_from_spectrum_exact_fractions(self):
        delta, inf_value, witness = delta_from_spectrum([1, 2, 3, 6], 3)
        assert (delta, inf_value, witness) == (36, 11, (0, 1, 2))
        exact = delta_from_spectrum(
            [Fraction(1), Fraction(2), Fraction(3), Fraction(6)], 3
        )
        assert exact[0] == Fraction(36)
        assert isinstance(exact[0], Fraction)

    def test_exact_brute_force_cross_check(self):
        spectrum = [2, -1, 3, 5, -2]
        tau = tau_from_spectrum(spectrum)
        for r in (2, 3, 4):
            best = min(
                tau_from_spectrum([spectrum[i] for i in subset])
                for subset in itertools.combinations(range(5), r)
            )
            value, _ = combinatorial_inf(spectrum, r)
            assert value == best


class TestChenBound:
    def test_exact_values(self):
        assert chen_bound(4, 3, 3) == 36
        assert chen_bound(4, 2, 3) == 48
        # n=5, r=3: 25*2/(2*3) * H^2 with H = 18/5 gives exactly 108
        assert chen_bound(5, 3, Fraction(18, 5)) == Fraction(108)

    def test_formula(self):
        for n in range(4, 9):
            for r in (2, 3):
                H = Fraction(7, 3)
                expected = Fraction(n * n * (n - r), 2 * (n - r + 1)) * H * H
                assert chen_bound(n, r, H) == expected

    def test_float_input_gives_float(self):
        value = chen_bound(4, 3, 3.0)
        assert isinstance(value, float)
        assert value == pytest.approx(36.0)


class TestDeltaInvariant:
    def test_worked_example_r3(self):
        A = ShapeOperator(np.diag([1.0, 2.0, 3.0, 6.0]))
        result = delta_invariant(A, 3)
        assert result.delta == pytest.approx(36.0, abs=1e-9)
        assert result.witness == (0, 1, 2)
        assert result.method == "both-agree"

    def test_worked_example_r2(self):
        A = ShapeOperator(np.diag([1.0, 2.0, 3.0, 6.0]))
        result = delta_invariant(A, 2)
        assert result.delta == pytest.approx(45.0, abs=1e-9)
        assert result.witness == (0, 1)

    def test_combinatorial_only_mode(self):
        A = ShapeOperator(np.diag([1.0, 2.0, 3.0, 6.0]))
        result = delta_invariant(A, 3, use_optimizer=False)
        assert result.method == "combinatorial"
        assert result.optimizer_inf is None

    def test_optimizer_never_beaten_by_eigen_subsets(self):
        # the optimizer searches all frames, so it can only go lower
        rng = np.random.default_rng(1234)
        for _ in range(20):
            n = int(rng.integers(4, 8))
            raw = rng.normal(size=(n, n))
            A = ShapeOperator((raw + raw.T) / 2)
            result = delta_invariant(A, 3, restarts=8, seed=77)
            if result.optimizer_inf is not None:
                assert result.optimizer_inf <= result.combinatorial_inf + 1e-6

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(5)
        raw = rng.normal(size=(5, 5))
        A = ShapeOperator((raw + raw.T) / 2)
        r1 = delta_invariant(A, 2, seed=42)
        r2 = delta_invariant(A, 2, seed=42)
        assert r1.delta == r2.delta
        assert r1.inf_tau_L == r2.inf_tau_L


class TestIdeality:
    def test_gap_closes_on_worked_example(self):
        A = ShapeOperator(np.diag([1.0, 2.0, 3.0, 6.0]))
        outcome = ideality_gap(A, 3)
        assert outcome["ideal"]
        assert outcome["gap"] == pytest.approx(0.0, abs=1e-9)

    def test_gap_positive_off_pattern(self):
        A = ShapeOperator(np.diag([1.0, 2.0, 3.0, 7.0]))
        outcome = ideality_gap(A, 3)
        assert not outcome["ideal"]
        assert outcome["gap"] > 1e-6

    def test_pattern_detection_worked_example(self):
        A = ShapeOperator(np.diag([1.0, 2.0, 3.0, 6.0]))
        pattern = detect_ideal_pattern(A)
        assert pattern is not None
        assert pattern.alpha == pytest.approx(1.0)
        assert pattern.beta == pytest.approx(2.0)
        assert pattern.gamma == pytest.approx(3.0)
        assert pattern.repeated == pytest.approx(6.0)

    def test_pattern_none_on_umbilic(self):
        assert detect_ideal_pattern(ShapeOperator(np.eye(4))) is None

    def test_pattern_with_repeats(self):
        A = ShapeOperator(np.diag([1.0, 2.0, 3.0, 6.0, 6.0]))
        pattern = detect_ideal_pattern(A)
        assert pattern is not None
        assert pattern.repeated == pytest.approx(6.0)

    def test_pattern_implies_ideal_randomized(self):
        rng = np.random.default_rng(2718)
        for _ in range(40):
            n = int(rng.integers(4, 9))
            alpha, beta, gamma = rng.normal(size=3)
            spectrum = [alpha, beta, gamma] + [alpha + beta + gamma] * (n - 3)
            A = ShapeOperator.from_spectrum(spectrum)
            if detect_ideal_pattern(A) is None:
                continue  # degenerate draw (e.g. coincidences); not the claim
            outcome = ideality_gap(A, 3, use_optimizer=False)
            assert outcome["ideal"], spectrum


class TestNull2Type:
    def test_candidate(self):
        A = ShapeOperator(np.diag([1.0, 0.0, 0.0, 0.0]))
        report = null2type_check(A)
        assert report.status == "null-2-type-candidate"
        assert report.a == pytest.approx(1.0)

    def test_umbilical_rejected(self):
        report = null2type_check(ShapeOperator(np.eye(4) * 2.0))
        assert report.status == "rejected-umbilical-1-type"

    def test_minimal_rejected(self):
        report = null2type_check(ShapeOperator(np.zeros((4, 4))))
        assert report.status == "rejected-minimal"

    def test_traceless_nonzero_rejected_as_minimal(self):
        report = null2type_check(ShapeOperator(np.diag([1.0, -1.0, 0.0, 0.0])))
        assert report.status == "rejected-minimal"

    def test_nonconstant_H_mode_unsupported(self):
        A = ShapeOperator(np.eye(4))
        with pytest.raises(UnsupportedModeError):
            null2type_check(A, assume_constant_H=False)


class TestStiefelOptimizer:
    def test_tau_of_frame_matches_restricted_scalar(self):
        from deltahyp import restricted_scalar

        rng = np.random.default_rng(10)
        raw = rng.normal(size=(5, 5))
        A = (raw + raw.T) / 2
        frame, _ = np.linalg.qr(rng.normal(size=(5, 3)))
        assert tau_of_frame(A, frame) == pytest.approx(
            restricted_scalar(ShapeOperator(A), frame)
        )

    def test_gradient_matches_finite_differences(self):
        # analytic Euclidean gradient vs central differences, relative 1e-5
        rng = np.random.default_rng(31)
        for _ in range(10):
            n, r = 5, 3
            raw = rng.normal(size=(n, n))
            A = (raw + raw.T) / 2
            F = rng.normal(size=(n, r))
            G = tau_gradient(A, F)
            eps = 1e-6
            for _ in range(3):
                direction = rng.normal(size=(n, r))
                fd = (
                    tau_of_frame(A, F + eps * direction)
                    - tau_of_frame(A, F - eps * direction)
                ) / (2 * eps)
                analytic = float(np.sum(G * direction))
                scale = max(1.0, abs(fd), abs(analytic))
                assert abs(fd - analytic) <= 1e-5 * scale

    def test_tangent_projection_is_tangent(self):
        # on the Stiefel manifold, tangent vectors satisfy F^T X + X^T F = 0
        rng = np.random.default_rng(8)
        F, _ = np.linalg.qr(rng.normal(size=(6, 3)))
        X = project_tangent(F, rng.normal(size=(6, 3)))
        sym = F.T @ X + X.T @ F
        assert np.max(np.abs(sym)) <= 1e-12

    def test_retraction_orthonormalizes(self):
        rng = np.random.default_rng(9)
        F, _ = np.linalg.qr(rng.normal(size=(6, 3)))
        step = 0.3 * project_tangent(F, rng.normal(size=(6, 3)))
        out = retract_qf(F + step)
        assert np.max(np.abs(out.T @ out - np.eye(3))) <= 1e-12
