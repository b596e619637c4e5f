"""Shape operator, spectrum reports, and restricted scalar curvature."""

import numpy as np
import pytest

from deltahyp import GeometryError, ShapeOperator, curvature_report, restricted_scalar


class TestShapeOperator:
    def test_from_matrix(self):
        A = ShapeOperator(np.diag([1.0, 2.0, 3.0, 6.0]))
        assert A.n == 4
        assert np.allclose(A.eigenvalues(), [1, 2, 3, 6])

    def test_from_spectrum(self):
        A = ShapeOperator.from_spectrum([3, 1, 2])
        assert A.n == 3
        assert np.allclose(A.eigenvalues(), [1, 2, 3])

    def test_rejects_non_square(self):
        with pytest.raises(GeometryError):
            ShapeOperator(np.ones((2, 3)))

    def test_rejects_tiny_dimension(self):
        with pytest.raises(GeometryError):
            ShapeOperator(np.array([[1.0]]))

    def test_rejects_asymmetric(self):
        M = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(GeometryError):
            ShapeOperator(M)

    def test_accepts_roundoff_asymmetry(self):
        M = np.diag([1.0, 2.0])
        M[0, 1] = 1e-15
        A = ShapeOperator(M)
        assert np.allclose(A.matrix, A.matrix.T)

    def test_entries_near_the_float_limit(self):
        # warnings are errors under pytest, so an overflow here fails the test
        big = np.array([[1e308, 1e308], [1e308, -1e308]])
        assert np.array_equal(ShapeOperator(big).matrix, big)
        near = np.array([[0.0, 1.7e308], [np.nextafter(1.7e308, 2e308), 0.0]])
        A = ShapeOperator(near)
        assert np.isfinite(A.matrix).all() and np.array_equal(A.matrix, A.matrix.T)
        with pytest.raises(GeometryError, match="not symmetric"):
            ShapeOperator([[0.0, 1e308], [-1e308, 0.0]])

    def test_exactly_symmetric_input_is_kept_bit_for_bit(self):
        M = np.array([[5e-324, -0.0, 1.0], [-0.0, -0.0, 0.1], [1.0, 0.1, 3.0]])
        assert ShapeOperator(M).matrix.tobytes() == M.tobytes()

    def test_matrix_is_immutable(self):
        A = ShapeOperator(np.eye(3))
        with pytest.raises(ValueError):
            A.matrix[0, 0] = 5.0

    def test_eigenvalues_are_computed_once_and_read_only(self):
        A = ShapeOperator(np.diag([3.0, 1.0, 2.0]))
        eig = A.eigenvalues()
        assert A.eigenvalues() is eig
        assert list(eig) == [1.0, 2.0, 3.0]
        with pytest.raises(ValueError):
            eig[0] = 5.0

    def test_json_dict(self):
        A = ShapeOperator(np.eye(2))
        d = A.to_json_dict()
        assert d["n"] == 2
        assert d["matrix"] == [[1.0, 0.0], [0.0, 1.0]]


class TestCurvatureReport:
    def test_worked_example(self):
        A = ShapeOperator(np.diag([1.0, 2.0, 3.0, 6.0]))
        report = curvature_report(A)
        assert report.H == pytest.approx(3.0)
        assert report.trA2 == pytest.approx(50.0)
        assert report.tau == pytest.approx(47.0)
        assert report.principal_curvatures == pytest.approx((1.0, 2.0, 3.0, 6.0))

    def test_tau_two_ways_randomized(self):
        # tau from the eigenvalue pairs must equal the trace formula
        rng = np.random.default_rng(7_131)
        for _ in range(1000):
            n = int(rng.integers(3, 9))
            raw = rng.normal(size=(n, n))
            A = ShapeOperator((raw + raw.T) / 2)
            lam = A.eigenvalues()
            pair_sum = sum(
                lam[i] * lam[j] for i in range(n) for j in range(i + 1, n)
            )
            report = curvature_report(A)
            scale = max(1.0, abs(report.tau))
            assert abs(report.tau - pair_sum) <= 1e-9 * scale


class TestRestrictedScalar:
    def test_worked_example(self):
        A = ShapeOperator(np.diag([1.0, 2.0, 3.0, 6.0]))
        frame = np.eye(4)[:, :3]
        assert restricted_scalar(A, frame) == pytest.approx(11.0)

    def test_full_frame_recovers_tau(self):
        rng = np.random.default_rng(55)
        raw = rng.normal(size=(5, 5))
        A = ShapeOperator((raw + raw.T) / 2)
        tau = curvature_report(A).tau
        q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        assert restricted_scalar(A, q) == pytest.approx(tau, abs=1e-9)

    def test_rotation_invariance_within_span(self):
        # tau(L) depends only on the subspace, not on the orthonormal basis
        rng = np.random.default_rng(99)
        for _ in range(50):
            n = int(rng.integers(3, 8))
            r = int(rng.integers(2, n))
            raw = rng.normal(size=(n, n))
            A = ShapeOperator((raw + raw.T) / 2)
            frame, _ = np.linalg.qr(rng.normal(size=(n, r)))
            rot, _ = np.linalg.qr(rng.normal(size=(r, r)))
            value = restricted_scalar(A, frame)
            rotated = restricted_scalar(A, frame @ rot)
            assert abs(value - rotated) <= 1e-9 * max(1.0, abs(value))

    def test_vector_input_reshaped(self):
        A = ShapeOperator(np.diag([1.0, 2.0, 3.0]))
        assert restricted_scalar(A, np.array([1.0, 0.0, 0.0])) == pytest.approx(0.0)

    def test_rejects_non_orthonormal(self):
        A = ShapeOperator(np.eye(3))
        frame = np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(GeometryError):
            restricted_scalar(A, frame)

    def test_rejects_wrong_ambient_dimension(self):
        A = ShapeOperator(np.eye(3))
        with pytest.raises(GeometryError):
            restricted_scalar(A, np.eye(4)[:, :2])

    def test_rejects_excess_rank(self):
        A = ShapeOperator(np.eye(3))
        with pytest.raises(GeometryError):
            restricted_scalar(A, np.hstack([np.eye(3), np.eye(3)]))
