"""Tests for the Leibniz derivation machinery and the replay configuration."""

from fractions import Fraction

import pytest

from deltahyp import (
    ConfigError,
    Derivation,
    FRAME_VARS,
    PolynomialRing,
    RationalFunction,
    ReplayConfig,
    UnknownVariableError,
    build_algebra,
)


class TestReplayConfig:
    def test_accepts_dimension_four_and_up(self):
        for n in (4, 5, 12):
            assert ReplayConfig(n=n).n == n

    @pytest.mark.parametrize("n", [3, 2, 0, -1])
    def test_rejects_small_dimension(self, n):
        with pytest.raises(ConfigError, match="n must be an integer >= 4"):
            ReplayConfig(n=n)

    def test_rejects_non_integer(self):
        with pytest.raises(ConfigError):
            ReplayConfig(n=4.5)

    def test_numeric_mode_requires_value(self):
        with pytest.raises(ConfigError, match="requires a_value"):
            ReplayConfig(n=4, a_mode="numeric")

    def test_numeric_mode_coerces_value(self):
        cfg = ReplayConfig(n=4, a_mode="numeric", a_value="3/2")
        assert cfg.a_value == Fraction(3, 2)

    def test_symbolic_mode_rejects_value(self):
        with pytest.raises(ConfigError):
            ReplayConfig(n=4, a_value=Fraction(1))

    def test_rejects_unknown_mode(self):
        with pytest.raises(ConfigError):
            ReplayConfig(n=4, a_mode="mystery")


class TestDerivation:
    RING = PolynomialRing(("x", "y"))

    def d(self):
        # D(x) = 1, D(y) = x  (a simple shift-like derivation)
        return Derivation(self.RING, {"x": self.RING.one(), "y": self.RING.var("x")})

    def test_linearity(self):
        D = self.d()
        x, y = self.RING.var("x"), self.RING.var("y")
        p, q = x**2 + y, x * y
        lhs = D.of_poly(p + 3 * q)
        rhs = D.of_poly(p) + D.of_poly(q) * 3
        assert (lhs - rhs).is_zero()

    def test_product_rule(self):
        D = self.d()
        x, y = self.RING.var("x"), self.RING.var("y")
        p, q = x + y**2, x**3 - y
        lhs = D.of_poly(p * q)
        rhs = D.of_poly(p) * q + D.of_poly(q) * p
        assert (lhs - rhs).is_zero()

    def test_constants_vanish(self):
        D = self.d()
        assert D.of_poly(self.RING.const(Fraction(7, 3))).is_zero()

    def test_quotient_rule(self):
        D = self.d()
        x, y = self.RING.var("x"), self.RING.var("y")
        r = RationalFunction(y, x)
        # D(y/x) = (D(y)*x - y*D(x)) / x^2 = (x*x - y) / x^2
        expected = RationalFunction(x * x - y, x * x)
        assert (D.of_rational(r) - expected).is_zero()

    def test_strict_rejects_rational_result(self):
        ring = PolynomialRing(("x",))
        D = Derivation(ring, {"x": RationalFunction(ring.one(), ring.var("x"))})
        with pytest.raises(Exception):
            D.of_poly_strict(ring.var("x"))  # derivative is 1/x, not polynomial

    def test_missing_rule_raises(self):
        D = Derivation(self.RING, {"x": self.RING.one()})
        with pytest.raises(UnknownVariableError):
            D.of_poly(self.RING.var("y"))

    def test_rules_validate_variables(self):
        with pytest.raises(UnknownVariableError):
            Derivation(self.RING, {"bogus": self.RING.one()})


class TestFrameAlgebra:
    def test_constants(self):
        alg = build_algebra(ReplayConfig(n=4))
        assert alg.c1 == Fraction(-2)
        assert alg.c2 == Fraction(4)
        alg5 = build_algebra(ReplayConfig(n=5))
        assert alg5.c1 == Fraction(-5, 2)
        assert alg5.c2 == Fraction(25, 6)

    def test_ring_variables(self):
        alg = build_algebra(ReplayConfig(n=4))
        assert alg.ring.vars == FRAME_VARS

    def test_flow_rules_shape(self):
        alg = build_algebra(ReplayConfig(n=6))
        H = alg.ring.var("H")
        E = alg.ring.var("E")
        assert alg.scratch_derivation.rule("H").as_polynomial() == E
        assert alg.scratch_derivation.rule("a").is_zero()
        # the connection-quotient rules are Riccati-type: -w^2 + curvature term
        for wname in ("w212", "w313", "w414"):
            rule = alg.scratch_derivation.rule(wname).as_polynomial()
            wv = alg.ring.var(wname)
            assert rule.degree(wname) == 2
            assert (rule + wv * wv).degree(wname) == 0

    @pytest.mark.parametrize("n", range(4, 13))
    def test_spectrum_has_trace_nH_and_drives_the_flow_rules(self, n):
        alg = build_algebra(ReplayConfig(n=n))
        lam1, lam2, lam3, lam_tail = alg.spectrum
        H, beta = alg.ring.var("H"), alg.ring.var("beta")
        assert (lam1, lam2) == (alg.c1 * H, beta)
        assert lam1 + lam2 + lam3 + (n - 3) * lam_tail == n * H
        rule = alg.scratch_derivation.rule
        assert rule("beta").as_polynomial() == (lam1 - lam2) * alg.ring.var("w212")
        for name, lam in zip(("w212", "w313", "w414"), (lam2, lam3, lam_tail)):
            w = alg.ring.var(name)
            assert rule(name).as_polynomial() == -w * w - lam1 * lam

    def test_scratch_derivation_keeps_second_derivative_free(self):
        alg = build_algebra(ReplayConfig(n=4))
        EE = alg.ring.var("EE")
        assert alg.scratch_derivation.rule("E").as_polynomial() == EE

    def test_derivative_of_mean_curvature_square(self):
        alg = build_algebra(ReplayConfig(n=4))
        H, E = alg.ring.var("H"), alg.ring.var("E")
        assert alg.scratch_derivation.of_poly_strict(H * H) == 2 * H * E
