"""Unit tests for the exact sparse polynomial and rational-function kernel."""

import random
from fractions import Fraction

import pytest

from deltahyp import (
    ParseError,
    Polynomial,
    PolynomialRing,
    RationalFunction,
    UnknownVariableError,
    poly_gcd,
)
from deltahyp.errors import DeltahypError

RING = PolynomialRing(("x", "y", "z"))


def rand_poly(rng, ring=RING, max_terms=6, max_deg=4, max_coef=9):
    p = ring.zero()
    for _ in range(rng.randint(0, max_terms)):
        coef = Fraction(rng.randint(-max_coef, max_coef), rng.randint(1, 4))
        term = ring.const(coef)
        for var in ring.vars:
            term = term * ring.var(var) ** rng.randint(0, max_deg)
        p = p + term
    return p


class TestConstruction:
    def test_ring_vars(self):
        assert RING.vars == ("x", "y", "z")

    def test_const_and_var(self):
        assert RING.const(Fraction(3, 2)).render() == "3/2"
        assert RING.var("y").render() == "y"

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariableError):
            RING.var("t")

    def test_zero_is_zero(self):
        assert RING.zero().is_zero()
        assert not RING.one().is_zero()

    def test_rings_with_same_vars_are_interchangeable(self):
        other = PolynomialRing(("x", "y", "z"))
        assert other == RING
        assert other.var("x") + RING.var("y") == RING.parse("x + y")


class TestParseRender:
    @pytest.mark.parametrize(
        "text",
        [
            "0",
            "1",
            "-1",
            "3/2",
            "x",
            "x + y",
            "x^2 - 2*x*y + y^2",
            "-1/2*x^3*y + z",
            "x^2*y*z^3 + 7",
        ],
    )
    def test_round_trip(self, text):
        p = RING.parse(text)
        assert RING.parse(p.render()) == p

    def test_canonical_render_order(self):
        # graded lexicographic: higher total degree first, then lex on exponents
        p = RING.parse("y + x + x*y + x^2")
        assert p.render() == "x^2 + x*y + x + y"

    def test_unit_coefficients_are_implicit(self):
        assert RING.parse("1*x - 1*y").render() == "x - y"
        assert RING.parse("3*x - 2*x").render() == "x"

    @pytest.mark.parametrize("bad", ["x +", "x^", "(x", "x^-2"])
    def test_parse_rejects_garbage(self, bad):
        with pytest.raises((ParseError, DeltahypError)):
            RING.parse(bad)

    def test_parse_rejects_unknown_variable(self):
        with pytest.raises((ParseError, UnknownVariableError)):
            RING.parse("x + q")

    def test_render_parse_randomized(self):
        rng = random.Random(42)
        for _ in range(50):
            p = rand_poly(rng)
            assert RING.parse(p.render()) == p


class TestArithmetic:
    def test_ring_axioms_randomized(self):
        rng = random.Random(101)
        for _ in range(60):
            a, b, c = (rand_poly(rng) for _ in range(3))
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert (a - a).is_zero()

    def test_int_and_fraction_coercion(self):
        x = RING.var("x")
        assert 2 * x + x * 2 == 4 * x
        assert (Fraction(1, 2) * x) * 2 == x
        assert x + 1 == RING.parse("x + 1")
        assert 1 - x == RING.parse("1 - x")

    def test_power(self):
        x, y = RING.var("x"), RING.var("y")
        assert (x + y) ** 2 == x**2 + 2 * x * y + y**2
        assert (x + y) ** 0 == RING.one()

    def test_exact_division(self):
        f = RING.parse("x^2 - y^2")
        g = RING.parse("x + y")
        assert f.exact_div(g) == RING.parse("x - y")

    def test_exact_division_failure(self):
        with pytest.raises(DeltahypError):
            RING.parse("x^2 + 1").exact_div(RING.parse("x + y"))

    def test_exact_division_randomized(self):
        rng = random.Random(303)
        for _ in range(40):
            f, g = rand_poly(rng), rand_poly(rng)
            if g.is_zero():
                continue
            assert (f * g).exact_div(g) == f

    def test_scale(self):
        p = RING.parse("2*x + 4")
        assert p.scale(Fraction(1, 2)) == RING.parse("x + 2")


class TestCalculus:
    def test_diff_product_rule(self):
        rng = random.Random(77)
        for _ in range(25):
            a, b = rand_poly(rng), rand_poly(rng)
            assert (a * b).diff("x") == a.diff("x") * b + a * b.diff("x")

    def test_diff_basic(self):
        p = RING.parse("x^3*y - 2*x + 5")
        assert p.diff("x") == RING.parse("3*x^2*y - 2")
        assert p.diff("z").is_zero()

    def test_substitute_rational(self):
        p = RING.parse("x^2 + y")
        assert p.substitute("x", Fraction(3)) == RING.parse("y + 9")

    def test_substitute_polynomial(self):
        p = RING.parse("x^2 + y")
        assert p.substitute("x", RING.var("y")) == RING.parse("y^2 + y")

    def test_evaluate(self):
        p = RING.parse("x*y + z^2")
        value = p.substitute("x", 2).substitute("y", 3).substitute("z", Fraction(1, 2))
        assert value.constant_value() == Fraction(25, 4)

    def test_degree_queries(self):
        p = RING.parse("x^3*y + z^2")
        assert p.degree("x") == 3
        assert p.total_degree() == 4
        assert p.leading_coefficient() == Fraction(1)

    def test_content_primitive(self):
        p = RING.parse("4*x + 6*y")
        assert p.primitive() == RING.parse("2*x + 3*y")
        assert p.content() == Fraction(2)

    def test_primitive_sign_normalization(self):
        p = RING.parse("-4*x - 6*y")
        assert p.primitive().leading_coefficient() > 0

    def test_coefficients_in(self):
        p = RING.parse("x^2*y + x^2 + 3*x + z")
        coeffs = p.coefficients_in("x")
        assert coeffs[2] == RING.parse("y + 1")
        assert coeffs[1] == RING.parse("3")
        assert coeffs[0] == RING.parse("z")


class TestRestrictRing:
    def test_restrict_keeps_used_vars(self):
        small = PolynomialRing(("x", "y"))
        q = RING.parse("x^2 + y").restrict_ring(small)
        assert q.render() == "x^2 + y"
        assert q.ring.vars == ("x", "y")

    def test_restrict_rejects_lost_vars(self):
        small = PolynomialRing(("x", "y"))
        with pytest.raises(UnknownVariableError):
            RING.parse("z + 1").restrict_ring(small)


class TestGcd:
    def test_common_factor_divides_gcd(self):
        # two variables keep the primitive PRS fast; the pipeline's own gcds
        # are bivariate as well (after specializing the type constant)
        ring = PolynomialRing(("x", "y"))
        rng = random.Random(5)
        done = 0
        while done < 20:
            g = rand_poly(rng, ring=ring, max_terms=3, max_deg=2)
            a = rand_poly(rng, ring=ring, max_terms=3, max_deg=2)
            b = rand_poly(rng, ring=ring, max_terms=3, max_deg=2)
            if g.is_zero() or g.is_constant() or a.is_zero() or b.is_zero():
                continue
            d = poly_gcd(g * a, g * b)
            assert g.primitive().divides(d)
            assert d.divides(g * a)
            assert d.divides(g * b)
            done += 1

    def test_gcd_coprime(self):
        assert poly_gcd(RING.parse("x + 1"), RING.parse("y + 1")).is_constant()

    def test_gcd_with_zero(self):
        p = RING.parse("2*x + 4*y")
        assert poly_gcd(p, RING.zero()) == p.primitive()


class TestRationalFunction:
    def test_normalization(self):
        x, y = RING.var("x"), RING.var("y")
        r = RationalFunction(x**2 - y**2, x + y)
        assert r.is_polynomial()
        assert r.as_polynomial() == x - y

    def test_arithmetic(self):
        x = RING.var("x")
        half = RationalFunction(RING.one(), RING.const(2) * x)
        s = half + half  # = 1/x
        assert (s * x).is_polynomial()
        assert (s * x).as_polynomial() == RING.one()

    def test_as_polynomial_divides_once(self, monkeypatch):
        x, y = RING.var("x"), RING.var("y")
        calls = []
        exact_div = Polynomial.exact_div

        def counting_exact_div(self, divisor):
            calls.append(divisor)
            return exact_div(self, divisor)

        monkeypatch.setattr(Polynomial, "exact_div", counting_exact_div)
        assert RationalFunction(x**2 - y**2, x + y).as_polynomial() == x - y
        assert len(calls) == 1

    def test_as_polynomial_rejects_a_proper_quotient(self):
        x, y = RING.var("x"), RING.var("y")
        with pytest.raises(ValueError, match="not a polynomial"):
            RationalFunction(x + 1, x - y).as_polynomial()

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RationalFunction(RING.one(), RING.zero())

    def test_field_axioms_randomized(self):
        ring = PolynomialRing(("x", "y"))
        rng = random.Random(13)
        done = 0
        while done < 15:
            num1 = rand_poly(rng, ring=ring, max_terms=2, max_deg=2)
            num2 = rand_poly(rng, ring=ring, max_terms=2, max_deg=2)
            den1 = rand_poly(rng, ring=ring, max_terms=2, max_deg=2)
            den2 = rand_poly(rng, ring=ring, max_terms=2, max_deg=2)
            if den1.is_zero() or den2.is_zero():
                continue
            r1 = RationalFunction(num1, den1)
            r2 = RationalFunction(num2, den2)
            assert ((r1 + r2) - r2 - r1).is_zero()
            assert (r1 * r2 - r2 * r1).is_zero()
            if not num2.is_zero():
                assert ((r1 / r2) * r2 - r1).is_zero()
            done += 1

    def test_of_and_render(self):
        x = RING.var("x")
        r = RationalFunction(x + 1)
        assert r.is_polynomial()
        assert "x" in r.render()

    def test_mixed_polynomial_arithmetic(self):
        x, y = RING.var("x"), RING.var("y")
        r = RationalFunction(y, x)
        assert ((r * x) - y).is_zero()
        assert (r + x).render() != ""
