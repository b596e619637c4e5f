"""Differential test of the exact polynomial kernel against sympy.

Hypothesis draws sparse polynomials over Q[x, y, z]; every ring operation,
the gcd and the resultant must agree with sympy's, term for term (the gcd up
to a nonzero rational, the resultant up to a nonzero rational).  Every result
is also checked to store no zero coefficient, the invariant the constructor
keeps for all operations.  The replay's final resultants for n = 4..8 are
checked against sympy's resultant of the same two curves.
"""

from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from deltahyp import Polynomial, PolynomialRing, ReplayConfig, poly_gcd, replay_all  # noqa: E402
from deltahyp.errors import ExactDivisionError  # noqa: E402
from deltahyp.resultant import resultant  # noqa: E402

RING = PolynomialRing(("x", "y", "z"))
SETTINGS = settings(derandomize=True, max_examples=60, deadline=None)

COEFFS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
EXPONENTS = st.tuples(*[st.integers(0, 3)] * len(RING.vars))


def polynomials(max_terms=5):
    # zero coefficients are drawn on purpose: the constructor must drop them
    return st.dictionaries(EXPONENTS, COEFFS, max_size=max_terms).map(
        lambda terms: Polynomial(RING, terms)
    )


VARS = st.sampled_from(RING.vars)
VALUES = st.one_of(st.integers(-3, 3), COEFFS)


def to_sympy(p: Polynomial):
    gens = sympy.symbols(p.ring.vars)
    terms = {exp: sympy.Rational(c.numerator, c.denominator) for exp, c in p.terms.items()}
    return sympy.Poly.from_dict(terms or {(0,) * len(gens): 0}, *gens, domain="QQ")


def poly_of(expr, ring=RING):
    return sympy.Poly(sympy.expand(expr), *sympy.symbols(ring.vars), domain="QQ")


def terms_of(oracle) -> dict:
    return {
        exp: Fraction(int(c.p), int(c.q))
        for exp, c in oracle.as_dict(native=False).items()
    }


def assert_matches(ours: Polynomial, oracle) -> None:
    assert all(type(c) is Fraction and c != 0 for c in ours.terms.values())
    assert ours.terms == terms_of(oracle)


def assert_proportional(ours: Polynomial, oracle) -> None:
    """Equal up to a nonzero rational factor (both zero counts as equal)."""
    assert all(c != 0 for c in ours.terms.values())
    expected = terms_of(oracle)
    assert ours.terms.keys() == expected.keys()
    if expected:
        pivot = next(iter(expected))
        ratio = ours.terms[pivot] / expected[pivot]
        assert all(ours.terms[m] == ratio * c for m, c in expected.items())


@SETTINGS
@given(polynomials(), polynomials())
def test_add_and_sub(f, g):
    assert_matches(f + g, to_sympy(f) + to_sympy(g))
    assert_matches(f - g, to_sympy(f) - to_sympy(g))
    assert (f - f).is_zero()


@SETTINGS
@given(polynomials(), polynomials())
def test_mul(f, g):
    assert_matches(f * g, to_sympy(f) * to_sympy(g))


@SETTINGS
@given(polynomials(), VARS)
def test_diff(f, var):
    assert_matches(f.diff(var), to_sympy(f).diff(sympy.Symbol(var)))


@SETTINGS
@given(polynomials(), VARS, VALUES)
def test_substitute_rational(f, var, value):
    expected = to_sympy(f).as_expr().subs(sympy.Symbol(var), sympy.Rational(value))
    assert_matches(f.substitute(var, value), poly_of(expected))


@SETTINGS
@given(polynomials(), VARS, polynomials(max_terms=3))
def test_substitute_polynomial(f, var, value):
    expected = to_sympy(f).as_expr().subs(sympy.Symbol(var), to_sympy(value).as_expr())
    assert_matches(f.substitute(var, value), poly_of(expected))


@SETTINGS
@given(polynomials(), VARS)
def test_coefficients_in(f, var):
    coeffs = f.coefficients_in(var)
    assert len(coeffs) == f.degree(var) + 1
    expr = to_sympy(f).as_expr()
    for k, c in enumerate(coeffs):
        assert_matches(c, poly_of(expr.coeff(sympy.Symbol(var), k)))


@SETTINGS
@given(polynomials(), polynomials(max_terms=4))
def test_exact_div(f, g):
    assume(not g.is_zero())
    assert_matches((f * g).exact_div(g), to_sympy(f))
    quotient, remainder = sympy.div(to_sympy(f), to_sympy(g))
    if remainder.is_zero:
        assert_matches(f.exact_div(g), quotient)
    else:
        with pytest.raises(ExactDivisionError):
            f.exact_div(g)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(polynomials(max_terms=3), polynomials(max_terms=3), polynomials(max_terms=3))
def test_poly_gcd_up_to_a_unit(a, b, c):
    f, g = a * c, b * c
    assert_proportional(poly_gcd(f, g), sympy.gcd(to_sympy(f), to_sympy(g)))


@settings(derandomize=True, max_examples=30, deadline=None)
@given(polynomials(max_terms=4), polynomials(max_terms=4))
def test_resultant_up_to_a_nonzero_rational(f, g):
    assume(f.degree("x") >= 1 and g.degree("x") >= 1)
    oracle = sympy.resultant(to_sympy(f), to_sympy(g), sympy.Symbol("x"))
    assert_proportional(resultant(f, g, "x"), poly_of(oracle.as_expr()))


@pytest.mark.parametrize("n", range(4, 9))
def test_final_resultant_is_sympys(n):
    report = replay_all(ReplayConfig(n=n))
    curves = [to_sympy(curve).as_expr() for curve in (report.curve9, report.curve12)]
    oracle = sympy.resultant(*curves, sympy.Symbol("beta"))
    final = report.final_resultant
    assert not final.is_zero()
    assert_proportional(final, poly_of(oracle, final.ring))
