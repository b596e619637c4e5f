"""Differential test of the exact polynomial kernel against sympy.

Hypothesis draws sparse polynomials over Q[x, y, z]; every ring operation,
the gcd and the resultant must agree with sympy's, term for term (the gcd up
to a nonzero rational, the resultant up to a nonzero rational).  So must the
term accessors (one monomial's coefficient, the support cut down to some
variables), and the product rewrite must stay in its coset of the ideal.  Every result
is also checked to store no zero coefficient, the invariant the constructor
keeps for all operations.  A chain of rational-function arithmetic must
reduce to sympy's cancelled quotient, with every gcd left to that read.  The
replay's final resultants for n = 4..8, and for numeric type constants at
n = 4, 5, 8, must equal sympy's resultant of the same two curves exactly, and
each other sign branch's verdict must follow from sympy's resultant of that
branch's curves.
"""

import functools
import operator
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from deltahyp import (  # noqa: E402
    Polynomial,
    PolynomialRing,
    RationalFunction,
    ReplayConfig,
    poly_gcd,
    replay_all,
)
from deltahyp import poly as poly_module  # noqa: E402
from deltahyp import replay as replay_module  # noqa: E402
from deltahyp.errors import DegreeError, ExactDivisionError  # noqa: E402
from deltahyp.resultant import resultant  # noqa: E402

from oracles import dense_mod_p  # noqa: E402

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
@given(polynomials(), st.dictionaries(VARS, st.integers(0, 3)))
def test_coefficient(f, powers):
    monomial = tuple(powers.get(var, 0) for var in RING.vars)
    expected = to_sympy(f).coeff_monomial(monomial)
    assert f.coefficient(powers) == Fraction(int(expected.p), int(expected.q))


@SETTINGS
@given(polynomials(), st.lists(VARS, min_size=1, max_size=3, unique=True))
def test_support(f, variables):
    assert f.support() == set(to_sympy(f).as_dict())
    # viewed as a polynomial in ``variables`` alone, sympy's monomials are the cut
    cut = sympy.Poly(to_sympy(f).as_expr(), *sympy.symbols(variables))
    assert f.support(variables) == set(cut.as_dict())


def product_values(var_a, var_b):
    """Polynomials whose every term has joint degree at most one in the pair."""
    ia, ib = RING.index(var_a), RING.index(var_b)
    return polynomials(max_terms=3).map(
        lambda p: Polynomial(
            RING, {e: c for e, c in p.terms.items() if e[ia] + e[ib] <= 1}
        )
    )


PAIRS = st.permutations(RING.vars).map(lambda order: order[:2])


@SETTINGS
@given(polynomials(), PAIRS, st.data())
def test_rewrite_product(f, pair, data):
    var_a, var_b = pair
    value = data.draw(product_values(var_a, var_b))
    out = f.rewrite_product(var_a, var_b, value)
    a, b = sympy.symbols(pair)
    oracle = to_sympy(out)
    assert all(
        not (exp[RING.index(var_a)] and exp[RING.index(var_b)]) for exp in oracle.monoms()
    )
    relation = poly_of(a * b - to_sympy(value).as_expr())
    _, remainder = sympy.div(to_sympy(f) - oracle, relation)
    assert remainder.is_zero


@SETTINGS
@given(polynomials(), PAIRS, polynomials(max_terms=3))
def test_rewrite_product_rejects_a_replacement_holding_the_pair(f, pair, value):
    var_a, var_b = pair
    ia, ib = RING.index(var_a), RING.index(var_b)
    assume(any(e[ia] + e[ib] > 1 for e in value.support()))
    with pytest.raises(DegreeError):
        f.rewrite_product(var_a, var_b, value)


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
@given(polynomials(), polynomials(), polynomials(max_terms=3))
def test_poly_gcd_up_to_a_unit(a, b, c):
    f, g = a * c, b * c
    assert_proportional(poly_gcd(f, g), sympy.gcd(to_sympy(f), to_sympy(g)))


def test_poly_gcd_through_a_non_normal_sequence():
    # x^5 + 2x^2 + 1 mod x^3 + 2 is 1, so the PRS over Q[y] skips degrees
    common = RING.parse("x + y")
    f, g = RING.parse("x^5 + 2*x^2 + 1") * common, RING.parse("x^3 + 2") * common
    assert_matches(poly_gcd(f, g), sympy.gcd(to_sympy(f), to_sympy(g)))
    assert poly_gcd(f, g) == common


UNIVARIATE = PolynomialRing(("x",))
P = poly_module.MODULUS
# a coefficient is a multiple of P one time in four, so a leading one often is
P_INTEGRAL = st.builds(operator.mul, COEFFS, st.sampled_from([1, 1, 1, P]))


def univariate(max_terms=4):
    exponents = st.tuples(st.integers(0, 3))
    return st.dictionaries(exponents, P_INTEGRAL, min_size=1, max_size=max_terms).map(
        lambda terms: Polynomial(UNIVARIATE, terms)
    )


@settings(derandomize=True, max_examples=100, deadline=None)
@given(univariate(), univariate(), univariate(max_terms=3), st.booleans())
def test_gcd_degree_mod_p_bounds_the_exact_degree(a, b, c, shared):
    # the spot check's soundness: with both leading coefficients nonzero
    # mod P, a common factor over Q survives mod P with its degree
    f, g = (a * c, b * c) if shared else (a, b)
    dense = [dense_mod_p(poly_module.residues(p), UNIVARIATE, "x", {})
             for p in (f, g)]
    degree = poly_module.gcd_degree_mod_p(*dense)
    if any(map(any, dense)):
        x = sympy.Symbol("x")
        oracle = sympy.gcd(*(sympy.Poly(list(reversed(d)) or [0], x, modulus=P) for d in dense))
        assert degree == oracle.degree()
    else:
        assert degree == -1
    if all(d and d[-1] for d in dense):
        assert degree >= poly_gcd(f, g).degree("x")


def test_residues_reject_a_denominator_divisible_by_p():
    x = UNIVARIATE.var("x")
    assert poly_module.residues(x * 2 + 3) == {(1,): 2, (0,): 3}
    assert poly_module.residues(x * P - 1) == {(1,): 0, (0,): P - 1}
    assert poly_module.residue(Fraction(1, 2)) * 2 % P == 1
    assert poly_module.residues(x * Fraction(1, P) + 1) is None


@functools.lru_cache(maxsize=None)
def replayed_curves(n):
    """(c9, c12, res) of the symbolic replay at n."""
    report = replay_all(ReplayConfig(n=n))
    return report.curve9, report.curve12, report.final_resultant


def settled_two_variable(dense9, dense12, r0):
    """The spot check's decision on dense residue lists in beta."""
    return bool(dense9[-1] and dense12[-1] and any(r0)) and (
        poly_module.gcd_degree_mod_p(dense9, dense12) == 0
    )


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    st.integers(4, 16),
    st.sampled_from([None, Fraction(1), Fraction(3, 2), Fraction(-2, 3), Fraction(0)]),
    # the spot check's ranges for H0 and a0
    st.builds(Fraction, st.integers(1, 60), st.integers(1, 13)),
    st.builds(Fraction, st.integers(-40, 40), st.integers(1, 9)),
)
def test_spotcheck_at_t_is_the_two_variable_check(n, a_value, H0, a0):
    # c(H0, H0*b, a0) = H0^D c(1, b, t) with t = a0/H0^2: each beta^j
    # coefficient at t is the one at (H0, a0) times H0^(j - D), and the
    # decision mod P is the same; a numeric run samples the symbolic curves
    # at a0 = a_value
    if a_value is not None:
        a0 = a_value
    curves = replayed_curves(n)
    ring = replay_module._CURVE_RING
    t = poly_module.residue(a0 / H0**2)
    h0 = poly_module.residue(H0)
    point = {"H": h0, "a": poly_module.residue(a0)}
    images, at_t, at_point = [], [], []
    for p in curves:
        weight = max(h + b + 2 * k for h, b, k in p.terms)
        image = replay_module._t_image(p)
        dense = dense_mod_p(poly_module.residues(p), ring, "beta", point)
        images.append(image)
        at_t.append([replay_module._horner(coeffs, t) for coeffs in image])
        at_point.append(dense)
        assert at_t[-1] == [c * pow(h0, j - weight, P) % P for j, c in enumerate(dense)]
    assert replay_module._settled_mod_p(images, t) == settled_two_variable(*at_point)
    assert settled_two_variable(*at_t) == settled_two_variable(*at_point)


def test_t_image_needs_a_weighted_homogeneous_form_and_no_p_denominator():
    ring = replay_module._CURVE_RING
    H, beta, a = (ring.var(v) for v in ("H", "beta", "a"))
    image = replay_module._t_image
    # weight 3: H^3 -> 1 at beta^0, a*beta -> t at beta^1, H*beta^2 -> 1 at beta^2;
    # one list in t per power of beta, all as long as the largest power of t
    assert image(H**3 + 2 * a * beta - H * beta**2) == [[1, 0], [0, 2], [P - 1, 0]]
    for form in (
        H**2 + a * H,  # weights 2 and 3
        beta * Fraction(1, P) + H,  # P divides the denominator
        ring.zero(),
    ):
        assert image(form) is None


@settings(derandomize=True, max_examples=30, deadline=None)
@given(polynomials(max_terms=4), polynomials(max_terms=4))
def test_resultant_up_to_a_nonzero_rational(f, g):
    assume(f.degree("x") >= 1 and g.degree("x") >= 1)
    oracle = sympy.resultant(to_sympy(f), to_sympy(g), sympy.Symbol("x"))
    assert_proportional(resultant(f, g, "x"), poly_of(oracle.as_expr()))


def sympy_resultant(curve9: Polynomial, curve12: Polynomial):
    curves = [to_sympy(curve).as_expr() for curve in (curve9, curve12)]
    return poly_of(sympy.resultant(*curves, sympy.Symbol("beta")), curve9.ring)


@pytest.mark.parametrize(
    "n, a_value",
    [pytest.param(n, None, id=str(n)) for n in range(4, 9)]
    + [pytest.param(n, a, id=f"{n}-a={a}") for n in (4, 5, 8)
       for a in (Fraction(0), Fraction(3, 2), Fraction(-2, 3), Fraction(10**40 + 7, 3))],
)
def test_final_resultant_is_sympys(n, a_value):
    # a numeric run reports the specialized curves and their resultant, which
    # it scales from the symbolic one at a = a_value
    cfg = (ReplayConfig(n=n) if a_value is None
           else ReplayConfig(n=n, a_mode="numeric", a_value=a_value))
    report = replay_all(cfg)
    final = report.final_resultant
    assert not final.is_zero()
    if a_value is not None:
        assert all(p.degree("a") <= 0 for p in (report.curve9, report.curve12, final))
    assert final.terms == terms_of(sympy_resultant(report.curve9, report.curve12))
    for branch in report.branches.values():
        oracle = sympy_resultant(branch.curve9, branch.curve12)
        assert branch.resultant_nonzero == (not oracle.is_zero)


def small_polynomials():
    # kept small: with up to three terms per part, the normal-form test below
    # takes 15-20 s (2-CPU VM) with products and exact quotients on integers,
    # against 72 s with them on Fractions; it did not finish in 330 s under
    # the primitive PRS before the subresultant gcd; chains of products grow
    # the gcd's operands
    exponents = st.tuples(*[st.integers(0, 2)] * len(RING.vars))
    return st.dictionaries(exponents, COEFFS, max_size=2).map(
        lambda terms: Polynomial(RING, terms)
    )


NONZERO = small_polynomials().filter(lambda p: not p.is_zero())


def rationals():
    return st.tuples(small_polynomials(), NONZERO).map(lambda nd: RationalFunction(*nd))


def rf_to_sympy(rf: RationalFunction):
    return to_sympy(rf.num).as_expr() / to_sympy(rf.den).as_expr()


OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


@settings(derandomize=True, max_examples=40, deadline=None)
@given(rationals(), st.lists(st.tuples(st.sampled_from(sorted(OPS)), rationals()), max_size=3),
       NONZERO)
def test_rational_function_normal_form(start, steps, factor):
    ours, oracle = start, rf_to_sympy(start)
    for op, operand in steps:
        if op == "/" and operand.is_zero():
            continue
        ours = OPS[op](ours, operand)
        oracle = OPS[op](oracle, rf_to_sympy(operand))
    num, den = ours.reduced()
    oracle_num, oracle_den = sympy.fraction(sympy.cancel(sympy.together(oracle)))
    expected_num, expected_den = terms_of(poly_of(oracle_num)), terms_of(poly_of(oracle_den))
    # the same nonzero rational carries both of sympy's parts onto ours
    pivot = next(iter(expected_den))
    ratio = den.terms[pivot] / expected_den[pivot]
    assert den.terms == {m: ratio * c for m, c in expected_den.items()}
    assert num.terms == {m: ratio * c for m, c in expected_num.items()}
    assert den.content() == 1 and den.leading_coefficient() > 0
    if den.is_constant():
        assert ours.as_polynomial() == num
    else:
        with pytest.raises(ValueError):
            ours.as_polynomial()
    # a second construction of the same value reads the same
    other = RationalFunction(ours.num * factor, ours.den * factor)
    assert other == ours
    assert other.render() == ours.render()
    assert hash(other) == hash(ours)


def test_rational_arithmetic_defers_the_gcd_to_the_read(monkeypatch):
    outer_calls = []
    depth = 0
    inner = poly_module.poly_gcd

    def counting_gcd(f, g):
        # poly_gcd recurses through the module name; count outermost calls only
        nonlocal depth
        if not depth:
            outer_calls.append((f, g))
        depth += 1
        try:
            return inner(f, g)
        finally:
            depth -= 1

    monkeypatch.setattr(poly_module, "poly_gcd", counting_gcd)
    x, y = RING.var("x"), RING.var("y")
    a = RationalFunction(x * x - y * y, x + y)
    b = RationalFunction(y, x - y)
    value = (a + b) * a / b - a
    assert not value.is_zero() and value == value * b / b
    assert not outer_calls
    value.render()
    assert len(outer_calls) == 1
