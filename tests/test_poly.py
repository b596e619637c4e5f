"""Unit tests for the exact sparse polynomial and rational-function kernel."""

import ast
import math
import pathlib
import random
import signal
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from deltahyp import (
    ParseError,
    Polynomial,
    PolynomialRing,
    RationalFunction,
    UnknownVariableError,
    poly_gcd,
)
from deltahyp import poly as poly_module
from deltahyp.errors import DegreeError, DeltahypError, ExactDivisionError
from deltahyp.poly import EXPONENT_BOUND, fraction_text
from deltahyp.resultant import _cleared as resultant_rows

from conftest import time_limit
from oracles import (
    dense_mod_p,
    grlex_key,
    tuple_add,
    tuple_exact_div,
    tuple_mul,
    tuple_render,
)

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

    @pytest.mark.parametrize(
        "text, den",
        [
            # integral coefficients over a common denominator above 1
            ("-20*x^3 + y*z + 1/2*z", 2),
            # a unit coefficient and a constant term over one
            ("1/6*x^2 - y + 4", 6),
            ("-x*y + 3/4*z - 7", 4),
        ],
    )
    def test_render_reduces_each_coefficient(self, text, den):
        p = RING.parse(text)
        assert p.den == den
        assert p.render() == text

    def test_render_past_the_digit_limit_over_a_denominator(self):
        big = 10**5000
        p = Polynomial(RING, {(1, 0, 0): Fraction(big), (0, 1, 0): Fraction(-(big + 1), 3),
                              (0, 0, 0): Fraction(1, 2)})
        assert p.den == 6
        assert p.render() == f"{Decimal(big)}*x - {Decimal(big + 1)}/3*y + 1/2"

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


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.fractions())
def test_fraction_text_is_str_below_the_digit_limit(q):
    assert fraction_text(q) == str(q)


# ints of 4,300 to 9,000 digits, past the default int-to-str limit
HUGE = st.integers(10**4299, 10**9000 - 1)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(HUGE, HUGE, st.booleans())
def test_fraction_text_past_the_digit_limit(num, den, negative):
    q = Fraction(-num if negative else num, den)
    text = f"{Decimal(q.numerator)}"
    assert fraction_text(q.numerator) == text
    if q.denominator > 1:
        text += f"/{Decimal(q.denominator)}"
    assert fraction_text(q) == text


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


# -- the integer kernel against the Fraction loops it replaced -------------------


def fraction_add(f, g):
    out = dict(f.terms)
    for exp, coeff in g.terms.items():
        out[exp] = out.get(exp, 0) + coeff
    return {e: c for e, c in out.items() if c}


def fraction_mul(f, g):
    out = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            exp = tuple(a + b for a, b in zip(e1, e2))
            out[exp] = out.get(exp, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def fraction_exact_div(f, g):
    remainder = dict(f.terms)
    quotient = {}
    div_exp, div_coeff = g.leading()
    while remainder:
        exp = max(remainder, key=lambda e: (sum(e), e))
        q_exp = tuple(a - b for a, b in zip(exp, div_exp))
        if any(e < 0 for e in q_exp):
            raise ExactDivisionError("division left a nonzero remainder")
        q_coeff = remainder[exp] / div_coeff
        quotient[q_exp] = q_coeff
        for d_exp, d_coeff in g.terms.items():
            key = tuple(a + b for a, b in zip(q_exp, d_exp))
            val = remainder.get(key, 0) - q_coeff * d_coeff
            if val == 0:
                remainder.pop(key, None)
            else:
                remainder[key] = val
    return quotient


def fraction_content(f):
    num, den = 0, 1
    for coeff in f.terms.values():
        num, den = math.gcd(num, coeff.numerator), math.lcm(den, coeff.denominator)
    return Fraction(num, den)


def fraction_primitive(f):
    content = fraction_content(f)
    if f.leading_coefficient() < 0:
        content = -content
    return {e: c / content for e, c in f.terms.items()}


def fraction_substitute(f, var, value):
    i = f.ring.index(var)
    out = {}
    for exp, coeff in f.terms.items():
        key = exp[:i] + (0,) + exp[i + 1 :]
        out[key] = out.get(key, 0) + coeff * Fraction(value) ** exp[i]
    return {e: c for e, c in out.items() if c}


def assert_well_formed(p):
    """The canonical integer image: den > 0, gcd(den, *nums) = 1, no zero
    numerator, zero as (1, {}); and the ``Fraction`` view read from it."""
    width = len(p.ring.vars)
    assert type(p.den) is int and p.den > 0
    assert math.gcd(p.den, *p.nums.values()) == 1
    assert p.nums or p.den == 1
    for exp, num in p.nums.items():
        assert type(exp) is tuple and len(exp) == width
        assert all(type(e) is int and e >= 0 for e in exp)
        assert type(num) is int and num != 0
    for exp, coeff in p.terms.items():
        assert type(coeff) is Fraction and coeff == Fraction(p.nums[exp], p.den)


# small and large numerators over small and large denominators, mixed in one
# polynomial, so the common denominators differ from term to term
KERNEL_COEFFS = st.builds(
    Fraction,
    st.one_of(st.integers(-9, 9), st.integers(-(10**30), 10**30)),
    st.one_of(st.integers(1, 12), st.integers(1, 10**18)),
)
KERNEL_POLYS = st.dictionaries(
    st.tuples(*[st.integers(0, 3)] * len(RING.vars)), KERNEL_COEFFS, max_size=6
).map(lambda terms: Polynomial(RING, terms))
NONCONSTANT = KERNEL_POLYS.filter(lambda p: not p.is_constant())
# a nonunit content of either sign, so divisors lead with negative coefficients too
CONTENTS = st.builds(
    Fraction,
    st.integers(-(10**12), 10**12).filter(bool),
    st.integers(1, 10**12),
)
KERNEL_SETTINGS = settings(derandomize=True, max_examples=80, deadline=None)


class TestIntegerKernel:
    @KERNEL_SETTINGS
    @given(KERNEL_POLYS, KERNEL_POLYS)
    def test_add_sub_mul_match_the_fraction_loops(self, f, g):
        for result, expected in [
            (f + g, fraction_add(f, g)),
            (f - g, fraction_add(f, Polynomial(RING, {e: -c for e, c in g.terms.items()}))),
            (f * g, fraction_mul(f, g)),
            (-f, {e: -c for e, c in f.terms.items()}),
        ]:
            assert_well_formed(result)
            assert result.terms == expected

    @KERNEL_SETTINGS
    @given(KERNEL_POLYS, KERNEL_COEFFS)
    def test_scalar_products_scale(self, f, value):
        for result in (f * value, value * f, f.scale(value)):
            assert_well_formed(result)
            assert result.terms == {e: c * value for e, c in f.terms.items() if c * value}

    @KERNEL_SETTINGS
    @given(KERNEL_POLYS, NONCONSTANT, CONTENTS)
    def test_exact_div_matches_the_fraction_loop(self, f, g, content):
        g = g.primitive().scale(content)
        product = f * g
        quotient = product.exact_div(g)
        assert_well_formed(quotient)
        assert quotient.terms == fraction_exact_div(product, g) == f.terms

    @KERNEL_SETTINGS
    @given(KERNEL_POLYS, NONCONSTANT, CONTENTS, KERNEL_COEFFS.filter(bool))
    def test_a_product_off_by_a_constant_does_not_divide(self, f, g, content, shift):
        # g is not constant, so it does not divide f * g + shift
        g = g.primitive().scale(content)
        dividend = f * g + shift
        with pytest.raises(ExactDivisionError, match="^division left a nonzero remainder$"):
            fraction_exact_div(dividend, g)
        with pytest.raises(ExactDivisionError, match="^division left a nonzero remainder$"):
            dividend.exact_div(g)

    @KERNEL_SETTINGS
    @given(KERNEL_POLYS, NONCONSTANT)
    def test_exact_div_raises_where_the_fraction_loop_does(self, f, g):
        try:
            expected = fraction_exact_div(f, g)
        except ExactDivisionError:
            with pytest.raises(ExactDivisionError, match="^division left a nonzero remainder$"):
                f.exact_div(g)
        else:
            assert f.exact_div(g).terms == expected

    @KERNEL_SETTINGS
    @given(KERNEL_POLYS, st.tuples(*[st.integers(0, 3)] * len(RING.vars)), CONTENTS)
    def test_a_one_term_factor_shifts_exponents(self, f, exp, content):
        # content is +-c with a denominator; products and quotients by the
        # monomial skip the accumulating and the long-division loops
        monomial = Polynomial(RING, {exp: content})
        for product in (f * monomial, monomial * f):
            assert_well_formed(product)
            assert product.terms == fraction_mul(f, monomial)
        quotient = (f * monomial).exact_div(monomial)
        assert_well_formed(quotient)
        assert quotient * monomial == f * monomial
        assert quotient == f
        if any(exp):
            # the constant term's exponents would go negative
            with pytest.raises(ExactDivisionError, match="^division left a nonzero remainder$"):
                (f * monomial + 1).exact_div(monomial)

    @pytest.mark.parametrize(
        "dividend, divisor, quotient",
        [
            ("x^2 - 1/4", "2*x + 1", "1/2*x - 1/4"),
            ("-6*x^2*y + 3/5*y", "-4*x^2 + 2/5", "3/2*y"),
            ("x + 1", "2*x + 1", None),  # lc(B) = 2 does not divide 1
            ("x*y", "x^2", None),  # a negative quotient exponent
        ],
        ids=["half-integral", "negative-content", "lc-does-not-divide", "negative-exponent"],
    )
    def test_exact_div_over_the_cleared_denominators(self, dividend, divisor, quotient):
        f, g = RING.parse(dividend), RING.parse(divisor)
        if quotient is None:
            with pytest.raises(ExactDivisionError, match="^division left a nonzero remainder$"):
                f.exact_div(g)
        else:
            assert f.exact_div(g) == RING.parse(quotient)

    @KERNEL_SETTINGS
    @given(KERNEL_POLYS)
    def test_content_and_primitive_match_the_fraction_loops(self, f):
        assert f.content() == fraction_content(f)
        primitive = f.primitive()
        assert_well_formed(primitive)
        assert primitive.terms == (fraction_primitive(f) if f.terms else {})

    @KERNEL_SETTINGS
    @given(KERNEL_POLYS, NONCONSTANT, CONTENTS)
    def test_reduced_scales_both_parts_by_the_denominator_content(self, f, g, content):
        # the denominator's signed content is ``content``; a numerator sharing
        # a factor with it is skipped, so only the scaling is at stake
        den = g.primitive().scale(content)
        for num in (f, den.ring.const(content)):
            if not poly_gcd(num, den).is_constant():
                continue
            reduced_num, reduced_den = RationalFunction(num, den).reduced()
            assert reduced_den.terms == fraction_primitive(den) == g.primitive().terms
            assert reduced_num.terms == {e: c / content for e, c in num.terms.items()}
            assert_well_formed(reduced_num)
            assert_well_formed(reduced_den)

    @KERNEL_SETTINGS
    @given(KERNEL_POLYS, st.booleans())
    def test_residues_match_the_per_coefficient_loop(self, f, past_modulus):
        if past_modulus:  # a denominator that the modulus divides
            f = f + Polynomial(RING, {(4, 0, 0): Fraction(1, 3 * poly_module.MODULUS)})
        expected = {e: poly_module.residue(c) for e, c in f.terms.items()}
        if None in expected.values():
            expected = None
        assert poly_module.residues(f) == expected

    @KERNEL_SETTINGS
    @given(
        # exponents up to 99, the final resultant's degree in H
        st.dictionaries(st.tuples(*[st.integers(0, 99)] * len(RING.vars)), KERNEL_COEFFS,
                        min_size=1, max_size=6),
        st.sampled_from(RING.vars),
        st.lists(st.one_of(
            st.integers(-9, 9),
            st.integers(0, 2**70),
            # values that vanish mod P
            st.sampled_from([0, poly_module.MODULUS, -2 * poly_module.MODULUS]),
        ), min_size=2, max_size=2),
    )
    def test_dense_mod_p_is_the_exact_substitution_mod_p(self, terms, main, points):
        # the spot check's residue images: each value is substituted exactly
        # over Q, then reduced mod P, with zero residues kept in the dense list
        f = Polynomial(RING, terms)
        values = dict(zip((v for v in RING.vars if v != main), points))
        exact = f
        for var, value in values.items():
            exact = exact.substitute(var, value)
        i = RING.index(main)
        expected = [0] * (f.degree(main) + 1)
        for exp, c in exact.terms.items():
            expected[exp[i]] = poly_module.residue(c)
        assert dense_mod_p(poly_module.residues(f), RING, main, values) == expected

    @KERNEL_SETTINGS
    @given(st.lists(KERNEL_POLYS, min_size=1, max_size=4))
    def test_resultant_rows_share_one_common_denominator(self, polys):
        lcm = math.lcm(*(c.denominator for p in polys for c in p.terms.values()))
        assert resultant_rows(polys, [0, 2]) == (lcm, [
            tuple(((e[0], e[2]), c.numerator * (lcm // c.denominator))
                  for e, c in p.terms.items())
            for p in polys
        ])

    @KERNEL_SETTINGS
    @given(KERNEL_POLYS, st.sampled_from(RING.vars))
    def test_structural_results_are_well_formed(self, f, var):
        assert_well_formed(f.diff(var))
        assert_well_formed(f.scale(0))
        for coeff in f.coefficients_in(var):
            assert_well_formed(coeff)

    @KERNEL_SETTINGS
    @given(KERNEL_POLYS, KERNEL_POLYS, KERNEL_COEFFS, st.sampled_from(RING.vars))
    def test_every_operation_keeps_the_image_canonical(self, f, g, value, var):
        # a value of joint degree at most one in x and y, for rewrite_product
        linear = Polynomial(RING, {e: c for e, c in g.terms.items() if e[0] + e[1] <= 1})
        wider = PolynomialRing(("z", "t", "y", "x"))
        results = [
            f + g, f - g, -f, f * g, f.scale(value), f.diff(var), f.restrict_ring(wider),
            f.substitute(var, value), f.substitute(var, g), f.primitive(),
            f.rewrite_product("x", "y", linear), *f.coefficients_in(var),
        ]
        if not g.is_zero():
            results.append((f * g).exact_div(g))
        if value:
            results.append(f.exact_div(RING.const(value)))
        for result in results:
            assert_well_formed(result)

    @KERNEL_SETTINGS
    @given(KERNEL_POLYS, KERNEL_POLYS)
    def test_equality_and_hash_agree_with_the_fraction_view(self, f, g):
        # pairs equal by construction, besides the drawn pair
        pairs = [(f, g), (f, Polynomial(RING, f.terms)), (f, (f + g) - g),
                 (f + f, f.scale(2)), (f * g, g * f)]
        for p, q in pairs:
            assert (p == q) == (p.terms == q.terms)
            if p == q:
                assert hash(p) == hash(q)
        assert all(p == q for p, q in pairs[1:])

    @KERNEL_SETTINGS
    @given(KERNEL_POLYS, st.sampled_from(RING.vars), st.one_of(
        st.sampled_from([0, -1, Fraction(-2, 3), Fraction(5, 7), Fraction(-9, 10**18)]),
        KERNEL_COEFFS,
    ))
    def test_substitute_matches_the_fraction_loop(self, f, var, value):
        # rational values: negative, with a denominator, and 0
        result = f.substitute(var, value)
        assert_well_formed(result)
        assert result.terms == fraction_substitute(f, var, value)


# the integer image is the exact layer's only reader of numerators and
# denominators: besides ``_cleared``, only the sample points (``residue``) and
# the decimal text past the digit limit (``fraction_text``) read them
FRACTION_READERS = {("poly.py", "_cleared"), ("poly.py", "residue"),
                    ("poly.py", "fraction_text")}


def fraction_reads(path):
    """(file name, enclosing function) of each ``.numerator``/``.denominator``
    attribute in the module at ``path``; the function is None at module level."""
    reads = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Attribute) and node.attr in ("numerator", "denominator"):
            reads.append((path.name, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return reads


def test_only_the_integer_image_reads_numerators_and_denominators():
    package = pathlib.Path(poly_module.__file__).parent
    reads = [read for name in ("poly.py", "resultant.py", "replay.py")
             for read in fraction_reads(package / name)]
    assert set(reads) - FRACTION_READERS == set()
    assert ("poly.py", "_cleared") in reads


# Packed exponent keys against the tuple-keyed loops (``tests/oracles.py``).
# A shared variable can carry a power next to half the bound in both operands,
# so their products land on either side of the bound.
BOUND = EXPONENT_BOUND
PACKED_SETTINGS = settings(derandomize=True, max_examples=150, deadline=None)
SMALL_COEFFS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


@st.composite
def packed_operands(draw):
    """A ring of 1-10 variables and two polynomials f, g in it: zero and
    one-term operands among them, and g sometimes minus f, so that f + g
    cancels some or all of f's terms."""
    k = draw(st.integers(1, 10))
    ring = PolynomialRing([f"x{i}" for i in range(k)])
    slot, high = draw(st.integers(0, k - 1)), draw(st.booleans())

    def operand():
        size = draw(st.sampled_from([1, 2, 6]))
        terms = draw(st.dictionaries(st.tuples(*[st.integers(0, 3)] * k), SMALL_COEFFS,
                                     max_size=size))
        lift = draw(st.integers(BOUND // 2 - 3 * k - 2, BOUND // 2)) if high else 0
        return Polynomial(ring, {e[:slot] + (e[slot] + lift,) + e[slot + 1 :]: c
                                 for e, c in terms.items()})

    f, g = operand(), operand()
    if draw(st.booleans()):
        g = g - f
    return ring, f, g


def assert_matches_terms(ring, result, terms):
    """``result`` agrees with oracle ``terms`` in its terms, its text, ``==``
    and ``hash``."""
    expected = Polynomial(ring, terms)
    assert_well_formed(result)
    assert result.terms == terms
    assert result.render() == tuple_render(ring.vars, terms)
    assert result == expected and hash(result) == hash(expected)


class TestPackedKeys:
    @PACKED_SETTINGS
    @given(packed_operands())
    def test_kernel_matches_the_tuple_keyed_loops(self, operands):
        ring, f, g = operands
        assert_matches_terms(ring, f + g, tuple_add(f.terms, g.terms))
        product = tuple_mul(f.terms, g.terms)
        if max(map(sum, product), default=0) >= BOUND:
            with pytest.raises(DegreeError):
                f * g
        else:
            assert_matches_terms(ring, f * g, product)
            if not g.is_zero():
                assert_matches_terms(ring, (f * g).exact_div(g), tuple_exact_div(product, g.terms))
        if g.is_zero():
            return
        try:
            quotient = tuple_exact_div(f.terms, g.terms)
        except ExactDivisionError:
            with pytest.raises(ExactDivisionError):
                f.exact_div(g)
        else:
            assert_matches_terms(ring, f.exact_div(g), quotient)

    @PACKED_SETTINGS
    @given(packed_operands())
    def test_leading_term_and_render_order_follow_grlex(self, operands):
        ring, f, g = operands
        for p in (f, g, f + g):
            order = sorted(p.terms, key=grlex_key, reverse=True)
            assert [exp for exp, _ in p.sorted_terms()] == order
            assert p.render() == tuple_render(ring.vars, p.terms)
            if order:
                assert p.leading() == (order[0], p.terms[order[0]])

    def test_power_reaching_the_bound_raises(self):
        x, y = RING.var("x"), RING.var("y")
        assert (x ** (BOUND - 1)).degree("x") == BOUND - 1
        with pytest.raises(DegreeError):
            x**BOUND
        with pytest.raises(DegreeError):
            (x * y) ** (BOUND // 2)

    def test_product_reaching_the_bound_raises(self):
        x, y = RING.var("x"), RING.var("y")
        high = x ** (BOUND - 2)
        assert (high * y).total_degree() == BOUND - 1
        # by a monomial, by a polynomial, and a polynomial by a monomial
        for left, right in ((high, x * y), (high, y**2 + 1), (high + y, x**2)):
            with pytest.raises(DegreeError):
                left * right

    def test_dense_rebuild_reaching_the_bound_raises(self):
        # the gcd's rebuild from a coefficient list adds keys outside __mul__
        x = RING.var("x")
        assert poly_module._from_dense([x ** (BOUND - 2)] * 2, "y", RING).total_degree() == BOUND - 1
        with pytest.raises(DegreeError):
            poly_module._from_dense([RING.zero(), x ** (BOUND - 1)], "y", RING)

    def test_construction_and_parse_at_the_bound_raise(self):
        assert Polynomial(RING, {(BOUND - 1, 0, 0): 1}).total_degree() == BOUND - 1
        assert RING.parse(f"x^{BOUND - 2}*y").total_degree() == BOUND - 1
        for exp in ((BOUND, 0, 0), (BOUND - 1, 1, 0), (0, BOUND // 2, BOUND // 2)):
            with pytest.raises(DegreeError):
                Polynomial(RING, {exp: 1})
        for text in (f"x^{BOUND}", f"x^{BOUND - 1}*x + 1", f"y^{BOUND // 2}*z^{BOUND // 2}"):
            with pytest.raises(DegreeError):
                RING.parse(text)

    @pytest.mark.parametrize("slot", [0, 2, 4], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("exp", [(3, 0, 2, 5, 1), (0, 7, 0, 0, 0), (BOUND - 20, 0, 4, 1, 2)])
    def test_monomial_one_too_high_in_a_field_does_not_divide(self, slot, exp):
        # the quotient's field borrows and sets its guard bit; with every other
        # field of the dividend in the divisor too, the total degree goes negative
        ring = PolynomialRing(("a", "b", "c", "d", "e"))
        dividend = Polynomial(ring, {exp: 3}) * (ring.var("b") + 1)
        alone = [0] * 5
        alone[slot] = exp[slot] + 1
        with_rest = list(exp)
        with_rest[slot] += 1
        for divisor_exp in (alone, with_rest):
            divisor = Polynomial(ring, {tuple(divisor_exp): 2})
            for divisor in (divisor, divisor + 1):  # the monomial and the general path
                with pytest.raises(ExactDivisionError):
                    dividend.exact_div(divisor)
        assert dividend.exact_div(Polynomial(ring, {exp: 3})) == ring.var("b") + 1


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
        # the pipeline's own gcds are bivariate (after specializing the type
        # constant)
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
            # exact_div raises ExactDivisionError on a nonzero remainder
            d.exact_div(g.primitive())
            (g * a).exact_div(d)
            (g * b).exact_div(d)
            done += 1

    def test_gcd_coprime(self):
        assert poly_gcd(RING.parse("x + 1"), RING.parse("y + 1")).is_constant()

    def test_gcd_with_zero(self):
        p = RING.parse("2*x + 4*y")
        assert poly_gcd(p, RING.zero()) == p.primitive()

    def test_gcd_of_a_reduced_quotient_in_three_variables(self):
        # a primitive PRS that took coefficient contents at every step ran
        # for minutes on this 24-term, 4-term pair of total degree 19
        def quotient(num, den):
            return RationalFunction(RING.parse(num), RING.parse(den))

        a = quotient("-8/3", "-x*y^2*z^2 - 1")
        b = quotient("-7/4*x^2*y^2*z^2", "-3*x^2*y + 2*x*y^2 - 3/4*y*z^2")
        c = quotient("-8*x*y*z", "-7*x^2*y*z - 3*y*z^2")
        d = quotient("-5*y^2*z^2", "-3/2*x^2*y*z^2 + 5/3*x*y*z^2 + 2")
        value = (a / b - c) / d
        assert (len(value.num.terms), len(value.den.terms)) == (24, 4)
        assert value.num.total_degree() == value.den.total_degree() == 19
        with time_limit(30):
            assert poly_gcd(value.num, value.den) == RING.parse("y^2*z")

    @pytest.mark.parametrize(
        "f, g, expected",
        [
            (
                "25/12*x^5*y^4*z - 40/9*x^5*y^3*z + 25/16*x^4*y^3*z^2"
                " + 25/8*x^2*y^3*z^4 - 10/3*x^4*y^2*z^2 - 20/3*x^2*y^2*z^4"
                " + 25/16*x^4*y*z - 10/3*x^2*y^3*z - 5/2*x^2*y^2*z^2 - 10/3*x^4*z"
                " + 64/9*x^2*y^2*z + 16/3*x^2*y*z^2",
                "-5/4*x^5*y^3*z^3 + 8/3*x^5*y^2*z^3 - 15/4*x^4*y^3*z^3"
                " + 8*x^4*y^2*z^3 - 15/2*x^5*y*z + 5*x^3*y*z^3 - x^2*y^4*z"
                " + 16*x^5*z - 32/3*x^3*z^3 + 32/15*x^2*y^3*z - 45/8*x^2*y*z"
                " + 12*x^2*z",
                "15*x^2*y*z - 32*x^2*z",
            ),
            (
                "-27/5*x^3*y^3*z^3 - 72/5*x*y^3*z^5 + 9/5*x^5*y^2*z"
                " + 29/5*x^3*y^2*z^3 + 8/3*x*y^2*z^5 - 12*x*y^3*z^3 + 4*x^3*y^2*z"
                " + 20/9*x*y^2*z^3 + 3/5*x^4*z + 8/5*x^2*z^3 - 3/5*x^4"
                " - 8/5*x^2*z^2 + 4/3*x^2*z - 4/3*x^2",
                "-21/20*x^5*y^3*z^3 - 14/5*x^3*y^3*z^5 - 7/3*x^3*y^3*z^3"
                " + 3/5*x^4*y^3*z + 8/5*x^2*y^3*z^3 - 3*x^3*y*z^3 - 8*x*y*z^5"
                " + x^5*y + 8/3*x^3*y*z^2 + 29/15*x^2*y^3*z + 8/5*y^3*z^3"
                " - 20/3*x*y*z^3 + 20/9*x^3*y + 4/3*y^3*z - 8/5*x^2*y"
                " - 64/15*y*z^2 - 32/9*y",
                "9*x^2 + 24*z^2 + 20",
            ),
        ],
        ids=["linear-in-y", "quadratic"],
    )
    def test_gcd_pinned_to_sympy(self, f, g, expected):
        # two seeded draws over Q[x, y, z] that took 30 s and more under the
        # primitive PRS with per-step contents; the expected gcds are sympy's,
        # normalized
        with time_limit(30):
            assert poly_gcd(RING.parse(f), RING.parse(g)) == RING.parse(expected)


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="no SIGALRM on this platform")
def test_time_limit_fails_an_overrunning_body():
    handler = signal.getsignal(signal.SIGALRM)
    with pytest.raises(pytest.fail.Exception, match="time limit of 0.05 s"):
        with time_limit(0.05):
            time.sleep(5)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


class TestRationalFunction:
    def test_normalization(self):
        x, y = RING.var("x"), RING.var("y")
        r = RationalFunction(x**2 - y**2, x + y)
        assert r.as_polynomial() == x - y

    def test_arithmetic(self):
        x = RING.var("x")
        half = RationalFunction(RING.one(), RING.const(2) * x)
        s = half + half  # = 1/x
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
        assert r.as_polynomial() == x + 1
        assert "x" in r.render()

    def test_mixed_polynomial_arithmetic(self):
        x, y = RING.var("x"), RING.var("y")
        r = RationalFunction(y, x)
        assert ((r * x) - y).is_zero()
        assert (r + x).render() != ""
