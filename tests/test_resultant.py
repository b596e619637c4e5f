"""Resultant and determinant tests: algebraic identities and the gcd link."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from deltahyp import DegreeError, Polynomial, PolynomialRing, poly_gcd
from deltahyp.errors import RingMismatchError
from deltahyp.poly import subresultant_prs
from deltahyp.resultant import (
    _grid,
    _int_resultant,
    det_bareiss,
    resultant,
    resultant_is_zero,
    sylvester_matrix,
)
from oracles import det_cofactor

RING = PolynomialRing(("t", "s"))
T = RING.var("t")
S = RING.var("s")


def poly_with_roots(roots):
    """Product of (t - root) for rational roots."""
    p = RING.one()
    for r in roots:
        p = p * (T - RING.const(Fraction(r)))
    return p


class TestSylvesterMatrix:
    def test_shape(self):
        f = T**3 + S
        g = T**2 - 1
        m = sylvester_matrix(f, g, "t")
        assert len(m) == 5
        assert all(len(row) == 5 for row in m)

    def test_rejects_constant_operand(self):
        with pytest.raises(DegreeError):
            sylvester_matrix(T + 1, RING.one() + S, "t")

    def test_resultant_rejects_constant_operand(self):
        for f, g in ((T + 1, RING.one() + S), (S * 3, T**2 - S)):
            with pytest.raises(DegreeError):
                resultant(f, g, "t")

    def test_rejects_operands_from_different_rings(self):
        other = PolynomialRing(("t", "u"))
        f, g = T**2 + S, other.var("t") - other.var("u")
        with pytest.raises(RingMismatchError):
            sylvester_matrix(f, g, "t")
        with pytest.raises(RingMismatchError):
            resultant(f, g, "t")


class TestDeterminants:
    def test_bareiss_matches_cofactor_random(self):
        rng = random.Random(2024)
        for size in range(1, 7):
            for _ in range(6):
                matrix = [
                    [
                        RING.const(rng.randint(-5, 5))
                        + RING.var("s").scale(rng.randint(-2, 2))
                        for _ in range(size)
                    ]
                    for _ in range(size)
                ]
                assert det_bareiss(matrix) == det_cofactor(matrix)

    def test_singular_matrix(self):
        row = [T + 1, S, RING.one()]
        matrix = [row, row[:], [RING.one(), RING.zero(), S]]
        assert det_bareiss(matrix).is_zero()

    def test_known_determinant(self):
        matrix = [
            [RING.const(2), RING.const(1)],
            [RING.const(7), RING.const(4)],
        ]
        assert det_bareiss(matrix) == RING.one()

    @pytest.mark.parametrize(
        "matrix",
        [[], [[]], [[T, S]], [[T, S], [S]], [[T], [S]]],
        ids=["no-rows", "empty-row", "one-by-two", "ragged", "two-by-one"],
    )
    def test_rejects_a_matrix_that_is_not_square(self, matrix):
        with pytest.raises(ValueError, match="not square"):
            det_bareiss(matrix)

    def test_rejects_entries_from_different_rings(self):
        other = PolynomialRing(("t", "u"))
        with pytest.raises(RingMismatchError):
            det_bareiss([[T, S], [other.var("u"), other.one()]])


XYZ = PolynomialRing(("x", "y", "z"))
COEFFS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5))


@st.composite
def polynomial_matrices(draw):
    """Square matrices of size 1..6 over Q[x, y, z], 0..3 of the variables used.

    Each row is divided by its own denominator.  Some matrices are made
    singular (a zero row, or a row the sum of multiples of two others), and
    some repeat a row plus a constant, so that the top-degree parts cancel and
    the degree bound from the row and column sums is not reached.
    """
    size = draw(st.integers(1, 6))
    nvars = draw(st.integers(0, 3))
    exps = st.tuples(*(st.integers(0, 2) if i < nvars else st.just(0) for i in range(3)))
    entries = st.dictionaries(exps, COEFFS, max_size=3).map(lambda t: Polynomial(XYZ, t))
    rows = [
        [entry.scale(Fraction(1, denominator)) for entry in row]
        for row, denominator in zip(
            draw(st.lists(st.lists(entries, min_size=size, max_size=size),
                          min_size=size, max_size=size)),
            draw(st.lists(st.integers(1, 7), min_size=size, max_size=size)),
        )
    ]
    shape = draw(st.sampled_from(("dense", "zero-row", "dependent", "cancelling")))
    if shape == "zero-row":
        rows[draw(st.integers(0, size - 1))] = [XYZ.zero()] * size
    elif shape == "dependent" and size >= 3:
        a, b = draw(COEFFS), draw(COEFFS)
        rows[-1] = [a * p + b * q for p, q in zip(rows[0], rows[1])]
    elif shape == "cancelling" and size >= 2:
        rows[-1] = [p + draw(COEFFS) for p in rows[0]]
    return rows


@settings(derandomize=True, max_examples=150, deadline=None)
@given(polynomial_matrices())
def test_bareiss_equals_cofactor(matrix):
    assert det_bareiss(matrix) == det_cofactor(matrix)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.data())
def test_resultant_equals_naive_with_two_variables_left(data):
    exps = st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(0, 2))
    polys = st.dictionaries(exps, COEFFS, min_size=1, max_size=5).map(
        lambda t: Polynomial(XYZ, t)
    )
    f = data.draw(polys.filter(lambda p: p.degree("x") >= 1))
    g = data.draw(polys.filter(lambda p: p.degree("x") >= 1))
    assume({"y", "z"} <= set(f.variables_used() + g.variables_used()))
    assert resultant(f, g, "x") == det_cofactor(sylvester_matrix(f, g, "x"))


def _int_mul(a, b):
    """Product of two descending integer coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _sylvester_det(f, g):
    """Bareiss determinant of the integer Sylvester matrix, f-rows first."""
    m, n = len(f) - 1, len(g) - 1
    f, g = [RING.const(c) for c in f], [RING.const(c) for c in g]
    rows = [[RING.zero()] * i + f + [RING.zero()] * (n - 1 - i) for i in range(n)]
    rows += [[RING.zero()] * i + g + [RING.zero()] * (m - 1 - i) for i in range(m)]
    return det_bareiss(rows).constant_value() if rows else 1


@st.composite
def coefficient_lists(draw):
    """Two descending integer coefficient lists of formal degrees 0..7.

    The shapes cover what a grid point can hand the kernel: vanishing leading
    coefficients on one side or both, a drop to degree 0, a zero polynomial,
    a shared factor (value 0) and sparse operands, whose PRS skips degrees
    (non-normal sequences).
    """
    shape = draw(st.sampled_from(
        ("dense", "f-drops", "g-drops", "both-drop", "to-constant", "zero", "shared", "sparse")))
    ints = st.integers(-9, 9)
    if shape == "shared":
        common = draw(st.lists(ints, min_size=2, max_size=3).filter(lambda c: c[0]))
        f = _int_mul(draw(st.lists(ints, min_size=1, max_size=5)), common)
        g = _int_mul(draw(st.lists(ints, min_size=1, max_size=5)), common)
        return f, g
    coeffs = (st.sampled_from([0, 0, 0, 1, -1, 2, -3]) if shape == "sparse" else ints)
    f = draw(st.lists(coeffs, min_size=1, max_size=8))
    g = draw(st.lists(coeffs, min_size=1, max_size=8))
    if shape == "sparse":
        f[0], g[0] = draw(ints.filter(bool)), draw(ints.filter(bool))
    if shape in ("f-drops", "both-drop"):
        k = draw(st.integers(1, len(f)))
        f[:k] = [0] * k
    if shape in ("g-drops", "both-drop"):
        k = draw(st.integers(1, len(g)))
        g[:k] = [0] * k
    if shape == "to-constant":
        f = [0] * (len(f) - 1) + [draw(ints)]
    if shape == "zero":
        g = [0] * len(g)
    return f, g


@settings(derandomize=True, max_examples=400, deadline=None)
@given(coefficient_lists())
def test_prs_equals_the_sylvester_determinant(pair):
    f, g = pair
    assert _int_resultant(f, g) == _sylvester_det(f, g)


class TestIntResultant:
    def test_non_normal_sequence(self):
        # x^5 + 2x^2 + 1 mod x^3 + 2 is 1: the remainder skips degrees 2 and 1
        f, g = [1, 0, 0, 2, 0, 1], [1, 0, 0, 2]
        assert _int_resultant(f, g) == _sylvester_det(f, g) != 0
        assert _int_resultant(g, f) == _sylvester_det(g, f)

    def test_one_prs_runs_over_int_and_polynomial(self):
        # the non-normal pair above, as ints and as constant polynomials; scaled,
        # h and the divisions are not trivial
        for f, g in (([1, 0, 0, 2, 0, 1], [1, 0, 0, 2]), ([2, 0, 0, 4, 0, 2], [3, 0, 0, 6])):
            ints = subresultant_prs(f, g)
            polys = subresultant_prs(*([RING.const(c) for c in p] for p in (f, g)))
            assert polys == ints
            assert len(ints[1]) == 1 and ints[1][0] != 0

    def test_formal_degree_drops(self):
        f, g = [3, 1, 4], [2, 7]
        # f's formal degree drops by 1 and by 2; g's by 1; both at once
        assert _int_resultant([0] + f, g) == (-1) ** 1 * 2 * _int_resultant(f, g)
        assert _int_resultant([0, 0] + f, [0] + g) == 0
        assert _int_resultant(f, [0, 0] + g) == 3**2 * _int_resultant(f, g)
        for a, b in (([0] + f, g), ([0, 0, 0] + f, [5] + g), (f, [0, 0] + g)):
            assert _int_resultant(a, b) == _sylvester_det(a, b)

    def test_constants_and_zero(self):
        assert _int_resultant([0, 0, 5], [1, 2, 3]) == 5**2
        assert _int_resultant([1, 2, 3], [0, 0, 5]) == 5**2
        assert _int_resultant([0, 0, 0], [1, 2]) == 0
        assert _int_resultant([0, 0, 0], [7]) == 7**2


GRID_RING = PolynomialRing(("x", "y", "z"))
X, Y, Z = (GRID_RING.var(v) for v in ("x", "y", "z"))


@pytest.mark.parametrize(
    "f, g",
    [
        # lc(f) = y(y - 2) vanishes at the grid points y = 0 and y = 2
        (Y * (Y - 2) * X**2 + X + Y, X**3 + (Y + 1) * X - 3),
        # both leads vanish at y = 2; f drops to degree 0 at y = 0
        (Y * (Y - 2) * X**2 + Fraction(1, 3) * X * Y + 5, (Y - 2) * X**2 + X - Y),
        # g's lead vanishes on the line z = y and f's at y = 1, two variables left
        ((Y - 1) * X**3 + Z * X - 1, (Z - Y) * X**2 + Fraction(2, 5) * Y * X + Z),
        # f's lead vanishes at y = 0 and y = 1, with a gap in the degrees
        (Y * (Y - 1) * X**4 + X + 2, Y * X**2 - 1),
    ],
)
def test_resultant_with_vanishing_leading_coefficients(f, g):
    assert resultant(f, g, "x") == det_cofactor(sylvester_matrix(f, g, "x"))
    assert resultant(g, f, "x") == det_cofactor(sylvester_matrix(g, f, "x"))


@st.composite
def zero_test_pairs(draw):
    """Pairs over Q[x, y, z] in x with 0..2 of y, z used.  Some share a factor
    of positive degree in x (a zero resultant); some get a leading coefficient
    (y - r)(y - s) or (z - r) that vanishes at grid points."""
    extra = draw(st.integers(0, 2))
    exps = st.tuples(st.integers(0, 3), *(st.integers(0, 2) if i < extra else st.just(0)
                                          for i in range(2)))
    polys = st.dictionaries(exps, COEFFS, min_size=1, max_size=4).map(
        lambda t: Polynomial(GRID_RING, t)
    ).filter(lambda p: p.degree("x") >= 1)
    f, g = draw(polys), draw(polys)
    shape = draw(st.sampled_from(("plain", "shared", "vanishing-lead")))
    if shape == "shared":
        common = draw(polys)
        f, g = f * common, g * common
    elif shape == "vanishing-lead" and extra:
        roots = st.integers(0, 3)
        lead = (Y - draw(roots)) * (Y - draw(roots)) if extra == 1 else Z - draw(roots)
        f = f + lead * X ** (f.degree("x") + 1)
        if draw(st.booleans()):
            g = g + (Y - draw(roots)) * X ** (g.degree("x") + 1)
    return f, g


@settings(derandomize=True, max_examples=150, deadline=None)
@given(zero_test_pairs())
def test_zero_test_reads_the_resultant_grid(pair):
    f, g = pair
    assert resultant_is_zero(f, g, "x") == resultant(f, g, "x").is_zero()


def test_zero_test_reads_past_a_zero_grid_value():
    # Res_x(x - y, x) = y vanishes at the first grid point y = 0 only
    assert [value for _, value in _grid(X - Y, X, "x")[3]][:2] == [0, 1]
    assert not resultant_is_zero(X - Y, X, "x")
    assert resultant_is_zero((X - Y) * (X + Z), (X + Z) * X, "x")


NONZERO_COEFFS = st.builds(Fraction, st.sampled_from([-6, -3, -2, -1, 1, 2, 5]), st.integers(1, 5))


@st.composite
def oracle_pairs(draw):
    """Pairs over Q[x, y, z] in x for the closed form and the grid's bounds.

    Shapes: a linear operand on either side, whose constant term may vanish
    and whose leading coefficient may hold y and z; sparse coefficient lists,
    with interior zeros and constant terms that vanish on one side or both;
    and pairs with a shared factor.  One or two of y, z occur.
    """
    extra = draw(st.integers(1, 2))
    exps = st.tuples(st.just(0), st.integers(0, 3), st.integers(0, 2) if extra == 2
                     else st.just(0))
    nonzero = st.dictionaries(exps, NONZERO_COEFFS, min_size=1, max_size=3).map(
        lambda t: Polynomial(GRID_RING, t))
    slot = st.one_of(st.just(GRID_RING.zero()), nonzero)

    def operand(degree, sparse=True):
        low = [draw(slot if sparse else nonzero) for _ in range(degree)]
        return sum((c * X**i for i, c in enumerate(low + [draw(nonzero)])), GRID_RING.zero())

    shape = draw(st.sampled_from(("linear-f", "linear-g", "sparse", "shared")))
    if shape == "shared":
        common = operand(draw(st.integers(1, 2)), sparse=False)
        f = operand(draw(st.integers(1, 2))) * common
        g = operand(draw(st.integers(1, 2))) * common
    elif shape == "sparse":
        f, g = operand(draw(st.integers(2, 4))), operand(draw(st.integers(2, 4)))
    else:
        f, g = operand(1), operand(draw(st.integers(1, 4)))
        if shape == "linear-g":
            f, g = g, f
    assume(len(set(f.variables_used() + g.variables_used()) - {"x"}) == extra)
    return f, g


@settings(derandomize=True, max_examples=150, deadline=None)
@given(oracle_pairs())
def test_resultant_equals_the_bareiss_determinant(pair):
    f, g = pair
    assert resultant(f, g, "x") == det_bareiss(sylvester_matrix(f, g, "x"))


class TestResultantValues:
    def test_product_of_root_differences(self):
        # res(f, g) = lc(f)^deg(g) * lc(g)^deg(f) * prod (ri - sj) up to sign
        f = poly_with_roots([1, 2])
        g = poly_with_roots([3, 5])
        value = resultant(f, g, "t")
        assert value.is_constant()
        expected = Fraction((1 - 3) * (1 - 5) * (2 - 3) * (2 - 5))
        assert value.constant_value() == expected

    def test_shared_root_gives_zero(self):
        f = poly_with_roots([1, 4])
        g = poly_with_roots([4, 9])
        assert resultant(f, g, "t").is_zero()

    def test_symbolic_discriminant_like(self):
        # res_t(t^2 - s, 2t) = -4s  up to sign convention
        f = T**2 - S
        g = RING.const(2) * T
        value = resultant(f, g, "t")
        assert value in (RING.const(-4) * S, RING.const(4) * S)

    def test_multiplicative_in_second_argument(self):
        rng = random.Random(99)
        for _ in range(10):
            f = poly_with_roots([rng.randint(-4, 4), rng.randint(5, 9)])
            g = poly_with_roots([rng.randint(-9, -5)])
            h = poly_with_roots([rng.randint(10, 14)])
            lhs = resultant(f, g * h, "t")
            rhs = resultant(f, g, "t") * resultant(f, h, "t")
            assert lhs == rhs

    def test_methods_agree(self):
        f = T**3 + S * T + 1
        g = S * T**2 - T + 2
        assert resultant(f, g, "t") == det_cofactor(sylvester_matrix(f, g, "t"))


class TestResultantGcdLink:
    """res(f, g) = 0 iff f and g share a nonconstant factor in the variable."""

    def test_constructed_pairs(self):
        rng = random.Random(314)
        shared, coprime = 0, 0
        while shared < 30 or coprime < 30:
            a = poly_with_roots([rng.randint(-9, 9) for _ in range(rng.randint(1, 2))])
            b = poly_with_roots([rng.randint(-9, 9) for _ in range(rng.randint(1, 2))])
            common = poly_with_roots([rng.randint(-9, 9)])
            give_common = rng.random() < 0.5
            f = a * (common if give_common else RING.one())
            g = b * (common if give_common else RING.one())
            if not give_common:
                roots_a = {r for r, in _roots_of(a)}
                roots_b = {r for r, in _roots_of(b)}
                if roots_a & roots_b:
                    continue  # accidental overlap; not a coprime sample
            value = resultant(f, g, "t")
            has_common = poly_gcd(f, g).degree("t") >= 1
            assert value.is_zero() == has_common
            if has_common:
                shared += 1
            else:
                coprime += 1


def _roots_of(p):
    """Recover integer roots of a product of monic linear factors (test helper)."""
    roots = []
    q = p
    for candidate in range(-9, 10):
        while q.degree("t") >= 1 and q.substitute("t", Fraction(candidate)).is_zero():
            q = q.exact_div(T - RING.const(candidate))
            roots.append((candidate,))
    return roots
