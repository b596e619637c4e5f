"""Sylvester resultants with exact arithmetic.

The resultant of two polynomials with respect to one variable is the
determinant of their Sylvester matrix, built with the rows of the first
operand on top (this fixes the sign convention).

The determinant is computed by evaluation and interpolation, never on
polynomial entries.  Each row is scaled by the lcm of its coefficient
denominators, so every entry has integer coefficients.  The determinant's
degree in each variable that occurs is bounded by the smaller of the row and
column sums of the entries' degrees.  The integer matrix is evaluated at every
point of the grid 0..bound (one axis per variable), and a fraction-free
Bareiss elimination on plain ``int``s gives each value; its divisions are
exact.  Integer forward differences interpolate the values in Newton form,
which is converted to monomials, and one division by the row scales gives the
rational determinant.  A naive cofactor expansion on polynomial entries is
kept as a cross-checking oracle for small matrices.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

from .errors import DegreeError
from .poly import Polynomial


def sylvester_matrix(f: Polynomial, g: Polynomial, var: str) -> list[list[Polynomial]]:
    """Sylvester matrix of f and g in ``var``; f-rows first."""
    if f.ring != g.ring:
        raise DegreeError("operands live in different rings")
    m = f.degree(var)
    n = g.degree(var)
    if m < 1 or n < 1:
        raise DegreeError(
            "resultant requires positive degree in the eliminated variable; "
            "handle constant operands separately"
        )
    ring = f.ring
    zero = ring.zero()
    # descending coefficient lists: [lead, ..., constant]
    fc = f.coefficients_in(var)[::-1]
    gc = g.coefficients_in(var)[::-1]
    size = m + n
    rows: list[list[Polynomial]] = []
    for shift in range(n):
        row = [zero] * shift + fc + [zero] * (n - 1 - shift)
        rows.append(row)
    for shift in range(m):
        row = [zero] * shift + gc + [zero] * (m - 1 - shift)
        rows.append(row)
    assert all(len(r) == size for r in rows)
    return rows


def _int_det(m: list[list[int]]) -> int:
    """Fraction-free Bareiss determinant of an integer matrix (consumed)."""
    size = len(m)
    sign = 1
    prev = 1
    for k in range(size - 1):
        if not m[k][k]:
            pivot_row = next((i for i in range(k + 1, size) if m[i][k]), None)
            if pivot_row is None:
                return 0
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        row_k = m[k]
        pivot = row_k[k]
        tail_k = row_k[k + 1 :]
        for i in range(k + 1, size):
            row_i = m[i]
            lead = row_i[k]
            # the division by the previous pivot is exact (Sylvester's identity)
            row_i[k + 1 :] = [(a * pivot - lead * b) // prev
                              for a, b in zip(row_i[k + 1 :], tail_k)]
        prev = pivot
    return sign * m[size - 1][size - 1]


def _newton_to_monomial(values: list[int]) -> list[int]:
    """Coefficients c_0..c_d of the integer polynomial taking ``values`` at 0..d.

    Forward differences give the Newton form sum_k D^k f(0) * C(x, k).  For
    integer coefficients D^k f(0) is divisible by k! (D^k x^j at 0 is k! times
    a Stirling number), so the falling-factorial coefficients are integers and
    a Horner pass over (x - k) turns them into monomial coefficients.
    """
    diff = list(values)
    d = len(diff) - 1
    for k in range(1, d + 1):
        for i in range(d, k - 1, -1):
            diff[i] -= diff[i - 1]
    falling = [diff[k] // math.factorial(k) for k in range(d + 1)]
    coeffs = [falling[d]]
    for k in range(d - 1, -1, -1):
        # coeffs <- coeffs * (x - k) + falling[k]
        shifted = [0] + coeffs
        for i, c in enumerate(coeffs):
            shifted[i] -= k * c
        shifted[0] += falling[k]
        coeffs = shifted
    return coeffs


def det_bareiss(matrix: list[list[Polynomial]]) -> Polynomial:
    """Exact determinant of a polynomial matrix by evaluation and interpolation."""
    if not matrix:
        raise ValueError("empty matrix")
    ring = matrix[0][0].ring
    width = len(ring.vars)
    used = sorted({i for row in matrix for p in row for exp in p.terms for i in range(width)
                   if exp[i]})
    # entries as ((exponents in the used variables, integer coefficient), ...),
    # each row scaled by the lcm of its denominators
    scale = 1
    rows: list[list[tuple]] = []
    for row in matrix:
        lcm = math.lcm(*(c.denominator for p in row for c in p.terms.values()))
        scale *= lcm
        rows.append([
            tuple((tuple(exp[i] for i in used), c.numerator * (lcm // c.denominator))
                  for exp, c in p.terms.items())
            for p in row
        ])
    # a zero row or column makes the determinant zero; otherwise bound the
    # degree in each variable by the row sum and the column sum of the
    # entries' degrees
    if any(not any(row) for row in rows) or any(not any(col) for col in zip(*rows)):
        return ring.zero()
    bounds = []
    for axis in range(len(used)):
        degrees = [[max((exp[axis] for exp, _ in entry), default=0) for entry in row]
                   for row in rows]
        bounds.append(min(sum(map(max, degrees)), sum(map(max, zip(*degrees)))))
    # one integer determinant per grid point; a Sylvester matrix repeats its
    # entries along the diagonals, so each distinct entry is evaluated once
    distinct: dict[tuple, int] = {}
    slots = [[distinct.setdefault(entry, len(distinct)) for entry in row] for row in rows]
    values: dict[tuple[int, ...], int] = {}
    for point in product(*(range(b + 1) for b in bounds)):
        at = [sum(c * math.prod(x**e for x, e in zip(point, exp)) for exp, c in entry)
              for entry in distinct]
        values[point] = _int_det([[at[k] for k in row] for row in slots])
    # interpolate one axis at a time: grid indices become exponents
    for axis, bound in enumerate(bounds):
        lines: dict[tuple[int, ...], list[int]] = {}
        for point, value in values.items():
            key = point[:axis] + point[axis + 1 :]
            lines.setdefault(key, [0] * (bound + 1))[point[axis]] = value
        values = {
            key[:axis] + (e,) + key[axis:]: c
            for key, line in lines.items()
            for e, c in enumerate(_newton_to_monomial(line))
        }
    terms = {}
    for point, value in values.items():
        if value:
            exp = [0] * width
            for i, e in zip(used, point):
                exp[i] = e
            terms[tuple(exp)] = Fraction(value, scale)
    return Polynomial(ring, terms)


def det_cofactor(matrix: list[list[Polynomial]]) -> Polynomial:
    """Naive cofactor expansion; exponential, intended as a test oracle (dim <= 8)."""
    size = len(matrix)
    ring = matrix[0][0].ring
    if size == 1:
        return matrix[0][0]
    total = ring.zero()
    for j in range(size):
        entry = matrix[0][j]
        if entry.is_zero():
            continue
        minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
        sub = det_cofactor(minor)
        term = entry * sub
        total = total + (term if j % 2 == 0 else -term)
    return total


def resultant(f: Polynomial, g: Polynomial, var: str, *, method: str = "bareiss") -> Polynomial:
    """Resultant of f and g in ``var`` (free of ``var`` in the result)."""
    matrix = sylvester_matrix(f, g, var)
    if method == "bareiss":
        return det_bareiss(matrix)
    if method == "naive":
        return det_cofactor(matrix)
    raise ValueError(f"unknown resultant method {method!r}")
