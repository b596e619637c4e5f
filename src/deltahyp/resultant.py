"""Sylvester resultants with exact arithmetic.

The resultant of two polynomials with respect to one variable is the
determinant of their Sylvester matrix, built with the rows of the first
operand on top (this fixes the sign convention).  The determinant is computed
by fraction-free Bareiss elimination, whose interior divisions are exact in
any integral domain — here, polynomials in the remaining variables.  A naive
cofactor expansion is kept as a cross-checking oracle for small matrices.
"""

from __future__ import annotations

from .errors import DegreeError
from .poly import Polynomial, PolynomialRing


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


def det_bareiss(matrix: list[list[Polynomial]]) -> Polynomial:
    """Fraction-free determinant (Bareiss) over a polynomial ring."""
    size = len(matrix)
    if size == 0:
        raise ValueError("empty matrix")
    ring = matrix[0][0].ring
    m = [row[:] for row in matrix]
    sign = 1
    prev = ring.one()
    for k in range(size - 1):
        if m[k][k].is_zero():
            pivot_row = next(
                (i for i in range(k + 1, size) if not m[i][k].is_zero()), None
            )
            if pivot_row is None:
                return ring.zero()
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        pivot = m[k][k]
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                num = m[i][j] * pivot - m[i][k] * m[k][j]
                m[i][j] = num.exact_div(prev)
            m[i][k] = ring.zero()
        prev = pivot
    result = m[size - 1][size - 1]
    return result if sign > 0 else -result


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
