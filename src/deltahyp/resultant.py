"""Sylvester resultants with exact arithmetic.

The resultant of two polynomials with respect to one variable is the
determinant of their Sylvester matrix, built with the rows of the first
operand on top (this fixes the sign convention).

Determinants are computed by evaluation and interpolation, never on
polynomial entries.  Each row is scaled by the lcm of its coefficient
denominators, so every entry has integer coefficients.  The determinant's
degree in each variable that occurs is bounded by the smaller of the row and
column sums of the entries' degrees.  The integer matrix is evaluated at every
point of the grid 0..bound (one axis per variable), and each value is exact:
``det_bareiss`` runs a fraction-free Bareiss elimination on plain ``int``s.
``resultant`` clears each operand's denominators once, since
Res(lf, mg) = l^deg g * m^deg f * Res(f, g), and takes each value from the
two evaluated coefficient lists by the subresultant PRS that ``poly_gcd``
also runs, here over ``int`` (``_int_resultant``).  All divisions in both
kernels are exact.  Integer forward differences interpolate the values in
Newton form, which is converted to monomials, and one division by the scale
gives the rational determinant.
A naive cofactor expansion on polynomial entries is kept as a cross-checking
oracle for small matrices.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

from .errors import DegreeError, RingMismatchError
from .poly import Polynomial, _cleared as _integer_image, subresultant_prs


def _sylvester_rows(fc: list, gc: list, zero) -> list[list]:
    """Sylvester rows of two descending coefficient lists, f-rows first."""
    m, n = len(fc) - 1, len(gc) - 1
    return ([[zero] * shift + fc + [zero] * (n - 1 - shift) for shift in range(n)]
            + [[zero] * shift + gc + [zero] * (m - 1 - shift) for shift in range(m)])


def sylvester_matrix(f: Polynomial, g: Polynomial, var: str) -> list[list[Polynomial]]:
    """Sylvester matrix of f and g in ``var``; f-rows first."""
    if f.ring != g.ring:
        raise RingMismatchError("operands live in different rings")
    if f.degree(var) < 1 or g.degree(var) < 1:
        raise DegreeError(
            "resultant requires positive degree in the eliminated variable; "
            "handle constant operands separately"
        )
    # descending coefficient lists: [lead, ..., constant]
    return _sylvester_rows(f.coefficients_in(var)[::-1], g.coefficients_in(var)[::-1],
                           f.ring.zero())


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


def _int_resultant(f: list[int], g: list[int]) -> int:
    """Sylvester resultant of two integer polynomials, f-rows first.

    ``f`` and ``g`` are descending coefficient lists of formal degrees
    m = len(f) - 1 and n = len(g) - 1; the value is the determinant of their
    (m + n)-square Sylvester matrix, so a vanishing leading coefficient is
    allowed.  A formal degree that drops is taken out first, expanding the
    determinant along its first column:
      - if both leading coefficients vanish (m, n >= 1), that column is zero
        and the value is 0;
      - if f's drops by k, the value is (-1)^(n*k) * lc(g)^k * Res(f, g);
      - if g's drops by k, the value is lc(f)^k * Res(f, g);
    with Res(f, g) taken at the lower degree (a zero polynomial keeps its
    constant slot).  Res(c, g) = c^n and Res(f, c) = c^m for constants, and
    Res(f, g) = (-1)^(m*n) * Res(g, f).  Otherwise the value comes from
    ``poly.subresultant_prs``, the PRS that ``poly_gcd`` also runs.
    """
    m, n = len(f) - 1, len(g) - 1
    k = next((i for i, c in enumerate(f) if c), m)
    j = next((i for i, c in enumerate(g) if c), n)
    if k and j:
        return 0
    if k:
        return (-1) ** (n * k) * g[0] ** k * _int_resultant(f[k:], g)
    if j:
        return f[0] ** j * _int_resultant(f, g[j:])
    if not m:
        return f[0] ** n
    if not n:
        return g[0] ** m
    if m < n:
        return (-1) ** (m * n) * _int_resultant(g, f)
    a, b, h, sign = subresultant_prs(f, g)
    m = len(a) - 1
    return 0 if len(b) > 1 else sign * b[0] ** m // h ** (m - 1)


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


def _cleared(polys: list[Polynomial], used: list[int]) -> tuple[int, list[tuple]]:
    """The lcm of the coefficient denominators of ``polys``, and each polynomial
    times it as ((exponents in the used variables, integer coefficient), ...):
    each one's integer image (``poly._cleared``) scaled up to the lcm."""
    images = [_integer_image(p.terms) for p in polys]
    lcm = math.lcm(*(den for den, _ in images))
    return lcm, [
        tuple((tuple(exp[i] for i in used), c * (lcm // den)) for exp, c in ints.items())
        for den, ints in images
    ]


def _used(polys: list[Polynomial]) -> list[int]:
    """Indices of the ring variables that occur in ``polys``."""
    return sorted({i for p in polys for exp in p.terms for i, e in enumerate(exp) if e})


def _interpolated(ring, used: list[int], rows: list[list[tuple]], scale: int,
                  value_at) -> Polynomial:
    """The determinant of the integer-entry ``rows`` divided by ``scale``.

    Each row entry is ((exponents in the ``used`` variables, integer
    coefficient), ...).  ``value_at(at, slots)`` is the integer determinant at
    one grid point: ``at`` holds the values of the distinct entries there and
    ``slots[i][j]`` is the index in ``at`` of entry (i, j).
    """
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
    # a Sylvester matrix repeats its entries along the diagonals, so each
    # distinct entry is evaluated once per point, and each distinct monomial
    distinct: dict[tuple, int] = {}
    slots = [[distinct.setdefault(entry, len(distinct)) for entry in row] for row in rows]
    monomials: dict[tuple, int] = {}
    entries = [[(monomials.setdefault(exp, len(monomials)), c) for exp, c in entry]
               for entry in distinct]
    values: dict[tuple[int, ...], int] = {}
    for point in product(*(range(b + 1) for b in bounds)):
        mono = [math.prod(x**e for x, e in zip(point, exp)) for exp in monomials]
        at = [sum(c * mono[k] for k, c in entry) for entry in entries]
        values[point] = value_at(at, slots)
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
    width = len(ring.vars)
    for point, value in values.items():
        if value:
            exp = [0] * width
            for i, e in zip(used, point):
                exp[i] = e
            terms[tuple(exp)] = Fraction(value, scale)
    return Polynomial(ring, terms)


def det_bareiss(matrix: list[list[Polynomial]]) -> Polynomial:
    """Exact determinant of a polynomial matrix by evaluation and interpolation."""
    if not matrix or any(len(row) != len(matrix) for row in matrix):
        raise ValueError("determinant of a matrix that is not square with at least one row")
    ring = matrix[0][0].ring
    if any(p.ring != ring for row in matrix for p in row):
        raise RingMismatchError("matrix entries live in different rings")
    used = _used([p for row in matrix for p in row])
    # each row scaled by the lcm of its denominators
    scale = 1
    rows = []
    for row in matrix:
        lcm, entries = _cleared(row, used)
        scale *= lcm
        rows.append(entries)
    return _interpolated(ring, used, rows, scale,
                         lambda at, slots: _int_det([[at[k] for k in row] for row in slots]))


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


def resultant(f: Polynomial, g: Polynomial, var: str) -> Polynomial:
    """Resultant of f and g in ``var`` (free of ``var`` in the result)."""
    matrix = sylvester_matrix(f, g, var)
    # the first f-row and the first g-row are the descending coefficient lists
    m, n = f.degree(var), g.degree(var)
    fc, gc = matrix[0][: m + 1], matrix[n][: n + 1]
    used = _used(fc + gc)
    lf, fi = _cleared(fc, used)
    lg, gi = _cleared(gc, used)
    return _interpolated(
        f.ring, used, _sylvester_rows(fi, gi, ()), lf**n * lg**m,
        lambda at, slots: _int_resultant([at[k] for k in slots[0][: m + 1]],
                                         [at[k] for k in slots[n][: n + 1]]),
    )
