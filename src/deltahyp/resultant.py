"""Sylvester resultants with exact arithmetic.

The resultant of two polynomials with respect to one variable is the
determinant of their Sylvester matrix, built with the rows of the first
operand on top (this fixes the sign convention).

When either operand has degree 1 in the variable, ``resultant`` returns the
closed form by ``Polynomial`` arithmetic: for f = a1*x + a0 of degree 1 and
g of degree n, Res(f, g) = a1^n * g(-a0/a1) = sum_j g_j (-a0)^j a1^(n-j),
and Res(f, g) = (-1)^(deg f) * Res(g, f) when g is the linear one.

Otherwise it computes the resultant by evaluation and interpolation, never on
polynomial entries.  Each operand's coefficients are scaled once by the lcm
of their denominators, since Res(lf, mg) = l^deg g * m^deg f * Res(f, g).
The resultant's degree in each variable that occurs is bounded by the least
of four bounds: the row and column sums of the Sylvester entries' degrees,
and the Newton-polygon bound read from the roots of either operand
(``_root_bound``).  At every point of the grid 0..bound (one axis per
variable) the two integer coefficient lists are evaluated, and the
subresultant PRS that ``poly_gcd`` also runs gives the exact value over
``int`` (``_int_resultant``).  Integer forward differences interpolate the
values in Newton form, which is converted to monomials, and one division by
the scale gives the rational resultant.  The grid yields its values lazily,
so ``resultant_is_zero`` reads the same grid, whatever the operands' degrees,
and stops at the first nonzero value: that value proves the resultant
nonzero, and a grid of zeros interpolates to the zero polynomial.

``det_bareiss`` is the general determinant: a plain fraction-free Bareiss
elimination on the polynomial entries, independent of the grid, so it
cross-checks the closed form, the resultant's degree bounds and its
interpolation.
"""

from __future__ import annotations

import math
from itertools import product

from .errors import DegreeError, RingMismatchError
from .poly import Polynomial, _from_image, subresultant_prs


def _sylvester_rows(fc: list, gc: list, zero) -> list[list]:
    """Sylvester rows of two descending coefficient lists, f-rows first."""
    m, n = len(fc) - 1, len(gc) - 1
    return ([[zero] * shift + fc + [zero] * (n - 1 - shift) for shift in range(n)]
            + [[zero] * shift + gc + [zero] * (m - 1 - shift) for shift in range(m)])


def _degrees(f: Polynomial, g: Polynomial, var: str) -> tuple[int, int]:
    """The degrees of f and g in ``var``, after the checks every resultant makes."""
    if f.ring != g.ring:
        raise RingMismatchError("operands live in different rings")
    m, n = f.degree(var), g.degree(var)
    if m < 1 or n < 1:
        raise DegreeError(
            "resultant requires positive degree in the eliminated variable; "
            "handle constant operands separately"
        )
    return m, n


def sylvester_matrix(f: Polynomial, g: Polynomial, var: str) -> list[list[Polynomial]]:
    """Sylvester matrix of f and g in ``var``; f-rows first."""
    _degrees(f, g, var)
    # descending coefficient lists: [lead, ..., constant]
    return _sylvester_rows(f.coefficients_in(var)[::-1], g.coefficients_in(var)[::-1],
                           f.ring.zero())


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
    each one's integer image scaled up to the lcm."""
    lcm = math.lcm(*(p.den for p in polys))
    return lcm, [
        tuple((tuple(exp[i] for i in used), c * (lcm // p.den)) for exp, c in p.nums.items())
        for p in polys
    ]


def _used(polys: list[Polynomial]) -> list[int]:
    """Indices of the ring variables that occur in ``polys``."""
    return sorted({i for p in polys for exp in p.nums for i, e in enumerate(exp) if e})


def det_bareiss(matrix: list[list[Polynomial]]) -> Polynomial:
    """Exact determinant of a polynomial matrix by fraction-free Bareiss
    elimination (Bareiss, Math. Comp. 22, 1968) on its entries."""
    if not matrix or any(len(row) != len(matrix) for row in matrix):
        raise ValueError("determinant of a matrix that is not square with at least one row")
    ring = matrix[0][0].ring
    if any(p.ring != ring for row in matrix for p in row):
        raise RingMismatchError("matrix entries live in different rings")
    m = [list(row) for row in matrix]
    size = len(m)
    sign = 1
    prev = ring.one()
    for k in range(size - 1):
        if m[k][k].is_zero():
            pivot_row = next((i for i in range(k + 1, size) if not m[i][k].is_zero()), None)
            if pivot_row is None:
                return ring.zero()
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        pivot = m[k][k]
        tail_k = m[k][k + 1 :]
        for i in range(k + 1, size):
            lead = m[i][k]
            # each new entry is a minor, so the division by the previous
            # pivot is exact (Sylvester's identity)
            m[i][k + 1 :] = [(a * pivot - lead * b).exact_div(prev)
                             for a, b in zip(m[i][k + 1 :], tail_k)]
        prev = pivot
    return m[-1][-1] if sign > 0 else -m[-1][-1]


def _root_bound(fd: list, gd: list) -> int:
    """A bound on deg_v Res(f, g) read from the roots of f (Newton polygon).

    ``fd`` and ``gd`` are deg_v of the coefficients f_i and g_j in ascending
    order, None for a zero one; the leading f_m is nonzero.  The bound is
        n * deg_v f_m + k * deg_v g_0 + sum over segments L * max_j (deg_v g_j - j*s)
    with n the degree of g, k the number of vanishing low coefficients of f
    (its roots at 0), and a segment of slope s and length L for each edge of
    the upper hull of {(i, deg_v f_i) : f_i != 0}.  The maxima run over the
    nonzero g_j, and L*s is an integer, so every term is an integer.

    Proof: the coefficients lie in an integral domain R[v], on which
    -deg_v is a valuation.  Extend it to a splitting field of f over the
    fraction field, and write D for minus the extended valuation, so that
    D = deg_v on R[v].  Then Res(f, g) = f_m^n * prod g(alpha) over the m roots alpha
    of f.  By the Newton-polygon theorem a hull edge of slope s and length L
    stands for exactly L nonzero roots with D(alpha) = -s, and the other k
    roots are 0.  D is multiplicative, and by the ultrametric inequality
    D(g(alpha)) <= max_j (deg_v g_j + j * D(alpha)); a root at 0 gives
    g(0) = g_0.  Summing gives the bound.  If g_0 = 0 while k > 0 the
    resultant is zero and any bound holds, so a zero g_0 counts as degree 0.
    Res(g, f) = +-Res(f, g), so the bound with the roles swapped holds too.
    """
    zeros = next(i for i, d in enumerate(fd) if d is not None)
    hull: list[tuple[int, int]] = []
    for i, d in enumerate(fd):
        if d is None:
            continue
        # drop the last vertex while it lies on or below the chord to (i, d)
        while len(hull) > 1 and ((hull[-1][0] - hull[-2][0]) * (d - hull[-2][1])
                                 >= (hull[-1][1] - hull[-2][1]) * (i - hull[-2][0])):
            hull.pop()
        hull.append((i, d))
    terms = [(j, e) for j, e in enumerate(gd) if e is not None]
    # an edge of length L and rise R (slope R/L) adds L * max_j (e_j - j*R/L)
    return (len(gd) - 1) * fd[-1] + zeros * (gd[0] or 0) + sum(
        max((i2 - i1) * e - j * (d2 - d1) for j, e in terms)
        for (i1, d1), (i2, d2) in zip(hull, hull[1:])
    )


def _grid(f: Polynomial, g: Polynomial, var: str):
    """(used, bounds, scale, values) of the resultant of f and g in ``var``.

    ``used`` are the indices of the ring variables that occur, ``bounds`` the
    degree bound in each, and ``scale`` the factor lf^n * lg^m that clearing
    the denominators put on the resultant.  ``values`` yields (point, value)
    lazily over the grid 0..bound, in ``product`` order: each value is the
    scaled resultant's exact integer value at that point.

    Each variable's bound is the least of the row sum and the column sum of
    the Sylvester entries' degrees in it and the Newton-polygon bounds read
    from the roots of f and from the roots of g (``_root_bound``).  On the
    replay's final resultant, the curves' coefficient lists in beta (degrees
    6 and 9) give 33 by the sums and 27 by either polygon in ``a`` at every
    n = 4..16, where the resultant's a-degree is 25.
    """
    matrix = sylvester_matrix(f, g, var)
    # the first f-row and the first g-row are the descending coefficient lists
    m, n = f.degree(var), g.degree(var)
    fc, gc = matrix[0][: m + 1], matrix[n][: n + 1]
    used = _used(fc + gc)
    lf, fi = _cleared(fc, used)
    lg, gi = _cleared(gc, used)
    bounds = []
    for axis in range(len(used)):
        # degrees in ascending order of the power of var, None for a zero coefficient
        fd, gd = ([max((exp[axis] for exp, _ in c), default=None) for c in cs[::-1]]
                  for cs in (fi, gi))
        degrees = _sylvester_rows([d or 0 for d in fd[::-1]], [d or 0 for d in gd[::-1]], 0)
        bounds.append(min(sum(map(max, degrees)), sum(map(max, zip(*degrees))),
                          _root_bound(fd, gd), _root_bound(gd, fd)))
    # each distinct monomial is evaluated once per grid point
    monomials: dict[tuple, int] = {}
    coeffs = [[(monomials.setdefault(exp, len(monomials)), c) for exp, c in entry]
              for entry in fi + gi]

    def values():
        for point in product(*(range(b + 1) for b in bounds)):
            mono = [math.prod(x**e for x, e in zip(point, exp)) for exp in monomials]
            at = [sum(c * mono[k] for k, c in entry) for entry in coeffs]
            yield point, _int_resultant(at[: m + 1], at[m + 1 :])

    return used, bounds, lf**n * lg**m, values()


def resultant_is_zero(f: Polynomial, g: Polynomial, var: str) -> bool:
    """Whether the resultant of f and g in ``var`` is zero, read from the
    resultant's own grid: it stops at the first nonzero value, which proves
    the resultant nonzero, and an all-zero grid interpolates to zero."""
    *_, values = _grid(f, g, var)
    return not any(value for _, value in values)


def _linear_resultant(f: Polynomial, g: Polynomial, var: str) -> Polynomial:
    """Res(f, g) for f = a1*x + a0 of degree 1 in ``var`` and g of degree n:
    sum_j g_j (-a0)^j a1^(n-j), by Horner's rule in a1."""
    a0, a1 = f.coefficients_in(var)
    step = -a0
    gc = g.coefficients_in(var)
    res, power = gc[0], f.ring.one()
    for g_j in gc[1:]:
        power = power * step
        res = res * a1 + g_j * power
    return res


def resultant(f: Polynomial, g: Polynomial, var: str) -> Polynomial:
    """Resultant of f and g in ``var`` (free of ``var`` in the result)."""
    m, n = _degrees(f, g, var)
    if m == 1:
        return _linear_resultant(f, g, var)
    if n == 1:
        # Res(f, g) = (-1)^(m*n) * Res(g, f)
        res = _linear_resultant(g, f, var)
        return -res if m % 2 else res
    used, bounds, scale, grid = _grid(f, g, var)
    values = dict(grid)
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
    width, pack = len(f.ring.vars), f.ring.pack
    return _from_image(f.ring, scale, {
        pack(tuple(dict(zip(used, point)).get(i, 0) for i in range(width))): value
        for point, value in values.items() if value
    })
