"""Reference forms the replay checks its derived stages against.

Each function returns, for a fixed integer dimension n, the closed-form
reference polynomial for one tagged stage of the elimination, built in the
frame ring of a :class:`~deltahyp.derivation.DerivationAlgebra`.  Structural
templates (allowed monomial supports) for the stages whose reference
coefficients are not pinned numerically live here as well.

All equations are written as single polynomials (left side minus right side).
"""

from __future__ import annotations

from fractions import Fraction

from .derivation import DerivationAlgebra
from .poly import Polynomial


def _fr(num: int, den: int = 1) -> Fraction:
    return Fraction(num, den)


# -- scalar coefficient tables ---------------------------------------------------


def kappa_reference(n: int) -> Fraction:
    """Cubic prefactor as tabulated in the reference first integrals.

    Erratum: the linear solve gives :func:`kappa_corrected`; the trailing group
    ``-(31n^2 - 112n + 96)`` lost its parentheses in the printed tables.  The
    prefactor of the flow term is therefore an erratum slot in all four
    ``integral_*`` tables.
    """
    return _fr(2 * n**3 + 31 * n**2 - 112 * n + 96)


def kappa_corrected(n: int) -> Fraction:
    """Re-parenthesized variant of the cubic prefactor.

    This is the determinant (up to a positive rational factor) of the linear
    solve that produces the first integrals, hence the value the elimination
    actually needs to be nonzero.  It differs from :func:`kappa_reference` by
    the sign of the trailing group and is nonzero for every integer n >= 4.
    """
    return _fr(2 * n**3 - 31 * n**2 + 112 * n - 96)


# -- master equations -------------------------------------------------------------


def master_A(alg: DerivationAlgebra) -> Polynomial:
    """First master equation, normalized to a unit second-order coefficient."""
    n = alg.n
    r = alg.ring
    H, beta, E, EE = r.var("H"), r.var("beta"), r.var("E"), r.var("EE")
    u, v = r.var("w212"), r.var("w313")
    coeff_uv = _fr(-(9 * n**2 - 50 * n + 48), n**2)
    c_H3 = _fr(n**2 * (7 * n**2 - 29 * n + 26), 2 * (n - 2) ** 2)
    c_H2b = _fr(2 * n * (n - 1), n - 2)
    c_Hb2 = _fr(-4 * (n - 1), n)
    return (
        EE
        + coeff_uv * ((u + v) * E)
        + c_H3 * H**3
        + c_H2b * (H**2 * beta)
        + c_Hb2 * (H * beta**2)
    )


def master_B(alg: DerivationAlgebra) -> Polynomial:
    """Second master equation (the one that pins the second-order term)."""
    n = alg.n
    r = alg.ring
    H, E, EE, w = r.var("H"), r.var("E"), r.var("EE"), r.var("w414")
    return EE + _fr(n + 2, 2) * (w * E) + _fr(n**3, 4 * (n - 2)) * H**3


def master_C(alg: DerivationAlgebra, a_poly: Polynomial) -> Polynomial:
    """Third master equation (the trace/type relation), reference orientation."""
    n = alg.n
    r = alg.ring
    H, beta, E, EE = r.var("H"), r.var("beta"), r.var("E"), r.var("EE")
    u, v, w = r.var("w212"), r.var("w313"), r.var("w414")
    return (
        -EE
        - (u + v + (n - 3) * w) * E
        + _fr(n**2 * (n + 2), 2 * (n - 2)) * H**3
        - _fr(n**2, n - 2) * (H**2 * beta)
        + 2 * (H * beta**2)
        - a_poly * H
    )


def master_A_unreduced(alg: DerivationAlgebra) -> Polynomial:
    """First master equation before the dimension constants are substituted."""
    r = alg.ring
    n = alg.n
    c1, c2 = alg.c1, alg.c2
    H, beta, E, EE = r.var("H"), r.var("beta"), r.var("E"), r.var("EE")
    u, v = r.var("w212"), r.var("w313")
    coeff_uv = 2 * (n - 3) * (c1 + c2) * (2 * c1 - c2) + c2 * (2 * c2 - c1)
    c_H3 = 2 * (n - 3) * (2 * c1 - c2) * (c1 + c2) * c2**2 - c1 * c2**2 * (c1 - c2)
    return (
        c2**2 * EE
        + coeff_uv * ((u + v) * E)
        - c_H3 * H**3
        - 2 * c2**2 * (c1 - c2) * (H**2 * beta)
        + 2 * c2 * (c1 - c2) * (H * beta**2)
    )


def master_B_unreduced(alg: DerivationAlgebra) -> Polynomial:
    """Second master equation before the dimension constants are substituted."""
    r = alg.ring
    c1, c2 = alg.c1, alg.c2
    H, E, EE, w = r.var("H"), r.var("E"), r.var("EE"), r.var("w414")
    return (c1 + c2) * EE + (c1 + 2 * c2) * (w * E) - c1 * c2 * (c1 + c2) * H**3


# -- auxiliary product relation ----------------------------------------------------


def product_relation(alg: DerivationAlgebra) -> Polynomial:
    """Reference quadratic relation among the three connection quotients.

    Written with the antisymmetric partners substituted (the diagonal
    first-slot coefficients are the negatives of w414 resp. w313).
    """
    n = alg.n
    r = alg.ring
    c1, c2 = alg.c1, alg.c2
    H, beta = r.var("H"), r.var("beta")
    u, v, w = r.var("w212"), r.var("w313"), r.var("w414")
    K = (n - 3) * (c1 + c2) * c2 * H**2 + beta * (c2 * H - beta)
    return -(n - 3) * (w * (u + v)) - u * v - K


# -- first integrals ---------------------------------------------------------------


def integral_sum_quotient(alg: DerivationAlgebra, a_poly: Polynomial) -> Polynomial:
    """Reference first integral for the (w212+w313)-flow term (tag 3.58).

    Erratum slots against the relation the master equations force: the
    prefactor of (w212+w313)*E (see :func:`kappa_reference`), and H*beta^2,
    printed ``-(3n^2 - 40n + 48)/n`` where the solve gives
    ``+(3n^2 - 16n + 16)/n``.
    """
    n = alg.n
    r = alg.ring
    H, beta, E = r.var("H"), r.var("beta"), r.var("E")
    u, v = r.var("w212"), r.var("w313")
    kap = kappa_reference(n)
    return (
        _fr(2, n**2) * kap * ((u + v) * E)
        - _fr(n**2 * (5 * n**3 - 82 * n**2 + 256 * n - 200), 4 * (n - 2) ** 2) * H**3
        - _fr(n * (3 * n**2 - 16 * n + 16), 2 * (n - 2)) * (H**2 * beta)
        - _fr(3 * n**2 - 40 * n + 48, n) * (H * beta**2)
        - _fr(n + 2, 2) * (a_poly * H)
    )


def integral_lone_quotient(alg: DerivationAlgebra, a_poly: Polynomial) -> Polynomial:
    """Reference first integral for the w414-flow term (tag 3.57).

    Erratum slots against the relation the master equations force: the
    prefactor of w414*E (see :func:`kappa_reference`); H^3, printed with
    ``+86n^2`` where the solve gives ``+60n^2`` in the numerator; and
    H*beta^2, printed ``-2(5n^2 - 44n + 48)/n^2`` where the solve gives
    ``-2(11n^2 - 52n + 48)/n^2``.
    """
    n = alg.n
    r = alg.ring
    H, beta, E = r.var("H"), r.var("beta"), r.var("E")
    w = r.var("w414")
    kap = kappa_reference(n)
    return (
        _fr(2, n**2) * kap * (w * E)
        - _fr(7 * n**4 - 56 * n**3 + 86 * n**2 + 152 * n - 192, 2 * (n - 2) ** 2) * H**3
        + _fr(11 * n**2 - 52 * n + 48, n - 2) * (H**2 * beta)
        - _fr(2 * (5 * n**2 - 44 * n + 48), n**2) * (H * beta**2)
        + _fr(9 * n**2 - 50 * n + 48, n**2) * (a_poly * H)
    )


def integral_product(alg: DerivationAlgebra, a_poly: Polynomial) -> Polynomial:
    """Reference first integral for the w212*w313 product (tag 3.59).

    Every slot is an erratum against the relation the master equations force.
    Besides the prefactor of w212*w313 (see :func:`kappa_reference`), the solve
    gives ``+n^2(n^3 - 20n^2 + 32n - 8)/(4(n-2)^2)`` for H^2,
    ``+n(n^3 + 6n^2 - 48n + 48)/(2(n-2)(n-3))`` for H*beta,
    ``-(n^3 + 6n^2 - 48n + 48)/(n(n-3))`` for beta^2, and ``+(n+2)/2 * a`` in
    place of the printed ``-(n+2)/2 * a*H``, which has weight 3 among weight-2
    terms (H, beta, w by 1; E, a by 2).
    """
    n = alg.n
    r = alg.ring
    H, beta = r.var("H"), r.var("beta")
    u, v = r.var("w212"), r.var("w313")
    kap = kappa_reference(n)
    return (
        _fr(1, n * (n - 3)) * kap * (u * v)
        - _fr(n**2 * (n**3 - 144 * n**2 + 480 * n - 392), 4 * (n - 2) ** 2) * H**2
        - _fr(n * (n**3 - 56 * n**2 + 176 * n - 144), 2 * (n - 2) * (n - 3)) * (H * beta)
        - _fr(5 * n**3 - 18 * n**2 + 56 * n - 48, n * (n - 3)) * beta**2
        - _fr(n + 2, 2) * (a_poly * H)
    )


def integral_square(alg: DerivationAlgebra, a_poly: Polynomial) -> Polynomial:
    """Reference first integral for the squared flow derivative (tag 3.60).

    It is H times :func:`integral_lone_quotient` with w414*E traded for E^2, and
    carries the same erratum slots: the prefactor of E^2 (see
    :func:`kappa_reference`), H^4 and H^2*beta^2.
    """
    n = alg.n
    r = alg.ring
    H, beta, E = r.var("H"), r.var("beta"), r.var("E")
    kap = kappa_reference(n)
    return (
        -_fr(4, n**3) * kap * E**2
        - _fr(7 * n**4 - 56 * n**3 + 86 * n**2 + 152 * n - 192, 2 * (n - 2) ** 2) * H**4
        + _fr(11 * n**2 - 52 * n + 48, n - 2) * (H**3 * beta)
        - _fr(2 * (5 * n**2 - 44 * n + 48), n**2) * (H**2 * beta**2)
        + _fr(9 * n**2 - 50 * n + 48, n**2) * (a_poly * H**2)
    )


# -- structural templates -----------------------------------------------------------

#: Allowed (H, beta, a)-exponents for the two linear-relation coefficient forms.
TEMPLATE_LINEAR_FORM = frozenset(
    {(4, 0, 0), (3, 1, 0), (2, 2, 0), (1, 3, 0), (2, 0, 1), (1, 1, 1)}
)

#: Allowed (H, beta, a)-exponents for the cubic form of the product relation.
TEMPLATE_CUBIC_FORM = frozenset({(3, 0, 0), (2, 1, 0), (1, 2, 0), (1, 0, 1)})


def _weighted_template(weight: int, a_powers: int) -> frozenset[tuple[int, int, int]]:
    """Every (i, j, k) with i + j + 2k = weight and k < a_powers."""
    return frozenset(
        (i, weight - 2 * k - i, k) for k in range(a_powers) for i in range(weight - 2 * k + 1)
    )


def template_curve9() -> frozenset[tuple[int, int, int]]:
    """Maximal support of the degree-9 curve: odd strata 9/7/5/3 against a^0..a^3."""
    return _weighted_template(9, 4)


def template_curve12() -> frozenset[tuple[int, int, int]]:
    """Maximal support of the degree-12 curve: even strata 12/10/8/6/4 with a^0..a^4."""
    return _weighted_template(12, 5)


def allowed_side_conditions(alg: DerivationAlgebra) -> list[Polynomial]:
    """Fixed vocabulary of denominators that may legally be cleared: sums and
    differences of accepted eigenvalues, and the flow derivative E of H."""
    lam1, lam2, lam3, lam_tail = alg.spectrum
    return [
        lam1 - lam2,
        lam3 - lam2,
        lam1 - lam3,
        lam_tail - lam2,
        lam1 + lam2,
        lam2 + lam3,
        alg.ring.var("E"),
    ]
