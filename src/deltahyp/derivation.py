"""Derivation algebras: polynomial rings with a Leibniz-rule derivative.

A derivation is defined by its values on the ring variables and extended to
polynomials by linearity and the product rule, and to quotients by the
quotient rule.  The frame calculus replayed in :mod:`deltahyp.replay` uses two
such derivations: the flow derivative along the distinguished direction, and
an auxiliary cross-direction derivative used in one branch of the
curvature-gradient argument (the latter has rational-function values).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from .errors import ConfigError, UnknownVariableError
from .poly import Polynomial, PolynomialRing, RationalFunction


class Derivation:
    """Leibniz extension of variable rules to the whole ring."""

    def __init__(self, ring: PolynomialRing, rules: Mapping[str, Polynomial | RationalFunction]):
        self.ring = ring
        self.rules: dict[str, RationalFunction] = {}
        for var, value in rules.items():
            ring.index(var)  # validates
            if isinstance(value, Polynomial):
                value = RationalFunction(value)
            self.rules[var] = value

    def rule(self, var: str) -> RationalFunction:
        if var not in self.rules:
            raise UnknownVariableError(
                f"no derivation rule for {var!r}; it may not be differentiated"
            )
        return self.rules[var]

    def of_poly(self, p: Polynomial) -> RationalFunction:
        """Derivative of a polynomial (rational function in general)."""
        total = RationalFunction(self.ring.zero())
        for var in p.variables_used():
            total = total + self.rule(var) * p.diff(var)
        return total

    def of_poly_strict(self, p: Polynomial) -> Polynomial:
        """Derivative of a polynomial when all touched rules are polynomial."""
        out = self.of_poly(p)
        return out.as_polynomial()

    def of_rational(self, rf: RationalFunction) -> RationalFunction:
        num, den = rf.num, rf.den
        d_num = self.of_poly(num)
        d_den = self.of_poly(den)
        return (d_num * den - d_den * num) / (den * den)


@dataclass(frozen=True)
class ReplayConfig:
    """Configuration of one replay run at a fixed integer dimension."""

    n: int
    keep_intermediates: bool = False
    a_mode: str = "symbolic"  # "symbolic" | "numeric"
    a_value: Fraction | None = None

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 4:
            raise ConfigError(
                f"dimension n must be an integer >= 4 (four distinct principal "
                f"curvatures are required); got {self.n!r}"
            )
        if self.a_mode not in ("symbolic", "numeric"):
            raise ConfigError(f"a_mode must be 'symbolic' or 'numeric', got {self.a_mode!r}")
        if self.a_mode == "numeric":
            if self.a_value is None:
                raise ConfigError("a_mode='numeric' requires a_value")
            object.__setattr__(self, "a_value", Fraction(self.a_value))
        elif self.a_value is not None:
            raise ConfigError("a_value is only meaningful with a_mode='numeric'")


#: Ring variables of the frame calculus.  H: mean curvature; beta: the free
#: principal curvature; a: the type eigenvalue; E: flow derivative of H;
#: EE: second flow derivative of H (scratch symbol while the second-order
#: equations are being assembled); w212/w313/w414: the three independent
#: connection quotients along the flow; h: aggregate of the cross-direction
#: mixing functions; ekb: cross-direction derivative of beta.
FRAME_VARS = ("H", "beta", "a", "E", "EE", "w212", "w313", "w414", "h", "ekb")


@dataclass(frozen=True)
class DerivationAlgebra:
    """Frame calculus at fixed dimension n: ring, constants, and flow rules.

    ``spectrum`` is the accepted eigenvalue pattern (lam1, lam2, lam3, lam_tail)
    = (c1*H, beta, c2*H - beta, (c1 + c2)*H), with lam_tail repeated n - 3 times.
    """

    n: int
    ring: PolynomialRing
    c1: Fraction
    c2: Fraction
    spectrum: tuple[Polynomial, Polynomial, Polynomial, Polynomial]
    scratch_derivation: Derivation = field(repr=False)

    def trace_sq(self) -> Polynomial:
        """tr A^2: the squares of ``spectrum``, lam_tail counted n - 3 times."""
        *first_three, lam_tail = self.spectrum
        return sum((lam * lam for lam in first_three), (self.n - 3) * lam_tail**2)


def build_algebra(cfg: ReplayConfig) -> DerivationAlgebra:
    """Construct the frame calculus for dimension cfg.n.

    Flow rules, with (lam1, lam2, lam3, lam_tail) the accepted spectrum:
      D(H)    = E
      D(beta) = (lam1 - lam2) * w212
      D(w_i)  = -w_i^2 - lam1 * lam_i   for (w212, w313, w414) and i = 2, 3, tail
      D(a)    = 0
      D(E)    = EE

    D(E) is left free as EE: the replay derives the second-order form
    D(E) = -(n+2)/2 * w414*E - n^3/(4(n-2)) * H^3 as its second master
    equation, checked against ``reference_forms.master_B`` at checkpoint 3.55.
    """
    n = cfg.n
    ring = PolynomialRing(FRAME_VARS)
    H, beta, E, EE = (ring.var(v) for v in ("H", "beta", "E", "EE"))
    c1 = Fraction(-n, 2)
    c2 = Fraction(n * n, 2 * (n - 2))
    spectrum = (c1 * H, beta, c2 * H - beta, (c1 + c2) * H)
    lam1, lam2 = spectrum[:2]

    rules: dict[str, Polynomial] = {
        "H": E,
        "beta": (lam1 - lam2) * ring.var("w212"),
        "a": ring.zero(),
        "E": EE,
    }
    for name, lam in zip(("w212", "w313", "w414"), spectrum[1:]):
        rules[name] = -ring.var(name) ** 2 - lam1 * lam

    return DerivationAlgebra(
        n=n,
        ring=ring,
        c1=c1,
        c2=c2,
        spectrum=spectrum,
        scratch_derivation=Derivation(ring, rules),
    )
