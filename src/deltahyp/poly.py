"""Exact-arithmetic sparse multivariate polynomials and rational functions.

The ring fixes an ordered tuple of variable names.  A polynomial stores a map
from exponent vectors (tuples of non-negative ints, one slot per ring
variable) to nonzero ``fractions.Fraction`` coefficients.  The canonical term
order is graded lexicographic: higher total degree first, ties broken by the
exponent vector compared left to right (earlier ring variables are stronger).
Canonical text renders terms in descending order, e.g. ``-1/2*w212*E + 44*H^3``.

Everything here is immutable after construction and safe to share.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import (
    DegreeError,
    ExactDivisionError,
    ParseError,
    RingMismatchError,
    UnknownVariableError,
)

_VAR_RE = re.compile(r"^[A-Za-z_][A-Za-z_0-9]*$")


class PolynomialRing:
    """An ordered universe of variable names over the rationals."""

    __slots__ = ("vars", "_index")

    def __init__(self, variables: Sequence[str]):
        names = tuple(variables)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names: {names}")
        for name in names:
            if not _VAR_RE.match(name):
                raise ValueError(f"invalid variable name: {name!r}")
        object.__setattr__(self, "vars", names)
        object.__setattr__(self, "_index", {v: i for i, v in enumerate(names)})

    def __setattr__(self, *_):  # pragma: no cover - guard
        raise AttributeError("PolynomialRing is immutable")

    def __eq__(self, other):
        return isinstance(other, PolynomialRing) and self.vars == other.vars

    def __hash__(self):
        return hash(self.vars)

    def __repr__(self):
        return f"PolynomialRing({', '.join(self.vars)})"

    def index(self, var: str) -> int:
        try:
            return self._index[var]
        except KeyError:
            raise UnknownVariableError(f"{var!r} is not in ring {self.vars}") from None

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.const(1)

    def const(self, value) -> "Polynomial":
        return Polynomial(self, {(0,) * len(self.vars): value})

    def var(self, name: str) -> "Polynomial":
        exp = [0] * len(self.vars)
        exp[self.index(name)] = 1
        return Polynomial(self, {tuple(exp): Fraction(1)})

    def parse(self, text: str) -> "Polynomial":
        return parse_polynomial(self, text)


def _grlex_key(exp: tuple[int, ...]) -> tuple:
    return (sum(exp), exp)


def _signed_content(p: "Polynomial") -> Fraction:
    """Content of a nonzero ``p`` with the sign of its leading coefficient."""
    c = p.content()
    return -c if p.leading_coefficient() < 0 else c


class Polynomial:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring: PolynomialRing, terms: Mapping[tuple[int, ...], Fraction]):
        clean = {}
        width = len(ring.vars)
        for exp, coeff in terms.items():
            if len(exp) != width:
                raise ValueError(f"exponent vector {exp} does not fit ring {ring.vars}")
            if type(coeff) is not Fraction:
                coeff = Fraction(coeff)
            if coeff:
                clean[tuple(exp)] = coeff
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *_):  # pragma: no cover - guard
        raise AttributeError("Polynomial is immutable")

    # -- basic predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(exp) == 0 for exp in self.terms)

    def constant_value(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return next(iter(self.terms.values()))

    # -- ring arithmetic ----------------------------------------------------

    def _check(self, other: "Polynomial") -> None:
        if self.ring != other.ring:
            raise RingMismatchError(
                f"ring mismatch: {self.ring.vars} vs {other.ring.vars}"
            )

    def __add__(self, other):
        other = self._coerce(other)
        self._check(other)
        out = dict(self.terms)
        for exp, coeff in other.terms.items():
            out[exp] = out.get(exp, 0) + coeff
        return Polynomial(self.ring, out)

    def __neg__(self):
        return Polynomial(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        other = self._coerce(other)
        self._check(other)
        out: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                out[exp] = out.get(exp, 0) + c1 * c2
        return Polynomial(self.ring, out)

    def __rmul__(self, other):
        return self * other

    def __radd__(self, other):
        return self + other

    def __rsub__(self, other):
        return (-self) + other

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = self.ring.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            return other
        return self.ring.const(other)

    def scale(self, value) -> "Polynomial":
        value = Fraction(value)
        return Polynomial(self.ring, {e: c * value for e, c in self.terms.items()})

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        h = object.__getattribute__(self, "_hash")
        if h is None:
            h = hash((self.ring, tuple(sorted(self.terms.items()))))
            object.__setattr__(self, "_hash", h)
        return h

    # -- structure ----------------------------------------------------------

    def degree(self, var: str) -> int:
        """Degree in one variable; -1 for the zero polynomial."""
        if self.is_zero():
            return -1
        i = self.ring.index(var)
        return max(exp[i] for exp in self.terms)

    def total_degree(self) -> int:
        if self.is_zero():
            return -1
        return max(sum(exp) for exp in self.terms)

    def variables_used(self) -> tuple[str, ...]:
        used = [False] * len(self.ring.vars)
        for exp in self.terms:
            for i, e in enumerate(exp):
                if e:
                    used[i] = True
        return tuple(v for v, u in zip(self.ring.vars, used) if u)

    def leading(self) -> tuple[tuple[int, ...], Fraction]:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading term")
        exp = max(self.terms, key=_grlex_key)
        return exp, self.terms[exp]

    def leading_coefficient(self) -> Fraction:
        return self.leading()[1]

    def coefficient(self, powers: Mapping[str, int]) -> Fraction:
        """Coefficient of the monomial with the given variable powers; 0 if absent."""
        exp = [0] * len(self.ring.vars)
        for var, power in powers.items():
            exp[self.ring.index(var)] = power
        return self.terms.get(tuple(exp), Fraction(0))

    def support(self, variables: Sequence[str] | None = None) -> set[tuple[int, ...]]:
        """Exponent vectors of the terms, cut down to ``variables`` when given."""
        if variables is None:
            return set(self.terms)
        slots = [self.ring.index(var) for var in variables]
        return {tuple(exp[i] for i in slots) for exp in self.terms}

    def coefficients_in(self, var: str) -> list["Polynomial"]:
        """Dense coefficient list [c_0, ..., c_d] viewing self in ``var``."""
        i = self.ring.index(var)
        dense: list[dict] = [{} for _ in range(self.degree(var) + 1)]
        for exp, coeff in self.terms.items():
            dense[exp[i]][exp[:i] + (0,) + exp[i + 1 :]] = coeff
        return [Polynomial(self.ring, terms) for terms in dense]

    def rewrite_product(self, var_a: str, var_b: str, value: "Polynomial") -> "Polynomial":
        """Replace every occurrence of the product ``var_a*var_b`` by ``value``.

        Every term of ``value`` must have joint degree at most one in the two
        variables.  Each pass then lowers the joint degree of every term that
        still holds the product, so the rewrite ends.
        """
        self._check(value)
        ia, ib = self.ring.index(var_a), self.ring.index(var_b)
        if any(exp[ia] + exp[ib] > 1 for exp in value.terms):
            raise DegreeError(
                f"replacement for {var_a}*{var_b} has joint degree above one: "
                f"{value.render()}"
            )
        current = self
        while True:
            # terms holding the product, with one var_a*var_b taken out
            lowered, rest = {}, {}
            for exp, coeff in current.terms.items():
                if exp[ia] and exp[ib]:
                    key = list(exp)
                    key[ia] -= 1
                    key[ib] -= 1
                    lowered[tuple(key)] = coeff
                else:
                    rest[exp] = coeff
            if not lowered:
                return current
            current = Polynomial(self.ring, rest) + Polynomial(self.ring, lowered) * value

    # -- calculus / evaluation ----------------------------------------------

    def diff(self, var: str) -> "Polynomial":
        i = self.ring.index(var)
        # lowering one exponent is injective, so no two terms meet
        return Polynomial(
            self.ring,
            {
                exp[:i] + (exp[i] - 1,) + exp[i + 1 :]: coeff * exp[i]
                for exp, coeff in self.terms.items()
                if exp[i]
            },
        )

    def substitute(self, var: str, value) -> "Polynomial":
        """Partial evaluation: replace one variable by a rational or polynomial."""
        if isinstance(value, Polynomial):
            self._check(value)
            out = self.ring.zero()
            for coeff in reversed(self.coefficients_in(var)):
                out = out * value + coeff
            return out
        i = self.ring.index(var)
        value = Fraction(value)
        terms: dict[tuple[int, ...], Fraction] = {}
        for exp, coeff in self.terms.items():
            key = exp[:i] + (0,) + exp[i + 1 :]
            terms[key] = terms.get(key, 0) + coeff * value ** exp[i]
        return Polynomial(self.ring, terms)

    def restrict_ring(self, ring: PolynomialRing) -> "Polynomial":
        """Re-express in a smaller/other ring containing every used variable."""
        positions = []
        for var in self.ring.vars:
            positions.append(ring._index.get(var, -1))
        out = {}
        width = len(ring.vars)
        for exp, coeff in self.terms.items():
            new = [0] * width
            for i, e in enumerate(exp):
                if not e:
                    continue
                j = positions[i]
                if j < 0:
                    raise UnknownVariableError(
                        f"variable {self.ring.vars[i]!r} not present in target ring"
                    )
                new[j] = e
            out[tuple(new)] = coeff
        return Polynomial(ring, out)

    # -- division / normalization --------------------------------------------

    def exact_div(self, divisor: "Polynomial") -> "Polynomial":
        """Exact division; raises ExactDivisionError if not divisible."""
        divisor = self._coerce(divisor)
        self._check(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if divisor.is_constant():
            return self.scale(Fraction(1) / divisor.constant_value())
        remainder = dict(self.terms)
        quotient: dict[tuple[int, ...], Fraction] = {}
        div_exp, div_coeff = divisor.leading()
        while remainder:
            exp = max(remainder, key=_grlex_key)
            coeff = remainder[exp]
            q_exp = tuple(a - b for a, b in zip(exp, div_exp))
            if any(e < 0 for e in q_exp):
                raise ExactDivisionError("division left a nonzero remainder")
            # the remainder's leading term falls at every step, so no
            # quotient monomial repeats
            q_coeff = coeff / div_coeff
            quotient[q_exp] = q_coeff
            for d_exp, d_coeff in divisor.terms.items():
                key = tuple(a + b for a, b in zip(q_exp, d_exp))
                val = remainder.get(key, 0) - q_coeff * d_coeff
                if val == 0:
                    remainder.pop(key, None)
                else:
                    remainder[key] = val
        return Polynomial(self.ring, quotient)

    def divides(self, other: "Polynomial") -> bool:
        try:
            other.exact_div(self)
            return True
        except ExactDivisionError:
            return False

    def content(self) -> Fraction:
        """Positive rational content (gcd of coefficients); 0 for zero."""
        if self.is_zero():
            return Fraction(0)
        num = 0
        den = 1
        for coeff in self.terms.values():
            num = math.gcd(num, abs(coeff.numerator))
            den = den * coeff.denominator // math.gcd(den, coeff.denominator)
        return Fraction(num, den)

    def primitive(self) -> "Polynomial":
        """Canonical primitive part: content 1, positive leading coefficient."""
        if self.is_zero():
            return self
        return self.scale(1 / _signed_content(self))

    # -- rendering ------------------------------------------------------------

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        return sorted(self.terms.items(), key=lambda kv: _grlex_key(kv[0]), reverse=True)

    def render(self) -> str:
        if self.is_zero():
            return "0"
        pieces = []
        for position, (exp, coeff) in enumerate(self.sorted_terms()):
            mono = "*".join(
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(self.ring.vars, exp)
                if e
            )
            mag = abs(coeff)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            if position == 0:
                pieces.append(body if coeff > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self):
        return f"<Polynomial {self.render()}>"


# -- parsing -------------------------------------------------------------------

_TERM_SPLIT = re.compile(r"(?=[+-])")
_FACTOR_RE = re.compile(
    r"^(?P<num>\d+(?:/\d+)?)$|^(?P<var>[A-Za-z_][A-Za-z_0-9]*)(?:\^(?P<pow>\d+))?$"
)


def parse_polynomial(ring: PolynomialRing, text: str) -> Polynomial:
    """Parse the canonical ASCII polynomial format (round-trip of render)."""
    stripped = text.replace(" ", "")
    if not stripped:
        raise ParseError("empty polynomial text")
    if stripped == "0":
        return ring.zero()
    chunks = [c for c in _TERM_SPLIT.split(stripped) if c]
    terms: dict[tuple[int, ...], Fraction] = {}
    for chunk in chunks:
        sign = 1
        while chunk and chunk[0] in "+-":
            if chunk[0] == "-":
                sign = -sign
            chunk = chunk[1:]
        if not chunk:
            raise ParseError(f"dangling sign in {text!r}")
        coeff = sign
        exp = [0] * len(ring.vars)
        for factor in chunk.split("*"):
            m = _FACTOR_RE.match(factor)
            if not m:
                raise ParseError(f"bad factor {factor!r} in {text!r}")
            if m.group("num") is not None:
                coeff *= Fraction(m.group("num"))
            else:
                name = m.group("var")
                power = int(m.group("pow") or 1)
                exp[ring.index(name)] += power
        key = tuple(exp)
        terms[key] = terms.get(key, 0) + coeff
    return Polynomial(ring, terms)


# -- gcd -------------------------------------------------------------------------


def _from_dense(coeffs: list[Polynomial], main: str, ring: PolynomialRing) -> Polynomial:
    """Inverse of ``coefficients_in``: sum of coeffs[k] * main^k."""
    i = ring.index(main)
    terms: dict[tuple[int, ...], Fraction] = {}
    for k, c in enumerate(coeffs):
        for exp, coeff in c.terms.items():
            key = exp[:i] + (exp[i] + k,) + exp[i + 1 :]
            terms[key] = terms.get(key, 0) + coeff
    return Polynomial(ring, terms)


def _pseudo_remainder(
    f_coeffs: list[Polynomial], g_coeffs: list[Polynomial]
) -> list[Polynomial]:
    """Pseudo-remainder of dense univariate views with polynomial coefficients.

    Classical premultiplication-free form: each step replaces R by
    lc(g)*R - lead(R)*x^shift*g, which stays in the polynomial ring.  The
    result therefore differs from the textbook lc(g)^k * (f mod g) by a
    power of lc(g) only, which is harmless inside a primitive sequence.
    """
    f = list(f_coeffs)
    dg = len(g_coeffs) - 1
    lc_g = g_coeffs[-1]
    while True:
        while f and f[-1].is_zero():
            f.pop()
        df = len(f) - 1
        if df < dg or not f:
            return f
        lead = f[-1]
        f = [c * lc_g for c in f[:-1]]
        shift = df - dg
        for k in range(dg):
            f[shift + k] = f[shift + k] - lead * g_coeffs[k]


def _coefficient_content(coeffs: Iterable[Polynomial], ring: PolynomialRing) -> Polynomial:
    g = ring.zero()
    for c in coeffs:
        if c.is_zero():
            continue
        g = poly_gcd(g, c)
        if g.is_constant() and not g.is_zero():
            return ring.one()
    return g


def poly_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Multivariate gcd via a primitive pseudo-remainder sequence.

    Result has rational content 1 and positive leading coefficient;
    gcd(0, g) is the normalized g; gcd of two nonzero constants is 1.
    """
    if f.ring != g.ring:
        raise RingMismatchError("gcd of polynomials from different rings")
    ring = f.ring
    if f.is_zero():
        return g.primitive()
    if g.is_zero():
        return f.primitive()
    if f.is_constant() or g.is_constant():
        return ring.one()
    used_f, used_g = set(f.variables_used()), set(g.variables_used())
    # a variable only one side uses goes first: the free branch peels it off
    main = next(v for v in ring.vars if v in ((used_f ^ used_g) or used_f))
    if f.degree(main) == 0 or g.degree(main) == 0:
        # The gcd is free of the main variable: it divides the side without it
        # and the coefficient-content of the other side.
        free, other = (f, g) if f.degree(main) == 0 else (g, f)
        return poly_gcd(free, _coefficient_content(other.coefficients_in(main), ring))

    cont_f = _coefficient_content(f.coefficients_in(main), ring)
    cont_g = _coefficient_content(g.coefficients_in(main), ring)
    cont = poly_gcd(cont_f, cont_g)
    a = f.exact_div(cont_f).primitive()
    b = g.exact_div(cont_g).primitive()
    if a.degree(main) < b.degree(main):
        a, b = b, a
    while True:
        if b.degree(main) == 0:
            # Primitive and coprime in the main variable.
            pp = ring.one()
            break
        rem = _pseudo_remainder(a.coefficients_in(main), b.coefficients_in(main))
        if not rem:
            pp = b
            break
        r = _from_dense(rem, main, ring).primitive()
        r_cont = _coefficient_content(r.coefficients_in(main), ring)
        if not r_cont.is_constant():
            r = r.exact_div(r_cont)
        a, b = b, r
    return (pp * cont).primitive()


# -- univariate gcd degree modulo a prime ------------------------------------------

MODULUS = 2**61 - 1  # a Mersenne prime


def residue(value: Fraction) -> int | None:
    """``value`` mod MODULUS; None when MODULUS divides its denominator."""
    den = value.denominator % MODULUS
    if not den:
        return None
    return value.numerator * pow(den, -1, MODULUS) % MODULUS


def residues(p: Polynomial) -> dict[tuple[int, ...], int] | None:
    """The terms of ``p`` with their coefficients mod MODULUS, or None when
    MODULUS divides a denominator.  Zero residues are kept, so every degree
    read from the result is the degree of ``p``."""
    out = {}
    for exp, coeff in p.terms.items():
        r = residue(coeff)
        if r is None:
            return None
        out[exp] = r
    return out


def dense_mod_p(
    terms: Mapping[tuple[int, ...], int],
    ring: PolynomialRing,
    main: str,
    values: Mapping[str, int],
) -> list[int]:
    """Dense coefficient list [c_0, ..., c_d] in ``main`` of residue ``terms``
    (as from ``residues``), every other ring variable set to its residue in
    ``values``; d is the degree of ``terms`` in ``main``, so c_d may be 0."""
    i = ring.index(main)
    others = [(j, values[var]) for j, var in enumerate(ring.vars) if j != i]
    dense = [0] * (max((exp[i] for exp in terms), default=-1) + 1)
    for exp, coeff in terms.items():
        for j, x in others:
            if exp[j]:
                coeff = coeff * pow(x, exp[j], MODULUS) % MODULUS
        dense[exp[i]] = (dense[exp[i]] + coeff) % MODULUS
    return dense


def _trim(coeffs: list[int]) -> list[int]:
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def gcd_degree_mod_p(f: Sequence[int], g: Sequence[int]) -> int:
    """Degree of gcd(f, g) over GF(MODULUS) for dense residue lists (constant
    term first), by the Euclidean algorithm; -1 when both are zero."""
    a, b = _trim(list(f)), _trim(list(g))
    while b:
        inv = pow(b[-1], -1, MODULUS)
        while len(a) >= len(b):
            q = a.pop() * inv % MODULUS
            shift = len(a) - len(b) + 1
            for k, c in enumerate(b[:-1]):
                a[shift + k] = (a[shift + k] - q * c) % MODULUS
            _trim(a)
        a, b = b, a
    return len(a) - 1


class RationalFunction:
    """Quotient of polynomials, kept as the parts ``num`` and ``den`` as formed.

    Arithmetic cross-multiplies and cancels nothing.  ``reduced()`` gives the
    normal form, which ``render`` and ``__hash__`` read; no other read needs a gcd.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial | None = None):
        if den is None:
            den = num.ring.one()
        if num.ring != den.ring:
            raise RingMismatchError("rational function parts from different rings")
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            den = num.ring.one()
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *_):  # pragma: no cover - guard
        raise AttributeError("RationalFunction is immutable")

    def reduced(self) -> tuple[Polynomial, Polynomial]:
        """Normal form (num, den): coprime, den primitive with positive leading coefficient."""
        num, den = self.num, self.den
        g = poly_gcd(num, den)
        if not g.is_constant():
            num = num.exact_div(g)
            den = den.exact_div(g)
        inv = 1 / _signed_content(den)
        return num.scale(inv), den.scale(inv)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        # den divides num exactly when the reduced denominator is constant
        return self.den.divides(self.num)

    def as_polynomial(self) -> Polynomial:
        try:
            return self.num.exact_div(self.den)
        except ExactDivisionError:
            raise ValueError(f"not a polynomial: {self.render()}") from None

    def _coerce(self, other) -> "RationalFunction":
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, Polynomial):
            return RationalFunction(other)
        return RationalFunction(self.num.ring.const(other))

    def __add__(self, other):
        other = self._coerce(other)
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __radd__(self, other):
        return self + other

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        return RationalFunction(self.num * other.num, self.den * other.den)

    def __rmul__(self, other):
        return self * other

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Polynomial)):
            other = self._coerce(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return (self.num * other.den) == (other.num * self.den)

    def __hash__(self):
        return hash(self.reduced())

    def render(self) -> str:
        num, den = self.reduced()
        if den.is_constant():
            return num.render()
        return f"({num.render()}) / ({den.render()})"

    def __repr__(self):
        return f"<RationalFunction {self.render()}>"

