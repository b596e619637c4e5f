"""Exact-arithmetic sparse multivariate polynomials and rational functions.

The ring fixes an ordered tuple of variable names.  A polynomial stores its
integer image: one denominator ``den > 0`` over a map ``nums`` from exponent
vectors (tuples of non-negative ints, one slot per ring variable) to nonzero
``int`` numerators, with gcd(den, *nums) = 1; zero is (1, {}).  The form is
canonical, so ``==`` and ``hash`` read it directly.  ``terms`` is a view built
on each read, ``{exp: Fraction(num, den)}``.  The canonical term order is
graded lexicographic: higher total degree first, ties broken by the exponent
vector compared left to right (earlier ring variables are stronger).
Canonical text renders terms in descending order, e.g. ``-1/2*w212*E + 44*H^3``.

The arithmetic runs on the image: sums put both sides over the lcm of their
denominators, the inner loops of products and exact quotients multiply, add
and divide ``int``s, and ``_from_image`` reduces each result with one gcd.
A one-term operand takes a shorter path: a product by a monomial shifts the
other side's exponents, so no two products meet and nothing accumulates, and
an exact quotient by a monomial shifts them back, in one pass over the terms
(a negative exponent is a nonzero remainder).  Operations compare rings by
identity before they compare variable names.  ``Polynomial`` validates ``Fraction`` input and clears it once (``_cleared``).

Everything here is immutable after construction and safe to share.
"""

from __future__ import annotations

import math
import operator
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
        return _from_image(self, 1, {})

    def one(self) -> "Polynomial":
        return _from_image(self, 1, {(0,) * len(self.vars): 1})

    def const(self, value) -> "Polynomial":
        return Polynomial(self, {(0,) * len(self.vars): value})

    def var(self, name: str) -> "Polynomial":
        exp = [0] * len(self.vars)
        exp[self.index(name)] = 1
        return _from_image(self, 1, {tuple(exp): 1})

    def parse(self, text: str) -> "Polynomial":
        return parse_polynomial(self, text)


def _grlex_key(exp: tuple[int, ...]) -> tuple:
    return (sum(exp), exp)


def _cleared(terms: Mapping[tuple[int, ...], Fraction]) -> tuple[int, dict]:
    """(D, {exp: c * D}) with D the lcm of the coefficients' denominators."""
    den = math.lcm(*[c.denominator for c in terms.values()])
    return den, {e: c.numerator * (den // c.denominator) for e, c in terms.items()}


def _ratio(value) -> tuple[int, int]:
    """(p, q) with the rational ``value`` = p / q in lowest terms, q > 0."""
    q, image = _cleared({(): Fraction(value)})
    return image[()], q


def _signed_content(p: "Polynomial") -> tuple[int, dict]:
    """(g, B) with the numerators of a nonzero ``p`` equal to g * B: g their gcd
    signed as the leading one, B primitive with a positive leading coefficient."""
    nums = p.nums
    g = math.gcd(*nums.values())
    if nums[max(nums, key=_grlex_key)] < 0:
        g = -g
    return g, {e: c // g for e, c in nums.items()}


def fraction_text(q: Fraction | int) -> str:
    """``str(q)``, also past the int-to-str digit limit (left as is: it is process-wide)."""
    try:
        return str(q)
    except ValueError:
        num = _digits(q.numerator)
        return num if q.denominator == 1 else f"{num}/{_digits(q.denominator)}"


def _digits(k: int) -> str:
    """Decimal text of ``k``, joined from chunks below the digit limit."""
    if abs(k) < 10**4000:
        return str(k)
    high, low = divmod(abs(k), 10**4000)
    return ("-" if k < 0 else "") + _digits(high) + f"{low:04000d}"


class Polynomial:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("ring", "den", "nums")

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
        # reduced coefficients over the lcm of their denominators share no factor
        den, nums = _cleared(clean)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "nums", nums)

    def __setattr__(self, *_):  # pragma: no cover - guard
        raise AttributeError("Polynomial is immutable")

    @property
    def terms(self) -> dict[tuple[int, ...], Fraction]:
        """The coefficients as ``Fraction``s, built on each read."""
        return {e: Fraction(c, self.den) for e, c in self.nums.items()}

    # -- basic predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.nums

    def is_constant(self) -> bool:
        return all(sum(exp) == 0 for exp in self.nums)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return Fraction(next(iter(self.nums.values()), 0), self.den)

    # -- ring arithmetic ----------------------------------------------------

    def _check(self, other: "Polynomial") -> None:
        if self.ring is not other.ring and self.ring != other.ring:
            raise RingMismatchError(
                f"ring mismatch: {self.ring.vars} vs {other.ring.vars}"
            )

    def __add__(self, other):
        other = self._coerce(other)
        self._check(other)
        den = math.lcm(self.den, other.den)
        m1, m2 = den // self.den, den // other.den
        out = {e: c * m1 for e, c in self.nums.items()}
        for exp, coeff in other.nums.items():
            coeff *= m2
            if exp in out:
                coeff += out[exp]
                if not coeff:
                    del out[exp]
                    continue
            out[exp] = coeff
        return _from_image(self.ring, den, out)

    def __neg__(self):
        return _from_image(self.ring, self.den, {e: -c for e, c in self.nums.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._check(other)
        den = self.den * other.den
        add = operator.add
        # a one-term factor shifts the other's exponents: no two products meet
        if len(other.nums) == 1 or len(self.nums) == 1:
            many, one = (self, other) if len(other.nums) == 1 else (other, self)
            ((e2, c2),) = one.nums.items()
            return _from_image(self.ring, den, {tuple(map(add, e1, e2)): c1 * c2
                                                for e1, c1 in many.nums.items()})
        out: dict[tuple[int, ...], int] = {}
        get = out.get
        t2 = other.nums.items()
        for e1, c1 in self.nums.items():
            for e2, c2 in t2:
                exp = tuple(map(add, e1, e2))
                out[exp] = get(exp, 0) + c1 * c2
        return _from_image(self.ring, den, {e: c for e, c in out.items() if c})

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
        num, den = _ratio(value)
        if not num:
            return self.ring.zero()
        return _from_image(self.ring, self.den * den, {e: c * num for e, c in self.nums.items()})

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.den == other.den
            and self.nums == other.nums
        )

    def __hash__(self):
        return hash((self.ring, self.den, tuple(sorted(self.nums.items()))))

    # -- structure ----------------------------------------------------------

    def degree(self, var: str) -> int:
        """Degree in one variable; -1 for the zero polynomial."""
        if self.is_zero():
            return -1
        i = self.ring.index(var)
        return max(exp[i] for exp in self.nums)

    def total_degree(self) -> int:
        if self.is_zero():
            return -1
        return max(sum(exp) for exp in self.nums)

    def variables_used(self) -> tuple[str, ...]:
        used = {i for exp in self.nums for i, e in enumerate(exp) if e}
        return tuple(v for i, v in enumerate(self.ring.vars) if i in used)

    def leading(self) -> tuple[tuple[int, ...], Fraction]:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading term")
        exp = max(self.nums, key=_grlex_key)
        return exp, Fraction(self.nums[exp], self.den)

    def leading_coefficient(self) -> Fraction:
        return self.leading()[1]

    def coefficient(self, powers: Mapping[str, int]) -> Fraction:
        """Coefficient of the monomial with the given variable powers; 0 if absent."""
        exp = [0] * len(self.ring.vars)
        for var, power in powers.items():
            exp[self.ring.index(var)] = power
        return Fraction(self.nums.get(tuple(exp), 0), self.den)

    def support(self, variables: Sequence[str] | None = None) -> set[tuple[int, ...]]:
        """Exponent vectors of the terms, cut down to ``variables`` when given."""
        if variables is None:
            return set(self.nums)
        slots = [self.ring.index(var) for var in variables]
        return {tuple(exp[i] for i in slots) for exp in self.nums}

    def coefficients_in(self, var: str) -> list["Polynomial"]:
        """Dense coefficient list [c_0, ..., c_d] viewing self in ``var``."""
        i = self.ring.index(var)
        dense: list[dict] = [{} for _ in range(self.degree(var) + 1)]
        for exp, coeff in self.nums.items():
            dense[exp[i]][exp[:i] + (0,) + exp[i + 1 :]] = coeff
        return [_from_image(self.ring, self.den, nums) for nums in dense]

    def rewrite_product(self, var_a: str, var_b: str, value: "Polynomial") -> "Polynomial":
        """Replace every occurrence of the product ``var_a*var_b`` by ``value``.

        Every term of ``value`` must have joint degree at most one in the two
        variables.  Each pass then lowers the joint degree of every term that
        still holds the product, so the rewrite ends.
        """
        self._check(value)
        ia, ib = self.ring.index(var_a), self.ring.index(var_b)
        if any(exp[ia] + exp[ib] > 1 for exp in value.nums):
            raise DegreeError(
                f"replacement for {var_a}*{var_b} has joint degree above one: "
                f"{value.render()}"
            )
        current = self
        while True:
            # terms holding the product, with one var_a*var_b taken out
            lowered, rest = {}, {}
            for exp, coeff in current.nums.items():
                if exp[ia] and exp[ib]:
                    key = list(exp)
                    key[ia] -= 1
                    key[ib] -= 1
                    lowered[tuple(key)] = coeff
                else:
                    rest[exp] = coeff
            if not lowered:
                return current
            ring, den = self.ring, current.den
            current = _from_image(ring, den, rest) + _from_image(ring, den, lowered) * value

    # -- calculus / evaluation ----------------------------------------------

    def diff(self, var: str) -> "Polynomial":
        i = self.ring.index(var)
        # lowering one exponent is injective, so no two terms meet
        lowered = {exp[:i] + (exp[i] - 1,) + exp[i + 1 :]: coeff * exp[i]
                   for exp, coeff in self.nums.items() if exp[i]}
        return _from_image(self.ring, self.den, lowered)

    def substitute(self, var: str, value) -> "Polynomial":
        """Partial evaluation: replace one variable by a rational or polynomial."""
        if isinstance(value, Polynomial):
            self._check(value)
            out = self.ring.zero()
            for coeff in reversed(self.coefficients_in(var)):
                out = out * value + coeff
            return out
        i = self.ring.index(var)
        p, q = _ratio(value)
        # c * (p/q)^k over den is c * p^k * q^(top - k) over den * q^top
        top = max((exp[i] for exp in self.nums), default=0)
        p_pow, q_pow = [p**k for k in range(top + 1)], [q**k for k in range(top + 1)]
        nums: dict[tuple[int, ...], int] = {}
        for exp, coeff in self.nums.items():
            key, k = exp[:i] + (0,) + exp[i + 1 :], exp[i]
            nums[key] = nums.get(key, 0) + coeff * p_pow[k] * q_pow[top - k]
        return _from_image(self.ring, self.den * q_pow[top], {e: c for e, c in nums.items() if c})

    def restrict_ring(self, ring: PolynomialRing) -> "Polynomial":
        """Re-express in a smaller/other ring containing every used variable."""
        positions = [ring._index.get(var, -1) for var in self.ring.vars]
        out = {}
        width = len(ring.vars)
        for exp, coeff in self.nums.items():
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
        return _from_image(ring, self.den, out)

    # -- division / normalization --------------------------------------------

    def exact_div(self, divisor: "Polynomial") -> "Polynomial":
        """Exact division; raises ExactDivisionError if not divisible.

        Write self = A / d1 and divisor = g * B / d2 with A and B integral and
        B primitive.  By Gauss's lemma a product of primitive polynomials is
        primitive, so if A = B * Q over the rationals, Q = (c / d) * Q' with
        Q' primitive makes c / d the content of A, an integer: B divides A
        over Q only if A / B is integral.  The division therefore runs on
        integers, and a leading coefficient that lc(B) does not divide is a
        nonzero remainder.  The quotient is (A / B) * d2 / (d1 * g).
        """
        divisor = self._coerce(divisor)
        self._check(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        d2 = divisor.den
        add, sub = operator.add, operator.sub
        if len(divisor.nums) == 1:
            # a monomial g * x^d / d2 divides term by term: each exponent drops by d
            ((div_exp, g),) = divisor.nums.items()
            quotient = {tuple(map(sub, e, div_exp)): c * d2 for e, c in self.nums.items()}
            if any(min(e, default=0) < 0 for e in quotient):
                raise ExactDivisionError("division left a nonzero remainder")
            return _from_image(self.ring, self.den * g, quotient)
        remainder = dict(self.nums)
        g, b = _signed_content(divisor)
        div_exp = max(b, key=_grlex_key)
        div_coeff = b[div_exp]
        quotient = {}
        while remainder:
            exp = max(remainder, key=_grlex_key)
            q_exp = tuple(map(sub, exp, div_exp))
            q_coeff, rem = divmod(remainder[exp], div_coeff)
            if rem or min(q_exp) < 0:
                raise ExactDivisionError("division left a nonzero remainder")
            # the remainder's leading term falls at every step, so no
            # quotient monomial repeats
            quotient[q_exp] = q_coeff
            for d_exp, d_coeff in b.items():
                key = tuple(map(add, q_exp, d_exp))
                val = remainder.get(key, 0) - q_coeff * d_coeff
                if val:
                    remainder[key] = val
                else:
                    remainder.pop(key, None)
        return _from_image(self.ring, self.den * g, {e: q * d2 for e, q in quotient.items()})

    def __floordiv__(self, divisor):
        return self.exact_div(divisor)

    def content(self) -> Fraction:
        """Positive rational content (gcd of coefficients); 0 for zero."""
        return Fraction(math.gcd(*self.nums.values()), self.den)

    def primitive(self) -> "Polynomial":
        """Canonical primitive part: content 1, positive leading coefficient."""
        if self.is_zero():
            return self
        return _from_image(self.ring, 1, _signed_content(self)[1])

    # -- rendering ------------------------------------------------------------

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        return sorted(self.terms.items(), key=lambda kv: _grlex_key(kv[0]), reverse=True)

    def render(self) -> str:
        if self.is_zero():
            return "0"
        pieces = []
        for position, exp in enumerate(sorted(self.nums, key=_grlex_key, reverse=True)):
            mono = "*".join(
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(self.ring.vars, exp)
                if e
            )
            coeff = self.nums[exp]
            # |coeff| / den in lowest terms
            g = math.gcd(coeff, self.den)
            num, den = abs(coeff) // g, self.den // g
            mag = fraction_text(num) + ("" if den == 1 else f"/{fraction_text(den)}")
            if not mono:
                body = mag
            elif num == den == 1:
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


def _from_image(ring: PolynomialRing, den: int, nums: dict[tuple[int, ...], int]) -> Polynomial:
    """``nums`` / ``den`` in canonical form, by one gcd and a sign.  It trusts its
    input: exponent tuples of the ring's width to nonzero ints, ``den`` != 0."""
    g = math.gcd(den, *nums.values())
    if den < 0:
        g = -g
    if g != 1:
        den //= g
        nums = {e: c // g for e, c in nums.items()}
    p = object.__new__(Polynomial)
    object.__setattr__(p, "ring", ring)
    object.__setattr__(p, "den", den)
    object.__setattr__(p, "nums", nums)
    return p


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
    den = math.lcm(*(c.den for c in coeffs))
    nums: dict[tuple[int, ...], int] = {}
    for k, c in enumerate(coeffs):
        scale = den // c.den
        for exp, coeff in c.nums.items():
            key = exp[:i] + (exp[i] + k,) + exp[i + 1 :]
            nums[key] = nums.get(key, 0) + coeff * scale
    return _from_image(ring, den, {e: c for e, c in nums.items() if c})


def subresultant_prs(f: list, g: list) -> tuple[list, list, object, int]:
    """The subresultant pseudo-remainder sequence of f and g, to its end.

    Collins (J. ACM 14, 1967), Brown & Traub (J. ACM 18, 1971), as in Cohen,
    GTM 138, Alg. 3.3.1 and 3.3.7 without the content steps.  ``f`` and ``g``
    are descending coefficient lists, leading coefficients nonzero, with
    deg f >= deg g >= 1.  A step divides the pseudo-remainder
    lc(B)^(delta+1) * A mod B, delta = deg A - deg B, by lc(A) * h^delta; the
    division is exact, also for degree gaps of 2 or more, and bounds
    coefficient growth.  It uses only ``*``, ``-``, exact ``//`` and ``!= 0``,
    so it runs over ``int`` and over ``Polynomial`` alike.

    Returns (A, B, h, sign): B is the last nonzero member, constant exactly
    when f and g are coprime, A the member before it, h the final h, and
    sign the product of (-1)^(deg A * deg B) over the steps.  For constant B,
    Res(f, g) = sign * B[0]^deg A / h^(deg A - 1).
    """
    a, b = f, g
    m, n = len(a) - 1, len(b) - 1
    lead, h, sign = 1, 1, 1
    while n:
        delta = m - n
        if m & n & 1:
            sign = -sign
        # every one of the delta + 1 steps multiplies by lc(B), also past a
        # zero leading coefficient: the divisions need the exact power
        lc = b[0]
        r = list(a)
        for i in range(delta + 1):
            c = r[i]
            r[i + 1 :] = [lc * x - c * y for x, y in zip(r[i + 1 :], b[1:])] + [
                lc * x for x in r[i + n + 1 :]]
        r = r[delta + 1 :]
        top = next((i for i, c in enumerate(r) if c != 0), None)
        if top is None:
            break
        divisor = lead * h**delta
        a, m = b, n
        b = [c // divisor for c in r[top:]]
        n = len(b) - 1
        lead = a[0]
        if delta:
            h = lead**delta // h ** (delta - 1)
    return a, b, h, sign


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
    """Multivariate gcd by the subresultant PRS (``subresultant_prs``).

    Its divisions are exact and bound coefficient growth, so contents in the
    main variable are taken only before it and of its last member; the same
    PRS gives ``resultant``'s integer values.  Result has rational content 1
    and positive leading coefficient; gcd(0, g) is the normalized g; gcd of
    two nonzero constants is 1.
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
    a = f.exact_div(cont_f).primitive().coefficients_in(main)[::-1]
    b = g.exact_div(cont_g).primitive().coefficients_in(main)[::-1]
    if len(a) < len(b):
        a, b = b, a
    last = subresultant_prs(a, b)[1]
    if len(last) == 1:
        return cont  # coprime in the main variable
    pp = _from_dense(last[::-1], main, ring).exact_div(_coefficient_content(last, ring))
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
    if not p.den % MODULUS:
        return None
    inv = pow(p.den, -1, MODULUS)
    return {e: c * inv % MODULUS for e, c in p.nums.items()}


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
        prim = den.primitive()
        return num.scale(prim.leading_coefficient() / den.leading_coefficient()), prim

    def is_zero(self) -> bool:
        return self.num.is_zero()

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

