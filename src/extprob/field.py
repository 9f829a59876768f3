"""Exact arithmetic in the ordered field of rational functions of one infinitesimal.

Numbers are quotients ``num/den`` of polynomials in a formal symbol ``eps``
with rational coefficients.  ``eps`` is ordered as a positive infinitesimal:
a nonzero element is positive exactly when the coefficient of its
lowest-order term (after reduction) is positive, which is the germ ordering
at ``eps -> 0+``.  Every element has an exact inverse, so no series
truncation or precision policy is ever needed.

Canonical form, maintained by every operation:

- ``gcd(num, den) = 1`` as polynomials over the rationals,
- the lowest-order coefficient of ``den`` is ``1``,
- the zero element is ``0/1``.

Two numbers are equal iff their canonical representations are identical,
so ``==`` and ``hash`` are structural; a rational value hashes as its
``Fraction``, since it equals one.

A rational operand ``k`` (an ``int`` or ``Fraction``) keeps canonical form
without a gcd: ``k*num`` and ``num + k*den`` are still coprime to ``den``,
and ``den`` does not change.  Ordering is a sign read: canonical
denominators are positive, so ``compare`` looks at the lowest-order
coefficient of ``a.num*b.den - b.num*a.den`` and reduces no quotient.

>>> half = NonstdNumber.from_fraction(Fraction(1, 2))
>>> (half + EPS) + (half - EPS) == ONE
True
>>> (EPS * EPS) / EPS == EPS
True
>>> (ONE / (ONE - EPS)).standard_part()
Fraction(1, 1)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import UnlimitedError

_TermTuple = tuple[tuple[int, Fraction], ...]


def _accumulate(acc: dict, exp: int, coeff) -> None:
    """Add ``coeff`` to ``acc[exp]``, keeping no zero coefficient."""
    if exp in acc:
        c = acc[exp] + coeff
        if c:
            acc[exp] = c
        else:
            del acc[exp]
    elif coeff:
        acc[exp] = coeff


def _norm_terms(pairs) -> _TermTuple:
    combined: dict[int, Fraction] = {}
    for exp, coeff in pairs:
        _accumulate(combined, exp, coeff)
    return tuple(sorted(combined.items()))


@dataclass(frozen=True, slots=True)
class EpsPolynomial:
    """Polynomial in ``eps`` with rational coefficients.

    ``terms`` is a tuple of ``(exponent, coefficient)`` pairs with strictly
    increasing nonnegative exponents and no zero coefficients; the empty
    tuple is the zero polynomial.
    """

    terms: _TermTuple

    @classmethod
    def from_pairs(cls, pairs) -> "EpsPolynomial":
        terms = _norm_terms((int(e), Fraction(c)) for e, c in pairs)
        if terms and terms[0][0] < 0:
            raise ValueError("polynomial exponents must be nonnegative")
        return cls(terms)

    @classmethod
    def constant(cls, value) -> "EpsPolynomial":
        return cls.from_pairs([(0, Fraction(value))])

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def order(self):
        """Lowest exponent, or +inf for the zero polynomial."""
        return self.terms[0][0] if self.terms else math.inf

    def degree(self) -> int:
        if not self.terms:
            return -1
        return self.terms[-1][0]

    def trailing_coeff(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        return self.terms[0][1]

    def leading_coeff(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        return self.terms[-1][1]

    def __add__(self, other: "EpsPolynomial") -> "EpsPolynomial":
        return EpsPolynomial(_norm_terms(self.terms + other.terms))

    def __sub__(self, other: "EpsPolynomial") -> "EpsPolynomial":
        return self + (-other)

    def __neg__(self) -> "EpsPolynomial":
        return EpsPolynomial(tuple((e, -c) for e, c in self.terms))

    def __mul__(self, other: "EpsPolynomial") -> "EpsPolynomial":
        if not self.terms or not other.terms:
            return _P_ZERO
        acc: dict[int, Fraction] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                _accumulate(acc, e1 + e2, c1 * c2)
        return EpsPolynomial(tuple(sorted(acc.items())))

    def scale(self, k: Fraction) -> "EpsPolynomial":
        if k == 0:
            return _P_ZERO
        return EpsPolynomial(tuple((e, c * k) for e, c in self.terms))

    def shift(self, k: int) -> "EpsPolynomial":
        """Multiply by eps**k (k may be negative if no exponent drops below 0)."""
        terms = tuple((e + k, c) for e, c in self.terms)
        if terms and terms[0][0] < 0:
            raise ValueError("shift would create negative exponents")
        return EpsPolynomial(terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for i, (e, c) in enumerate(self.terms):
            if e == 0:
                body = str(c)
            else:
                mag = "eps" if e == 1 else f"eps^{e}"
                if c == 1:
                    body = mag
                elif c == -1:
                    body = f"-{mag}"
                else:
                    body = f"{c}*{mag}"
            if i == 0:
                parts.append(body)
            elif body.startswith("-"):
                parts.append(f" - {body[1:]}")
            else:
                parts.append(f" + {body}")
        return "".join(parts)


_P_ZERO = EpsPolynomial(())
_P_ONE = EpsPolynomial(((0, Fraction(1)),))


def _poly_divmod(a: EpsPolynomial, b: EpsPolynomial):
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    rem = dict(a.terms)
    quo: dict[int, Fraction] = {}
    b_deg = b.degree()
    b_lead = b.leading_coeff()
    while rem:
        r_deg = max(rem)
        if r_deg < b_deg:
            break
        factor = rem[r_deg] / b_lead
        shift = r_deg - b_deg
        _accumulate(quo, shift, factor)
        factor = -factor
        for e, c in b.terms:
            _accumulate(rem, e + shift, factor * c)
    q = EpsPolynomial(tuple(sorted(quo.items())))
    r = EpsPolynomial(tuple(sorted(rem.items())))
    return q, r


def poly_gcd(a: EpsPolynomial, b: EpsPolynomial) -> EpsPolynomial:
    """Monic gcd over the rationals (leading coefficient 1)."""
    while not b.is_zero:
        a, b = b, _poly_divmod(a, b)[1]
    if a.is_zero:
        return _P_ZERO
    return a.scale(1 / a.leading_coeff())


NumberLike = Union["NonstdNumber", Fraction, int]


@dataclass(frozen=True, slots=True)
class NonstdNumber:
    """Element of the rational-function field, in canonical form.

    Construct through :meth:`from_fraction`, :meth:`from_terms`, the ``EPS``
    constant, or arithmetic; the raw constructor does not canonicalize.
    """

    num: EpsPolynomial
    den: EpsPolynomial

    @staticmethod
    def _make(num: EpsPolynomial, den: EpsPolynomial) -> "NonstdNumber":
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if num.is_zero:
            return ZERO
        if den == _P_ONE:
            return NonstdNumber(num, den)
        # Strip the common eps power first; it keeps the gcd cheap.
        k = min(num.order(), den.order())
        if k:
            num = num.shift(-k)
            den = den.shift(-k)
        g = poly_gcd(num, den)
        if g.degree() > 0:
            num = _poly_divmod(num, g)[0]
            den = _poly_divmod(den, g)[0]
        t = den.trailing_coeff()
        if t != 1:
            num = num.scale(1 / t)
            den = den.scale(1 / t)
        return NonstdNumber(num, den)

    @classmethod
    def from_fraction(cls, value) -> "NonstdNumber":
        q = Fraction(value)
        if q == 0:
            return ZERO
        return cls(EpsPolynomial.constant(q), _P_ONE)

    @classmethod
    def from_terms(cls, pairs) -> "NonstdNumber":
        """Number given by a plain polynomial, e.g. ``[(0, '1/2'), (1, 1)]``."""
        return cls._make(EpsPolynomial.from_pairs(pairs), _P_ONE)

    @classmethod
    def coerce(cls, value: NumberLike) -> "NonstdNumber":
        if isinstance(value, NonstdNumber):
            return value
        return cls.from_fraction(value)

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def _plus_rational(self, k) -> "NonstdNumber":
        """``self + k`` for an int or Fraction ``k``: ``(num + k*den)/den``,
        canonical as it stands since gcd(num + k*den, den) = gcd(num, den)
        (so a zero sum has ``den`` 1 and is ``ZERO``)."""
        return NonstdNumber(self.num + self.den.scale(k), self.den)

    def __add__(self, other: NumberLike) -> "NonstdNumber":
        if isinstance(other, (int, Fraction)):
            return self._plus_rational(other)
        o = NonstdNumber.coerce(other)
        if self.den == o.den:
            return NonstdNumber._make(self.num + o.num, self.den)
        return NonstdNumber._make(
            self.num * o.den + o.num * self.den, self.den * o.den
        )

    __radd__ = __add__

    def __sub__(self, other: NumberLike) -> "NonstdNumber":
        if isinstance(other, (int, Fraction)):
            return self._plus_rational(-other)
        return self + (-NonstdNumber.coerce(other))

    def __rsub__(self, other: NumberLike) -> "NonstdNumber":
        if isinstance(other, (int, Fraction)):
            return (-self)._plus_rational(other)
        return NonstdNumber.coerce(other) + (-self)

    def __neg__(self) -> "NonstdNumber":
        return NonstdNumber(-self.num, self.den)

    def __mul__(self, other: NumberLike) -> "NonstdNumber":
        if isinstance(other, (int, Fraction)):
            if not other:
                return ZERO
            # gcd(k*num, den) = gcd(num, den): still canonical.
            return NonstdNumber(self.num.scale(other), self.den)
        o = NonstdNumber.coerce(other)
        return NonstdNumber._make(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other: NumberLike) -> "NonstdNumber":
        o = NonstdNumber.coerce(other)
        if o.is_zero:
            raise ZeroDivisionError("division by zero")
        return NonstdNumber._make(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other: NumberLike) -> "NonstdNumber":
        return NonstdNumber.coerce(other) / self

    def __pow__(self, k: int) -> "NonstdNumber":
        if k < 0:
            return ONE / self ** (-k)
        out = ONE
        for _ in range(k):
            out = out * self
        return out

    def sign(self) -> int:
        """Sign under the germ ordering at eps -> 0+."""
        if self.num.is_zero:
            return 0
        return 1 if self.num.trailing_coeff() > 0 else -1

    def compare(self, other: NumberLike) -> int:
        """-1, 0, or 1 as self is below, equal to, or above other.

        Canonical denominators are positive (lowest-order coefficient 1),
        so the sign of ``self - other`` is the sign of its numerator over
        the product of the denominators; no quotient is reduced.
        """
        if isinstance(other, (int, Fraction)):
            diff = self._plus_rational(-other).num
        else:
            o = NonstdNumber.coerce(other)
            if self.den == o.den:
                diff = self.num - o.num
            else:
                diff = self.num * o.den - o.num * self.den
        if not diff.terms:
            return 0
        return 1 if diff.terms[0][1] > 0 else -1

    def __lt__(self, other: NumberLike) -> bool:
        return self.compare(other) < 0

    def __le__(self, other: NumberLike) -> bool:
        return self.compare(other) <= 0

    def __gt__(self, other: NumberLike) -> bool:
        return self.compare(other) > 0

    def __ge__(self, other: NumberLike) -> bool:
        return self.compare(other) >= 0

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = NonstdNumber.from_fraction(other)
        if not isinstance(other, NonstdNumber):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        # A rational value hashes as its Fraction, as ``__eq__`` demands.
        if self.den == _P_ONE and self.num.degree() <= 0:
            return hash(self.num.trailing_coeff())
        return hash((self.num.terms, self.den.terms))

    def __abs__(self) -> "NonstdNumber":
        return -self if self.sign() < 0 else self

    def order(self):
        """ord(num) - ord(den); +inf for zero.

        Positive order means infinitesimal, zero appreciable, negative
        unlimited.
        """
        if self.num.is_zero:
            return math.inf
        return self.num.order() - self.den.order()

    def classify(self) -> tuple:
        """Return ``(order, kind)`` with kind among zero, infinitesimal,
        appreciable, unlimited."""
        o = self.order()
        if o is math.inf:
            return (o, "zero")
        if o > 0:
            return (o, "infinitesimal")
        if o == 0:
            return (o, "appreciable")
        return (o, "unlimited")

    @property
    def is_limited(self) -> bool:
        return self.order() >= 0

    @property
    def is_infinitesimal(self) -> bool:
        return not self.num.is_zero and self.order() > 0

    def standard_part(self) -> Fraction:
        """The closest real number; raises UnlimitedError when none exists."""
        o = self.order()
        if o is math.inf or o > 0:
            return Fraction(0)
        if o < 0:
            raise UnlimitedError(f"{self} has no standard part")
        return self.num.trailing_coeff() / self.den.trailing_coeff()

    def __str__(self) -> str:
        if self.den == _P_ONE:
            return str(self.num)
        num = str(self.num)
        if len(self.num.terms) > 1:
            num = f"({num})"
        return f"{num}/({self.den})"

    def __repr__(self) -> str:
        return f"NonstdNumber({self})"


def st_ratio(a: "NonstdNumber", b: "NonstdNumber") -> Fraction:
    """Standard part of a/b without forming the quotient.

    Only the lowest-order terms matter, so this avoids the gcd work of an
    exact division.  Raises UnlimitedError when a/b is unlimited and
    ZeroDivisionError when b is zero.
    """
    if b.is_zero:
        raise ZeroDivisionError("division by zero")
    if a.is_zero:
        return Fraction(0)
    ord_a = a.num.order() - a.den.order()
    ord_b = b.num.order() - b.den.order()
    if ord_a > ord_b:
        return Fraction(0)
    if ord_a < ord_b:
        raise UnlimitedError(f"({a})/({b}) has no standard part")
    lead_a = a.num.trailing_coeff() / a.den.trailing_coeff()
    lead_b = b.num.trailing_coeff() / b.den.trailing_coeff()
    return lead_a / lead_b


ZERO = NonstdNumber(_P_ZERO, _P_ONE)
ONE = NonstdNumber(_P_ONE, _P_ONE)
EPS = NonstdNumber(EpsPolynomial(((1, Fraction(1)),)), _P_ONE)


def eps_power(k: int) -> NonstdNumber:
    """eps**k for any integer k (negative k gives an unlimited number)."""
    if k >= 0:
        return NonstdNumber(EpsPolynomial(((k, Fraction(1)),)), _P_ONE)
    return NonstdNumber(_P_ONE, EpsPolynomial(((-k, Fraction(1)),)))
