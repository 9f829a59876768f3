"""Exact arithmetic in the ordered field of rational functions of one infinitesimal.

Numbers are quotients ``num/den`` of polynomials in a formal symbol ``eps``
with rational coefficients.  ``eps`` is ordered as a positive infinitesimal:
a nonzero element is positive exactly when the coefficient of its
lowest-order term (after reduction) is positive, which is the germ ordering
at ``eps -> 0+``.  Every element has an exact inverse, so no series
truncation or precision policy is ever needed.

A polynomial holds its rational coefficients as integer numerators over
one positive denominator that shares no factor with all of them, so ``+``,
``*`` and ``scale`` run on ints and normalise with ``math.gcd``;
``terms`` reads the coefficients back as ``Fraction`` values.  The gcd of
two polynomials is a primitive remainder sequence over the integers
(Collins 1967; Brown 1971): each pseudo-remainder is divided by the gcd of
its coefficients, so no rational number is built.

Canonical form of a number, maintained by every operation:

- ``gcd(num, den) = 1`` as polynomials over the rationals,
- the lowest-order coefficient of ``den`` is ``1``,
- the zero element is ``0/1``.

Two numbers are equal iff their canonical representations are identical,
so ``==`` and ``hash`` are structural; a rational value hashes as its
``Fraction``, since it equals one.

A rational operand ``k`` (an ``int`` or ``Fraction``) keeps canonical form
without a polynomial gcd: ``k*num`` and ``num + k*den`` are still coprime to ``den``,
and ``den`` does not change.  Ordering is a sign read: canonical
denominators are positive, so ``compare`` walks ``a.num*b.den`` and
``b.num*a.den`` up to their first differing coefficient and reduces no
quotient.

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
_IntTerms = tuple[tuple[int, int], ...]


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


def _poly(acc: dict, den: int) -> "EpsPolynomial":
    """Canonical polynomial with the nonzero int numerators ``acc``
    (exponent to numerator) over the positive ``den``."""
    if not acc:
        return _P_ZERO
    if den != 1:
        g = math.gcd(den, *acc.values())
        if g != 1:
            return EpsPolynomial(tuple(sorted((e, c // g) for e, c in acc.items())), den // g)
    return EpsPolynomial(tuple(sorted(acc.items())), den)


@dataclass(frozen=True, slots=True)
class EpsPolynomial:
    """Polynomial in ``eps`` with rational coefficients.

    ``coeffs`` is a tuple of ``(exponent, numerator)`` pairs with strictly
    increasing nonnegative exponents and no zero numerator; coefficient
    ``c`` stands for ``c / den``.  ``den`` is positive and shares no factor
    with all the numerators.  The zero polynomial is ``((), 1)``.
    """

    coeffs: _IntTerms
    den: int = 1

    @classmethod
    def from_pairs(cls, pairs) -> "EpsPolynomial":
        terms = _norm_terms((int(e), c if type(c) is Fraction else Fraction(c)) for e, c in pairs)
        if terms and terms[0][0] < 0:
            raise ValueError("polynomial exponents must be nonnegative")
        # Over the lcm of the reduced denominators, no prime divides every
        # numerator: one coefficient carries its full power in the lcm.
        den = math.lcm(*(c.denominator for _, c in terms))
        return cls(tuple((e, c.numerator * (den // c.denominator)) for e, c in terms), den)

    @property
    def terms(self) -> _TermTuple:
        """``(exponent, coefficient)`` pairs with strictly increasing
        exponents and ``Fraction`` coefficients, none zero."""
        den = self.den
        return tuple((e, Fraction(c, den)) for e, c in self.coeffs)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def order(self):
        """Lowest exponent, or +inf for the zero polynomial."""
        return self.coeffs[0][0] if self.coeffs else math.inf

    def degree(self) -> int:
        if not self.coeffs:
            return -1
        return self.coeffs[-1][0]

    def trailing_coeff(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return Fraction(self.coeffs[0][1], self.den)

    def __add__(self, other: "EpsPolynomial") -> "EpsPolynomial":
        den, o_den = self.den, other.den
        if den == o_den:
            acc = dict(self.coeffs)
            for e, c in other.coeffs:
                _accumulate(acc, e, c)
        else:
            g = math.gcd(den, o_den)
            mine, theirs = o_den // g, den // g
            acc = {e: c * mine for e, c in self.coeffs}
            for e, c in other.coeffs:
                _accumulate(acc, e, c * theirs)
            den *= mine
        return _poly(acc, den)

    def __sub__(self, other: "EpsPolynomial") -> "EpsPolynomial":
        return self + (-other)

    def __neg__(self) -> "EpsPolynomial":
        return EpsPolynomial(tuple((e, -c) for e, c in self.coeffs), self.den)

    def __mul__(self, other: "EpsPolynomial") -> "EpsPolynomial":
        if not self.coeffs or not other.coeffs:
            return _P_ZERO
        acc: dict[int, int] = {}
        for e1, c1 in self.coeffs:
            for e2, c2 in other.coeffs:
                _accumulate(acc, e1 + e2, c1 * c2)
        return _poly(acc, self.den * other.den)

    def scale(self, k) -> "EpsPolynomial":
        """Multiply by the rational ``k`` (an ``int`` or ``Fraction``)."""
        return self._scaled(k.numerator, k.denominator)

    def _scaled(self, p: int, q: int) -> "EpsPolynomial":
        """Multiply by ``p/q``, with ``q`` positive and coprime to ``p``.

        Cancelling ``gcd(p, den)`` and the gcd of ``q`` with the numerators
        leaves the result canonical: each cancelled pair is coprime, and
        so were ``p`` and ``q``.
        """
        if not p or not self.coeffs:
            return _P_ZERO
        den = self.den
        g = math.gcd(p, den)
        if g != 1:
            p //= g
            den //= g
        if q != 1:
            h = math.gcd(q, *(c for _, c in self.coeffs))
            if h != 1:
                q //= h
                return EpsPolynomial(tuple((e, c // h * p) for e, c in self.coeffs), den * q)
            den *= q
        return EpsPolynomial(tuple((e, c * p) for e, c in self.coeffs), den)

    def shift(self, k: int) -> "EpsPolynomial":
        """Multiply by eps**k (k may be negative if no exponent drops below 0)."""
        coeffs = tuple((e + k, c) for e, c in self.coeffs)
        if coeffs and coeffs[0][0] < 0:
            raise ValueError("shift would create negative exponents")
        return EpsPolynomial(coeffs, self.den)

    def __str__(self) -> str:
        if not self.coeffs:
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
_P_ONE = EpsPolynomial(((0, 1),))


def _combination(pairs) -> EpsPolynomial:
    """``sum(k * p for p, k in pairs)`` for polynomials ``p`` and nonzero
    rationals ``k``: the int numerators are summed over the lcm of the
    ``p.den * k.denominator`` and normalised with one gcd."""
    den = math.lcm(*(p.den * k.denominator for p, k in pairs))
    acc: dict[int, int] = {}
    for p, k in pairs:
        m = k.numerator * (den // (p.den * k.denominator))
        for e, c in p.coeffs:
            _accumulate(acc, e, c * m)
    return _poly(acc, den)


def _primitive_part(coeffs) -> _IntTerms:
    """Int pairs divided by the gcd of their numerators, the sign chosen
    so the leading numerator is positive (empty stays empty)."""
    if not coeffs:
        return ()
    g = math.gcd(*(c for _, c in coeffs))
    if coeffs[-1][1] < 0:
        g = -g
    return tuple((e, c // g) for e, c in coeffs) if g != 1 else tuple(coeffs)


def _pseudo_remainder(a: _IntTerms, b: _IntTerms) -> _IntTerms:
    """Remainder of ``m*a`` on division by ``b`` over the integers, for
    some positive int ``m``; ``b`` is nonzero with a positive leading
    numerator.  Each step multiplies the remainder by only as much of the
    leading numerator of ``b`` as the exact cancellation needs."""
    b_deg, b_lead = b[-1]
    rem = dict(a)
    while rem:
        top = max(rem)
        if top < b_deg:
            break
        lead = rem[top]
        g = math.gcd(lead, b_lead)
        mul, factor = b_lead // g, lead // g
        if mul != 1:
            for e in rem:
                rem[e] *= mul
        shift = top - b_deg
        for e, c in b:
            _accumulate(rem, e + shift, -factor * c)
    return tuple(sorted(rem.items()))


def _divide_exactly(a: _IntTerms, g: _IntTerms) -> _IntTerms:
    """Quotient of the int pairs ``a`` by their factor ``g``.  ``g`` is
    primitive, so by Gauss's lemma the quotient has int numerators."""
    g_deg, g_lead = g[-1]
    rem = dict(a)
    quo = {}
    while rem:
        top = max(rem)
        factor = rem[top] // g_lead
        shift = top - g_deg
        quo[shift] = factor
        for e, c in g:
            _accumulate(rem, e + shift, -factor * c)
    return tuple(sorted(quo.items()))


def poly_gcd(a: EpsPolynomial, b: EpsPolynomial) -> EpsPolynomial:
    """Monic gcd over the rationals (leading coefficient 1).

    A primitive remainder sequence over the integers: the gcd of the
    numerators' primitive parts is the last nonzero primitive
    pseudo-remainder, and a primitive polynomial with positive leading
    numerator ``l`` is monic over the denominator ``l``.
    """
    x, y = _primitive_part(a.coeffs), _primitive_part(b.coeffs)
    while y:
        x, y = y, _primitive_part(_pseudo_remainder(x, y))
    if not x:
        return _P_ZERO
    return EpsPolynomial(x, x[-1][1])


NumberLike = Union["NonstdNumber", Fraction, int]


def _lowest_sign(p: EpsPolynomial, q: EpsPolynomial) -> int:
    """Sign of the lowest-order coefficient of ``p - q`` (0 when equal).

    Both denominators are positive, so at a shared exponent the sign of
    ``c/d - c'/d'`` is that of ``c*d' - c'*d``; the walk stops at the
    first exponent where the two differ and builds no polynomial.
    """
    a, b = p.coeffs, q.coeffs
    a_den, b_den = p.den, q.den
    i = j = 0
    while i < len(a) and j < len(b):
        (ea, ca), (eb, cb) = a[i], b[j]
        if ea < eb:
            return 1 if ca > 0 else -1
        if eb < ea:
            return -1 if cb > 0 else 1
        d = ca * b_den - cb * a_den
        if d:
            return 1 if d > 0 else -1
        i += 1
        j += 1
    if i < len(a):
        return 1 if a[i][1] > 0 else -1
    if j < len(b):
        return -1 if b[j][1] > 0 else 1
    return 0


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
        if den is _P_ONE or den == _P_ONE:
            return NonstdNumber(num, den)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if num.is_zero:
            return ZERO
        # Strip the common eps power first; it keeps the gcd cheap.
        k = min(num.order(), den.order())
        if k:
            num = num.shift(-k)
            den = den.shift(-k)
        g = poly_gcd(num, den)
        if g.degree() > 0:
            num = EpsPolynomial(_divide_exactly(num.coeffs, g.coeffs), num.den)
            den = EpsPolynomial(_divide_exactly(den.coeffs, g.coeffs), den.den)
        # Divide both by den's lowest-order coefficient t/d.
        t, d = den.coeffs[0][1], den.den
        if t != d:
            g = math.gcd(t, d) if t > 0 else -math.gcd(t, d)
            num = num._scaled(d // g, t // g)
            den = den._scaled(d // g, t // g)
        return NonstdNumber(num, den)

    @classmethod
    def from_fraction(cls, value) -> "NonstdNumber":
        q = Fraction(value)
        if q == 0:
            return ZERO
        return cls(EpsPolynomial(((0, q.numerator),), q.denominator), _P_ONE)

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
        return 1 if self.num.coeffs[0][1] > 0 else -1

    def compare(self, other: NumberLike) -> int:
        """-1, 0, or 1 as self is below, equal to, or above other.

        Canonical denominators are positive (lowest-order coefficient 1),
        so the sign of ``self - other`` is the sign of its numerator over
        the product of the denominators; no quotient is reduced.
        """
        if isinstance(other, (int, Fraction)):
            return _lowest_sign(self.num, self.den.scale(other))
        o = NonstdNumber.coerce(other)
        if self.den == o.den:
            return _lowest_sign(self.num, o.num)
        return _lowest_sign(self.num * o.den, o.num * self.den)

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
        return self.num.coeffs[0][0] - self.den.coeffs[0][0]

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
        """The closest real number; raises UnlimitedError when none exists.

        The lowest-order coefficient of a canonical ``den`` is 1, so an
        appreciable number's standard part is that of ``num``.
        """
        o = self.order()
        if o is math.inf or o > 0:
            return Fraction(0)
        if o < 0:
            raise UnlimitedError(f"{self} has no standard part")
        return self.num.trailing_coeff()

    def __str__(self) -> str:
        if self.den == _P_ONE:
            return str(self.num)
        num = str(self.num)
        if len(self.num.coeffs) > 1:
            num = f"({num})"
        return f"{num}/({self.den})"

    def __repr__(self) -> str:
        return f"NonstdNumber({self})"


def st_ratio(a: "NonstdNumber", b: "NonstdNumber") -> Fraction:
    """Standard part of a/b without forming the quotient.

    Only the lowest-order terms matter, so this avoids the gcd work of an
    exact division.  Canonical denominators have lowest-order coefficient
    1, so the ratio is that of the numerators' lowest-order coefficients,
    one ``Fraction`` built from ints.  Raises UnlimitedError when a/b is
    unlimited and ZeroDivisionError when b is zero.
    """
    if b.num.is_zero:
        raise ZeroDivisionError("division by zero")
    if a.num.is_zero:
        return Fraction(0)
    (exp_a, c_a), (exp_b, c_b) = a.num.coeffs[0], b.num.coeffs[0]
    ord_a = exp_a - a.den.coeffs[0][0]
    ord_b = exp_b - b.den.coeffs[0][0]
    if ord_a > ord_b:
        return Fraction(0)
    if ord_a < ord_b:
        raise UnlimitedError(f"({a})/({b}) has no standard part")
    return Fraction(c_a * b.num.den, c_b * a.num.den)


ZERO = NonstdNumber(_P_ZERO, _P_ONE)
ONE = NonstdNumber(_P_ONE, _P_ONE)
EPS = NonstdNumber(EpsPolynomial(((1, 1),)), _P_ONE)


def eps_power(k: int) -> NonstdNumber:
    """eps**k for any integer k (negative k gives an unlimited number)."""
    if k >= 0:
        return NonstdNumber(EpsPolynomial(((k, 1),)), _P_ONE)
    return NonstdNumber(_P_ONE, EpsPolynomial(((-k, 1),)))
