"""Conversions linking infinitesimal-valued measures to lexicographic
systems and conditional-probability spaces.

The embedding direction weights the levels of a lexicographic system with
the fixed schedule ``1 - eps - ... - eps^k, eps, ..., eps^k``.  The inverse
direction peels standard parts off the measure: at each step the new
standard layer is the standard part of the residual relative to its largest
entry, any negative layer is repaired by adding enough of the earlier
layers and renormalizing, and the loop stops when the residual vanishes.
The result is an exact decomposition ``nu = sum(eps_i * mu_i)`` whose coefficients are
positive, sum to one, and fall infinitely fast (consecutive ratios have
standard part zero), which is precisely the condition under which the
measure and the system order all random variables identically.

Both directions, and the conditional-space image, work on polynomial
numerators over one positive common denominator ``D``: the product of the
distinct canonical denominators of the masses (or coefficients), which is
``1`` whenever they are polynomials.  Sums, rational multiples and
comparisons are then polynomial operations with no gcd, a standard part
of a ratio is read off the numerators' lowest-order terms, and each field
element is built once, at the end, from its numerator over ``D``.  The
repair of a negative layer keeps a running cushion, the sum of the layers
kept so far, updated once per level.  Layers stay integer rows over an
integer: the repair compares ratios by cross-multiplication, each layer
becomes a measure through its integer row, and the weighted sum weights
each level's integers.

Two equivalence relations are decided here: the fine one (identical
orderings of all random variables, decided through the decompositions and
certified), and the coarse one (same zero events and same standard parts
of all conditional probabilities, decided on the events of one or two
atoms).  A pair of masses of one sign cannot cancel, so the standard part
of a pair conditional is read off their lowest-order terms, without
forming the sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import AlgebraMismatchError, LengthMismatchError
from .field import (
    _P_ONE,
    _P_ZERO,
    NonstdNumber,
    ONE,
    _combination,
    _lowest_sign,
    eps_power,
    st_ratio,
)
from .lps import LPS, EquivCertificate, equivalence
from .popper import PopperSpace
from .spaces import NonstdMeasure, StdMeasure

_ZERO_F = Fraction(0)


def _over_one_denominator(values):
    """``(numerators, D)``: each canonical number in ``values`` as a
    polynomial numerator over D, the product of their distinct
    denominators (``_P_ONE`` when all of them are polynomials)."""
    dens = [d for d in dict.fromkeys(v.den for v in values) if d != _P_ONE]
    if not dens:
        return [v.num for v in values], _P_ONE
    cofactor = {_P_ONE: math.prod(dens, start=_P_ONE)}
    for k, d in enumerate(dens):
        cofactor[d] = math.prod(dens[:k] + dens[k + 1:], start=_P_ONE)
    return [
        v.num if cofactor[v.den] is _P_ONE else v.num * cofactor[v.den] for v in values
    ], cofactor[_P_ONE]


def _st_ratio_over(p, q, den) -> Fraction:
    """``st_ratio`` of ``p/den`` and ``q/den`` for numerators over one
    denominator, read off their lowest-order terms; ``q`` is nonzero."""
    if not p.coeffs:
        return _ZERO_F
    (ep, cp), (eq, cq) = p.coeffs[0], q.coeffs[0]
    if ep > eq:
        return _ZERO_F
    if ep < eq:
        # Unlimited: let st_ratio word the error on the two numbers.
        return st_ratio(NonstdNumber._make(p, den), NonstdNumber._make(q, den))
    return Fraction(cp * q.den, cq * p.den)


def _compose(lps: LPS, coefficients) -> NonstdMeasure:
    """The weighted sum ``sum(coefficients[i] * lps[i])``, atom by atom
    (ValueError when the lengths differ)."""
    coeffs = [NonstdNumber.coerce(c) for c, _ in zip(coefficients, lps.measures, strict=True)]
    numerators, den = _over_one_denominator(coeffs)
    # Level i is ints / s: its numerator is weighted by 1/s once, then by
    # the level's integer at each atom.
    levels = [
        (c._scaled(1, s), ints)
        for c, (ints, s) in zip(numerators, (m.int_row for m in lps.measures))
    ]
    return NonstdMeasure(lps.algebra, tuple(
        NonstdNumber._make(_combination([(c, ints[a]) for c, ints in levels if ints[a]]), den)
        for a in range(lps.algebra.n_atoms)
    ))


def lps_to_nps(lps: LPS) -> NonstdMeasure:
    """Weight level i by eps^i, the top level absorbing the remainder."""
    return _compose(lps, geometric_schedule(len(lps)))


@dataclass(frozen=True)
class Decomposition:
    """Exact layered form of a measure: ``sum(coefficients[i] * lps[i])``.

    Coefficients are positive, sum to one, and consecutive ratios are
    infinitesimal, so the layered system is equivalent to the source.
    """

    lps: LPS
    coefficients: tuple

    def recompose(self) -> NonstdMeasure:
        return _compose(self.lps, self.coefficients)


def _peel(residual, den, n_atoms):
    """The peel of :func:`_standard_layers` on the masses ``residual / den``:
    each layer an int row over a positive int, each scale a numerator
    over ``den`` (scale 0 is ``den`` itself, the number one).  A layer's
    entries at its scale's order are ratios of lowest-order coefficients,
    and the rest are zero."""
    layers = []
    scales = []
    scale = den
    for _ in range(n_atoms + 1):
        (order, lead), lead_den = scale.coeffs[0], scale.den
        leads = [r.coeffs[0][0] if r.coeffs else order + 1 for r in residual]
        for r, e in zip(residual, leads):
            if e < order:
                _st_ratio_over(r, scale, den)  # raises: the ratio is unlimited
        # c/d over lead/lead_den is c*lead_den*(m/d) over lead*m.
        m = math.lcm(*(r.den for r, e in zip(residual, leads) if e == order))
        row = [
            r.coeffs[0][1] * lead_den * (m // r.den) if e == order else 0
            for r, e in zip(residual, leads)
        ]
        row_den = lead * m
        g = math.gcd(row_den, *row)
        if g > 1:
            row = [x // g for x in row]
            row_den //= g
        layers.append((row, row_den))
        scales.append(scale)
        # The residual loses scale * row / row_den, one combination per atom.
        step = scale._scaled(1, row_den)
        residual = [_combination([(r, 1), (step, -x)]) if x else r for r, x in zip(residual, row)]
        scale = _P_ZERO
        for r in residual:
            if r.coeffs and r.coeffs[0][1] < 0:
                r = -r
            if _lowest_sign(r, scale) > 0:
                scale = r
        if scale.is_zero:
            break
    else:
        raise AssertionError("residual failed to vanish within the atom bound")
    return layers, scales


def _standard_layers(nu: NonstdMeasure):
    """Split the mass vector into standard layers with fast-falling scales.

    Returns ``(layers, scales)`` with ``nu.mass == sum(scales[k] * layers[k])``.
    The residual is kept unnormalised: layer k is the standard part of the
    residual relative to scale k, the largest residual entry (in absolute
    value) that layers 0 to k-1 leave, so each ratio is limited.  Peeling
    by division instead, which divides the residual by its largest entry
    at every step and takes plain standard parts, divides by exactly that
    entry over the previous scale; its running product of divisors is this
    scale, and its layers are these, as exact values.  The peel runs on
    the masses' numerators over one denominator and reads only
    lowest-order terms, so it forms no quotient and takes no gcd.
    """
    numerators, den = _over_one_denominator(nu.mass)
    layers, scales = _peel(numerators, den, nu.algebra.n_atoms)
    return (
        [[Fraction(x, d) for x in row] for row, d in layers],
        [NonstdNumber._make(s, den) for s in scales],
    )


def _shortfall(row, d, cushion, cushion_den):
    """``(p, q)`` in lowest terms with q > 0: the largest of 0 and the
    ratios ``(-x / d) / (c / cushion_den)`` over the negative entries x of
    ``row`` and their cushion entries c, the share of the cushion that
    repairs the layer ``row / d``.

    The ratios are compared by integer cross-multiplication, each over a
    positive denominator.  A negative entry over a zero cushion entry
    raises the ``ZeroDivisionError`` its ``Fraction`` ratio raises.
    """
    p, q = 0, 1
    for x, c in zip(row, cushion):
        if x < 0:
            if not c:
                Fraction(-x, d) / 0  # raises ZeroDivisionError
            num, den = -x * cushion_den, d * c
            if den < 0:
                num, den = -num, -den
            if num * q > p * den:
                p, q = num, den
    g = math.gcd(p, q)
    return p // g, q // g


def nps_to_lps(nu: NonstdMeasure) -> Decomposition:
    """Exact decomposition of a measure into weighted standard layers.

    Layers are int rows over an int and coefficients are numerators over
    the masses' common denominator until the end.  ``cushion / cushion_den``
    is the sum of the layers kept so far, the mass that a negative entry
    of the next layer borrows from.
    """
    numerators, den = _over_one_denominator(nu.mass)
    layers, scales = _peel(numerators, den, nu.algebra.n_atoms)
    cushion, cushion_den = layers[0]
    measures = [StdMeasure.from_int_row(nu.algebra, tuple(cushion), cushion_den)]
    coeffs = [scales[0]]
    for (row, d), scale in zip(layers[1:], scales[1:]):
        # Repair negative entries with earlier layers, then renormalize.
        p, q = _shortfall(row, d, cushion, cushion_den)
        if p:
            row = [x * q * cushion_den + p * c * d for x, c in zip(row, cushion)]
            d *= q * cushion_den
            coeffs = [c + scale._scaled(-p, q) for c in coeffs]
        t = sum(row)
        if not t:
            Fraction(row[0], d) / 0  # raises ZeroDivisionError
        measures.append(StdMeasure.from_int_row(nu.algebra, tuple(row), t))
        cushion = [c * t + x * cushion_den for c, x in zip(cushion, row)]
        cushion_den *= t
        g = math.gcd(cushion_den, *cushion)
        if g > 1:
            cushion = [c // g for c in cushion]
            cushion_den //= g
        g = math.gcd(t, d) if d > 0 else -math.gcd(t, d)
        coeffs.append(scale._scaled(t // g, d // g))
    return Decomposition(
        LPS(nu.algebra, tuple(measures)),
        tuple(NonstdNumber._make(c, den) for c in coeffs),
    )


def nps_to_popper(nu: NonstdMeasure) -> PopperSpace:
    """Condition on every event of nonzero measure and keep standard parts.

    Event masses are numerators over the masses' common denominator, each
    the mass of the event less its largest atom (listed before it) plus
    that atom's.
    """
    numerators, den = _over_one_denominator(nu.mass)
    n = nu.algebra.n_atoms
    sums = {frozenset(): _P_ZERO}
    table = {}
    for ev in nu.algebra.events():
        top = max(ev)
        total = sums[ev] = sums[ev - {top}] + numerators[top]
        if total.is_zero:
            continue
        row = tuple(
            _st_ratio_over(numerators[a], total, den) if a in ev else _ZERO_F
            for a in range(n)
        )
        table[ev] = StdMeasure(nu.algebra, row)
    return PopperSpace(nu.algebra, tuple(table), table)


def _check_same_algebra(a: NonstdMeasure, b: NonstdMeasure):
    if a.algebra != b.algebra:
        raise AlgebraMismatchError("measures live on different algebras")


def _pair_standard_part(nu: NonstdMeasure, i: int, j: int):
    """Standard part of nu({i} | {i, j}), or None when {i, j} has mass zero.

    Masses of one sign cannot cancel: the sum's lowest-order term is that
    of the mass of lower order, or the two coefficients added at a shared
    order, so the standard part is 1, 0 or ``c_i / (c_i + c_j)``.  Masses
    of opposite signs are summed.
    """
    x, y = nu.mass[i], nu.mass[j]
    if not y.num.coeffs:
        return None if not x.num.coeffs else 1
    if not x.num.coeffs:
        return 0
    (ex, cx), (ey, cy) = x.num.coeffs[0], y.num.coeffs[0]
    if (cx > 0) != (cy > 0):
        total = x + y
        return None if total.is_zero else st_ratio(x, total)
    # A canonical denominator's lowest-order coefficient is 1.
    ox, oy = ex - x.den.coeffs[0][0], ey - y.den.coeffs[0][0]
    if ox != oy:
        return 1 if ox < oy else 0
    cx *= y.num.den
    return Fraction(cx, cx + cy * x.num.den)


def nps_equiv_simeq(a: NonstdMeasure, b: NonstdMeasure) -> bool:
    """Coarse equivalence: infinitesimal differences between conditionals
    do not count.

    True iff the conditional-space images agree: the same events have
    measure zero and every conditional has the same standard part.  For
    measures with nonnegative masses (which this requires) the events of
    one or two atoms decide it.  An event's mass is then zero exactly when
    each of its atoms has mass zero, and its order is the least order of
    its atoms, so the standard part of mu({a} | v) is zero for an atom
    above that order and otherwise the lowest-order coefficient of a over
    the sum of those coefficients across the atoms of v at that order.  The
    pair conditionals st(mu({i} | {i, j})) are 1, 0 or strictly between as
    i has lower, higher or the same order as j, and in the last case they
    fix c_i / c_j; so they fix every conditional standard part.  Events are
    visited in ``events()`` order, each singleton before the pairs it
    opens, and the first that differs decides.
    """
    _check_same_algebra(a, b)
    n = a.algebra.n_atoms
    for i in range(n):
        if a.mass[i].is_zero != b.mass[i].is_zero:
            return False
        for j in range(i + 1, n):
            if _pair_standard_part(a, i, j) != _pair_standard_part(b, i, j):
                return False
    return True


def nps_equiv_aeq(a: NonstdMeasure, b: NonstdMeasure) -> EquivCertificate:
    """Fine equivalence, decided on the layered decompositions."""
    _check_same_algebra(a, b)
    return equivalence(nps_to_lps(a).lps, nps_to_lps(b).lps)


def nps_equiv(a: NonstdMeasure, b: NonstdMeasure, relation: str):
    if relation == "simeq":
        return nps_equiv_simeq(a, b)
    if relation == "aeq":
        return nps_equiv_aeq(a, b)
    raise ValueError(f"unknown relation {relation!r}")


def verify_aeqchar(lps: LPS, coefficients) -> bool:
    """Check that a coefficient schedule equivalently embeds a system.

    True iff the coefficients are positive, sum to one and fall infinitely
    fast (each order strictly above the one before).  The weighted sum
    ``nu = sum(c_i * lps[i])`` then orders every pair of random variables
    as the system does, so that is not re-checked.  For x and y let d_i be
    the difference of their expectations under level i, so that
    ``E_nu(x) - E_nu(y) = sum(c_i * d_i)``.  If every d_i is zero, so is
    the sum.  Otherwise let k be the first level with d_k nonzero; the sum
    is ``c_k * (d_k + sum(c_i / c_k * d_i for i > k))``, each c_i / c_k with
    i > k is infinitesimal and each d_i standard, so the bracket, and the
    sum with it, has the sign of d_k.  This is the paper's embedding of a
    finite lexicographic system as an equivalent infinitesimal measure.
    """
    coeffs = tuple(NonstdNumber.coerce(c) for c in coefficients)
    if len(coeffs) != len(lps):
        raise LengthMismatchError(
            f"{len(coeffs)} coefficients for {len(lps)} measures"
        )
    if any(c.sign() <= 0 for c in coeffs):
        return False
    numerators, den = _over_one_denominator(coeffs)
    if sum(numerators, _P_ZERO) != den:
        return False
    # All are positive, so late / early is infinitesimal iff its order is.
    return all(late.order() > early.order() for early, late in zip(coeffs, coeffs[1:]))


def geometric_schedule(length: int) -> tuple:
    """The fixed embedding schedule: 1 - eps - ... - eps^k, eps, ..., eps^k."""
    head = ONE
    for i in range(1, length):
        head = head - eps_power(i)
    return (head,) + tuple(eps_power(i) for i in range(1, length))


def steep_schedule(length: int) -> tuple:
    """Alternative admissible schedule: eps^2, 2 eps^3, 3 eps^4, ..."""
    tail = [NonstdNumber.from_fraction(i) * eps_power(i + 1) for i in range(1, length)]
    head = ONE
    for t in tail:
        head = head - t
    return (head,) + tuple(tail)
