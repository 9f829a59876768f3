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

Two equivalence relations are decided here: the fine one (identical
orderings of all random variables, decided through the decompositions and
certified), and the coarse one (same zero events and same standard parts
of all conditional probabilities, decided on the events of one or two
atoms).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import AlgebraMismatchError, LengthMismatchError
from .field import NonstdNumber, ONE, ZERO, eps_power, st_ratio
from .lps import LPS, EquivCertificate, equivalence
from .popper import PopperSpace
from .spaces import NonstdMeasure, StdMeasure


def _compose(lps: LPS, coefficients) -> NonstdMeasure:
    """The weighted sum ``sum(coefficients[i] * lps[i])``, atom by atom."""
    masses = tuple(
        sum((c * m.mass[a] for c, m in zip(coefficients, lps.measures, strict=True)), ZERO)
        for a in range(lps.algebra.n_atoms)
    )
    return NonstdMeasure(lps.algebra, masses)


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


def _standard_layers(nu: NonstdMeasure):
    """Split the mass vector into standard layers with fast-falling scales.

    Returns ``(layers, scales)`` with ``nu.mass == sum(scales[k] * layers[k])``.
    The residual is kept unnormalised: layer k is the standard part of the
    residual relative to scale k, the largest residual entry (in absolute
    value) that layers 0 to k-1 leave, so each ratio is limited.  Peeling
    by division instead, which divides the residual by its largest entry
    at every step and takes plain standard parts, divides by exactly that
    entry over the previous scale; its running product of divisors is this
    scale, and its layers are these, as exact values.  ``st_ratio`` reads
    only lowest-order terms and forms no quotient, so polynomial masses
    need no gcd at all.
    """
    layers = []
    scales = []
    residual = list(nu.mass)
    scale = ONE
    for _ in range(nu.algebra.n_atoms + 1):
        layer = [st_ratio(r, scale) for r in residual]
        layers.append(layer)
        scales.append(scale)
        residual = [r - scale * s for r, s in zip(residual, layer)]
        scale = max((abs(r) for r in residual), default=ZERO)
        if scale.is_zero:
            break
    else:
        raise AssertionError("residual failed to vanish within the atom bound")
    return layers, scales


def nps_to_lps(nu: NonstdMeasure) -> Decomposition:
    """Exact decomposition of a measure into weighted standard layers."""
    layers, scales = _standard_layers(nu)
    measures = [StdMeasure(nu.algebra, tuple(layers[0]))]
    coeffs = [scales[0]]
    for m in range(1, len(layers)):
        layer = layers[m]
        scale = scales[m]
        # Repair negative entries with earlier layers, then renormalize.
        shortfall = Fraction(0)
        for i, value in enumerate(layer):
            if value < 0:
                cushion = sum((mu.mass[i] for mu in measures), Fraction(0))
                shortfall = max(shortfall, -value / cushion)
        if shortfall:
            layer = [
                value + shortfall * sum((mu.mass[i] for mu in measures), Fraction(0))
                for i, value in enumerate(layer)
            ]
            coeffs = [c - shortfall * scale for c in coeffs]
        total = sum(layer, Fraction(0))
        measures.append(StdMeasure(nu.algebra, tuple(v / total for v in layer)))
        coeffs.append(scale * total)
    return Decomposition(LPS(nu.algebra, tuple(measures)), tuple(coeffs))


def nps_to_popper(nu: NonstdMeasure) -> PopperSpace:
    """Condition on every event of nonzero measure and keep standard parts."""
    table = {}
    zero = Fraction(0)
    for ev in nu.algebra.events():
        total = nu.event_mass(ev)
        if total.is_zero:
            continue
        row = tuple(
            st_ratio(nu.mass[a], total) if a in ev else zero
            for a in range(nu.algebra.n_atoms)
        )
        table[ev] = StdMeasure(nu.algebra, row)
    return PopperSpace(nu.algebra, tuple(table), table)


def _check_same_algebra(a: NonstdMeasure, b: NonstdMeasure):
    if a.algebra != b.algebra:
        raise AlgebraMismatchError("measures live on different algebras")


def _pair_standard_part(nu: NonstdMeasure, i: int, j: int):
    """Standard part of nu({i} | {i, j}), or None when {i, j} has mass zero."""
    total = nu.mass[i] + nu.mass[j]
    return None if total.is_zero else st_ratio(nu.mass[i], total)


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

    True iff the coefficients are positive, sum to one, consecutive ratios
    are infinitesimal, and the weighted sum is equivalent to the system.
    """
    coeffs = tuple(NonstdNumber.coerce(c) for c in coefficients)
    if len(coeffs) != len(lps):
        raise LengthMismatchError(
            f"{len(coeffs)} coefficients for {len(lps)} measures"
        )
    if any(c.sign() <= 0 for c in coeffs):
        return False
    if sum(coeffs, ZERO) != ONE:
        return False
    for early, late in zip(coeffs, coeffs[1:]):
        # Both are positive, so late / early is infinitesimal iff its order is.
        if late.order() <= early.order():
            return False
    return equivalence(nps_to_lps(_compose(lps, coeffs)).lps, lps).equivalent


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
