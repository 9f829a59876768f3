"""Conversions linking infinitesimal-valued measures to lexicographic
systems and conditional-probability spaces.

The embedding direction weights the levels of a lexicographic system with
the fixed schedule ``1 - eps - ... - eps^k, eps, ..., eps^k``.  The inverse
direction peels standard parts off the measure: at each step the residual
is rescaled by its largest entry, the new standard layer is extracted, any
negative layer is repaired by adding enough of the earlier layers and
renormalizing, and the loop stops when the residual vanishes.  The result
is an exact decomposition ``nu = sum(eps_i * mu_i)`` whose coefficients are
positive, sum to one, and fall infinitely fast (consecutive ratios have
standard part zero), which is precisely the condition under which the
measure and the system order all random variables identically.

Two equivalence relations are decided here: the fine one (identical
orderings of all random variables, decided through the decompositions and
certified), and the coarse one (same zero events and same standard parts
of all conditional probabilities, decided by exhaustive event enumeration,
meant for at most 16 atoms).
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
    """Split the mass vector into standard layers with fast-falling scales."""
    layers = []
    scales = []
    current = list(nu.mass)
    scale = ONE
    for _ in range(nu.algebra.n_atoms + 1):
        std = [m.standard_part() for m in current]
        layers.append(std)
        scales.append(scale)
        residual = [m - NonstdNumber.from_fraction(s) for m, s in zip(current, std)]
        step = max((abs(r) for r in residual), default=ZERO)
        if step.is_zero:
            break
        current = [r / step for r in residual]
        scale = scale * step
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


def nps_equiv_simeq(a: NonstdMeasure, b: NonstdMeasure) -> bool:
    """Coarse equivalence: infinitesimal differences between conditionals
    do not count.  Decided as equality of the conditional-space images."""
    _check_same_algebra(a, b)
    return nps_to_popper(a) == nps_to_popper(b)


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
        ratio = late / early
        if not ratio.is_limited or ratio.standard_part() != 0:
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
