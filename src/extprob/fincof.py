"""Closed-form conditional families on the finite/cofinite algebra of the
naturals, with sampled axiom checking.

Two conditional measures are provided: the counting family (conditionals on
finite sets are uniform, cofinite sets swamp finite ones) and the
max-dominant family (larger numbers are infinitely more likely).  Two
infinitesimal-valued set functions accompany them: the counting measure
``|U| * eps`` and the alternating-series measure whose atom masses are
``1/2 + eps, 1/4 - eps, 1/8 + eps/2, ...``.  Everything here is a closed
form; the axioms are checked on sampled instances, not proved.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ZeroConditioningError
from .field import EPS, NonstdNumber, ONE, st_ratio
from .spaces import ValidationReport

F = Fraction


@dataclass(frozen=True)
class FinCofEvent:
    """A finite or cofinite set of naturals, canonically encoded.

    ``support`` is the set itself when ``mode`` is finite, the complement's
    support when cofinite.
    """

    mode: str
    support: frozenset

    def __post_init__(self):
        if self.mode not in ("finite", "cofinite"):
            raise ValueError(f"bad mode {self.mode!r}")
        if type(self.support) is not frozenset:
            object.__setattr__(
                self, "support", frozenset(int(i) for i in self.support)
            )
        if self.support and min(self.support) < 0:
            raise ValueError("supports are sets of naturals")

    @classmethod
    def finite(cls, items) -> "FinCofEvent":
        return cls("finite", frozenset(items))

    @classmethod
    def cofinite(cls, excluded) -> "FinCofEvent":
        return cls("cofinite", frozenset(excluded))

    @property
    def is_finite(self) -> bool:
        return self.mode == "finite"

    @property
    def is_empty(self) -> bool:
        return self.is_finite and not self.support

    def complement(self) -> "FinCofEvent":
        return FinCofEvent(
            "cofinite" if self.is_finite else "finite", self.support
        )

    def intersect(self, other: "FinCofEvent") -> "FinCofEvent":
        if self.is_finite and other.is_finite:
            return FinCofEvent.finite(self.support & other.support)
        if self.is_finite:
            return FinCofEvent.finite(self.support - other.support)
        if other.is_finite:
            return FinCofEvent.finite(other.support - self.support)
        return FinCofEvent.cofinite(self.support | other.support)

    def union(self, other: "FinCofEvent") -> "FinCofEvent":
        return self.complement().intersect(other.complement()).complement()

    def difference(self, other: "FinCofEvent") -> "FinCofEvent":
        return self.intersect(other.complement())

    def issubset(self, other: "FinCofEvent") -> bool:
        if self.is_finite:
            if other.is_finite:
                return self.support <= other.support
            return not (self.support & other.support)
        if other.is_finite:
            return False
        return other.support <= self.support

    def __str__(self) -> str:
        body = ",".join(str(i) for i in sorted(self.support))
        return "{" + body + "}" if self.is_finite else "N\\{" + body + "}"


_ZERO, _ONE = (0, 1), (1, 1)


def _cond_raw(
    family: str, v_finite: bool, vs: frozenset, u_finite: bool, us: frozenset
) -> tuple[int, int]:
    # The conditional as an integer pair (num, den) with den > 0; u nonempty.
    if family == "mu1":
        if u_finite:
            meet = len(vs & us) if v_finite else len(us - vs)
            return meet, len(us)
        return _ZERO if v_finite else _ONE
    if family == "mu2":
        if u_finite:
            meet = (vs & us) if v_finite else (us - vs)
            return _ONE if meet and max(meet) == max(us) else _ZERO
        return _ZERO if v_finite else _ONE
    raise ValueError(f"unknown family {family!r}")


def fincof_cond(family: str, v: FinCofEvent, u: FinCofEvent) -> Fraction:
    """Conditional probability of v given u under the named family."""
    if u.is_empty:
        raise ZeroConditioningError("conditioning on the empty set")
    return F(*_cond_raw(family, v.is_finite, v.support, u.is_finite, u.support))


def _alt_coeff(j: int) -> Fraction:
    # Infinitesimal layer of atom j: +2**-(j-1)/2 on odd, negated on even.
    if j % 2 == 1:
        return F(1, 2 ** ((j - 1) // 2))
    return -F(1, 2 ** (j // 2 - 1))


def _counting_value(finite: bool, n: int) -> NonstdNumber:
    # |U| * eps for a finite set of n elements, 1 - n * eps for a cofinite
    # one missing n elements.
    return n * EPS if finite else ONE - n * EPS


def fincof_nps_value(family: str, u: FinCofEvent) -> NonstdNumber:
    """Infinitesimal-valued mass of u under the named set function."""
    if family == "nu1":
        return _counting_value(u.is_finite, len(u.support))
    if family == "nu4":
        if any(j < 1 for j in u.support):
            raise ValueError("atoms of the alternating measure start at 1")
        if u.is_finite:
            a = sum((F(1, 2**j) for j in u.support), F(0))
            b = sum((_alt_coeff(j) for j in u.support), F(0))
        else:
            a = 1 - sum((F(1, 2**j) for j in u.support), F(0))
            # The full infinitesimal layer telescopes to zero mass.
            b = -sum((_alt_coeff(j) for j in u.support), F(0))
        return NonstdNumber.from_fraction(a) + b * EPS
    raise ValueError(f"unknown family {family!r}")


def _subset_raw(a_fin: bool, a_sup: frozenset, b_fin: bool, b_sup: frozenset) -> bool:
    if a_fin:
        return a_sup <= b_sup if b_fin else not (a_sup & b_sup)
    return (not b_fin) and b_sup <= a_sup


def sampled_axiom_check(family: str, triples) -> ValidationReport:
    """Verify the conditional axioms on nested triples (v, x, u).

    Every instance must satisfy v inside x inside u with x and u nonempty;
    unit mass on the conditioning event, additivity across v and its
    complement in x, and the chain rule are all checked exactly.  For the
    counting family the standard part of the companion infinitesimal
    measure's conditional must also reproduce the conditional.

    The loop is written against raw (mode, support) pairs and checks the
    axioms on integer (num, den) pairs by cross-multiplication; exhaustive
    runs hand it hundreds of thousands of triples.
    """
    findings = []
    counting = family == "mu1"
    st_memo: dict = {}
    for idx, (v, x, u) in enumerate(triples):
        v_fin, x_fin, u_fin = v.mode == "finite", x.mode == "finite", u.mode == "finite"
        vs, xs, us = v.support, x.support, u.support
        if (u_fin and not us) or (x_fin and not xs):
            findings.append(f"triple[{idx}]: empty conditioning event")
            continue
        if not (_subset_raw(v_fin, vs, x_fin, xs) and _subset_raw(x_fin, xs, u_fin, us)):
            findings.append(f"triple[{idx}]: not nested")
            continue
        num, den = _cond_raw(family, u_fin, us, u_fin, us)
        if num != den:
            findings.append(f"triple[{idx}]: CP1 fails at {u}")
        num, den = _cond_raw(family, x_fin, xs, x_fin, xs)
        if num != den:
            findings.append(f"triple[{idx}]: CP1 fails at {x}")
        vn, vd = _cond_raw(family, v_fin, vs, u_fin, us)
        # rest = x minus v, kept as raw mode plus support.
        if x_fin:
            rest_fin, rest_sup = True, (xs - vs if v_fin else xs & vs)
        elif v_fin:
            rest_fin, rest_sup = False, xs | vs
        else:
            rest_fin, rest_sup = True, vs - xs
        rn, rd = _cond_raw(family, rest_fin, rest_sup, u_fin, us)
        xn, xd = _cond_raw(family, x_fin, xs, u_fin, us)
        if (vn * rd + rn * vd) * xd != xn * vd * rd:
            findings.append(
                f"triple[{idx}]: CP2 fails, {v} and rest sum to "
                f"{F(vn, vd) + F(rn, rd)}"
            )
        cn, cd = _cond_raw(family, v_fin, vs, x_fin, xs)
        if vn * cd * xd != cn * xn * vd:
            findings.append(
                f"triple[{idx}]: CP3 fails at direct value {F(vn, vd)}"
            )
        if counting:
            if v_fin:
                meet_fin, meet_n = True, len(vs & us) if u_fin else len(vs - us)
            elif u_fin:
                meet_fin, meet_n = True, len(us - vs)
            else:
                meet_fin, meet_n = False, len(vs | us)
            u_n = len(us)
            key = (meet_fin, meet_n, u_fin, u_n)
            ratio = st_memo.get(key)
            if ratio is None:
                ratio = st_memo[key] = st_ratio(
                    _counting_value(meet_fin, meet_n), _counting_value(u_fin, u_n)
                )
            if ratio.numerator * vd != vn * ratio.denominator:
                findings.append(
                    f"triple[{idx}]: counting-measure standard part "
                    f"{ratio} differs from {F(vn, vd)}"
                )
    return ValidationReport(tuple(findings))
