"""Lexicographic probability systems over a finite algebra.

An LPS is a nonempty finite sequence of standard measures on one shared
algebra; expectations of random variables are compared lexicographically,
earlier measures dominating.  Two systems are equivalent when they order
every pair of random variables identically.  That universal statement is
decided here on reduced (linearly independent) sequences: equivalence holds
exactly when each reduced sequence is a lower-triangular positive-diagonal
transform of the other.  One elimination decides it: every level of the
second sequence is solved over the whole first one at once, level i
passes when its coefficients are zero above i and positive at i, and the
first level that fails is the only place a separating pair of random
variables needs to be sought, with one null-space solve.  Every
verdict ships with machine-checkable evidence, either the pair of
transform matrices or the separating pair, and is re-checked against it
before it is returned.  The backward matrix is the inverse of the forward
one, built by substitution on the triangle rather than by a second
elimination, and the self-check reuses the two reductions the decision
made; only the public ``EquivCertificate.verify`` reduces the systems
again, from the certificate alone.  Reduction, decision and separation
run on the levels' integer rows (``StdMeasure.int_row``); the matrix
entries and the separating variables are the only ``Fraction``s made.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import _linalg
from .errors import AlgebraMismatchError, ZeroConditioningError
from .spaces import Event, RandomVariable, SpaceAlgebra, StdMeasure

LT, EQ, GT = -1, 0, 1


@dataclass(frozen=True)
class LPS:
    """Nonempty sequence of standard measures sharing one algebra."""

    algebra: SpaceAlgebra
    measures: tuple

    def __post_init__(self):
        if not self.measures:
            raise ValueError("an LPS needs at least one measure")
        for m in self.measures:
            if m.algebra != self.algebra:
                raise AlgebraMismatchError("measure on a different algebra")

    @classmethod
    def from_rows(cls, algebra: SpaceAlgebra, rows) -> "LPS":
        return cls(
            algebra, tuple(StdMeasure.from_values(algebra, row) for row in rows)
        )

    def __len__(self) -> int:
        return len(self.measures)

    def event_mass_vector(self, ev: Event):
        return tuple(m.event_mass(ev) for m in self.measures)

    def gives_positive_mass(self, ev: Event) -> bool:
        return any(m.event_mass(ev) > 0 for m in self.measures)

    def condition(self, ev: Event) -> "LPS":
        """Conditional system: the positive-mass subsequence, each conditioned.

        Undefined (raises) when every level gives the event probability zero.
        """
        kept = [m.condition(ev) for m in self.measures if m.event_mass(ev) > 0]
        if not kept:
            raise ZeroConditioningError(
                f"no level gives positive probability to {sorted(ev)}"
            )
        return LPS(self.algebra, tuple(kept))

    def expectation_vector(self, rv: RandomVariable):
        return tuple(m.expectation(rv) for m in self.measures)

    def compare_expectations(self, x: RandomVariable, y: RandomVariable) -> int:
        """Lexicographic comparison of E(x) and E(y); one of LT, EQ, GT."""
        for m in self.measures:
            ex, ey = m.expectation(x), m.expectation(y)
            if ex != ey:
                return GT if ex > ey else LT
        return EQ

    def classify(self) -> "LpsClassification":
        return classify_lps(self)


@dataclass(frozen=True)
class LpsClassification:
    """Structural flags, with the atom supports as canonical witness sets.

    In a finite algebra the least event of measure one is the support, so
    the three definitions are decided with supports standing in for the
    existential witness sets.
    """

    is_slps: bool
    is_mslps: bool
    is_lcps: bool
    support_witnesses: tuple

    def label(self) -> str:
        if self.is_lcps:
            return "LCPS"
        if self.is_mslps:
            return "MSLPS"
        if self.is_slps:
            return "SLPS"
        return "LPS"


def classify_lps(lps: LPS) -> LpsClassification:
    supports = [m.support() for m in lps.measures]
    k = len(supports)
    slps = all(
        lps.measures[b].event_mass(supports[g]) == 0
        for b in range(k)
        for g in range(b + 1, k)
    )
    mslps = all(
        lps.measures[b].event_mass(supports[g]) == 0
        for b in range(k)
        for g in range(k)
        if g != b
    )
    lcps = all(
        not (supports[b] & supports[g]) for b in range(k) for g in range(b + 1, k)
    )
    return LpsClassification(slps, mslps, lcps, tuple(supports))


def reduce_lps(lps: LPS) -> LPS:
    """Drop every measure lying in the rational span of the kept ones before it.

    The result has length at most the number of atoms and is equivalent to
    the input.  One elimination on the transposed rows finds the kept
    levels: a level is in the span of the kept ones before it exactly when
    it is in the span of all the levels before it, that is, when its
    column is not a pivot column.  The columns are the levels' integer
    rows, since scaling a column by its denominator moves no pivot.
    """
    rows = [m.int_row[0] for m in lps.measures]
    columns = [[row[a] for row in rows] for a in range(lps.algebra.n_atoms)]
    kept = _linalg.eliminate(columns, len(rows))
    return LPS(lps.algebra, tuple(lps.measures[i] for i in kept))


@dataclass(frozen=True)
class EquivCertificate:
    """Machine-checkable evidence for an equivalence verdict.

    For ``equivalent``, ``forward_matrix`` rebuilds the reduced second
    sequence from the reduced first one and ``backward_matrix`` does the
    converse; both are lower triangular with positive diagonal.  For
    ``inequivalent``, ``witness`` is a pair of random variables whose
    expectations the two inputs order differently (strictly opposite, or
    strict against equal).
    """

    verdict: str
    lhs: LPS
    rhs: LPS
    forward_matrix: tuple = None
    backward_matrix: tuple = None
    witness: tuple = None

    @property
    def equivalent(self) -> bool:
        return self.verdict == "equivalent"

    def verify(self) -> bool:
        """Re-derive the verdict from the attached evidence alone."""
        if self.equivalent:
            return self._rebuilds(reduce_lps(self.lhs), reduce_lps(self.rhs))
        x, y = self.witness
        ca = self.lhs.compare_expectations(x, y)
        cb = self.rhs.compare_expectations(x, y)
        return ca != cb

    def _rebuilds(self, ra: LPS, rb: LPS) -> bool:
        """The forward matrix rebuilds ``rb`` from ``ra``, the reductions of
        the two systems, and the backward matrix rebuilds ``ra`` from ``rb``."""
        return _matrix_rebuilds(self.forward_matrix, ra, rb) and _matrix_rebuilds(
            self.backward_matrix, rb, ra
        )


def _matrix_rebuilds(matrix, src: LPS, dst: LPS) -> bool:
    """Each row i of ``matrix`` is zero above i, positive at i, and
    rebuilds level i of ``dst`` from the levels of ``src``.

    Checked on integer rows: with level j of ``src`` as ``S_j / s_j`` and
    level i of ``dst`` as ``T / t``, the entries ``row[j] / s_j`` are
    brought over one denominator ``d`` as ``W_j / d``, and the test is
    ``sum(W_j * S_j) == T * (d / t)``.
    """
    if matrix is None or len(matrix) != len(dst) or len(src) != len(dst):
        return False
    src_rows = [m.int_row for m in src.measures]
    for i, row in enumerate(matrix):
        if len(row) != len(dst):
            return False
        if row[i] <= 0 or any(row[j] != 0 for j in range(i + 1, len(row))):
            return False
        target, t_den = dst.measures[i].int_row
        dens = [row[j].denominator * src_rows[j][1] for j in range(i + 1)]
        den = math.lcm(t_den, *dens)
        weights = [row[j].numerator * (den // d) for j, d in enumerate(dens)]
        k = den // t_den
        for a, t in enumerate(target):
            if sum(w * s[0][a] for w, s in zip(weights, src_rows)) != k * t:
                return False
    return True


def _triangular_coeffs(src_rows, dst_rows):
    """Lower-triangular rows expressing dst over src, and the first level
    at which that fails (None when no level does).

    The rows are integer rows ``(ints, den)``.  Row i must be a
    combination of src_rows[0..i] with a positive coefficient on
    src_rows[i]; a level that only one family has fails.
    The source rows are independent, so a level has at most one
    combination of all of them, and it is one of src_rows[0..i] exactly
    when it is zero above i; one elimination solves every level.
    """
    solved = _linalg.solve_combinations(src_rows, dst_rows)
    out = []
    for i in range(max(len(src_rows), len(dst_rows))):
        if i >= len(src_rows) or i >= len(dst_rows):
            return tuple(out), i
        coeffs = solved[i]
        if coeffs is None or coeffs[i] <= 0 or any(coeffs[i + 1:]):
            return tuple(out), i
        out.append(tuple(coeffs[: i + 1]) + (Fraction(0),) * (len(dst_rows) - i - 1))
    return tuple(out), None


def _inverse(lower):
    """Inverse of a lower-triangular matrix with nonzero diagonal, row by
    row by forward substitution: row i of ``lower`` times the inverse is
    row i of the identity."""
    inv = []
    for i, row in enumerate(lower):
        out = [Fraction(0)] * len(lower)
        out[i] = 1 / row[i]
        for j in range(i):
            out[j] = -sum((row[m] * inv[m][j] for m in range(j, i)), Fraction(0)) / row[i]
        inv.append(tuple(out))
    return tuple(inv)


def _restrict(ints, basis):
    """The integer dot products of ``ints`` with each basis vector."""
    return tuple(sum(x * v for x, v in zip(ints, vec)) for vec in basis)


def _separate_at(rows_a, rows_b, i, n):
    """Atom vector z on which the two families' first nonzero levels have
    different signs, given that i is the first failing level.

    On the null space of the rows below i, level i of the first family is
    solved to +1 and level i of the second to -1; when that has no
    solution, or one family has no level i, the one present level alone is
    solved to +1 (first family) or -1 (second family).  The rows are
    integer rows ``(R, s)`` and the basis is integer, so level i of a
    family restricts to the integers ``R . v`` over s: solving them for
    ``s_a`` and ``-s_b`` is solving the levels for +1 and -1.
    """
    basis = _linalg.nullspace_basis(rows_a[:i] + rows_b[:i], n)
    f = (_restrict(rows_a[i][0], basis), rows_a[i][1]) if i < len(rows_a) else None
    g = (_restrict(rows_b[i][0], basis), -rows_b[i][1]) if i < len(rows_b) else None
    coords = None
    if f is not None and g is not None:
        pairs = [(pair, 1) for pair in zip(f[0], g[0])]
        coords = _linalg.solve_combination(pairs, ((f[1], g[1]), 1))
    if coords is None:
        h, want = f if f is not None else g
        coords = _linalg.solve_combination([((x,), 1) for x in h], ((want,), 1))
    den = math.lcm(*(c.denominator for c in coords))
    weights = [c.numerator * (den // c.denominator) for c in coords]
    return tuple(
        Fraction(sum(w * vec[a] for w, vec in zip(weights, basis)), den) for a in range(n)
    )


def _split_witness(algebra: SpaceAlgebra, z) -> tuple:
    """Split a separating vector into a pair of nonnegative variables."""
    pos = tuple(v if v > 0 else Fraction(0) for v in z)
    neg = tuple(-v if v < 0 else Fraction(0) for v in z)
    return (
        RandomVariable(algebra, pos),
        RandomVariable(algebra, neg),
    )


def equivalence(a: LPS, b: LPS) -> EquivCertificate:
    """Decide whether two systems order all random variables identically.

    Returns a self-verified certificate: triangular transform matrices when
    equivalent, a separating pair of random variables when not.  Level i
    of the reduced second system is solved over levels 0 to i of the
    reduced first.  When every level passes and the lengths agree, the
    forward matrix F is lower triangular with positive diagonal, so its
    inverse, the backward matrix, is too; it is built from F by
    substitution, and equals what solving the first system over the
    second would give, since the reduced levels are independent.  The
    matrices are checked against the two reductions made here, not
    against fresh ones.  Otherwise let i be the first
    failing level.  Below i both families span the same space, so on its
    null space every vector is zero at levels 0 to i-1 of both, and one
    whose level i is positive under the first and negative (or absent)
    under the second separates them.  Each level i present is nonzero on
    that null space, as each family is independent; if the second's is a
    multiple of the first's there, the factor is negative because level i
    failed, and solving the first's alone for +1 suffices.
    """
    if a.algebra != b.algebra:
        raise AlgebraMismatchError("systems live on different algebras")
    return _decide(a, b, reduce_lps(a), reduce_lps(b))


def certified_reduction(lps: LPS):
    """``(reduce_lps(lps), equivalence(lps, reduced))`` from one
    reduction: the reduced system's levels are independent, so it is its
    own reduction."""
    reduced = reduce_lps(lps)
    return reduced, _decide(lps, reduced, reduced, reduced)


def _decide(a: LPS, b: LPS, ra: LPS, rb: LPS) -> EquivCertificate:
    """:func:`equivalence` of ``a`` and ``b``, given their reductions."""
    rows_a = [m.int_row for m in ra.measures]
    rows_b = [m.int_row for m in rb.measures]
    forward, level = _triangular_coeffs(rows_a, rows_b)
    if level is None:
        cert = EquivCertificate(
            "equivalent", a, b, forward_matrix=forward, backward_matrix=_inverse(forward)
        )
        checked = cert._rebuilds(ra, rb)
    else:
        z = _separate_at(rows_a, rows_b, level, a.algebra.n_atoms)
        cert = EquivCertificate("inequivalent", a, b, witness=_split_witness(a.algebra, z))
        checked = cert.verify()
    if not checked:
        raise AssertionError("equivalence certificate failed its self-check")
    return cert
