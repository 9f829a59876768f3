"""Small exact linear-algebra routines on integer rows.

A rational vector is passed as an integer row ``(ints, den)``, standing
for ``ints[i] / den`` with ``den`` nonzero; matrices are lists of such
rows.  Only the handful of operations the equivalence machinery needs:
span membership with coefficients (for many targets in one elimination),
the pivot columns of a matrix, and null-space bases.

Elimination is fraction-free: rows are combined with integer multipliers
and divided by the gcd of their entries, so every entry stays an integer
(integer-preserving elimination, as in E. H. Bareiss, "Sylvester's
identity and multistep integer-preserving Gaussian elimination", Math.
Comp. 22, 1968, with the common factor taken out by a gcd rather than by
the previous pivot).  Scaling a row or a column by a nonzero number does
not move the pivot columns, so a system's denominators are taken out
before it is eliminated and put back into each result entry.  A
coefficient of a solution is built as one ``Fraction`` from its reduced
row and pivot; the reduced row echelon form is unique, so the results are
the ``Fraction`` values a Gauss-Jordan over Fractions gives.
"""

from __future__ import annotations

import math
from fractions import Fraction


def scaled_row(row):
    """``(ints, den)`` with ``ints[i] / den == row[i]`` over the least
    common denominator of the rationals ``row``."""
    den = math.lcm(*(x.denominator for x in row))
    return [x.numerator * (den // x.denominator) for x in row], den


def _primitive(row):
    """``row`` divided by the gcd of its entries (unchanged when all zero)."""
    g = math.gcd(*row)
    return [x // g for x in row] if g > 1 else row


def eliminate(mat, ncols):
    """Integer Gauss-Jordan on the integer rows ``mat`` (lists) in place
    over their first ``ncols`` columns.

    Each row is first made primitive.  Columns are taken left to right,
    each pivoting on the first nonzero row at or below the current one.
    Returns the pivot columns; every row is left as a primitive integer
    row, row i a multiple of row i of the reduced matrix, and the rows
    below the pivots zero in the first ``ncols`` columns.
    """
    for i, row in enumerate(mat):
        mat[i] = _primitive(row)
    piv_cols = []
    for col in range(ncols):
        r = len(piv_cols)
        if r == len(mat):
            break
        piv = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        prow = mat[r]
        p = prow[col]
        for i in range(len(mat)):
            a = mat[i][col]
            if i != r and a:
                g = math.gcd(p, a)
                pg, ag = p // g, a // g
                mat[i] = _primitive([pg * x - ag * y for x, y in zip(mat[i], prow)])
        piv_cols.append(col)
    return piv_cols


def solve_combinations(rows, targets):
    """For each integer row ``target``, coefficients c with
    ``sum(c[i] * rows[i]) == target`` as rationals, or None; one
    elimination serves every target.

    ``rows`` may be linearly dependent; any exact solution is returned,
    with the free coefficients at zero.  The reduced row echelon form is
    unique, so each target gets the coefficients it would get alone.  With
    ``rows[i] = (R_i, s_i)`` and ``target = (T, t)``, the integer system
    ``sum(u_i * R_i) == T`` is solved, and ``c_i = u_i * s_i / t``: the
    coefficient on pivot row r is ``Fraction(x * s_i, p * t)`` for the
    entry x of the target's column and the pivot p.
    """
    if not rows:
        return [[] if not any(t) else None for t, _ in targets]
    m = len(rows)
    # Augmented system R^T U = T, R^T is n x m.
    aug = [
        [r[a] for r, _ in rows] + [t[a] for t, _ in targets] for a in range(len(rows[0][0]))
    ]
    piv_cols = eliminate(aug, m)
    rank = len(piv_cols)
    zero = Fraction(0)
    out = []
    for k, (_, t) in enumerate(targets, start=m):
        if any(row[k] for row in aug[rank:]):
            out.append(None)
            continue
        coeffs = [zero] * m
        for row, col in zip(aug, piv_cols):
            if row[k]:
                coeffs[col] = Fraction(row[k] * rows[col][1], row[col] * t)
        out.append(coeffs)
    return out


def solve_combination(rows, target):
    """Coefficients c with sum(c[i] * rows[i]) == target, or None, for
    integer rows as in :func:`solve_combinations`."""
    return solve_combinations(rows, [target])[0]


def nullspace_basis(rows, n):
    """Basis of {z in Q^n : row . z == 0 for every row} as primitive
    integer tuples.

    The integer rows ``(ints, den)`` have the null space of their
    ``ints``.  Vector k is a positive multiple of the k-th vector of the
    reduced-echelon basis, the one that is 1 at the k-th non-pivot column
    and 0 at the others.
    """
    mat = [list(r) for r, _ in rows if any(r)]
    piv_cols = eliminate(mat, n)
    basis = []
    for fc in (c for c in range(n) if c not in piv_cols):
        # Reduced row r is mat[r] / p_r: over the lcm L of the pivots the
        # vector is L at fc and -mat[r][fc] * L / p_r at pivot column r.
        lcm = math.lcm(*(abs(mat[r][pc]) for r, pc in enumerate(piv_cols) if mat[r][fc]))
        vec = [0] * n
        vec[fc] = lcm
        for r, pc in enumerate(piv_cols):
            vec[pc] = -mat[r][fc] * lcm // mat[r][pc]
        basis.append(tuple(_primitive(vec)))
    return basis
