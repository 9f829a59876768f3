"""Small exact linear-algebra routines over the rationals.

Vectors are tuples of Fractions (ints are accepted too); matrices are lists
of row tuples.  Only the handful of operations the equivalence machinery
needs: span membership with coefficients (for many targets in one
elimination), the columns independent of those before them, and
null-space bases.

Elimination runs on integers: each row is scaled by the lcm of its
denominators, rows are combined with integer multipliers and divided by
the gcd of their entries, and the pivot rows are divided by their pivots
only at the end.  The reduced row echelon form is unique, so the results
are the same ``Fraction`` values a Gauss-Jordan over Fractions gives.
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


def _eliminate(mat, ncols):
    """Integer Gauss-Jordan on the rational rows ``mat`` in place over
    their first ``ncols`` columns.

    Each row is first scaled to primitive integers.  Columns are taken
    left to right, each pivoting on the first nonzero row at or below the
    current one.  Returns the pivot columns; every row is left as a
    primitive integer row, row i a multiple of row i of the reduced
    matrix, and the rows below the pivots zero in the first ``ncols``
    columns.
    """
    for i, row in enumerate(mat):
        mat[i] = _primitive(scaled_row(row)[0])
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


def _reduce(mat, ncols):
    """Gauss-Jordan on ``mat`` in place over its first ``ncols`` columns.

    As :func:`_eliminate`, with pivot row i then divided by its pivot: row
    i of the reduced matrix, as Fractions with a 1 in its pivot column.
    The other rows are left as integer rows, zero in the first ``ncols``
    columns.
    """
    piv_cols = _eliminate(mat, ncols)
    for r, col in enumerate(piv_cols):
        p = mat[r][col]
        mat[r] = [Fraction(x, p) for x in mat[r]]
    return piv_cols


def independent_columns(mat, ncols):
    """The columns among the first ``ncols`` of the rows ``mat`` that are
    not in the span of the columns before them: the pivot columns."""
    return _eliminate(list(mat), ncols)


def solve_combinations(rows, targets):
    """For each target, coefficients c with sum(c[i] * rows[i]) == target,
    or None; one elimination serves every target.

    ``rows`` may be linearly dependent; any exact solution is returned, with
    the free coefficients at zero.  The reduced row echelon form is unique,
    so each target gets the coefficients it would get alone.
    """
    if not rows:
        return [[] if all(x == 0 for x in t) else None for t in targets]
    m = len(rows)
    # Augmented system A^T C = T, A^T is n x m.
    aug = [[row[i] for row in rows] + [t[i] for t in targets] for i in range(len(rows[0]))]
    piv_cols = _reduce(aug, m)
    rank = len(piv_cols)
    out = []
    for k in range(m, m + len(targets)):
        if any(row[k] != 0 for row in aug[rank:]):
            out.append(None)
            continue
        coeffs = [Fraction(0)] * m
        for row, col in enumerate(piv_cols):
            coeffs[col] = aug[row][k]
        out.append(coeffs)
    return out


def solve_combination(rows, target):
    """Coefficients c with sum(c[i] * rows[i]) == target, or None."""
    return solve_combinations(rows, [target])[0]


def nullspace_basis(rows, n):
    """Basis of {z in Q^n : row . z == 0 for every row}."""
    mat = [list(row) for row in rows if any(x != 0 for x in row)]
    piv_cols = _reduce(mat, n)
    basis = []
    for fc in (c for c in range(n) if c not in piv_cols):
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for row_idx, pc in enumerate(piv_cols):
            vec[pc] = -mat[row_idx][fc]
        basis.append(tuple(vec))
    return basis
