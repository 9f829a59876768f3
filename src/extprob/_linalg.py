"""Small exact linear-algebra routines over the rationals.

Vectors are tuples of Fractions; matrices are lists of row tuples.  Only the
handful of operations the equivalence machinery needs: span membership with
coefficients, and null-space bases.
"""

from __future__ import annotations

from fractions import Fraction


def _reduce(mat, ncols):
    """Gauss-Jordan on ``mat`` in place over its first ``ncols`` columns.

    Columns are taken left to right, each pivoting on the first nonzero row
    at or below the current one.  Returns the pivot columns; pivot row i is
    row i of the reduced matrix.
    """
    piv_cols = []
    for col in range(ncols):
        r = len(piv_cols)
        if r == len(mat):
            break
        piv = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        factor = mat[r][col]
        mat[r] = [x / factor for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        piv_cols.append(col)
    return piv_cols


def solve_combination(rows, target):
    """Coefficients c with sum(c[i] * rows[i]) == target, or None.

    ``rows`` may be linearly dependent; any exact solution is returned, with
    the free coefficients at zero.
    """
    if not rows:
        return [] if all(x == 0 for x in target) else None
    m = len(rows)
    # Augmented system A^T c = target, A^T is n x m.
    aug = [[row[i] for row in rows] + [target[i]] for i in range(len(rows[0]))]
    piv_cols = _reduce(aug, m)
    if any(row[m] != 0 for row in aug[len(piv_cols):]):
        return None
    coeffs = [Fraction(0)] * m
    for row, col in enumerate(piv_cols):
        coeffs[col] = aug[row][m]
    return coeffs


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
