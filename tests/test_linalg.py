"""The integer elimination in ``_linalg`` against Gauss-Jordan over Fractions."""

import math
import random
from fractions import Fraction as F

import pytest

from extprob import _linalg
from extprob._linalg import nullspace_basis, solve_combination
from extprob.lps import LPS, _triangular_coeffs, reduce_lps
from extprob.spaces import StdMeasure

from genspaces import algebra_of
from oracles import (
    _fractions,
    _reduce_over_fractions,
    nullspace_basis_over_fractions,
    reduce_lps_by_levels,
    solve_combination_over_fractions,
    triangular_coeffs_by_prefix,
)


def random_entry(rng):
    """Zero, a small int, a small Fraction or one with a denominator up
    to 10^6, of either sign."""
    kind = rng.random()
    if kind < 0.25:
        return rng.choice((0, F(0)))
    if kind < 0.5:
        return rng.randint(-9, 9)
    if kind < 0.8:
        return F(rng.randint(-9, 9), rng.randint(1, 12))
    return F(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))


def combination(rng, rows, n):
    """A random combination of ``rows`` (all zero when there are none)."""
    out = [F(0)] * n
    for row in rows:
        c = F(rng.randint(-4, 4), rng.randint(1, 5))
        out = [x + c * y for x, y in zip(out, row)]
    return tuple(out)


def random_system(rng):
    """Rows (0 to 5 of them, on 1 to 6 columns) with dependent and all-zero
    rows among them, and a target that is a combination of the rows, zero,
    or a free draw (usually inconsistent)."""
    n = rng.randint(1, 6)
    rows = []
    for _ in range(rng.randint(0, 5)):
        kind = rng.random()
        if rows and kind < 0.3:
            rows.append(combination(rng, rng.sample(rows, rng.randint(1, len(rows))), n))
        elif kind < 0.4:
            rows.append(tuple(rng.choice((0, F(0))) for _ in range(n)))
        else:
            rows.append(tuple(random_entry(rng) for _ in range(n)))
    kind = rng.random()
    if kind < 0.5:
        target = combination(rng, rows, n)
    elif kind < 0.6:
        target = (0,) * n
    else:
        target = tuple(random_entry(rng) for _ in range(n))
    return rows, target, n


def assert_reduces_like_oracle(mat, ncols):
    """Same pivot columns and pivot rows as Gauss-Jordan over Fractions; the
    other rows are primitive integer rows, each a multiple of the oracle's."""
    ours = [list(row) for row in mat]
    theirs = _fractions(mat)
    piv = _linalg._reduce(ours, ncols)
    assert piv == _reduce_over_fractions(theirs, ncols)
    rank = len(piv)
    assert ours[:rank] == theirs[:rank]
    assert all(type(x) is F for row in ours[:rank] for x in row)
    for row, ref in zip(ours[rank:], theirs[rank:]):
        assert all(type(x) is int for x in row)
        assert not any(row[:ncols])
        assert math.gcd(*row) <= 1
        k = next((j for j, x in enumerate(ref) if x), None)
        if k is None:
            assert not any(row)
        else:
            ratio = F(row[k]) / ref[k]
            assert [F(x) for x in row] == [ratio * x for x in ref]


def test_integer_elimination_matches_fraction_gauss_jordan():
    rng = random.Random(11)
    seen = dict(no_rows=0, zero_row=0, dependent=0, mixed=0, big_den=0, none=0, solved=0)
    for _ in range(2000):
        rows, target, n = random_system(rng)
        coeffs = solve_combination(rows, target)
        assert coeffs == solve_combination_over_fractions(rows, target)
        if coeffs is None:
            seen["none"] += 1
        else:
            seen["solved"] += 1
            assert all(type(c) is F for c in coeffs)
        basis = nullspace_basis(rows, n)
        assert basis == nullspace_basis_over_fractions(rows, n)
        assert all(type(x) is F for vec in basis for x in vec)
        if rows:
            aug = [[row[i] for row in rows] + [target[i]] for i in range(n)]
            assert_reduces_like_oracle(aug, len(rows))
            assert_reduces_like_oracle([list(row) for row in rows], n)
        entries = [x for row in rows for x in row]
        seen["no_rows"] += not rows
        seen["zero_row"] += any(not any(row) for row in rows)
        seen["dependent"] += len(nullspace_basis_over_fractions(list(zip(*rows)), len(rows))) > 0
        seen["mixed"] += {int, F} <= {type(x) for x in entries}
        seen["big_den"] += any(F(x).denominator > 1000 for x in entries)
    assert min(seen.values()) >= 100, seen


def test_int_only_rows_give_fractions():
    coeffs = solve_combination([(2, 0), (0, 3)], (1, 1))
    assert coeffs == [F(1, 2), F(1, 3)] and all(type(c) is F for c in coeffs)
    assert nullspace_basis([(2, 4, 6)], 3) == [(-2, 1, 0), (-3, 0, 1)]


def test_one_elimination_matches_level_loops():
    """``reduce_lps`` (one elimination on the transposed rows) and
    ``lps._triangular_coeffs`` (every level solved over the whole source
    family at once) against one solve per level and one per prefix, on the
    2,000 seeded systems above: the same kept levels, the same rows and
    the same first failing level.  The source family is the reduced rows;
    the targets are the rows themselves, the target followed by the rows,
    and the reduced rows in reverse."""
    rng = random.Random(11)
    seen = dict(all_zero=0, dropped=0, passed=0, failed_at_0=0, failed_later=0)
    for _ in range(2000):
        rows, target, n = random_system(rng)
        if not rows:
            continue
        algebra = algebra_of(n)
        system = LPS(algebra, tuple(StdMeasure(algebra, row) for row in rows))
        if not any(any(row) for row in rows):
            for reduce in (reduce_lps, reduce_lps_by_levels):
                with pytest.raises(ValueError):
                    reduce(system)
            seen["all_zero"] += 1
            continue
        kept = reduce_lps(system)
        assert kept.measures == reduce_lps_by_levels(system).measures
        seen["dropped"] += len(kept) < len(rows)
        src = [m.mass for m in kept.measures]
        for dst in (rows, [target] + rows, src[::-1]):
            got = _triangular_coeffs(src, dst)
            assert got == triangular_coeffs_by_prefix(src, dst)
            assert all(type(x) is F for row in got[0] for x in row)
            level = got[1]
            seen["passed" if level is None else "failed_at_0" if level == 0 else "failed_later"] += 1
    assert min(seen.values()) >= 100, seen
