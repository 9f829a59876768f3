"""The integer elimination in ``_linalg`` against Gauss-Jordan over
Fractions, and the integer-row routes of ``lps`` against the ``Fraction``
routes they replaced (``tests/oracles.py``)."""

import math
import random
from fractions import Fraction as F

import pytest

from extprob._linalg import (
    eliminate,
    nullspace_basis,
    scaled_row,
    solve_combination,
    solve_combinations,
)
from extprob.lps import LPS, _separate_at, _triangular_coeffs, reduce_lps
from extprob.spaces import StdMeasure

from genspaces import algebra_of
from oracles import (
    _fractions,
    _reduce_over_fractions,
    nullspace_basis_over_fractions,
    reduce_lps_by_levels,
    reduce_lps_over_fractions,
    separate_at_over_fractions,
    solve_combination_over_fractions,
    solve_combinations_over_fractions,
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


def int_row(rng, row):
    """The rational ``row`` as an integer row ``(ints, den)``: over its
    least common denominator, or unnormalised by a factor of either sign."""
    ints, den = scaled_row(row)
    k = rng.choice((1, 1, 2, -1, -6))
    return tuple(k * x for x in ints), k * den


def assert_reduces_like_oracle(mat, ncols):
    """Same pivot columns as Gauss-Jordan over Fractions on the rational
    rows ``mat``, eliminating their integer rows; every row is a primitive
    integer row, a pivot row a multiple of the oracle's with its pivot
    dividing out to it, and the other rows multiples of the oracle's."""
    ours = [scaled_row(row)[0] for row in mat]
    theirs = _fractions(mat)
    piv = eliminate(ours, ncols)
    assert piv == _reduce_over_fractions(theirs, ncols)
    rank = len(piv)
    for r, col in enumerate(piv):
        assert [F(x, ours[r][col]) for x in ours[r]] == theirs[r]
    for row, ref in zip(ours, theirs):
        assert all(type(x) is int for x in row)
        assert math.gcd(*row) <= 1
        k = next((j for j, x in enumerate(ref) if x), None)
        if k is None:
            assert not any(row)
        else:
            ratio = F(row[k]) / ref[k]
            assert [F(x) for x in row] == [ratio * x for x in ref]
    assert not any(x for row in ours[rank:] for x in row[:ncols])


def assert_basis_like_oracle(basis, ref):
    """Each integer vector is a positive multiple of the oracle's, which
    is 1 at its free column."""
    assert len(basis) == len(ref)
    for vec, ref_vec in zip(basis, ref):
        assert all(type(x) is int for x in vec) and math.gcd(*vec) == 1
        fc = ref_vec.index(1)
        assert vec[fc] > 0
        assert [F(x, vec[fc]) for x in vec] == list(ref_vec)


def test_integer_elimination_matches_fraction_gauss_jordan():
    """Int, Fraction and mixed rows with large denominators, dependent and
    all-zero rows, each given as an integer row over its least common
    denominator or unnormalised by a factor of either sign."""
    rng = random.Random(11)
    seen = dict(
        no_rows=0, zero_row=0, dependent=0, mixed=0, big_den=0, none=0, solved=0,
        unnormalised=0,
    )
    for _ in range(2000):
        rows, target, n = random_system(rng)
        int_rows = [int_row(rng, row) for row in rows]
        int_target = int_row(rng, target)
        coeffs = solve_combination(int_rows, int_target)
        assert coeffs == solve_combination_over_fractions(rows, target)
        if coeffs is None:
            seen["none"] += 1
        else:
            seen["solved"] += 1
            assert all(type(c) is F for c in coeffs)
        targets = [int_target, int_row(rng, combination(rng, rows, n)), int_row(rng, target)]
        assert solve_combinations(int_rows, targets) == solve_combinations_over_fractions(
            rows, [[F(x, d) for x in t] for t, d in targets]
        )
        assert_basis_like_oracle(nullspace_basis(int_rows, n), nullspace_basis_over_fractions(rows, n))
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
        seen["unnormalised"] += any(r != tuple(scaled_row(row)[0]) for (r, _), row in zip(int_rows, rows))
    assert min(seen.values()) >= 100, seen


def test_int_only_rows_give_fractions():
    coeffs = solve_combination([((2, 0), 1), ((0, 3), 1)], ((1, 1), 1))
    assert coeffs == [F(1, 2), F(1, 3)] and all(type(c) is F for c in coeffs)
    assert solve_combination([((1, 0), 2), ((0, 3), -1)], ((1, 1), 4)) == [F(1, 2), F(-1, 12)]
    assert nullspace_basis([((2, 4, 6), 1)], 3) == [(-2, 1, 0), (-3, 0, 1)]
    assert nullspace_basis([((0, 2, 3), 5)], 3) == [(1, 0, 0), (0, -3, 2)]


def test_one_elimination_matches_level_loops():
    """``reduce_lps`` (one elimination on the transposed integer rows) and
    ``lps._triangular_coeffs`` (every level solved over the whole source
    family at once) against one solve per level and one per prefix, on the
    2,000 seeded systems above: the same kept levels, the same rows and
    the same first failing level.  ``reduce_lps`` is also checked against
    its earlier route on ``Fraction`` columns.  The source family is the
    reduced rows; the targets are the rows themselves, the target followed
    by the rows, and the reduced rows in reverse, all as integer rows,
    some unnormalised."""
    rng = random.Random(11)
    seen = dict(all_zero=0, dropped=0, passed=0, failed_at_0=0, failed_later=0)
    for _ in range(2000):
        rows, target, n = random_system(rng)
        if not rows:
            continue
        algebra = algebra_of(n)
        system = LPS(algebra, tuple(StdMeasure(algebra, row) for row in rows))
        if not any(any(row) for row in rows):
            for reduce in (reduce_lps, reduce_lps_by_levels, reduce_lps_over_fractions):
                with pytest.raises(ValueError):
                    reduce(system)
            seen["all_zero"] += 1
            continue
        kept = reduce_lps(system)
        assert kept.measures == reduce_lps_by_levels(system).measures
        assert kept.measures == reduce_lps_over_fractions(system).measures
        seen["dropped"] += len(kept) < len(rows)
        src = [m.mass for m in kept.measures]
        for dst in (rows, [target] + rows, src[::-1]):
            got = _triangular_coeffs(
                [int_row(rng, row) for row in src], [int_row(rng, row) for row in dst]
            )
            assert got == triangular_coeffs_by_prefix(src, dst)
            assert all(type(x) is F for row in got[0] for x in row)
            level = got[1]
            seen["passed" if level is None else "failed_at_0" if level == 0 else "failed_later"] += 1
    assert min(seen.values()) >= 100, seen


def outcome(f, *args):
    """The value of ``f(*args)``, or the type and message of its error."""
    try:
        return f(*args)
    except Exception as exc:
        return type(exc), str(exc)


def test_separating_vector_matches_fraction_route():
    """``lps._separate_at`` on integer rows (an integer null-space basis,
    integer restrictions, solved for the two denominators) against its
    earlier ``Fraction`` route, on the seeded systems above split into two
    families at every level i present in either: the same vector, or the
    same error where the level has no solution on the null space."""
    rng = random.Random(13)
    seen = dict(vector=0, error=0, one_family=0)
    for _ in range(2000):
        rows, target, n = random_system(rng)
        cut = rng.randint(0, len(rows))
        rows_a, rows_b = rows[:cut], [target] + rows[cut:]
        int_a = [int_row(rng, row) for row in rows_a]
        int_b = [int_row(rng, row) for row in rows_b]
        for i in range(max(len(rows_a), len(rows_b))):
            got = outcome(_separate_at, int_a, int_b, i, n)
            assert got == outcome(separate_at_over_fractions, rows_a, rows_b, i, n)
            if isinstance(got[0], type):
                seen["error"] += 1
            else:
                assert all(type(x) is F for x in got)
                seen["vector"] += 1
                seen["one_family"] += i >= min(len(rows_a), len(rows_b))
    assert min(seen.values()) >= 100, seen
