"""Lexicographic systems: conditioning, comparison, classification,
reduction, and the equivalence decision procedure."""

import dataclasses
import random
from fractions import Fraction

import pytest
import sympy

from genspaces import aeq_pair, covering_slps, random_lps, triangular_variant
from oracles import (
    equivalence_by_search,
    matrix_rebuilds_by_fractions,
    reduce_lps_by_levels,
    reduce_lps_over_fractions,
    separate_at_over_fractions,
    triangular_coeffs_by_prefix,
)

from extprob import _linalg, jsonio
from extprob import lps as lps_module
from extprob._linalg import nullspace_basis, solve_combination
from extprob.errors import AlgebraMismatchError, ZeroConditioningError
from extprob.lps import (
    EQ,
    GT,
    LT,
    LPS,
    _matrix_rebuilds,
    _separate_at,
    _triangular_coeffs,
    equivalence,
    reduce_lps,
)
from extprob.spaces import RandomVariable, SpaceAlgebra, StdMeasure

F = Fraction

AB = SpaceAlgebra.discrete(["a", "b"])
ABC = SpaceAlgebra.discrete(["a", "b", "c"])


def lps(algebra, *rows):
    return LPS.from_rows(algebra, rows)


def rv(algebra, *values):
    return RandomVariable.from_values(algebra, values)


MCGEE = lps(AB, (F(1, 2), F(1, 2)), (1, 0))


class TestCondition:
    def test_subsequence_formula(self):
        out = lps(ABC, (F(1, 2), F(1, 2), 0), (0, 0, 1)).condition(
            ABC.event({1, 2})
        )
        assert out.measures[0].mass == (0, 1, 0)
        assert out.measures[1].mass == (0, 0, 1)

    def test_full_space_is_identity(self):
        out = MCGEE.condition(AB.full_event())
        assert out == MCGEE

    def test_level_dropped_when_zero(self):
        out = lps(AB, (1, 0), (0, 1)).condition(AB.event({1}))
        assert len(out) == 1
        assert out.measures[0].mass == (0, 1)

    def test_zero_event_raises(self):
        with pytest.raises(ZeroConditioningError):
            lps(ABC, (1, 0, 0), (0, 1, 0)).condition(ABC.event({2}))


class TestCompare:
    def test_tiebreak_prefers_first_world(self):
        x = rv(AB, 1, 0)
        y = rv(AB, 0, 1)
        assert MCGEE.compare_expectations(x, y) == GT

    def test_scaled_bet_flips(self):
        x = rv(AB, 1, 0)
        y = rv(AB, 0, 2)
        assert MCGEE.compare_expectations(x, y) == LT

    def test_equal(self):
        x = rv(AB, 1, 0)
        assert MCGEE.compare_expectations(x, x) == EQ


class TestClassify:
    def test_overlapping_supports_not_slps(self):
        c = MCGEE.classify()
        assert not c.is_slps and not c.is_mslps and not c.is_lcps
        assert c.label() == "LPS"

    def test_disjoint_supports_lcps(self):
        c = lps(AB, (1, 0), (0, 1)).classify()
        assert c.is_lcps and c.is_mslps and c.is_slps
        assert c.support_witnesses == (frozenset({0}), frozenset({1}))

    def test_single_measure_is_lcps(self):
        assert lps(AB, (F(1, 2), F(1, 2))).classify().is_lcps

    def test_flag_implications(self):
        rng = random.Random(7)
        for _ in range(50):
            rows = [
                [F(rng.randint(0, 3)) for _ in range(3)] for _ in range(rng.randint(1, 3))
            ]
            rows = [
                [c / s for c in row]
                for row in rows
                if (s := sum(row)) > 0
            ]
            if not rows:
                continue
            c = lps(ABC, *rows).classify()
            assert (not c.is_lcps or c.is_mslps) and (not c.is_mslps or c.is_slps)


def sympy_rank(rows):
    return sympy.Matrix([[sympy.Rational(x) for x in row] for row in rows]).rank()


class TestReduce:
    def test_duplicate_collapses(self):
        u = (F(1, 2), F(1, 2))
        out = reduce_lps(lps(AB, u, u))
        assert len(out) == 1 and out.measures[0].mass == u

    def test_independent_unchanged(self):
        assert reduce_lps(MCGEE) == MCGEE

    def test_three_to_two_matches_rank_oracle(self):
        rows = [(F(1, 2), F(1, 2)), (F(1, 2), F(1, 2)), (1, 0)]
        out = reduce_lps(lps(AB, *rows))
        assert sympy_rank(rows) == 2
        assert [m.mass for m in out.measures] == [(F(1, 2), F(1, 2)), (F(1), F(0))]

    def test_random_lengths_match_rank_oracle(self):
        rng = random.Random(3)
        for _ in range(40):
            n = rng.randint(2, 4)
            algebra = SpaceAlgebra.discrete([f"w{i}" for i in range(n)])
            rows = []
            for _ in range(rng.randint(1, 5)):
                cuts = [F(rng.randint(0, 4)) for _ in range(n)]
                s = sum(cuts)
                if s == 0:
                    cuts[0] = F(1)
                    s = F(1)
                rows.append(tuple(c / s for c in cuts))
            out = reduce_lps(lps(algebra, *rows))
            assert len(out) == sympy_rank(rows)
            assert len(out) <= n


def random_rv(rng, algebra):
    return RandomVariable.from_values(
        algebra, [rng.randint(-3, 3) for _ in range(algebra.n_atoms)]
    )


class TestEquivalence:
    def test_duplicate_level_equivalent(self):
        u = StdMeasure.uniform(AB)
        cert = equivalence(LPS(AB, (u, u)), LPS(AB, (u,)))
        assert cert.equivalent
        assert cert.forward_matrix == ((F(1),),)
        assert cert.backward_matrix == ((F(1),),)
        assert cert.verify()

    def test_mcgee_vs_uniform_inequivalent_with_indicator_witness(self):
        cert = equivalence(MCGEE, lps(AB, (F(1, 2), F(1, 2))))
        assert not cert.equivalent
        x, y = cert.witness
        assert x.values == (1, 0) and y.values == (0, 1)
        assert MCGEE.compare_expectations(x, y) == GT
        assert lps(AB, (F(1, 2), F(1, 2))).compare_expectations(x, y) == EQ
        assert cert.verify()

    def test_distinct_disjoint_support_systems_differ(self):
        a = lps(AB, (1, 0), (0, 1))
        b = lps(AB, (0, 1), (1, 0))
        cert = equivalence(a, b)
        assert not cert.equivalent and cert.verify()

    def test_algebra_mismatch(self):
        with pytest.raises(AlgebraMismatchError):
            equivalence(MCGEE, lps(ABC, (1, 0, 0)))

    def test_reduction_is_certified_equivalent(self):
        rng = random.Random(11)
        for _ in range(30):
            n = rng.randint(2, 4)
            algebra = SpaceAlgebra.discrete([f"w{i}" for i in range(n)])
            a = random_lps(rng, algebra, max_len=n + 1)
            cert = equivalence(a, reduce_lps(a))
            assert cert.equivalent and cert.verify()

    def test_triangular_variants_equivalent(self):
        rng = random.Random(13)
        for _ in range(30):
            n = rng.randint(2, 4)
            algebra = SpaceAlgebra.discrete([f"w{i}" for i in range(n)])
            a = reduce_lps(random_lps(rng, algebra, max_len=n))
            b = triangular_variant(rng, a)
            cert = equivalence(a, b)
            assert cert.equivalent and cert.verify()

    def test_slps_equivalence_is_equality(self):
        rng = random.Random(17)
        for _ in range(60):
            n = rng.randint(2, 4)
            algebra = SpaceAlgebra.discrete([f"w{i}" for i in range(n)])
            a = covering_slps(rng, algebra)
            b = covering_slps(rng, algebra)
            cert = equivalence(a, b)
            assert cert.equivalent == (a.measures == b.measures)
            assert cert.verify()

    def test_oracle_sign_agreement(self):
        rng = random.Random(19)
        pairs = []
        for _ in range(12):
            n = rng.randint(2, 4)
            algebra = SpaceAlgebra.discrete([f"w{i}" for i in range(n)])
            a = random_lps(rng, algebra, max_len=n + 1)
            b = (
                triangular_variant(rng, reduce_lps(a))
                if rng.random() < 0.5
                else random_lps(rng, algebra, max_len=n + 1)
            )
            pairs.append((a, b, equivalence(a, b)))
        for a, b, cert in pairs:
            for _ in range(1000 // len(pairs) + 1):
                x, y = random_rv(rng, a.algebra), random_rv(rng, a.algebra)
                agree = a.compare_expectations(x, y) == b.compare_expectations(x, y)
                if cert.equivalent:
                    assert agree
            if not cert.equivalent:
                x, y = cert.witness
                assert a.compare_expectations(x, y) != b.compare_expectations(x, y)


def first_failing_level(a, b):
    """First level i at which level i of reduced b is not a combination of
    levels 0 to i of reduced a with a positive last coefficient, or None."""
    rows_a = [m.int_row for m in reduce_lps(a).measures]
    rows_b = [m.int_row for m in reduce_lps(b).measures]
    for i in range(max(len(rows_a), len(rows_b))):
        if i >= min(len(rows_a), len(rows_b)):
            return i
        coeffs = solve_combination(rows_a[: i + 1], rows_b[i])
        if coeffs is None or coeffs[i] <= 0:
            return i
    return None


def fractions_of(row):
    """The masses of the integer row ``(ints, den)``."""
    ints, den = row
    return tuple(F(x, den) for x in ints)


def changed(matrix, i, j, value):
    """``matrix`` with entry (i, j) replaced by ``value``."""
    rows = [list(row) for row in matrix]
    rows[i][j] = value
    return tuple(tuple(row) for row in rows)


class TestAgainstSearchOracle:
    def test_certificates_match_level_pair_search(self):
        """The first-failing-level decision against the search over every
        pair of levels, certificate for certificate, on 1 to 6 atoms and
        1 to 5 levels."""
        rng = random.Random(67)
        verdicts = {"equivalent": 0, "inequivalent": 0}
        late_failures = 0
        for _ in range(1000):
            a, b = aeq_pair(rng)
            cert = equivalence(a, b)
            assert jsonio.dumps(cert) == jsonio.dumps(equivalence_by_search(a, b))
            verdicts[cert.verdict] += 1
            level = first_failing_level(a, b)
            assert (level is None) == cert.equivalent
            late_failures += level is not None and level >= 1
            if level is not None:
                ra, rb = reduce_lps(a).measures, reduce_lps(b).measures
                assert _separate_at(
                    [m.int_row for m in ra], [m.int_row for m in rb], level, a.algebra.n_atoms
                ) == separate_at_over_fractions(
                    [m.mass for m in ra], [m.mass for m in rb], level, a.algebra.n_atoms
                )
        assert min(verdicts.values()) >= 200
        assert late_failures >= 50

    def test_one_elimination_matches_level_loops(self):
        """On ``aeq_pair`` draws, the reductions, the forward and backward
        matrices and the first failing level in each direction match one
        solve per level and one per prefix."""
        rng = random.Random(79)
        levels = {None: 0, 0: 0, "later": 0}
        for _ in range(1000):
            a, b = aeq_pair(rng)
            rows = []
            for s in (a, b):
                kept = reduce_lps(s)
                assert kept.measures == reduce_lps_by_levels(s).measures
                assert kept.measures == reduce_lps_over_fractions(s).measures
                rows.append([m.int_row for m in kept.measures])
            for src, dst in (rows, rows[::-1]):
                got = _triangular_coeffs(src, dst)
                assert got == triangular_coeffs_by_prefix(
                    [fractions_of(r) for r in src], [fractions_of(r) for r in dst]
                )
                levels[got[1] if got[1] in (None, 0) else "later"] += 1
            cert = equivalence(a, b)
            if cert.equivalent:
                assert cert.forward_matrix == _triangular_coeffs(rows[0], rows[1])[0]
                assert cert.backward_matrix == _triangular_coeffs(rows[1], rows[0])[0]
        assert min(levels.values()) >= 200, levels

    def test_verify_rejects_tampered_matrices(self):
        """The integer-row matrix check against the Fraction sums, on the
        forward and backward matrices of equivalent ``aeq_pair`` draws and
        on copies with one entry moved by 1/7, a nonzero entry above the
        diagonal, a negated diagonal entry, the last row dropped, one row
        cut short (ragged) or no matrix at all: the genuine ones verify, no
        tampered one does, and ``verify`` returns False without raising."""
        rng = random.Random(83)
        tampered = 0
        for _ in range(600):
            a, b = aeq_pair(rng)
            cert = equivalence(a, b)
            if not cert.equivalent:
                continue
            ra, rb = reduce_lps(a), reduce_lps(b)
            for m, src, dst, field in (
                (cert.forward_matrix, ra, rb, "forward_matrix"),
                (cert.backward_matrix, rb, ra, "backward_matrix"),
            ):
                i = rng.randrange(len(m))
                j = rng.randrange(i + 1)
                variants = [
                    changed(m, i, j, m[i][j] + F(1, 7)),
                    changed(m, i, i, -m[i][i]),
                    m[:-1],
                    m[:i] + (m[i][:-1],) + m[i + 1:],
                    None,
                ]
                if i:
                    variants.append(changed(m, i - 1, i, F(1, 7)))
                assert _matrix_rebuilds(m, src, dst)
                assert matrix_rebuilds_by_fractions(m, src, dst)
                for bad in variants:
                    assert not _matrix_rebuilds(bad, src, dst)
                    assert not matrix_rebuilds_by_fractions(bad, src, dst)
                    forged = dataclasses.replace(cert, **{field: bad})
                    assert not forged.verify()
                    tampered += 1
        assert tampered >= 1800

    def test_two_reductions_per_call(self, monkeypatch):
        """``equivalence`` reduces each system once and checks its
        certificate against those reductions; only the public ``verify``
        reduces again."""
        calls = []

        def counted(system):
            calls.append(len(system))
            return reduce_lps(system)

        monkeypatch.setattr(lps_module, "reduce_lps", counted)
        a = lps(ABC, (1, 0, 0), (0, 1, 0), (0, 0, 1))
        b = lps(ABC, (1, 0, 0), (0, 0, 1), (0, 1, 0))
        doubled = LPS(AB, MCGEE.measures * 2)
        for x, y, verdict in ((a, b, False), (a, a, True), (MCGEE, doubled, True)):
            calls.clear()
            cert = equivalence(x, y)
            assert cert.equivalent is verdict
            assert calls == [len(x), len(y)]
        calls.clear()
        assert cert.verify()
        assert calls == [len(MCGEE), len(doubled)]

    def test_one_nullspace_basis_per_inequivalent_call(self, monkeypatch):
        calls = []

        def counted(rows, n):
            calls.append(n)
            return nullspace_basis(rows, n)

        monkeypatch.setattr(_linalg, "nullspace_basis", counted)
        a = lps(ABC, (1, 0, 0), (0, 1, 0), (0, 0, 1))
        b = lps(ABC, (1, 0, 0), (0, 0, 1), (0, 1, 0))
        assert not equivalence(a, b).equivalent
        assert calls == [3]
        assert equivalence(a, a).equivalent
        assert calls == [3]


def test_generated_slps_classify_as_slps():
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randint(2, 5)
        algebra = SpaceAlgebra.discrete([f"w{i}" for i in range(n)])
        assert covering_slps(rng, algebra).classify().is_slps


class TestLinalg:
    def test_dependent_system_pins_free_coefficient_at_zero(self):
        rows = [((1, 0, 1), 1), ((2, 0, 2), 1), ((0, 1, 1), 1)]
        assert solve_combination(rows, ((3, 2, 5), 1)) == [F(3), F(0), F(2)]
        assert solve_combination(rows, ((1, 0, 0), 1)) is None
        assert solve_combination([], ((0, 0), 1)) == []
        # The same system over other denominators: row 0 is (1/2, 0, 1/2).
        halved = [((1, 0, 1), 2), ((4, 0, 4), 2), ((0, -3, -3), -3)]
        assert solve_combination(halved, ((9, 6, 15), 3)) == [F(6), F(0), F(2)]

    def test_nullspace_basis_order(self):
        rows = [(0, 0, 1, 3), (1, 2, 0, -1), (1, 2, 1, 2), (0, 0, 0, 0)]
        assert nullspace_basis([(row, 1) for row in rows], 4) == [(-2, 1, 0, 0), (1, 0, -3, 1)]
        assert nullspace_basis([((0, 0), 1)], 2) == [(1, 0), (0, 1)]
        assert nullspace_basis([((2, 4, 6), 7)], 3) == [(-2, 1, 0), (-3, 0, 1)]
