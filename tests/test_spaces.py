"""Sample spaces, measures, expectation, and conditioning."""

import random
from fractions import Fraction

import pytest
from genspaces import algebra_of, mass_row
from oracles import event_mass_by_fractions, expectation_by_fractions, invariant_findings_by_fractions

from extprob.errors import AlgebraMismatchError, ZeroConditioningError
from extprob.field import EPS, NonstdNumber, ONE, ZERO
from extprob.spaces import (
    NonstdMeasure,
    RandomVariable,
    SpaceAlgebra,
    StdMeasure,
    validate_space,
)

F = Fraction

AB = SpaceAlgebra.discrete(["a", "b"])
ABC = SpaceAlgebra.discrete(["a", "b", "c"])
W4 = SpaceAlgebra.discrete(["w1", "w2", "w3", "w4"])

NU1 = NonstdMeasure.from_values(
    W4, [1 - 2 * EPS + EPS**2, EPS - EPS**2, EPS - EPS**2, EPS**2]
)


class TestValidate:
    def test_uniform_two_atoms_valid(self):
        report = validate_space(AB, [StdMeasure.uniform(AB)])
        assert report.is_valid and report.lines() == ["ok"]

    def test_sum_violation_located(self):
        bad = StdMeasure.from_values(AB, [F(1, 2), F(1, 3)])
        report = validate_space(AB, [bad])
        assert any("sum to 5/6" in f for f in report.findings)

    def test_negative_infinitesimal_mass(self):
        bad = NonstdMeasure.from_values(AB, [ONE + EPS, -EPS])
        report = validate_space(AB, [bad])
        assert any("negative mass" in f for f in report.findings)

    def test_partition_violations(self):
        broken = SpaceAlgebra(("a", "b", "c"), (("a", "b"), ("b",)))
        report = validate_space(broken)
        assert any("already in" in f for f in report.findings)
        assert any("not covered" in f for f in report.findings)

    def test_partition_findings_text_and_order(self):
        broken = SpaceAlgebra(
            ("a", "b", "c", (1, 2), "d"),
            (("a", "b"), (), ("b", "x"), ((1, 2), "y"), (), ("a",)),
        )
        assert validate_space(broken).findings == (
            "atoms[1]: empty block",
            "atoms[2]: world 'b' already in atoms[0]",
            "atoms[4]: empty block",
            "atoms[5]: world 'a' already in atoms[0]",
            "worlds not covered by atoms: ['c', 'd']",
            "atoms mention unknown worlds: ['x', 'y']",
        )

    def test_coarse_atoms_are_fine(self):
        coarse = SpaceAlgebra(("a", "b", "c", "d"), (("a", "b"), ("c", "d")))
        m = StdMeasure.from_values(coarse, [F(1, 4), F(3, 4)])
        assert validate_space(coarse, [m]).is_valid
        assert m.event_mass(coarse.event({1})) == F(3, 4)
        assert coarse.describe_event(coarse.event({1})) == "{c,d}"


class TestEventMass:
    def test_scaled_example_event(self):
        assert NU1.event_mass(W4.event({1, 3})) == EPS

    def test_full_and_empty(self):
        assert NU1.event_mass(W4.full_event()) == ONE
        assert NU1.event_mass(frozenset()) == ZERO
        m = StdMeasure.uniform(ABC)
        assert m.event_mass(ABC.full_event()) == 1
        assert m.event_mass(frozenset()) == 0

    def test_finite_additivity_exhaustive_pairs(self):
        m = StdMeasure.from_values(ABC, [F(1, 6), F(1, 3), F(1, 2)])
        events = [frozenset(), *ABC.events()]
        for a in events:
            for b in events:
                if not (a & b):
                    assert m.event_mass(a | b) == m.event_mass(a) + m.event_mass(b)


class TestExpect:
    def test_tiebreak_margin(self):
        nu = NonstdMeasure.from_values(AB, [F(1, 2) + EPS, F(1, 2) - EPS])
        x = RandomVariable.from_values(AB, [1, -1])
        assert nu.expectation(x) == 2 * EPS

    def test_uniform_indicator(self):
        m = StdMeasure.uniform(AB)
        assert m.expectation(RandomVariable.indicator(AB, AB.event({0}))) == F(1, 2)

    def test_scaled_bet_negative(self):
        nu = NonstdMeasure.from_values(AB, [F(1, 2) + EPS, F(1, 2) - EPS])
        x = RandomVariable.from_values(AB, [1, -2])
        assert nu.expectation(x) == NonstdNumber.from_terms([(0, F(-1, 2)), (1, 3)])
        assert nu.expectation(x).sign() < 0

    def test_linearity_randomized(self):
        rng = random.Random(101)
        for _ in range(40):
            n = rng.randint(2, 4)
            algebra = SpaceAlgebra.discrete([f"w{i}" for i in range(n)])
            masses = [F(rng.randint(0, 5)) for _ in range(n)]
            if sum(masses) == 0:
                masses[0] = F(1)
            total = sum(masses)
            m = StdMeasure(algebra, tuple(v / total for v in masses))
            x = RandomVariable.from_values(algebra, [rng.randint(-3, 3) for _ in range(n)])
            y = RandomVariable.from_values(algebra, [rng.randint(-3, 3) for _ in range(n)])
            a, b = F(rng.randint(-2, 3)), F(rng.randint(-2, 3))
            combo = x.scale(a) + y.scale(b)
            assert m.expectation(combo) == a * m.expectation(x) + b * m.expectation(y)

    def test_algebra_mismatch(self):
        with pytest.raises(AlgebraMismatchError):
            StdMeasure.uniform(AB).expectation(
                RandomVariable.from_values(ABC, [1, 2, 3])
            )


class TestCondition:
    def test_infinitesimal_ratio(self):
        cond = NU1.condition(W4.event({1, 3}))
        assert cond.mass[3] == EPS

    def test_full_space_identity(self):
        assert NU1.condition(W4.full_event()) == NU1

    def test_dropped_atom(self):
        m = StdMeasure.from_values(ABC, [F(1, 2), F(1, 2), 0])
        cond = m.condition(ABC.event({1, 2}))
        assert cond.mass == (0, 1, 0)

    def test_conditioned_event_has_unit_mass(self):
        rng = random.Random(103)
        for _ in range(30):
            n = rng.randint(2, 4)
            algebra = SpaceAlgebra.discrete([f"w{i}" for i in range(n)])
            masses = [F(rng.randint(0, 4)) for _ in range(n)]
            if sum(masses) == 0:
                masses[0] = F(1)
            total = sum(masses)
            m = StdMeasure(algebra, tuple(v / total for v in masses))
            for ev in algebra.events():
                if m.event_mass(ev) > 0:
                    assert m.condition(ev).event_mass(ev) == 1

    def test_chain_rule(self):
        rng = random.Random(107)
        for _ in range(30):
            n = rng.randint(3, 4)
            algebra = SpaceAlgebra.discrete([f"w{i}" for i in range(n)])
            masses = [F(rng.randint(1, 4)) for _ in range(n)]
            total = sum(masses)
            m = StdMeasure(algebra, tuple(v / total for v in masses))
            events = [ev for ev in algebra.events()]
            for u in events:
                for x in events:
                    if not (x <= u):
                        continue
                    for v in events:
                        if not (v <= x):
                            continue
                        if m.event_mass(x) == 0 or m.event_mass(u) == 0:
                            continue
                        direct = m.condition(u).event_mass(v)
                        chained = m.condition(x).event_mass(v) * m.condition(
                            u
                        ).event_mass(x)
                        assert direct == chained

    def test_zero_event_raises(self):
        m = StdMeasure.from_values(ABC, [1, 0, 0])
        with pytest.raises(ZeroConditioningError):
            m.condition(ABC.event({1, 2}))


class TestFromIntRow:
    def test_mass_is_built_on_first_read(self):
        m = StdMeasure.from_int_row(ABC, (1, 0, 3), 4)
        assert "mass" not in m.__dict__
        assert m.event_mass(ABC.event({0, 2})) == 1
        assert "mass" not in m.__dict__
        assert m.mass == (F(1, 4), 0, F(3, 4))
        assert all(type(x) is Fraction for x in m.mass)
        assert "mass" in m.__dict__

    def test_unnormalised_and_negative_denominator_rows(self):
        m = StdMeasure.from_int_row(AB, (2, -4), -6)
        want = StdMeasure.from_values(AB, [F(-1, 3), F(2, 3)])
        assert m.int_row == ((-2, 4), 6)
        assert m == want and hash(m) == hash(want)
        assert StdMeasure.from_int_row(AB, (1, 3), 4) != StdMeasure.from_values(AB, [F(1, 2)] * 2)

    def test_equals_and_hashes_like_the_measure_of_its_values(self):
        rng = random.Random(2111)
        for _ in range(500):
            n = rng.randint(1, 5)
            ints = tuple(rng.randint(-6, 6) for _ in range(n))
            den = rng.choice([-1, 1]) * rng.randint(1, 12)
            m = StdMeasure.from_int_row(algebra_of(n), ints, den)
            want = StdMeasure.from_values(algebra_of(n), [F(x, den) for x in ints])
            assert m == want and hash(m) == hash(want)
            assert m.mass == want.mass


def test_events_in_lexicographic_order():
    assert ABC.events() == [
        frozenset(ev) for ev in [(0,), (0, 1), (0, 1, 2), (0, 2), (1,), (1, 2), (2,)]
    ]


def _outcome(call, *args):
    """The result with its type, or the exception's type and message."""
    try:
        value = call(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return type(value), value


class TestAgainstFractionRoute:
    """The integer row against the ``Fraction`` sums it replaced, on
    seeded rows of every kind ``genspaces.mass_row`` draws."""

    def test_findings_event_masses_and_expectations(self, monkeypatch):
        fallbacks = []
        on_masses = StdMeasure._findings_on_masses

        def recorded(measure, where):
            fallbacks.append(measure)
            return on_masses(measure, where)

        monkeypatch.setattr(StdMeasure, "_findings_on_masses", recorded)
        rng = random.Random(1709)
        rows = {True: 0, False: 0}
        for k in range(1000):
            n = rng.randint(1, 5)
            algebra = algebra_of(n)
            valid, row = mass_row(rng, n)
            rows[valid] += 1
            measure = StdMeasure(algebra, row)
            fallbacks.clear()
            where = f"measures[{k}]"
            findings = measure.invariant_findings(where)
            assert findings == invariant_findings_by_fractions(measure, where)
            assert (findings == []) == valid
            # A valid rational row is accepted on its integers alone.
            assert bool(fallbacks) == (not valid)
            for ev in [frozenset(), *algebra.events(), frozenset({n})]:
                assert _outcome(measure.event_mass, ev) == _outcome(
                    event_mass_by_fractions, measure, ev
                )
            values = [F(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(n)]
            draw = rng.random()
            if draw < 0.2:
                values = [int(v * 60) for v in values]
            elif draw < 0.3:
                values = [float(v) for v in values]
            elif draw < 0.4:
                values = values[:-1]
            elif draw < 0.5:
                values.append(F(1))
            on = algebra if rng.random() < 0.95 else algebra_of(n + 1)
            x = RandomVariable(on, tuple(values))
            assert _outcome(measure.expectation, x) == _outcome(
                expectation_by_fractions, measure, x
            )
        assert min(rows.values()) >= 200, rows
