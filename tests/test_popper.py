"""Popper spaces: axiom validation, the structured-system bijection, and the
forest construction for treelike conditioning families."""

import random
from fractions import Fraction

import pytest
from genspaces import algebra_of, covering_slps, popper_table_draw, random_row, random_treelike_space
from genspaces import random_slps as draw_slps
from oracles import (
    popper_findings,
    slps_to_popper_by_condition,
    treelike_levels,
    validate_popper_by_covering_pairs,
)

from extprob.errors import (
    InvalidPopperSpaceError,
    NotAnSlpsError,
    NotTreelikeError,
    SizeLimitError,
)
from extprob import popper
from extprob.lps import LPS, classify_lps
from extprob.popper import (
    PopperSpace,
    forest_shape,
    popper_to_slps,
    slps_to_popper,
    treelike_to_lps,
    validate_popper,
)
from extprob.spaces import NonstdMeasure, SpaceAlgebra, StdMeasure, validate_space

F = Fraction

AB = SpaceAlgebra.discrete(["a", "b"])
ABC = SpaceAlgebra.discrete(["a", "b", "c"])
W4 = SpaceAlgebra.discrete(["w1", "w2", "w3", "w4"])


def lps(algebra, *rows):
    return LPS.from_rows(algebra, rows)


def pairs_only_space():
    """Four worlds, conditioning allowed only on the 2-element subsets.

    Rows not pinned down by the fixture's defining values are uniform.
    """
    half, third = F(1, 2), F(1, 3)
    rows = {
        (0, 2): (third, 0, 1 - third, 0),
        (1, 3): (0, 1 - third, 0, third),
        (0, 1): (half, half, 0, 0),
        (2, 3): (0, 0, half, half),
        (0, 3): (half, 0, 0, half),
        (1, 2): (0, half, half, 0),
    }
    return PopperSpace.from_rows(W4, rows)


class TestValidate:
    def test_pairs_only_cps_valid_popper_invalid(self):
        space = pairs_only_space()
        assert validate_popper(space, "cps").is_valid
        report = validate_popper(space, "popper")
        assert not report.is_valid
        assert any("superset" in f for f in report.findings)

    def test_two_singletons_treelike(self):
        space = PopperSpace.from_rows(AB, {(0,): (1, 0), (1,): (0, 1)})
        assert validate_popper(space, "treelike").is_valid
        assert not validate_popper(space, "popper").is_valid

    def test_cp1_violation_reported(self):
        space = PopperSpace.from_rows(AB, {(0,): (0, 1), (0, 1): (F(1, 2), F(1, 2))})
        report = validate_popper(space, "cps")
        assert any("CP1" in f for f in report.findings)

    def test_float_masses_are_findings(self):
        row = StdMeasure(AB, (0.5, 0.5))
        space = PopperSpace(AB, (AB.full_event(),), {AB.full_event(): row})
        assert validate_popper(space, "cps").findings == (
            "conditional given [0, 1]: mass 0.5 at atom 0 is neither int nor Fraction",
            "conditional given [0, 1]: mass 0.5 at atom 1 is neither int nor Fraction",
        )

    def test_float_nonstd_masses_are_findings(self):
        nu = NonstdMeasure(AB, (0.5, 0.5))
        assert validate_space(AB, [nu]).findings == (
            "measures[0]: mass 0.5 at atom 0 is not a NonstdNumber",
            "measures[0]: mass 0.5 at atom 1 is not a NonstdNumber",
        )

    def test_cp3_violation_reported(self):
        rows = {
            (0, 1, 2): (F(1, 2), F(1, 2), 0),
            (0, 1): (F(1, 4), F(3, 4), 0),
            (0,): (1, 0, 0),
        }
        report = validate_popper(PopperSpace.from_rows(ABC, rows), "cps")
        assert list(report.findings) == [
            "CP3: mu([0]|[0, 1, 2]) = 1/2 but mu([0]|[0, 1]) * mu([0, 1]|[0, 1, 2]) = 1/4",
            "CP3: mu([1]|[0, 1, 2]) = 1/2 but mu([1]|[0, 1]) * mu([0, 1]|[0, 1, 2]) = 3/4",
        ]

    def test_closure_findings_in_order(self):
        # Per family event in order: missing supersets in bitmask order of
        # the atoms outside it, then positive sub-events missing from the
        # family in bitmask order of its own atoms.
        rows = {(0, 1): (F(1, 2), F(1, 2), 0), (2,): (0, 0, 1)}
        report = validate_popper(PopperSpace.from_rows(ABC, rows), "popper")
        assert list(report.findings) == [
            "closure: [0, 1] in family but superset [0, 1, 2] is not",
            "closure: mu([0]|[0, 1]) > 0 but [0] not in family",
            "closure: mu([1]|[0, 1]) > 0 but [1] not in family",
            "closure: [2] in family but superset [0, 2] is not",
            "closure: [2] in family but superset [1, 2] is not",
            "closure: [2] in family but superset [0, 1, 2] is not",
        ]

    @pytest.mark.parametrize(
        "algebra, rows, finding",
        [
            # No covering pair and no superset closure: CP3 on (x, space).
            (
                W4,
                {(0, 1, 2, 3): (F(1, 4),) * 4, (0, 1): (F(1, 3), F(2, 3), 0, 0)},
                "CP3: mu([0]|[0, 1, 2, 3]) = 1/4 but "
                "mu([0]|[0, 1]) * mu([0, 1]|[0, 1, 2, 3]) = 1/6",
            ),
            # Closed family, covering pairs hold, mass outside [0] breaks CP1.
            (
                AB,
                {(0,): (F(1, 2), F(1, 2)), (1,): (0, 1), (0, 1): (0, 1)},
                "CP3: mu([0]|[0]) = 1/2 but mu([0]|[0]) * mu([0]|[0]) = 1/4",
            ),
            # Closed family, mass on atom 1 whose singleton is missing.
            (
                AB,
                {(0,): (1, 0), (0, 1): (F(1, 2), F(1, 2))},
                "closure: mu([1]|[0, 1]) > 0 but [1] not in family",
            ),
        ],
    )
    def test_shortcut_guards_match_oracle(self, algebra, rows, finding):
        space = PopperSpace.from_rows(algebra, rows)
        findings = list(validate_popper(space, "popper").findings)
        assert finding in findings
        assert findings == popper_findings(space, "popper")

    @pytest.mark.parametrize(
        "algebra, rows",
        [
            # Negative mass; the row sums to 1 on the space and on u.
            (AB, {(0, 1): (F(3, 2), F(-1, 2))}),
            # Sum 3/2 with mass outside u; u itself has mass 1.
            (AB, {(0,): (1, F(1, 2))}),
            # Sums to 1, but half of it lies outside u (CP1).
            (AB, {(0,): (F(1, 2), F(1, 2)), (0, 1): (F(1, 2), F(1, 2))}),
            # Three masses for two atoms, summing to 1 on u.
            (AB, {(0, 1): (F(1, 2), F(1, 2), 0)}),
            # Int masses, valid and summing to 2.
            (AB, {(0,): (1, 0), (1,): (0, 1), (0, 1): (1, 0)}),
            (AB, {(0, 1): (1, 1)}),
        ],
        ids=["negative", "sum", "cp1", "length", "int", "int-sum"],
    )
    def test_row_guards_match_oracle(self, algebra, rows):
        space = table_space(algebra, {frozenset(u): m for u, m in rows.items()})
        for level in ("cps", "popper", "treelike"):
            assert list(validate_popper(space, level).findings) == popper_findings(space, level)

    def test_nonnested_overlap_not_treelike(self):
        space = PopperSpace.from_rows(
            ABC,
            {
                (0, 1): (F(1, 2), F(1, 2), 0),
                (1, 2): (0, F(1, 2), F(1, 2)),
            },
        )
        report = validate_popper(space, "treelike")
        assert any("T2" in f for f in report.findings)


def table_space(algebra, rows):
    """Popper space from ``{event: mass list}``, in the given event order."""
    table = {u: StdMeasure(algebra, tuple(m)) for u, m in rows.items()}
    return PopperSpace(algebra, tuple(table), table)


def broken_copies(rng, space):
    """Copies of a valid table, each broken in one way: a perturbed row, a
    dropped event, mass moved outside its event, a negative mass, and a
    random sub-family with random rows."""
    algebra, n = space.algebra, space.algebra.n_atoms
    rows = {u: list(space.table[u].mass) for u in space.conditioning_events}
    u = rng.choice(list(rows))
    inside = sorted(u)
    row = rows[u]
    heavy = rng.choice([a for a in inside if row[a] != 0])
    out = []
    if len(inside) > 1:
        other = rng.choice([a for a in inside if a != heavy])
        moved = row[heavy] / rng.randint(2, 4)
        perturbed = row[:]
        perturbed[heavy] -= moved
        perturbed[other] += moved
        out.append(table_space(algebra, {**rows, u: perturbed}))
        negative = row[:]
        negative[other] -= 1
        negative[heavy] += 1
        out.append(table_space(algebra, {**rows, u: negative}))
    if len(rows) > 1:
        out.append(table_space(algebra, {e: m for e, m in rows.items() if e != u}))
    if len(inside) < n:
        outside = row[:]
        outside[rng.choice([a for a in range(n) if a not in u])] += row[heavy] / 2
        outside[heavy] /= 2
        out.append(table_space(algebra, {**rows, u: outside}))
    family = rng.sample(list(rows), rng.randint(1, len(rows)))
    out.append(table_space(algebra, {
        e: list(random_row(rng, n, rng.sample(sorted(e), rng.randint(1, len(e)))))
        for e in family
    }))
    return out


def test_validation_matches_exhaustive_oracle():
    # The exhaustive oracle costs about 4^n per level, so few draws are large.
    rng = random.Random(41)
    verdicts = {level: set() for level in ("cps", "popper", "treelike")}
    tables = 0
    for n in [1] * 5 + [2, 3, 4] * 24 + [5] * 8 + [6]:
        image = slps_to_popper(draw_slps(rng, algebra_of(n)))
        for space in [image] + broken_copies(rng, image):
            tables += 1
            for level in verdicts:
                got = list(validate_popper(space, level).findings)
                assert got == popper_findings(space, level)
                verdicts[level].add(not got)
    assert tables >= 400
    assert all(seen == {True, False} for seen in verdicts.values())


def test_validation_matches_covering_pair_route():
    """Findings, text and order, equal those of the covering-pair shortcut
    with a scan of every nested pair, at all three levels."""
    rng = random.Random(43)
    popper_valid = {True: 0, False: 0}
    chain_rule_only = 0
    for _ in range(2000):
        space = popper_table_draw(rng, rng.choice((1, 2, 3, 4, 5) * 9 + (6,) * 3 + (7,) * 2))
        for level in ("cps", "popper", "treelike"):
            got = list(validate_popper(space, level).findings)
            assert got == validate_popper_by_covering_pairs(space, level)
            if level == "popper":
                popper_valid[not got] += 1
                chain_rule_only += bool(got) and all(f.startswith("CP3") for f in got)
    assert min(popper_valid.values()) >= 400, popper_valid
    assert chain_rule_only >= 60, chain_rule_only


@pytest.mark.parametrize("case", ["not closed", "peeled"])
def test_unproven_nested_pair_is_tested_directly(monkeypatch, case):
    """A nested pair that holds, but that no shortcut proves, reaches the
    direct test and adds no finding.

    - not closed: the family lacks [3], so the peeled levels do not run
      and every nested pair is tested.  ([0, 1], space) holds while the
      rows of [0, 1, 2] and [0, 1, 3] break the chain rule with mass
      moved inside their events.
    - peeled: on every nonempty event, the row of [0, 1, 2] moves mass to
      atom 2 but keeps atoms 0 and 1 equal, so its test against the
      space fails while ([0, 1], [0, 1, 2]) holds.
    """
    events = [u for u in W4.events() if u and (case == "peeled" or u != {3})]
    rows = {
        tuple(sorted(u)): tuple(F(1, len(u)) if a in u else 0 for a in range(4))
        for u in events
    }
    if case == "peeled":
        rows[(0, 1, 2)] = (F(1, 4), F(1, 4), F(1, 2), 0)
        pair = (W4.event({0, 1}), W4.event({0, 1, 2}))
    else:
        rows[(0, 1, 2)] = (F(1, 6), F(1, 2), F(1, 3), 0)
        rows[(0, 1, 3)] = (F(1, 2), F(1, 6), 0, F(1, 3))
        pair = (W4.event({0, 1}), W4.full_event())
    space = PopperSpace.from_rows(W4, rows)
    tested = {}
    test = popper._chain_rule_on_atoms

    def recorded(int_rows, x, u):
        tested[x, u] = test(int_rows, x, u)
        return tested[x, u]

    monkeypatch.setattr(popper, "_chain_rule_on_atoms", recorded)
    findings = list(validate_popper(space, "popper").findings)
    assert tested[pair] is True
    assert findings == validate_popper_by_covering_pairs(space, "popper")
    assert any(f.startswith("CP3") for f in findings)
    assert not any(f" * mu({sorted(pair[0])}|{sorted(pair[1])}) = " in f for f in findings)


class TestChainRuleTests:
    """Calls of the chain-rule test per validation at the popper level."""

    SPACE = algebra_of(7)
    LEVELS = (
        (F(1, 6), F(1, 3), F(1, 2), 0, 0, 0, 0),
        (0, 0, 0, F(1, 4), F(3, 4), 0, 0),
        (0, 0, 0, 0, 0, F(2, 5), F(3, 5)),
    )

    def counted(self, monkeypatch, space):
        calls = []
        test = popper._chain_rule_on_atoms

        def counted_test(rows, x, u):
            calls.append((x, u))
            return test(rows, x, u)

        monkeypatch.setattr(popper, "_chain_rule_on_atoms", counted_test)
        report = validate_popper(space, "popper")
        return report, calls

    def test_one_test_per_event_on_a_valid_table(self, monkeypatch):
        image = slps_to_popper(lps(self.SPACE, *self.LEVELS))
        report, calls = self.counted(monkeypatch, image)
        assert report.is_valid
        assert len(image.conditioning_events) == 127
        assert sorted(x for x, _ in calls) == sorted(image.conditioning_events)

    def test_broken_row_costs_covering_and_touching_pairs(self, monkeypatch):
        image = slps_to_popper(lps(self.SPACE, *self.LEVELS))
        broken = self.SPACE.event({0, 1, 2})
        table = dict(image.table)
        # Mass moved inside the event: CP1 holds, the peeled levels run.
        table[broken] = StdMeasure(self.SPACE, (F(1, 3), F(1, 6), F(1, 2), 0, 0, 0, 0))
        space = PopperSpace(self.SPACE, image.conditioning_events, table)
        report, calls = self.counted(monkeypatch, space)
        assert list(report.findings) == validate_popper_by_covering_pairs(space, "popper")
        fam = set(space.conditioning_events)
        covering = sum(1 for x in fam for a in range(7) if a not in x and x | {a} in fam)
        touching = sum(1 for u in fam for x in fam if x <= u and broken in (x, u))
        assert (covering, touching) == (441, 22)
        assert len(calls) <= covering + touching


class TestSlpsToPopper:
    def test_two_point_system(self):
        space = slps_to_popper(lps(AB, (1, 0), (0, 1)))
        assert space.family() == {
            frozenset({0}),
            frozenset({1}),
            frozenset({0, 1}),
        }
        assert space.conditional(frozenset({0}), frozenset({0, 1})) == 1

    def test_least_index_rule_matches_enumeration_oracle(self):
        system = lps(ABC, (F(1, 2), F(1, 2), 0), (0, 0, 1))
        space = slps_to_popper(system)
        bc = ABC.event({1, 2})
        assert space.conditional(ABC.event({2}), bc) == 0
        assert space.conditional(ABC.event({2}), ABC.event({2})) == 1
        assert space == slps_to_popper_by_condition(system)

    def test_single_measure_full_support(self):
        space = slps_to_popper(lps(AB, (F(1, 2), F(1, 2))))
        assert space.family() == {
            frozenset({0}),
            frozenset({1}),
            frozenset({0, 1}),
        }
        assert validate_popper(space, "popper").is_valid

    def test_rejects_unstructured_input(self):
        with pytest.raises(NotAnSlpsError):
            slps_to_popper(lps(AB, (F(1, 2), F(1, 2)), (1, 0)))

    def test_matches_conditioning_oracle(self):
        rng = random.Random(53)
        multi_level = 0
        for _ in range(1000):
            system = draw_slps(rng, algebra_of(rng.randint(1, 7)))
            got, want = slps_to_popper(system), slps_to_popper_by_condition(system)
            assert got == want
            assert list(got.table) == list(want.table)
            assert all(type(m) is Fraction for row in got.table.values() for m in row.mass)
            multi_level += len(system) > 1
        assert multi_level >= 300

    def test_validation_leaves_conditional_masses_unbuilt(self):
        # The forward map's conditionals keep only their integer rows, and a
        # valid table is validated on those rows alone.
        rng = random.Random(59)
        systems = [lps(algebra_of(7), *TestChainRuleTests.LEVELS)]
        systems += [covering_slps(rng, algebra_of(rng.randint(1, 7))) for _ in range(50)]
        for system in systems:
            image = slps_to_popper(system)
            assert validate_popper(image, "popper").is_valid
            assert not any("mass" in row.__dict__ for row in image.table.values())

    def test_float_level_keeps_its_arithmetic(self):
        # A level without denominators is conditioned in its own arithmetic;
        # the rational level after it is not.
        system = LPS(W4, (
            StdMeasure(W4, (0.25, 0.75, 0.0, 0.0)),
            StdMeasure(W4, (F(0), F(0), F(1, 3), F(2, 3))),
        ))
        got, want = slps_to_popper(system), slps_to_popper_by_condition(system)
        assert got == want
        assert [[type(m) for m in row.mass] for row in got.table.values()] == [
            [type(m) for m in row.mass] for row in want.table.values()
        ]
        assert got.table[W4.full_event()].mass == (0.25, 0.75, 0.0, 0.0)
        assert got.table[W4.event({2, 3})].mass == (0, 0, F(1, 3), F(2, 3))

    def test_refuses_more_events_than_the_limit(self):
        with pytest.raises(SizeLimitError, match="EVENT_LIMIT = 1048576"):
            slps_to_popper(lps(algebra_of(21), [F(1, 21)] * 21))


class TestPopperToSlps:
    def test_forced_two_level_construction(self):
        space = PopperSpace.from_rows(
            AB, {(0, 1): (1, 0), (0,): (1, 0), (1,): (0, 1)}
        )
        out = popper_to_slps(space)
        assert [m.mass for m in out.measures] == [(1, 0), (0, 1)]

    def test_round_trip_through_tables(self):
        system = lps(ABC, (F(1, 2), F(1, 2), 0), (0, 0, 1))
        space = slps_to_popper(system)
        recovered = popper_to_slps(space)
        assert recovered.measures == system.measures
        assert slps_to_popper(recovered) == space

    def test_stops_when_remainder_not_conditionable(self):
        system = lps(ABC, (F(1, 2), F(1, 2), 0))
        space = slps_to_popper(system)
        out = popper_to_slps(space)
        assert len(out) == 1
        assert out.measures[0].mass == (F(1, 2), F(1, 2), 0)

    def test_rejects_invalid_space(self):
        with pytest.raises(InvalidPopperSpaceError):
            popper_to_slps(pairs_only_space())


class TestBijection:
    def test_round_trip_and_injectivity(self):
        rng = random.Random(29)
        seen = {}
        for _ in range(60):
            n = rng.randint(2, 5)
            algebra = SpaceAlgebra.discrete([f"w{i}" for i in range(n)])
            s = covering_slps(rng, algebra)
            p = slps_to_popper(s)
            back = popper_to_slps(p)
            assert back.measures == s.measures
            assert classify_lps(back).is_lcps
            key = (algebra, tuple(m.mass for m in s.measures))
            for other_key, other_p in seen.items():
                if other_key[0] == algebra and other_key != key:
                    assert other_p != p
            seen[key] = p

    def test_images_validate_at_popper_level(self):
        rng = random.Random(31)
        for _ in range(10):
            n = rng.randint(2, 4)
            algebra = SpaceAlgebra.discrete([f"w{i}" for i in range(n)])
            p = slps_to_popper(covering_slps(rng, algebra))
            assert validate_popper(p, "popper").is_valid


def chain_space():
    """Root {a,b,c} with children {a,b} and {c}, where the child {a,b}
    carries all the root mass and {c} is reached only by conditioning."""
    rows = {
        (0, 1, 2): (F(1, 2), F(1, 2), 0),
        (0, 1): (F(1, 2), F(1, 2), 0),
        (2,): (0, 0, 1),
    }
    return PopperSpace.from_rows(ABC, rows)


class TestTreelike:
    def test_two_singleton_family(self):
        space = PopperSpace.from_rows(AB, {(0,): (1, 0), (1,): (0, 1)})
        out = treelike_to_lps(space)
        assert len(out) == 1
        assert out.measures[0].mass == (F(1, 2), F(1, 2))
        for ev in space.conditioning_events:
            assert out.gives_positive_mass(ev)

    def test_single_root(self):
        space = PopperSpace.from_rows(ABC, {(0, 1, 2): (F(1, 3), F(1, 3), F(1, 3))})
        out = treelike_to_lps(space)
        assert len(out) == 1
        assert out.measures[0].mass == (F(1, 3), F(1, 3), F(1, 3))

    def test_zero_probability_child_opens_second_level(self):
        out = treelike_to_lps(chain_space())
        assert len(out) == 2
        assert out.measures[0].mass == (F(1, 2), F(1, 2), 0)
        assert out.measures[1].mass == (0, 0, 1)
        assert classify_lps(out).is_lcps
        # Oracle: brute-force labels; {c} is unreachable from level 0.
        space = chain_space()
        reachable0 = {
            u
            for u in space.conditioning_events
            if space.conditional(u, ABC.full_event()) > 0
        } | {ABC.full_event()}
        assert ABC.event({2}) not in reachable0

    def test_agreement_on_all_pairs(self):
        space = chain_space()
        out = treelike_to_lps(space)
        for u in space.conditioning_events:
            conditioned = out.condition(u)
            for v in [frozenset(), *ABC.events()]:
                assert conditioned.measures[0].event_mass(v) == space.conditional(v, u)

    def test_rejects_non_treelike(self):
        with pytest.raises(NotTreelikeError):
            treelike_to_lps(pairs_only_space())

    def test_forest_shape_parents(self):
        parents = forest_shape(chain_space())
        assert parents[ABC.event({0, 1})] == ABC.full_event()
        assert parents[ABC.full_event()] is None
        assert {u for u, p in parents.items() if p is None} == {ABC.full_event()}

    def test_levels_match_fixpoint_labelling_oracle(self):
        rng = random.Random(7)
        multi_level = 0
        for _ in range(320):
            space = random_treelike_space(rng, algebra_of(rng.randint(1, 6)))
            got = tuple(m.mass for m in treelike_to_lps(space).measures)
            assert got == treelike_levels(space)
            multi_level += len(got) > 1
        assert multi_level >= 50


def test_validation_reports_broken_partition_first():
    broken = SpaceAlgebra(("a", "b"), (("a", "b"), ("b",)))
    space = PopperSpace.from_rows(broken, {(0, 1): (F(1, 2), F(1, 2))})
    report = validate_popper(space, "cps")
    assert not report.is_valid
    assert any("already in" in f for f in report.findings)
