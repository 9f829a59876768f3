"""Infinitesimal measures vs lexicographic systems: embeddings,
decompositions, conditional-space images, and the two equivalence relations."""

import random
from fractions import Fraction

import pytest

from genspaces import (
    aeqchar_schedules,
    algebra_of,
    compose,
    covering_slps,
    random_lps,
    simeq_pair,
    tilted_apart,
)
from oracles import (
    compose_by_numbers,
    nps_to_lps_by_numbers,
    nps_to_popper_by_event_mass,
    pair_standard_part_by_sum,
    shortfall_over_fractions,
    simeq_by_images,
    simeq_by_pair_sums,
    standard_layers,
    standard_layers_by_st_ratio,
    verify_aeqchar_by_equivalence,
)

from extprob.errors import AlgebraMismatchError, LengthMismatchError, SizeLimitError
from extprob.field import EPS, NonstdNumber, ONE, ZERO
from extprob import npsbridge
from extprob.lps import LPS, equivalence, reduce_lps
from extprob.npsbridge import (
    Decomposition,
    _compose,
    _pair_standard_part,
    _shortfall,
    _standard_layers,
    geometric_schedule,
    lps_to_nps,
    nps_equiv,
    nps_equiv_simeq,
    nps_to_lps,
    nps_to_popper,
    steep_schedule,
    verify_aeqchar,
)
from extprob.popper import slps_to_popper, validate_popper
from extprob.spaces import NonstdMeasure, RandomVariable, SpaceAlgebra, StdMeasure

F = Fraction

AB = SpaceAlgebra.discrete(["w1", "w2"])
W4 = SpaceAlgebra.discrete(["w1", "w2", "w3", "w4"])


def lps(algebra, *rows):
    return LPS.from_rows(algebra, rows)


def nsm(algebra, *values):
    return NonstdMeasure.from_values(algebra, values)


MCGEE_LPS = lps(AB, (F(1, 2), F(1, 2)), (1, 0))
MCGEE_NU = nsm(AB, F(1, 2) + EPS, F(1, 2) - EPS)
UNIFORM_NU = nsm(AB, F(1, 2), F(1, 2))


class TestLpsToNps:
    def test_tiebreak_embedding(self):
        assert lps_to_nps(MCGEE_LPS).mass == (
            F(1, 2) + EPS / 2,
            F(1, 2) - EPS / 2,
        )

    def test_single_level_embeds_exactly(self):
        out = lps_to_nps(lps(AB, (F(1, 3), F(2, 3))))
        assert out.mass == (NonstdNumber.from_fraction(F(1, 3)), F(2, 3))

    def test_point_levels(self):
        assert lps_to_nps(lps(AB, (1, 0), (0, 1))).mass == (ONE - EPS, EPS)

    def test_embedding_and_recompose_match_reference_compose(self):
        rng = random.Random(71)
        for _ in range(20):
            n = rng.randint(1, 5)
            algebra = SpaceAlgebra.discrete([f"w{i}" for i in range(n)])
            system = random_lps(rng, algebra)
            schedule = geometric_schedule(len(system))
            assert lps_to_nps(system) == compose(system, schedule)
            steep = steep_schedule(len(system))
            assert Decomposition(system, steep).recompose() == compose(system, steep)


class TestNpsToLps:
    def test_mcgee_decomposition_by_hand(self):
        dec = nps_to_lps(MCGEE_NU)
        assert [m.mass for m in dec.lps.measures] == [(F(1, 2), F(1, 2)), (1, 0)]
        assert dec.coefficients == (ONE - 2 * EPS, 2 * EPS)
        assert dec.recompose() == MCGEE_NU
        assert equivalence(dec.lps, MCGEE_LPS).equivalent

    def test_standard_measure_single_layer(self):
        dec = nps_to_lps(UNIFORM_NU)
        assert len(dec.lps) == 1
        assert dec.coefficients == (ONE,)
        assert dec.lps.measures[0].mass == (F(1, 2), F(1, 2))

    def test_point_mass_split(self):
        dec = nps_to_lps(nsm(AB, ONE - EPS, EPS))
        assert [m.mass for m in dec.lps.measures] == [(1, 0), (0, 1)]
        assert dec.coefficients == (ONE - EPS, EPS)

    def test_decomposition_invariants_on_random_measures(self):
        rng = random.Random(37)
        for _ in range(40):
            nu = random_nps(rng)
            dec = nps_to_lps(nu)
            assert dec.recompose() == nu
            assert len(dec.lps) <= nu.algebra.n_atoms + 1
            assert sum(dec.coefficients, ZERO) == ONE
            for c in dec.coefficients:
                assert c.sign() > 0
            for early, late in zip(dec.coefficients, dec.coefficients[1:]):
                assert (late / early).standard_part() == 0


def random_nps(rng, max_atoms=4):
    n = rng.randint(2, max_atoms)
    algebra = SpaceAlgebra.discrete([f"w{i}" for i in range(n)])
    system = random_lps(rng, algebra)
    return compose(system, geometric_schedule(len(system)))


class TestNpsToPopper:
    def test_mcgee_image_keeps_all_events(self):
        space = nps_to_popper(MCGEE_NU)
        assert space.family() == set(AB.events())
        assert space.conditional(AB.event({0}), AB.full_event()) == F(1, 2)

    def test_infinitesimal_event_still_conditionable(self):
        space = nps_to_popper(nsm(AB, ONE - EPS, EPS))
        w2 = AB.event({1})
        assert space.conditional(w2, AB.full_event()) == 0
        assert w2 in space.family()
        assert space.conditional(w2, w2) == 1

    def test_standard_full_support_is_plain_conditioning(self):
        nu = nsm(AB, F(1, 3), F(2, 3))
        space = nps_to_popper(nu)
        assert space.conditional(AB.event({1}), AB.full_event()) == F(2, 3)
        assert validate_popper(space, "popper").is_valid

    def test_images_pass_popper_validation(self):
        rng = random.Random(41)
        for _ in range(10):
            assert validate_popper(nps_to_popper(random_nps(rng)), "popper").is_valid

    def test_refuses_more_events_than_the_limit(self):
        with pytest.raises(SizeLimitError, match="EVENT_LIMIT = 1048576"):
            nps_to_popper(nsm(algebra_of(21), *[F(1, 21)] * 21))


class TestEquivalences:
    def test_mcgee_simeq_but_not_aeq(self):
        assert nps_equiv(MCGEE_NU, UNIFORM_NU, "simeq") is True
        cert = nps_equiv(MCGEE_NU, UNIFORM_NU, "aeq")
        assert not cert.equivalent
        x, y = cert.witness
        assert (x.values, y.values) == ((1, 0), (0, 1))

    def test_epsilon_choice_invisible_to_aeq(self):
        def nu(amount):
            return nsm(
                W4,
                1 - 2 * EPS + amount,
                EPS - amount,
                EPS - amount,
                amount,
            )

        cert = nps_equiv(nu(EPS**2), nu(EPS**3), "aeq")
        assert cert.equivalent

    def test_reflexive(self):
        assert nps_equiv(MCGEE_NU, MCGEE_NU, "simeq") is True
        assert nps_equiv(MCGEE_NU, MCGEE_NU, "aeq").equivalent

    def test_algebra_mismatch(self):
        with pytest.raises(AlgebraMismatchError):
            nps_equiv(MCGEE_NU, nsm(W4, 1, 0, 0, 0), "aeq")

    def test_aeq_implies_simeq_on_schedule_pairs(self):
        rng = random.Random(43)
        for _ in range(25):
            n = rng.randint(2, 4)
            algebra = SpaceAlgebra.discrete([f"w{i}" for i in range(n)])
            system = random_lps(rng, algebra)
            nu_a = compose(system, geometric_schedule(len(system)))
            nu_b = compose(system, steep_schedule(len(system)))
            assert nps_equiv(nu_a, nu_b, "aeq").equivalent
            assert nps_equiv(nu_a, nu_b, "simeq") is True

    def test_first_positive_level_gives_conditional_standard_parts(self):
        rng = random.Random(47)
        for _ in range(20):
            n = rng.randint(2, 4)
            algebra = SpaceAlgebra.discrete([f"w{i}" for i in range(n)])
            system = random_lps(rng, algebra)
            nu = compose(system, geometric_schedule(len(system)))
            for ev in algebra.events():
                vec = system.event_mass_vector(ev)
                positive = [i for i, v in enumerate(vec) if v > 0]
                assert (not nu.event_mass(ev).is_zero) == bool(positive)
                if not positive:
                    continue
                lead = system.measures[positive[0]].condition(ev)
                conditioned = nu.condition(ev)
                for a in range(n):
                    assert conditioned.mass[a].standard_part() == lead.mass[a]


class TestAgainstOracles:
    def test_simeq_and_layers_match_oracles(self):
        """The pair-event simeq and the peeling without division against the
        image comparison and the division-based peeling, on embeddings under
        both schedules, triangular transforms, independent draws and tilted
        rational-function masses, 1 to 6 atoms."""
        rng = random.Random(59)
        verdicts = {True: 0, False: 0}
        for _ in range(1000):
            a, b = simeq_pair(rng)
            expected = simeq_by_images(a, b)
            assert nps_equiv_simeq(a, b) is expected
            verdicts[expected] += 1
            for nu in (a, b):
                assert _standard_layers(nu) == standard_layers(nu)
        assert min(verdicts.values()) >= 200


def outcome(f, *args):
    """What ``f(*args)`` gives: its value, or the type and message of the
    exception it raises."""
    try:
        return f(*args)
    except Exception as exc:
        return (type(exc), str(exc))


def number_structure(x):
    """The canonical representation of a field element, field by field."""
    return (x.num.coeffs, x.num.den, x.den.coeffs, x.den.den)


def decomposition_structure(dec):
    if isinstance(dec, tuple):
        return dec
    return [m.mass for m in dec.lps.measures], [number_structure(c) for c in dec.coefficients]


def layers_structure(out):
    if isinstance(out[0], type):
        return out
    layers, scales = out
    return layers, [number_structure(s) for s in scales]


def signed_measures():
    """Hand-built measures with signed, cancelling, unlimited or zero
    masses, not all summing to one: the exceptions must agree too."""
    e2 = EPS * EPS
    three = SpaceAlgebra.discrete(["w1", "w2", "w3"])
    rows = [
        (AB, (1 + EPS, -EPS)),  # a negative entry with no cushion
        (AB, (2 + EPS, -1 - EPS)),  # a layer that sums to zero
        (AB, (-1, 2)),
        (AB, (EPS, -EPS)),  # a pair that cancels to zero
        (AB, (1 / EPS, 1 - 1 / EPS)),  # unlimited masses
        (AB, (ONE / (ONE + EPS), EPS / (ONE + EPS))),
        (three, (1 + EPS, -1 + e2, 1 - EPS - e2)),  # a pair that cancels to infinitesimal
        (three, (1 - EPS, EPS - e2, e2)),
        (three, (1 + EPS - e2, -EPS, e2)),
        (three, (ONE / (ONE + EPS), -EPS / (ONE + 2 * EPS), ONE / (ONE - EPS))),
        (three, (F(1, 2) - EPS / (ONE + EPS), F(1, 2) + EPS / (ONE + 2 * EPS), ZERO)),
    ]
    rng = random.Random(61)
    for _ in range(300):
        n = rng.randint(2, 4)
        masses = []
        for _ in range(n):
            x = NonstdNumber.from_terms(
                [(e, F(rng.randint(-3, 3), rng.randint(1, 2))) for e in range(3)]
            )
            masses.append(x / (ONE + rng.randint(1, 3) * EPS) if rng.random() < 0.3 else x)
        rows.append((algebra_of(n), tuple(masses)))
    return [nsm(algebra, *masses) for algebra, masses in rows]


class TestAgainstReplacedArithmetic:
    """The conversions on numerators over one denominator against the same
    algorithms in per-number field arithmetic (``tests/oracles.py``)."""

    @staticmethod
    def check_measure(nu):
        assert layers_structure(outcome(_standard_layers, nu)) == layers_structure(
            outcome(standard_layers_by_st_ratio, nu)
        )
        dec = outcome(nps_to_lps, nu)
        assert decomposition_structure(dec) == decomposition_structure(
            outcome(nps_to_lps_by_numbers, nu)
        )
        if not isinstance(dec, tuple):
            composed = compose_by_numbers(dec.lps, dec.coefficients)
            assert [number_structure(m) for m in dec.recompose().mass] == [
                number_structure(m) for m in composed.mass
            ]
            assert composed == nu
        n = nu.algebra.n_atoms
        for i in range(n):
            for j in range(n):
                if i != j:
                    assert outcome(_pair_standard_part, nu, i, j) == outcome(
                        pair_standard_part_by_sum, nu, i, j
                    )
        if n <= 4:
            assert outcome(nps_to_popper, nu) == outcome(nps_to_popper_by_event_mass, nu)

    def test_seeded_measures_match_field_arithmetic(self):
        """Embeddings under both schedules, tilted copies with one
        denominator and copies with several distinct ones, 1 to 6 atoms."""
        rng = random.Random(67)
        measures = 0
        several = 0
        verdicts = {True: 0, False: 0}
        for _ in range(700):
            a, b = simeq_pair(rng)
            c = tilted_apart(rng, b)
            for nu in (a, b, c):
                self.check_measure(nu)
                measures += 1
                several += len({m.den for m in nu.mass} - {ONE.den}) >= 2
            for x, y in ((a, b), (a, c), (b, c)):
                verdict = nps_equiv_simeq(x, y)
                assert verdict is simeq_by_pair_sums(x, y)
                verdicts[verdict] += 1
        assert measures >= 2000
        assert several >= 300
        assert min(verdicts.values()) >= 300

    def test_signed_and_cancelling_masses_match_field_arithmetic(self):
        measures = signed_measures()
        for nu in measures:
            self.check_measure(nu)
        for a, b in zip(measures, measures[1:]):
            if a.algebra == b.algebra:
                assert outcome(nps_equiv_simeq, a, b) == outcome(simeq_by_pair_sums, a, b)

    def test_shortfall_matches_fraction_route(self):
        """The repair step of ``nps_to_lps`` by integer cross-multiplication
        against its earlier ``Fraction`` route, on seeded layers and
        cushions with entries and denominators of either sign, unnormalised
        and all-zero rows, and zero cushion entries, some under a negative
        layer entry: the same share of the cushion or the same error."""
        rng = random.Random(73)
        seen = dict(repair=0, none=0, zero_division=0, negative_cushion=0, all_zero=0)
        cases = [([0, -1, 2], 3, [1, 0, 0], 1), ([-2, 0], 5, [0, 0], 1)]
        for _ in range(3000):
            n = rng.randint(1, 5)
            k = rng.choice((1, 1, 2, 6))
            row = [k * rng.randint(-4, 4) if rng.random() < 0.8 else 0 for _ in range(n)]
            cushion = [rng.randint(-3, 6) if rng.random() < 0.8 else 0 for _ in range(n)]
            cases.append((row, k * rng.choice((1, 2, 5, -3)), cushion, rng.choice((1, 4, -2, -7))))
        for row, d, cushion, cushion_den in cases:
            got = outcome(_shortfall, row, d, cushion, cushion_den)
            want = outcome(shortfall_over_fractions, row, d, cushion, cushion_den)
            if isinstance(want, F):
                want = (want.numerator, want.denominator)
                seen["repair" if want[0] else "none"] += 1
            else:
                seen["zero_division"] += want[0] is ZeroDivisionError
            assert got == want
            seen["negative_cushion"] += any(
                x < 0 and c * cushion_den < 0 for x, c in zip(row, cushion)
            )
            seen["all_zero"] += not any(row)
        assert min(seen.values()) >= 100, seen

    def test_negative_entry_over_zero_cushion_raises_like_field_arithmetic(self):
        """Layer 1 of (1 + eps - eps^2, -eps, eps^2) is (1, -1, 0), and no
        earlier layer has mass at atom 1 to repair it with."""
        nu = nsm(algebra_of(3), 1 + EPS - EPS * EPS, -EPS, EPS * EPS)
        got = outcome(nps_to_lps, nu)
        assert got == (ZeroDivisionError, "Fraction(1, 0)")
        assert got == outcome(nps_to_lps_by_numbers, nu)

    def test_compose_length_mismatch_matches(self):
        system = lps(AB, (F(1, 2), F(1, 2)), (1, 0))
        for coefficients in ((ONE,), (ONE - EPS, EPS, ZERO), (F(1, 2), F(1, 2))):
            assert outcome(_compose, system, coefficients) == outcome(
                compose_by_numbers, system, coefficients
            )


class TestVerifyAeqchar:
    def test_point_schedule_accepted(self):
        for late in (EPS, EPS / (ONE + EPS)):
            assert verify_aeqchar(lps(AB, (F(1, 2), F(1, 2)), (1, 0)), (ONE - late, late))

    def test_decomposition_schedule_accepted(self):
        assert verify_aeqchar(
            lps(AB, (F(1, 2), F(1, 2)), (1, 0)), (ONE - 2 * EPS, 2 * EPS)
        )

    def test_non_infinitesimal_ratio_rejected(self):
        tilted = EPS / (ONE + EPS)
        for schedule in ((F(1, 2), F(1, 2)), (EPS, ONE - EPS), (tilted, ONE - tilted)):
            assert not verify_aeqchar(lps(AB, (F(1, 2), F(1, 2)), (1, 0)), schedule)

    def test_wrong_length_raises(self):
        with pytest.raises(LengthMismatchError):
            verify_aeqchar(MCGEE_LPS, (ONE,))

    def test_sum_must_be_one(self):
        assert not verify_aeqchar(MCGEE_LPS, (ONE - EPS, 2 * EPS))

    def test_matches_reproving_oracle(self):
        """The schedule checks alone against the checks followed by the
        equivalence of the weighted sum's decomposition with the system,
        on seeded systems with dependent levels and their reductions, under
        geometric, steep, random rising, reversed, scaled, equal-order,
        zero and negative schedules."""
        rng = random.Random(1609)
        verdicts = {True: 0, False: 0}
        for _ in range(250):
            n = rng.randint(1, 5)
            system = random_lps(rng, algebra_of(n), max_len=n + 2)
            for s in (system, reduce_lps(system)):
                for schedule in aeqchar_schedules(rng, len(s)):
                    verdict = verify_aeqchar(s, schedule)
                    assert verdict == verify_aeqchar_by_equivalence(s, schedule)
                    verdicts[verdict] += 1
        assert min(verdicts.values()) >= 1000, verdicts

    def test_float_masses_accepted(self):
        """A system built directly with ``float`` masses (no reader builds
        one) is judged by its schedule alone, as the embedding argument
        holds for real masses too; no exact arithmetic touches the masses."""
        system = LPS(AB, (StdMeasure(AB, (0.5, 0.5)), StdMeasure(AB, (1.0, 0.0))))
        assert verify_aeqchar(system, geometric_schedule(2))
        assert not verify_aeqchar(system, geometric_schedule(2)[::-1])

    def test_no_decomposition_or_equivalence(self, monkeypatch):
        calls = []
        for name in ("equivalence", "nps_to_lps"):
            monkeypatch.setattr(npsbridge, name, lambda *args, name=name: calls.append(name))
        assert verify_aeqchar(MCGEE_LPS, steep_schedule(2))
        assert not verify_aeqchar(MCGEE_LPS, geometric_schedule(2)[::-1])
        assert calls == []


class TestCompositionLaw:
    def test_popper_image_of_embedding_matches_direct_map(self):
        rng = random.Random(53)
        for _ in range(25):
            n = rng.randint(2, 4)
            algebra = SpaceAlgebra.discrete([f"w{i}" for i in range(n)])
            s = covering_slps(rng, algebra)
            assert nps_to_popper(lps_to_nps(s)) == slps_to_popper(s)


def test_expectation_with_scaled_bet_goes_negative():
    x = RandomVariable.indicator(AB, AB.event({0}))
    y = RandomVariable.indicator(AB, AB.event({1}))
    for alpha in (F(2), F(3, 2), F(101, 100)):
        value = MCGEE_NU.expectation(x - y.scale(alpha))
        assert value.sign() < 0
    assert MCGEE_NU.expectation(x - y) == 2 * EPS
    assert MCGEE_NU.expectation(x - y.scale(2)) == NonstdNumber.from_terms(
        [(0, F(-1, 2)), (1, 3)]
    )
