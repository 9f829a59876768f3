"""Event and variable independence at the three gradations, the nested
mixture operator, and strong-independence witness checking."""

import random
import time
from fractions import Fraction

import pytest

from genspaces import compose, grid_draw, indep_draw
from oracles import approx_indep_set_by_enumeration

from extprob.errors import LengthMismatchError
from extprob.field import EPS, ONE, ZERO, NonstdNumber
from extprob.independence import (
    approx_indep_mutual,
    approx_indep_set,
    box_combine,
    exact_variable_independence,
    indep_events,
    verify_indep_witness,
    weak_indep,
)
from extprob.lps import LPS
from extprob.npsbridge import geometric_schedule, nps_to_popper, steep_schedule
from extprob.spaces import NonstdMeasure, RandomVariable, SpaceAlgebra

F = Fraction

W4 = SpaceAlgebra.discrete(["w1", "w2", "w3", "w4"])
GRID32 = SpaceAlgebra.discrete([(i, j) for i in (1, 2, 3) for j in (1, 2)])
GRID22 = SpaceAlgebra.discrete([(i, j) for i in (1, 2) for j in (1, 2)])


def scaled_nu(amount):
    """Mass 1-2e+t, e-t, e-t, t on four worlds; t tunes the overlap."""
    return NonstdMeasure.from_values(
        W4, [1 - 2 * EPS + amount, EPS - amount, EPS - amount, amount]
    )


NU1 = scaled_nu(EPS**2)
NU2 = scaled_nu(EPS**3)
U = W4.event({1, 3})
V = W4.event({2, 3})
VP = W4.event({3})


def projection(algebra, component):
    return RandomVariable.from_values(
        algebra, [w[component] for w in algebra.worlds]
    )


def grid_measure(algebra, table):
    return NonstdMeasure.from_values(algebra, [table[w] for w in algebra.worlds])


# Mass table with weakly independent projections that fail the set notion.
SKEWED = grid_measure(
    GRID32,
    {
        (1, 1): 1 - 3 * EPS - 3 * EPS**2,
        (1, 2): EPS,
        (2, 1): EPS,
        (2, 2): EPS**2,
        (3, 1): EPS,
        (3, 2): 2 * EPS**2,
    },
)


def product_measure(algebra, px, py):
    return grid_measure(
        algebra, {(i, j): px[i] * py[j] for (i, j) in algebra.worlds}
    )


class TestIndepEvents:
    def test_exact_independence_depends_on_the_infinitesimal(self):
        assert indep_events(NU1, U, V, mode="exact")
        assert not indep_events(NU2, U, V, mode="exact")

    def test_approximate_independence_is_directional(self):
        assert indep_events(NU1, U, VP, mode="approx")
        assert not indep_events(NU1, VP, U, mode="approx")

    def test_empty_event_vacuous(self):
        assert indep_events(NU1, frozenset(), V, mode="exact")
        assert indep_events(NU1, frozenset(), V, mode="approx")

    def test_popper_mode_matches_approx(self):
        space = nps_to_popper(NU1)
        assert indep_events(space, U, VP, mode="popper")
        assert not indep_events(space, VP, U, mode="popper")

    def test_exact_implies_approx_randomized(self):
        rng = random.Random(59)
        for _ in range(25):
            nu = random_grid_measure(rng)
            events = [frozenset(), *nu.algebra.events()]
            for _ in range(20):
                u, v, g = (rng.choice(events) for _ in range(3))
                if indep_events(nu, u, v, g, mode="exact"):
                    assert indep_events(nu, u, v, g, mode="approx")

    def test_approx_invariant_under_equivalence(self):
        rng = random.Random(61)
        for _ in range(10):
            system = random_system(rng, GRID22)
            nu_a = compose(system, geometric_schedule(len(system)))
            nu_b = compose(system, steep_schedule(len(system)))
            events = [frozenset(), *GRID22.events()]
            for u in events:
                for v in events:
                    for g in events:
                        assert indep_events(nu_a, u, v, g, mode="approx") == indep_events(
                            nu_b, u, v, g, mode="approx"
                        )

    def test_approx_equals_popper_transport(self):
        rng = random.Random(67)
        for _ in range(5):
            nu = random_grid_measure(rng)
            space = nps_to_popper(nu)
            events = [frozenset(), *nu.algebra.events()]
            for u in events:
                for v in events:
                    for g in events:
                        assert indep_events(nu, u, v, g, mode="approx") == indep_events(
                            space, u, v, g, mode="popper"
                        )


def random_system(rng, algebra, max_len=3):
    n = algebra.n_atoms
    rows = []
    for _ in range(rng.randint(1, max_len)):
        masses = [F(0)] * n
        for i in rng.sample(range(n), rng.randint(1, n)):
            masses[i] = F(rng.randint(1, 5))
        s = sum(masses)
        rows.append(tuple(m / s for m in masses))
    return LPS.from_rows(algebra, rows)


def random_grid_measure(rng):
    system = random_system(rng, GRID22)
    return compose(system, geometric_schedule(len(system)))


class TestWeakIndep:
    def test_skewed_table_weakly_independent(self):
        x, y = projection(GRID32, 0), projection(GRID32, 1)
        assert weak_indep(SKEWED, x, y)

    def test_exact_product_weakly_independent(self):
        nu = product_measure(GRID22, {1: ONE - EPS, 2: EPS}, {1: ONE - EPS, 2: EPS})
        x, y = projection(GRID22, 0), projection(GRID22, 1)
        assert weak_indep(nu, x, y)
        assert weak_indep(nu, x, y, require_product_range=True)

    def test_detects_standard_part_shift(self):
        nu = grid_measure(
            GRID22,
            {
                (1, 1): F(1, 2) - EPS,
                (1, 2): EPS,
                (2, 1): EPS,
                (2, 2): F(1, 2) - EPS,
            },
        )
        x, y = projection(GRID22, 0), projection(GRID22, 1)
        assert not weak_indep(nu, x, y)


class TestApproxIndepSet:
    def test_skewed_table_fails_with_known_witness(self):
        x, y = projection(GRID32, 0), projection(GRID32, 1)
        assert not approx_indep_set(SKEWED, y, [x])
        u = y.level_event(2)
        v = x.level_event(2)
        given = x.preimage_event([2, 3])
        lhs = (SKEWED.event_mass(v & u & given) / SKEWED.event_mass(u & given)).standard_part()
        rhs = (SKEWED.event_mass(v & given) / SKEWED.event_mass(given)).standard_part()
        assert (lhs, rhs) == (F(1, 3), F(1, 2))

    def test_exact_product_passes(self):
        nu = product_measure(GRID22, {1: ONE - EPS, 2: EPS}, {1: ONE - EPS, 2: EPS})
        x, y = projection(GRID22, 0), projection(GRID22, 1)
        assert approx_indep_set(nu, x, [y])
        assert approx_indep_set(nu, y, [x])

    def test_single_valued_variable_trivial(self):
        const = RandomVariable.from_values(GRID22, [1, 1, 1, 1])
        y = projection(GRID22, 1)
        assert approx_indep_set(random_grid_measure(random.Random(71)), const, [y])

    def test_mutual_variant(self):
        nu = product_measure(GRID22, {1: ONE - EPS, 2: EPS}, {1: ONE - EPS, 2: EPS})
        xs = [projection(GRID22, 0), projection(GRID22, 1)]
        assert approx_indep_mutual(nu, xs)
        skewed_pair = [projection(GRID32, 0), projection(GRID32, 1)]
        assert not approx_indep_mutual(SKEWED, skewed_pair)

    def test_matches_enumeration_oracle(self):
        """Verdicts on seeded grids against the enumeration that builds
        every event inside the triple loop; the mutual variant on every
        tenth draw."""
        rng = random.Random(1801)
        verdicts = {True: 0, False: 0}
        for k in range(1000):
            nu, x, ys = indep_draw(rng)
            verdict = approx_indep_set(nu, x, ys)
            assert verdict == approx_indep_set_by_enumeration(nu, x, ys), k
            verdicts[verdict] += 1
            if k % 10 == 0:
                xs = [x] + ys
                assert approx_indep_mutual(nu, xs) == all(
                    approx_indep_set_by_enumeration(nu, v, xs[:i] + xs[i + 1 :])
                    for i, v in enumerate(xs)
                ), k
        assert min(verdicts.values()) >= 400, verdicts

    def test_three_ys_match_enumeration_oracle(self):
        """2 x 2 x 2 x 2 grids: x and three ys, which ``indep_draw`` never
        has."""
        rng = random.Random(1901)
        verdicts = {True: 0, False: 0}
        for k in range(150):
            nu, x, ys = grid_draw(rng, [2, 2, 2, 2])
            verdict = approx_indep_set(nu, x, ys)
            assert verdict == approx_indep_set_by_enumeration(nu, x, ys), k
            verdicts[verdict] += 1
        assert min(verdicts.values()) >= 50, verdicts

    @pytest.mark.parametrize("diagonal_order, verdict", [(1, True), (0, False)])
    def test_diagonal_ratios_seen_only_in_spanned_boxes(self, diagonal_order, verdict):
        """x, y1, y2 on a 2 x 2 x 2 grid.  The diagonal y-points (0, 0) and
        (1, 1) have coefficients 1 : 2 under x = 0 and 3 : 1 under x = 1, at
        ``diagonal_order``; the off-diagonal ones have coefficient 1 under
        both, at the other order.  The only product set holding both
        diagonal points is the whole box, so their ratio counts only when
        they are least in it; comparing on the pair {(0, 0), (1, 1)}
        alone would call the first case dependent."""
        diagonal = {(0, 0, 0): 1, (0, 1, 1): 2, (1, 0, 0): 3, (1, 1, 1): 1}
        grid = SpaceAlgebra.discrete([(i, j, k) for i in (0, 1) for j in (0, 1) for k in (0, 1)])
        masses = [
            EPS ** diagonal_order * diagonal[w] if w in diagonal else EPS ** (1 - diagonal_order)
            for w in grid.worlds
        ]
        total = sum(masses, ZERO)
        nu = NonstdMeasure.from_values(grid, [m / total for m in masses])
        x, y1, y2 = (projection(grid, c) for c in range(3))
        assert approx_indep_set_by_enumeration(nu, x, [y1, y2]) is verdict
        assert approx_indep_set(nu, x, [y1, y2]) is verdict

    def test_events_built_once_per_call(self, monkeypatch):
        """One level event per value of x, and no preimage of a value
        subset."""
        calls = {"level": [], "preimage": []}
        level, preimage = RandomVariable.level_event, RandomVariable.preimage_event

        def counted_level(rv, value):
            calls["level"].append(value)
            return level(rv, value)

        def counted_preimage(rv, values):
            calls["preimage"].append(values)
            return preimage(rv, values)

        monkeypatch.setattr(RandomVariable, "level_event", counted_level)
        monkeypatch.setattr(RandomVariable, "preimage_event", counted_preimage)
        nu = product_measure(GRID22, {1: ONE - EPS, 2: EPS}, {1: ONE - EPS, 2: EPS})
        x, y = projection(GRID22, 0), projection(GRID22, 1)
        assert approx_indep_set(nu, x, [y, y])
        assert calls == {"level": [1, 2], "preimage": []}

    def test_twelve_by_five_grid_decided(self):
        """The uniform 12 x 5 grid, and the same grid with the mass of world
        (0, 0) times eps; the same tilt on a 3 x 2 grid agrees with the
        enumeration."""
        for rows, cols in ((12, 5), (3, 2)):
            grid = SpaceAlgebra.discrete([(i, j) for i in range(rows) for j in range(cols)])
            x, y = projection(grid, 0), projection(grid, 1)
            uniform = NonstdMeasure.from_values(grid, [F(1, rows * cols)] * (rows * cols))
            masses = [ONE] * (rows * cols)
            masses[0] = EPS
            total = sum(masses, ZERO)
            tilted = NonstdMeasure.from_values(grid, [m / total for m in masses])
            start = time.perf_counter()
            assert approx_indep_set(uniform, x, [y])
            assert not approx_indep_set(tilted, x, [y])
            assert time.perf_counter() - start < 1.0
            if rows * cols <= 6:
                assert approx_indep_set_by_enumeration(uniform, x, [y])
                assert not approx_indep_set_by_enumeration(tilted, x, [y])


class TestBoxCombine:
    def test_direct_formula(self):
        system = LPS.from_rows(SpaceAlgebra.discrete(["a", "b"]), [(1, 0), (0, 1)])
        out = box_combine(system, [F(1, 4)])
        assert out.mass == (F(3, 4), F(1, 4))

    def test_tiny_weight_dominated_by_top(self):
        system = LPS.from_rows(SpaceAlgebra.discrete(["a", "b"]), [(1, 0), (0, 1)])
        out = box_combine(system, [F(1, 1000)])
        assert out.mass[0] == F(999, 1000)

    def test_empty_weights_for_single_level(self):
        system = LPS.from_rows(SpaceAlgebra.discrete(["a", "b"]), [(F(1, 2), F(1, 2))])
        assert box_combine(system, []).mass == (F(1, 2), F(1, 2))

    def test_length_mismatch(self):
        system = LPS.from_rows(SpaceAlgebra.discrete(["a", "b"]), [(1, 0), (0, 1)])
        with pytest.raises(LengthMismatchError):
            box_combine(system, [F(1, 4), F(1, 4)])


class TestWitnesses:
    def test_kr_nps_product_accepted(self):
        nu = product_measure(GRID22, {1: ONE - EPS, 2: EPS}, {1: ONE - EPS, 2: EPS})
        xs = [projection(GRID22, 0), projection(GRID22, 1)]
        report = verify_indep_witness("kr-nps", nps_to_popper(nu), xs, nu)
        assert report.accepted

    def test_bbd_r_rejected_by_arithmetic(self):
        point = {(1, 1): F(1), (1, 2): F(0), (2, 1): F(0), (2, 2): F(0)}
        uniform = {w: F(1, 4) for w in GRID22.worlds}
        system = LPS.from_rows(
            GRID22,
            [
                tuple(point[w] for w in GRID22.worlds),
                tuple(uniform[w] for w in GRID22.worlds),
            ],
        )
        xs = [projection(GRID22, 0), projection(GRID22, 1)]
        report = verify_indep_witness("bbd-r", system, xs, [[F(1, 2)]])
        assert not report.accepted
        # Oracle: brute-force the mixture's joint and marginals.
        mixture = box_combine(system, [F(1, 2)])
        joint_11 = mixture.event_mass(
            xs[0].level_event(1) & xs[1].level_event(1)
        )
        marginals = mixture.event_mass(xs[0].level_event(1)) * mixture.event_mass(
            xs[1].level_event(1)
        )
        assert joint_11 == F(5, 8) and marginals == F(9, 16)

    def test_bbd_r_single_level_product_accepted(self):
        px = {1: F(1, 2), 2: F(1, 2)}
        system = LPS.from_rows(
            GRID22, [tuple(px[i] * px[j] for (i, j) in GRID22.worlds)]
        )
        xs = [projection(GRID22, 0), projection(GRID22, 1)]
        report = verify_indep_witness("bbd-r", system, xs, [[]])
        assert report.accepted

    def test_bbd_nps_checks_equivalence_and_flags_elementarity(self):
        px = {1: ONE - EPS, 2: EPS}
        nu = product_measure(GRID22, px, px)
        xs = [projection(GRID22, 0), projection(GRID22, 1)]
        from extprob.npsbridge import nps_to_lps

        target = nps_to_lps(nu).lps
        report = verify_indep_witness("bbd-nps", target, xs, nu)
        assert report.accepted
        assert any("elementar" in c for c in report.caveats)

    def test_kr_seq_requires_positivity(self):
        px = {1: ONE - EPS, 2: EPS}
        nu = product_measure(GRID22, px, px)
        space = nps_to_popper(nu)
        xs = [projection(GRID22, 0), projection(GRID22, 1)]
        good = [
            product_measure(
                GRID22, {1: F(1 - F(1, k)), 2: F(1, k)}, {1: F(1 - F(1, k)), 2: F(1, k)}
            ).standard_part()
            for k in (2, 3, 4)
        ]
        report = verify_indep_witness("kr-seq", space, xs, good)
        assert report.accepted
        bad = [good[0], product_measure(GRID22, {1: F(1), 2: F(0)}, {1: F(1), 2: F(0)}).standard_part()]
        report = verify_indep_witness("kr-seq", space, xs, bad)
        assert not report.accepted

    def test_exact_variable_independence_oracle(self):
        rng = random.Random(73)
        for _ in range(20):
            px = {1: F(rng.randint(1, 5)), 2: F(rng.randint(1, 5))}
            py = {1: F(rng.randint(1, 5)), 2: F(rng.randint(1, 5))}
            sx, sy = sum(px.values()), sum(py.values())
            px = {k: v / sx for k, v in px.items()}
            py = {k: v / sy for k, v in py.items()}
            nu = product_measure(
                GRID22,
                {k: NonstdNumber.from_fraction(v) for k, v in px.items()},
                {k: NonstdNumber.from_fraction(v) for k, v in py.items()},
            )
            xs = [projection(GRID22, 0), projection(GRID22, 1)]
            assert exact_variable_independence(nu, xs)
