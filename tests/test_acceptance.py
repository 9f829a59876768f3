"""Acceptance suite: every gate criterion at its stated size and budget.

Each test prints one pass/fail line (shown with ``pytest -s`` or on
failure) and asserts both the mathematical content and the time limit.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from genspaces import (
    algebra_of,
    compose,
    nested_triples,
    random_lps,
    random_slps,
    random_treelike_space,
)

from extprob.field import EPS
from extprob.fincof import FinCofEvent, fincof_cond, fincof_nps_value, sampled_axiom_check
from extprob.independence import approx_indep_set, indep_events, weak_indep
from extprob.lps import classify_lps, equivalence, reduce_lps
from extprob.npsbridge import (
    geometric_schedule,
    lps_to_nps,
    nps_equiv,
    nps_to_lps,
    nps_to_popper,
    steep_schedule,
    verify_aeqchar,
)
from extprob.popper import popper_to_slps, slps_to_popper, treelike_to_lps
from extprob.spaces import NonstdMeasure, RandomVariable, SpaceAlgebra

F = Fraction


@contextmanager
def criterion(number, label, limit_seconds):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"criterion {number:2d} [{label}]: FAIL")
        raise
    elapsed = time.perf_counter() - start
    verdict = "PASS" if elapsed < limit_seconds else "FAIL (over budget)"
    print(
        f"criterion {number:2d} [{label}]: {verdict} "
        f"({elapsed:.2f}s, limit {limit_seconds}s)"
    )
    assert elapsed < limit_seconds


def test_criterion_01_tiebreak_fixture():
    with criterion(1, "infinitesimally tipped coin", 1.0):
        algebra = algebra_of(2)
        nu1 = NonstdMeasure.from_values(algebra, [F(1, 2) + EPS, F(1, 2) - EPS])
        nu2 = NonstdMeasure.from_values(algebra, [F(1, 2), F(1, 2)])
        assert nps_equiv(nu1, nu2, "simeq") is True
        cert = nps_equiv(nu1, nu2, "aeq")
        assert not cert.equivalent
        assert cert.verify()
        w1 = RandomVariable.indicator(algebra, algebra.event({0}))
        w2 = RandomVariable.indicator(algebra, algebra.event({1}))
        assert nu1.expectation(w1 - w2) == 2 * EPS
        for alpha in (F(2), F(3, 2), F(101, 100)):
            assert nu1.expectation(w1 - w2.scale(alpha)).sign() < 0


def test_criterion_02_fragile_independence_fixture():
    with criterion(2, "independence not preserved by equivalence", 1.0):
        algebra = algebra_of(4)

        def nu(amount):
            return NonstdMeasure.from_values(
                algebra, [1 - 2 * EPS + amount, EPS - amount, EPS - amount, amount]
            )

        nu1, nu2 = nu(EPS**2), nu(EPS**3)
        u, v, vp = algebra.event({1, 3}), algebra.event({2, 3}), algebra.event({3})
        assert indep_events(nu1, u, v, mode="exact")
        assert not indep_events(nu2, u, v, mode="exact")
        assert nps_equiv(nu1, nu2, "aeq").equivalent
        assert indep_events(nu1, u, vp, mode="approx")
        assert not indep_events(nu1, vp, u, mode="approx")


def test_criterion_03_weak_without_set_independence():
    with criterion(3, "weak independence is not set independence", 1.0):
        algebra = SpaceAlgebra.discrete([(i, j) for i in (1, 2, 3) for j in (1, 2)])
        table = {
            (1, 1): 1 - 3 * EPS - 3 * EPS**2,
            (1, 2): EPS,
            (2, 1): EPS,
            (2, 2): EPS**2,
            (3, 1): EPS,
            (3, 2): 2 * EPS**2,
        }
        nu = NonstdMeasure.from_values(algebra, [table[w] for w in algebra.worlds])
        x = RandomVariable.from_values(algebra, [w[0] for w in algebra.worlds])
        y = RandomVariable.from_values(algebra, [w[1] for w in algebra.worlds])
        assert weak_indep(nu, x, y)
        assert not approx_indep_set(nu, y, [x])
        from extprob.field import st_ratio

        u = y.level_event(2)
        v = x.level_event(2)
        given = x.preimage_event([2, 3])
        assert st_ratio(nu.event_mass(v & u & given), nu.event_mass(u & given)) == F(1, 3)
        assert st_ratio(nu.event_mass(v & given), nu.event_mass(given)) == F(1, 2)


def test_criterion_04_popper_round_trip():
    with criterion(4, "500 conditional-space round trips", 20.0):
        rng = random.Random(2026)
        for _ in range(500):
            algebra = algebra_of(rng.randint(2, 5))
            space = slps_to_popper(random_slps(rng, algebra))
            recovered = popper_to_slps(space)
            assert classify_lps(recovered).is_lcps
            assert slps_to_popper(recovered) == space


def test_criterion_05_lps_nps_round_trip():
    with criterion(5, "500 system/measure round trips", 20.0):
        rng = random.Random(2027)
        for _ in range(500):
            algebra = algebra_of(rng.randint(2, 5))
            system = random_lps(rng, algebra)
            assert verify_aeqchar(system, geometric_schedule(len(system)))
            assert verify_aeqchar(system, steep_schedule(len(system)))
            nu = lps_to_nps(system)
            dec = nps_to_lps(nu)
            assert dec.recompose() == nu
            assert equivalence(dec.lps, system).equivalent


def test_criterion_06_composition_law():
    with criterion(6, "200 composition identities", 10.0):
        rng = random.Random(2028)
        for _ in range(200):
            algebra = algebra_of(rng.randint(2, 5))
            s = random_slps(rng, algebra)
            assert nps_to_popper(lps_to_nps(s)) == slps_to_popper(s)


def test_criterion_07_implication_chain():
    with criterion(7, "equivalence implies coarse equivalence; witnesses verify", 20.0):
        rng = random.Random(2029)
        for _ in range(500):
            algebra = algebra_of(rng.randint(2, 4))
            system = random_lps(rng, algebra, max_len=3)
            nu_a = compose(system, geometric_schedule(len(system)))
            nu_b = compose(system, steep_schedule(len(system)))
            assert nps_equiv(nu_a, nu_b, "simeq") is True
        for _ in range(500):
            algebra = algebra_of(rng.randint(2, 4))
            nu_a = compose(
                (sys_a := random_lps(rng, algebra, max_len=3)),
                geometric_schedule(len(sys_a)),
            )
            nu_b = compose(
                (sys_b := random_lps(rng, algebra, max_len=3)),
                geometric_schedule(len(sys_b)),
            )
            cert = nps_equiv(nu_a, nu_b, "aeq")
            if cert.equivalent:
                continue
            x, y = cert.witness
            lps_a, lps_b = nps_to_lps(nu_a).lps, nps_to_lps(nu_b).lps
            assert lps_a.compare_expectations(x, y) != lps_b.compare_expectations(x, y)
            # The witness also separates the measures in the field itself.
            field_a = nu_a.expectation(x).compare(nu_a.expectation(y))
            field_b = nu_b.expectation(x).compare(nu_b.expectation(y))
            assert field_a != field_b


def test_criterion_08_independence_transport():
    with criterion(8, "approximate vs conditional-space independence", 10.0):
        rng = random.Random(2030)
        for _ in range(100):
            algebra = algebra_of(rng.randint(2, 4))
            system = random_lps(rng, algebra, max_len=3)
            nu = compose(system, geometric_schedule(len(system)))
            space = nps_to_popper(nu)
            events = [frozenset(), *algebra.events()]
            for u in events:
                for v in events:
                    for g in events:
                        assert indep_events(nu, u, v, g, mode="approx") == indep_events(
                            space, u, v, g, mode="popper"
                        )


def test_criterion_09_reduction_bound():
    with criterion(9, "reduction bound and certificate", 5.0):
        rng = random.Random(2031)
        for _ in range(120):
            algebra = algebra_of(rng.randint(2, 5))
            system = random_lps(rng, algebra, max_len=algebra.n_atoms + 2)
            reduced = reduce_lps(system)
            assert len(reduced) <= algebra.n_atoms
            assert equivalence(system, reduced).equivalent


def test_criterion_10_countable_fixtures():
    with criterion(10, "finite/cofinite closed forms", 5.0):
        universe = range(8)
        triples = nested_triples(universe)
        assert len(triples) > 100000
        for family in ("mu1", "mu2"):
            report = sampled_axiom_check(family, triples)
            assert report.is_valid, report.findings[:5]
        fin = FinCofEvent.finite
        for n in range(1, 21):
            assert fincof_cond("mu1", fin({0}), fin({0, n})) == F(1, 2)
        rng = random.Random(2032)
        for _ in range(200):
            u_sup = set(rng.sample(range(12), rng.randint(1, 6)))
            v_sup = set(rng.sample(sorted(u_sup), rng.randint(0, len(u_sup))))
            if rng.random() < 0.4:
                u = FinCofEvent.cofinite(set(range(12)) - u_sup)
                v = (
                    FinCofEvent.cofinite(set(range(12)) - v_sup)
                    if rng.random() < 0.5 and v_sup
                    else fin(v_sup)
                )
                if not v.issubset(u):
                    v = fin(v_sup & u_sup) if v.is_finite else u
            else:
                u, v = fin(u_sup), fin(v_sup)
            ratio = fincof_nps_value("nu1", v.intersect(u)) / fincof_nps_value("nu1", u)
            assert ratio.standard_part() == fincof_cond("mu1", v, u)
        for k in range(1, 7):
            bet = fincof_nps_value("nu4", fin({1})) - (
                2 ** (2 * k - 1)
            ) * fincof_nps_value("nu4", fin({2 * k}))
            assert bet == (2**k + 1) * EPS


def test_criterion_11_slps_rigidity():
    with criterion(11, "structured systems are rigid", 5.0):
        rng = random.Random(2033)
        for _ in range(200):
            algebra = algebra_of(rng.randint(2, 4))
            a = random_slps(rng, algebra)
            b = random_slps(rng, algebra)
            cert = equivalence(a, b)
            assert cert.equivalent == (a.measures == b.measures)
            assert cert.verify()


def test_criterion_12_treelike_construction():
    with criterion(12, "treelike spaces embed faithfully", 10.0):
        rng = random.Random(2034)
        for _ in range(100):
            algebra = algebra_of(rng.randint(2, 6))
            space = random_treelike_space(rng, algebra, max_depth=3)
            assert space.validate("treelike").is_valid
            system = treelike_to_lps(space)
            assert classify_lps(system).is_lcps
            all_events = [frozenset(), *algebra.events()]
            for u in space.conditioning_events:
                assert system.gives_positive_mass(u)
                lead = system.condition(u).measures[0]
                for v in all_events:
                    assert lead.event_mass(v) == space.conditional(v, u)
