"""Field arithmetic, ordering, and standard-part extraction."""

import doctest
import math
import operator
import random
from fractions import Fraction

import pytest
import sympy
from genspaces import simeq_pair, tilted
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import FractionNumber, FractionPolynomial, fraction_poly_gcd, fraction_st_ratio

import extprob.field
from extprob.errors import UnlimitedError
from extprob.field import EPS, ONE, ZERO, EpsPolynomial, NonstdNumber, eps_power, poly_gcd, st_ratio

F = Fraction


def nn(*pairs):
    return NonstdNumber.from_terms(list(pairs))


small_fraction = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


@st.composite
def polynomials(draw, max_terms=3, allow_zero=True):
    n = draw(st.integers(min_value=0 if allow_zero else 1, max_value=max_terms))
    pairs = []
    exps = draw(
        st.lists(
            st.integers(min_value=0, max_value=4), min_size=n, max_size=n, unique=True
        )
    )
    for e in exps:
        c = draw(small_fraction.filter(lambda q: q != 0))
        pairs.append((e, c))
    return EpsPolynomial.from_pairs(pairs)


@st.composite
def numbers(draw):
    num = draw(polynomials())
    den = draw(polynomials(allow_zero=False))
    return NonstdNumber._make(num, den)


# A small closed list used for exhaustive triple checks.
SMALL_VALUES = [
    ZERO,
    ONE,
    -ONE,
    NonstdNumber.from_fraction(F(1, 2)),
    EPS,
    -EPS,
    ONE + EPS,
    ONE - EPS,
    EPS * EPS,
    ONE / (ONE - EPS),
]


def test_cancellation_to_one():
    half = NonstdNumber.from_fraction(F(1, 2))
    assert (half + EPS) + (half - EPS) == ONE


def test_eps_squared():
    assert EPS * EPS == nn((2, 1))


def test_conditional_ratio_eps_sq_over_eps():
    assert nn((2, 1)) / EPS == EPS


def test_order_one_minus_eps_below_one_minus_eps_sq():
    assert (ONE - EPS).compare(ONE - EPS * EPS) < 0


@pytest.mark.parametrize("q", [F(1, 1000000), F(1, 3), F(2), F(17, 5)])
def test_infinitesimal_below_every_positive_rational(q):
    assert EPS.compare(q) < 0
    assert abs(-EPS).compare(q) < 0


def test_half_plus_eps_exceeds_half():
    assert nn((0, F(1, 2)), (1, 1)).compare(F(1, 2)) > 0


def test_standard_part_values():
    assert (nn((2, 1)) / nn((2, 1))).standard_part() == 1
    assert (nn((2, 1)) / EPS).standard_part() == 0
    assert (ONE / (ONE - EPS)).standard_part() == 1


def test_standard_part_unlimited_raises():
    with pytest.raises(UnlimitedError):
        (ONE / EPS).standard_part()


def test_classify():
    assert EPS.classify() == (1, "infinitesimal")
    assert nn((0, 2), (1, 3)).classify() == (0, "appreciable")
    assert (ONE / EPS).classify() == (-1, "unlimited")
    assert ZERO.classify() == (math.inf, "zero")


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_exhaustive_field_axioms_on_small_values():
    for a in SMALL_VALUES:
        for b in SMALL_VALUES:
            assert a + b == b + a
            assert a * b == b * a
            for c in SMALL_VALUES:
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c
    for a in SMALL_VALUES:
        assert a + ZERO == a
        assert a * ONE == a
        assert a + (-a) == ZERO
        if not a.is_zero:
            assert a * (ONE / a) == ONE


@settings(max_examples=150)
@given(numbers(), numbers(), numbers())
def test_random_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    if not c.is_zero:
        assert (a / c) * c == a


@settings(max_examples=150)
@given(numbers(), numbers(), numbers())
def test_order_compatibility(a, b, c):
    if a < b:
        assert a + c < b + c
        if c > ZERO:
            assert a * c < b * c


@settings(max_examples=150)
@given(numbers(), st.fractions(min_value=F(1, 1000), max_value=4, max_denominator=1000))
def test_every_infinitesimal_below_every_positive_rational(a, q):
    if a.is_infinitesimal:
        assert abs(a) < q


@settings(max_examples=150)
@given(numbers(), numbers())
def test_standard_part_homomorphism(a, b):
    if a.is_limited and b.is_limited:
        assert (a + b).standard_part() == a.standard_part() + b.standard_part()
        assert (a * b).standard_part() == a.standard_part() * b.standard_part()


@settings(max_examples=150)
@given(numbers(), numbers())
def test_canonical_equality_matches_ordering(a, b):
    assert (a.compare(b) == 0) == (a.num == b.num and a.den == b.den)


def test_canonical_form_reduces():
    # (eps^2 - eps) / (eps) should reduce to eps - 1 over 1.
    v = nn((1, -1), (2, 1)) / EPS
    assert v == nn((0, -1), (1, 1))
    assert v.den.terms == ((0, F(1)),)
    # Denominator trailing coefficient pinned to one.
    w = ONE / nn((0, 2), (1, 2))
    assert w.den.trailing_coeff() == 1


def test_eps_power_negative():
    assert eps_power(-2) * eps_power(2) == ONE
    assert eps_power(3) == EPS**3


def test_doctests():
    failures, attempted = doctest.testmod(extprob.field)
    assert failures == 0
    assert attempted >= 4


def test_rational_values_hash_as_their_fraction():
    half = NonstdNumber.from_fraction(F(1, 2))
    assert hash(ONE) == hash(1) == hash(F(1))
    assert len({ONE, 1}) == 1 and len({ONE, F(1)}) == 1
    assert hash(ZERO) == hash(0) and len({ZERO, 0, F(0)}) == 1
    assert hash(-ONE) == hash(-1) and hash(half) == hash(F(1, 2))
    assert len({half, F(1, 2), ONE, 1}) == 2
    tilted = ONE / (ONE + EPS)
    assert hash(EPS) == hash(nn((1, 1))) and len({EPS, nn((1, 1)), 1}) == 2
    assert hash(tilted) == hash(ONE / nn((0, 1), (1, 1)))


def seeded_numbers(rng, count):
    """Polynomial numbers and rational-function numbers: polynomials
    divided by one or two factors 1 + k*eps, k in 1..3."""
    out = []
    for _ in range(count):
        exps = rng.sample(range(5), rng.randint(0, 3))
        x = nn(*((e, F(rng.randint(-6, 6), rng.randint(1, 6))) for e in exps))
        for _ in range(rng.randint(0, 2)):
            x = x / nn((0, 1), (1, rng.randint(1, 3)))
        out.append(x)
    return out


def seeded_rationals(rng, count):
    fixed = [0, F(0), 1, -1, 3, F(1, 2), F(-7, 3), F(10**6 + 1, 999)]
    drawn = [
        rng.choice((rng.randint(-9, 9), F(rng.randint(-9, 9), rng.randint(1, 9))))
        for _ in range(count)
    ]
    return fixed + drawn


def structure(x):
    assert all(type(c) is F for _, c in x.num.terms + x.den.terms)
    return x.num.terms, x.den.terms


def test_rational_operand_paths_match_general_path():
    rng = random.Random(5)
    numbers_ = seeded_numbers(rng, 60)
    assert sum(x.den != ONE.den for x in numbers_) >= 20
    for x in numbers_:
        for k in seeded_rationals(rng, 6):
            q = NonstdNumber.coerce(k)
            assert structure(x * k) == structure(x * q)
            assert structure(k * x) == structure(q * x)
            assert structure(x + k) == structure(x + q)
            assert structure(k + x) == structure(q + x)
            assert structure(x - k) == structure(x - q)
            assert structure(k - x) == structure(q - x)
            assert x.compare(k) == (x - q).sign()
        assert x * 0 == ZERO and 0 * x == ZERO and x * F(0) == ZERO
    for k in (F(1, 2), -3):
        q = NonstdNumber.coerce(k)
        for cancelled in (q - k, k - q, q + (-k), -k + q):
            assert structure(cancelled) == structure(ZERO)


def test_compare_is_sign_of_difference():
    rng = random.Random(6)
    values = seeded_numbers(rng, 40) + SMALL_VALUES
    for a in values:
        for b in values:
            assert a.compare(b) == (a - b).sign()
            assert (a < b) == ((a - b).sign() < 0)


def random_pairs(rng, nonzero):
    """Up to three terms on exponents 0 to 4, with small coefficients and
    now and then one with a denominator up to 10^6."""
    exps = rng.sample(range(5), rng.randint(1 if nonzero else 0, 3))
    return [
        (e, F(rng.choice((-1, 1)) * rng.randint(1, 10**6), rng.randint(1, 10**6))
         if rng.random() < 0.04 else F(rng.choice((-1, 1)) * rng.randint(1, 6), rng.randint(1, 6)))
        for e in exps
    ]


def field_pool(rng, count):
    """``count`` numbers, each with its twin over Fraction coefficients:
    three in four a quotient of random polynomials put in lowest terms by
    both fields, the rest masses of ``genspaces.simeq_pair`` measures,
    tilted by ``genspaces.tilted``, read into the oracle through ``terms``."""
    pool = []
    while len(pool) < count * 3 // 4:
        num, den = random_pairs(rng, False), random_pairs(rng, True)
        pool.append((
            NonstdNumber._make(EpsPolynomial.from_pairs(num), EpsPolynomial.from_pairs(den)),
            FractionNumber.make(FractionPolynomial.from_pairs(num), FractionPolynomial.from_pairs(den)),
        ))
    while len(pool) < count:
        a, b = simeq_pair(rng)
        pool.extend((m, FractionNumber.of(m)) for nu in (a, tilted(rng, b)) for m in nu.mass)
    return pool[:count]


def outcome(f, *args):
    """The value of ``f(*args)``, or the type of the error it raises."""
    try:
        return f(*args)
    except (UnlimitedError, ZeroDivisionError) as exc:
        return type(exc)


def assert_same(x, o):
    assert x.num.terms == o.num.terms and x.den.terms == o.den.terms
    assert all(type(c) is F for _, c in x.num.terms + x.den.terms)
    assert str(x) == str(o) and hash(x) == hash(o)
    assert outcome(x.standard_part) == outcome(o.standard_part)


def test_integer_field_matches_fraction_field():
    """Every operation against the field over Fraction coefficients on
    2,000 seeded numbers, each paired with another number and with a
    rational; the four arithmetic operations take turns."""
    rng = random.Random(71)
    pool = field_pool(rng, 2000)
    assert sum(x.den != ONE.den for x, _ in pool) >= 400
    assert sum(x.den.degree() > 0 and x.num.degree() > 0 for x, _ in pool) >= 200
    ops = (operator.add, operator.sub, operator.mul, operator.truediv)
    for i, (x, ox) in enumerate(pool):
        assert_same(x, ox)
        y, oy = pool[rng.randrange(len(pool))] if i % 5 else pool[i]
        assert (x == y) == (ox == oy)
        assert x.compare(y) == ox.compare(oy)
        assert outcome(st_ratio, x, y) == outcome(fraction_st_ratio, ox, oy)
        op = ops[i % 4]
        got, want = outcome(op, x, y), outcome(op, ox, oy)
        if isinstance(want, type):
            assert got is want
        else:
            assert_same(got, want)
        k = rng.choice((rng.randint(-3, 3), F(rng.randint(-9, 9), rng.randint(1, 9))))
        ok = FractionNumber.of(k)
        assert x.compare(k) == ox.compare(ok)
        assert_same(op(x, k) if op is not operator.truediv else k - x,
                    op(ox, ok) if op is not operator.truediv else ok - ox)


def test_poly_gcd_matches_sympy_and_fraction_oracle():
    """The primitive remainder sequence against Euclid over the rationals
    (the same monic gcd) and against ``sympy.gcd`` (up to a rational unit),
    on products sharing a random factor, zero polynomials included."""
    rng = random.Random(73)
    eps = sympy.Symbol("eps")

    def as_sympy(p):
        return sum((sympy.Rational(c.numerator, c.denominator) * eps**e for e, c in p.terms), sympy.Integer(0))

    nontrivial = 0
    for _ in range(300):
        f, g, h = (EpsPolynomial.from_pairs(random_pairs(rng, True)) for _ in range(3))
        a = f * g if rng.random() < 0.9 else EpsPolynomial.from_pairs([])
        b = h * g if rng.random() < 0.9 else EpsPolynomial.from_pairs([])
        got = poly_gcd(a, b)
        want = fraction_poly_gcd(FractionPolynomial(a.terms), FractionPolynomial(b.terms))
        assert got.terms == want.terms
        ref = sympy.gcd(as_sympy(a), as_sympy(b))
        if ref == 0:
            assert got.is_zero
        else:
            assert sympy.Poly(as_sympy(got), eps, domain="QQ") == sympy.Poly(ref, eps, domain="QQ").monic()
        nontrivial += got.degree() > 0
    assert nontrivial >= 150
