"""Seeded random generators and exhaustive builders shared by the test modules."""

from fractions import Fraction
from itertools import product

from oracles import compose_by_numbers as compose

from extprob import jsonio
from extprob.field import EPS, ONE, ZERO, eps_power
from extprob.fincof import FinCofEvent
from extprob.lps import LPS, reduce_lps
from extprob.npsbridge import geometric_schedule, lps_to_nps, nps_to_lps, steep_schedule
from extprob.popper import PopperSpace, slps_to_popper
from extprob.spaces import NonstdMeasure, RandomVariable, SpaceAlgebra, StdMeasure, subsets

F = Fraction


def algebra_of(n):
    return SpaceAlgebra.discrete([f"w{i}" for i in range(n)])


def random_row(rng, n, support=None):
    masses = [F(0)] * n
    support = support if support is not None else rng.sample(
        range(n), rng.randint(1, n)
    )
    for i in support:
        masses[i] = F(rng.randint(1, 6))
    s = sum(masses)
    return tuple(m / s for m in masses)


def random_lps(rng, algebra, max_len=None):
    n = algebra.n_atoms
    length = rng.randint(1, max_len or n)
    return LPS(
        algebra,
        tuple(StdMeasure(algebra, random_row(rng, n)) for _ in range(length)),
    )


def random_slps(rng, algebra):
    """Random system with pairwise disjoint supports (not covering rules ok)."""
    n = algebra.n_atoms
    atoms = list(range(n))
    rng.shuffle(atoms)
    k = rng.randint(1, n)
    cuts = sorted(rng.sample(range(1, n), k - 1)) if k > 1 else []
    rows = []
    start = 0
    for c in cuts + [n]:
        block = atoms[start:c]
        start = c
        rows.append(random_row(rng, n, support=block))
    # Optionally leave trailing blocks out so supports need not cover.
    keep = rng.randint(1, len(rows))
    return LPS(algebra, tuple(StdMeasure(algebra, r) for r in rows[:keep]))


def covering_slps(rng, algebra):
    """Random system whose supports partition the atoms, with weights 1 to
    5 on each support."""
    n = algebra.n_atoms
    atoms = list(range(n))
    rng.shuffle(atoms)
    k = rng.randint(1, n)
    cuts = sorted(rng.sample(range(1, n), k - 1)) if k > 1 else []
    rows = []
    start = 0
    for c in cuts + [n]:
        block = atoms[start:c]
        start = c
        masses = [F(0)] * n
        for i in block:
            masses[i] = F(rng.randint(1, 5))
        s = sum(masses)
        rows.append(tuple(m / s for m in masses))
    return LPS(algebra, tuple(StdMeasure(algebra, r) for r in rows))


def triangular_variant(rng, base):
    """Equivalent system built from random convex lower-triangular rows."""
    rows = []
    for i, m in enumerate(base.measures):
        weights = [F(0)] * len(base.measures)
        weights[i] = F(rng.randint(1, 5))
        for j in range(i):
            weights[j] = F(rng.randint(0, 3))
        s = sum(weights)
        weights = [w / s for w in weights]
        rows.append(
            tuple(
                sum(
                    (weights[j] * base.measures[j].mass[a] for j in range(i + 1)),
                    F(0),
                )
                for a in range(base.algebra.n_atoms)
            )
        )
    return LPS.from_rows(base.algebra, rows)


def tilted(rng, nu):
    """Some masses divided by 1 + k*eps (one k in 1..3 for the draw), then
    renormalised: rational-function masses with the same conditional
    standard parts."""
    tilt = ONE + rng.randint(1, 3) * EPS
    masses = [m / tilt if rng.random() < 0.5 else m for m in nu.mass]
    total = sum(masses, ZERO)
    return NonstdMeasure(nu.algebra, tuple(m / total for m in masses))


def tilted_apart(rng, nu):
    """Some masses each divided by its own 1 + k*eps (k distinct, 1 to 6,
    so at most 6 atoms), the mass they lose moved to one other atom:
    masses with several distinct denominators that still sum to one."""
    n = nu.algebra.n_atoms
    absorb = rng.randrange(n)
    masses = list(nu.mass)
    for i, k in enumerate(rng.sample(range(1, 7), n)):
        if i != absorb and rng.random() < 0.7:
            shrunk = masses[i] / (ONE + k * EPS)
            masses[absorb] = masses[absorb] + (masses[i] - shrunk)
            masses[i] = shrunk
    return NonstdMeasure(nu.algebra, tuple(masses))


def simeq_pair(rng, max_atoms=6):
    """Two measures on 1 to ``max_atoms`` atoms, drawn to be coarsely
    equivalent about as often as not: embeddings of a random system, of a
    lower-triangular transform of it or of an independent draw, each under
    the geometric or the steep schedule, the second one sometimes tilted."""
    algebra = algebra_of(rng.randint(1, max_atoms))
    system = random_lps(rng, algebra)
    other = rng.choice((system, triangular_variant(rng, system), random_lps(rng, algebra)))

    def embed(s):
        schedule = rng.choice((geometric_schedule, steep_schedule))(len(s))
        return compose(s, schedule)

    a, b = embed(system), embed(other)
    return a, (tilted(rng, b) if rng.random() < 0.25 else b)


def reflected_level(rng, base):
    """The system with one level i >= 1 replaced by a mixture of levels
    i-1 and i whose weight on level i is negative, when level i-1 covers
    the support of level i; otherwise the system unchanged."""
    levels = [m.mass for m in base.measures]
    options = [
        i for i in range(1, len(levels))
        if all(p > 0 for p, q in zip(levels[i - 1], levels[i]) if q > 0)
    ]
    if not options:
        return base
    i = rng.choice(options)
    prev, cur = levels[i - 1], levels[i]
    x = max(q / p for p, q in zip(prev, cur) if q > 0) + rng.randint(1, 3)
    levels[i] = tuple((x * p - q) / (x - 1) for p, q in zip(prev, cur))
    return LPS.from_rows(base.algebra, levels)


def aeq_pair(rng, max_atoms=6, max_len=5):
    """Two systems on 1 to ``max_atoms`` atoms with 1 to ``max_len``
    levels (dependent levels included), equivalent in about three draws
    of five: the second is the first itself, a triangular
    transform of its reduction, the first with a level reflected to a
    negative diagonal, with its levels permuted, cut short or extended, or
    an independent draw.  Either may be passed through the NPS embedding
    and back."""
    algebra = algebra_of(rng.randint(1, max_atoms))
    a = random_lps(rng, algebra, max_len=max_len)
    shuffled = list(a.measures)
    rng.shuffle(shuffled)
    b = rng.choice((
        lambda: a,
        lambda: triangular_variant(rng, reduce_lps(a)),
        lambda: reflected_level(rng, reduce_lps(a)),
        lambda: LPS(algebra, tuple(shuffled)),
        lambda: LPS(algebra, a.measures[: rng.randint(1, len(a))]),
        lambda: LPS(algebra, a.measures + random_lps(rng, algebra, max_len=2).measures),
        lambda: random_lps(rng, algebra, max_len=max_len),
    ))()

    def maybe_round_trip(s):
        return nps_to_lps(lps_to_nps(s)).lps if rng.random() < 0.2 else s

    return maybe_round_trip(a), maybe_round_trip(b)


def _with_head(tail):
    """``tail`` led by the coefficient that brings the sum to one."""
    return (ONE - sum(tail, ZERO),) + tuple(tail)


def _rising_tail(rng, length, rise=True):
    """Positive coefficients at orders 1, 2, ... (strictly rising), each a
    random weight times a power of eps, some tilted by 1 / (1 + eps); with
    ``rise`` false, one order repeats its predecessor's."""
    orders = list(range(1, length))
    if not rise:
        i = rng.randrange(1, length - 1)
        orders[i] = orders[i - 1]
    tail = []
    for o in orders:
        c = F(rng.randint(1, 5), rng.randint(1, 3)) * eps_power(o)
        tail.append(c / (ONE + EPS) if rng.random() < 0.25 else c)
    return tail


def aeqchar_schedules(rng, length):
    """Coefficient schedules for a system of ``length`` levels, each
    verdict of the embedding check well represented: the geometric
    and steep schedules, a random rising one, the geometric one reversed,
    the geometric one scaled so that it does not sum to one, one with two
    equal orders, one with a zero coefficient and one with a negative one."""
    geometric = geometric_schedule(length)
    scale = F(rng.choice((1, 2, 3, 5)), 4)
    out = [
        geometric,
        steep_schedule(length),
        geometric[::-1],
        tuple(scale * c for c in geometric),
    ]
    if length == 1:
        return out + [(ZERO,), (-ONE,)]
    tail = _rising_tail(rng, length)
    out.append(_with_head(tail))
    if length > 2:
        out.append(_with_head(_rising_tail(rng, length, rise=False)))
    i = rng.randrange(len(tail))
    for bad in (ZERO, -tail[i]):
        out.append(_with_head(tail[:i] + [bad] + tail[i + 1:]))
    return out


def random_forest(rng, algebra, max_depth=3):
    """Laminar conditioning family: recursive partitions of the atom set."""
    events = []

    def split(block, depth):
        ev = frozenset(block)
        events.append(ev)
        if depth >= max_depth or len(block) < 2 or rng.random() < 0.35:
            return
        k = rng.randint(2, len(block))
        items = list(block)
        rng.shuffle(items)
        cuts = sorted(rng.sample(range(1, len(items)), k - 1))
        start = 0
        for c in cuts + [len(items)]:
            split(items[start:c], depth + 1)
            start = c

    atoms = list(range(algebra.n_atoms))
    rng.shuffle(atoms)
    n_roots = rng.randint(1, min(3, len(atoms)))
    cuts = sorted(rng.sample(range(1, len(atoms)), n_roots - 1)) if n_roots > 1 else []
    start = 0
    for c in cuts + [len(atoms)]:
        split(atoms[start:c], 1)
        start = c
    return events


def random_treelike_space(rng, algebra, max_depth=3):
    """Valid treelike conditional space over a random forest.

    Conditionals are built top-down: each node draws edge weights to its
    children (zeros allowed, forcing deeper label levels) and leaves draw
    their own atom masses.
    """
    events = random_forest(rng, algebra, max_depth)
    children = {
        ev: [e for e in events if e < ev and not any(e < m < ev for m in events)]
        for ev in events
    }
    table = {}

    def fill(ev):
        kids = children[ev]
        n = algebra.n_atoms
        if not kids:
            row = [F(0)] * n
            for i in ev:
                row[i] = F(rng.randint(1, 5))
            s = sum(row)
            masses = tuple(r / s for r in row)
        else:
            weights = [F(rng.randint(0, 4)) for _ in kids]
            if sum(weights) == 0:
                weights[rng.randrange(len(kids))] = F(1)
            s = sum(weights)
            weights = [w / s for w in weights]
            masses = [F(0)] * n
            for kid, w in zip(kids, weights):
                kid_row = fill(kid)
                for a in range(n):
                    masses[a] += w * kid_row[a]
            masses = tuple(masses)
        table[ev] = StdMeasure(algebra, masses)
        return masses

    roots = [ev for ev in events if not any(ev < other for other in events)]
    for root in roots:
        fill(root)
    return PopperSpace(algebra, tuple(table), table)


def damaged_table(rng, space, defects):
    """``space`` with ``defects`` defects, each on a random stored row:
    mass moved between two atoms of its event (CP1 kept, so only the chain
    rule can fail), a negative mass, the row halved, the row dropped from
    the table, or the event dropped from the family and the table."""
    events = list(space.conditioning_events)
    table = dict(space.table)
    for _ in range(defects):
        stored = [u for u in events if u in table]
        if not stored:
            break
        u = rng.choice(stored)
        mass = list(table[u].mass)
        inside = sorted(u)
        kind = rng.choice(("move", "move", "move", "negative", "halve", "drop row", "drop event"))
        if kind in ("move", "negative") and len(inside) > 1:
            a = rng.choice([c for c in inside if mass[c] > 0] or inside)
            b = rng.choice([c for c in inside if c != a])
            moved = mass[a] * F(rng.randint(1, 3), 4) if kind == "move" else F(1)
            mass[a] -= moved
            mass[b] += moved
            table[u] = StdMeasure(space.algebra, tuple(mass))
        elif kind in ("move", "negative", "halve"):
            table[u] = StdMeasure(space.algebra, tuple(m / 2 for m in mass))
        else:
            del table[u]
            if kind == "drop event":
                events.remove(u)
    return PopperSpace(space.algebra, tuple(events), table)


def popper_table_draw(rng, n):
    """A conditional table on ``n`` atoms: the empty family, a forward-map
    image or a treelike space, with up to three defects from
    :func:`damaged_table` (none in two draws of five)."""
    algebra = algebra_of(n)
    draw = rng.random()
    if draw < 0.03:
        space = PopperSpace(algebra, (), {})
    elif draw < 0.75:
        space = slps_to_popper(rng.choice((random_slps, covering_slps))(rng, algebra))
    else:
        space = random_treelike_space(rng, algebra)
    return damaged_table(rng, space, rng.choice((0, 0, 1, 2, 3)))


def _subsets(items):
    return [frozenset(s) for s in subsets(list(items))]


def nested_triples(universe):
    """All (v, x, u) with v inside x inside u over the bounded family.

    Events are interned so the quarter million triples share objects.
    """
    interned = {}

    def ev(mode, support):
        key = (mode, support)
        out = interned.get(key)
        if out is None:
            out = interned[key] = FinCofEvent(mode, support)
        return out

    triples = []
    universe = frozenset(universe)
    for u_sup in _subsets(universe):
        if u_sup:
            u = ev("finite", u_sup)
            for x_sup in _subsets(u_sup):
                if not x_sup:
                    continue
                x = ev("finite", x_sup)
                for v_sup in _subsets(x_sup):
                    triples.append((ev("finite", v_sup), x, u))
        u = ev("cofinite", u_sup)
        free = universe - u_sup
        for x_sup in _subsets(free):
            x = ev("finite", x_sup)
            if not x_sup:
                continue
            for v_sup in _subsets(x_sup):
                triples.append((ev("finite", v_sup), x, u))
        for extra in _subsets(free):
            x = ev("cofinite", u_sup | extra)
            x_free = free - extra
            for v_sup in _subsets(x_free):
                triples.append((ev("finite", v_sup), x, u))
                triples.append((ev("cofinite", u_sup | extra | v_sup), x, u))
    return triples


def _several_denominators(rng, n):
    """A row summing to one whose masses have unrelated denominators, so
    that their common denominator is in general none of theirs."""
    masses = [F(rng.randint(0, 3), rng.randint(2, 12)) for _ in range(n)]
    masses[rng.randrange(n)] += 1 - sum(masses)
    return masses


def mass_row(rng, n):
    """``(valid, row)``: masses for ``n`` atoms, a valid rational measure
    a little under half of the time.  Valid rows are `Fraction` rows with
    zeros, rows over several denominators (one entry may come out
    negative, and then the row is invalid), `int` one-hot rows and rows
    mixing `int` zeros with `Fraction`s.  The rest are `float` rows of
    dyadic masses (never valid: a mass must be an `int` or a `Fraction`),
    or have a negative entry, do not sum to one (`Fraction`, `int` or
    `float`), are all zero, or have one mass too few or too many."""
    kind = rng.randrange(10)
    if kind == 0:
        row = list(random_row(rng, n))
    elif kind == 1:
        row = _several_denominators(rng, n)
    elif kind == 2:
        row = [0] * n
        row[rng.randrange(n)] = 1
    elif kind == 3:
        row = [m if m else 0 for m in random_row(rng, n)]
    elif kind == 4:
        row = [0.0] * n
        row[rng.randrange(n)] += 0.5
        row[rng.randrange(n)] += 0.5
    elif kind == 5:
        row = list(random_row(rng, n))
        i, j = rng.randrange(n), rng.randrange(n)
        shift = F(rng.randint(1, 3), 2)
        row[i] -= shift
        row[j] += shift
    elif kind == 6:
        scale = rng.choice((F(1, 2), F(3, 4), F(5, 4), F(2), F(-1)))
        row = [scale * m for m in random_row(rng, n)]
        if rng.random() < 0.3:
            row = [int(m * 4) for m in row]
        elif rng.random() < 0.3:
            row = [float(m) for m in row]
    elif kind == 7:
        row = rng.choice(([F(0)] * n, [0] * n, [0.0] * n))
    elif kind == 8:
        row = list(random_row(rng, n + 1))
    else:
        row = list(random_row(rng, n))[:-1]
    valid = (
        len(row) == n
        and all(type(m) in (int, F) for m in row)
        and sum(row) == 1
        and min(row) >= 0
    )
    return valid, tuple(row)


def _grid_nps(rng, sizes):
    """A measure on the grid of ``sizes``: the product of one embedded
    random system per coordinate (each coordinate independent of the
    others), that product with one world's mass rescaled and the whole
    renormalised, or one embedded random system on the whole grid."""
    algebra = SpaceAlgebra.discrete(list(product(*(range(s) for s in sizes))))
    kind = rng.choice((0, 1, 1, 2, 2))
    if kind == 2:
        system = random_lps(rng, algebra, max_len=3)
        return compose(system, geometric_schedule(len(system)))
    marginals = []
    for s in sizes:
        system = random_lps(rng, algebra_of(s), max_len=3)
        marginals.append(compose(system, geometric_schedule(len(system))).mass)
    masses = []
    for w in algebra.worlds:
        m = ONE
        for marginal, value in zip(marginals, w):
            m = m * marginal[value]
        masses.append(m)
    if kind == 1:
        i = rng.randrange(len(masses))
        masses[i] = masses[i] * rng.choice((F(2), F(1, 3), ONE + EPS, EPS))
        total = sum(masses, ZERO)
        masses = [m / total for m in masses]
    return NonstdMeasure(algebra, tuple(masses))


def grid_draw(rng, sizes):
    """``(nu, x, ys)``: a measure on the grid of ``sizes`` (see
    ``_grid_nps``) and the coordinate projections, x the first."""
    nu = _grid_nps(rng, sizes)
    x, *ys = (
        RandomVariable.from_values(nu.algebra, [w[c] for w in nu.algebra.worlds])
        for c in range(len(sizes))
    )
    return nu, x, ys


def indep_draw(rng):
    """``(nu, x, ys)``: a measure on a grid of an x and a y coordinate (2
    or 3 values each) or, on a tenth of the draws, of an x and two y
    coordinates (2 values each), any coordinate sometimes cut to 1 value;
    x and ys are the coordinate projections, x sometimes replaced by a
    random variable with up to three values.  Set independence holds on
    about half of the draws."""
    if rng.random() < 0.9:
        sizes = [rng.randint(2, 3), rng.choice((2, 2, 3))]
    else:
        sizes = [2, 2, 2]
    sizes = [1 if rng.random() < 0.1 else s for s in sizes]
    nu, x, ys = grid_draw(rng, sizes)
    if rng.random() < 0.2:
        x = RandomVariable.from_values(nu.algebra, [rng.randrange(3) for _ in nu.algebra.worlds])
    return nu, x, ys


# Entries of ``parsed_document``: a few strings repeated, `int`s, and
# values that are not rationals (each raises ParseError).
REPEATED = ("0", "1", "1/2", "-1/2", "1/3", "2/4", "007", "-0", "3/6", "-5/10")
MALFORMED = (True, False, 1.0, "1.0", "1/0", "0/0", None, [1], " 1", "1e3")


def entry(rng):
    draw = rng.random()
    if draw < 0.2:
        return rng.randint(-2, 3)
    if draw < 0.26:
        return rng.choice(MALFORMED)
    return rng.choice(REPEATED)


def nonstd_entry(rng):
    den = [[0, "1"]] if rng.random() < 0.7 else [[0, entry(rng)], [1, entry(rng)]]
    return {"num": [[e, entry(rng)] for e in sorted(rng.sample(range(3), 2))], "den": den}


def parsed_document(rng):
    """A document of one of the six types on 1-5 atoms, its rational
    entries drawn by ``entry``."""
    n = rng.randint(1, 5)
    algebra = algebra_of(n)

    def row():
        return [entry(rng) for _ in range(n)]

    space = jsonio.encode_space(algebra)

    def document(type_name, **body):
        return {"format_version": 1, "type": type_name, "space": space, **body}

    def lps():
        return document("lps", measures=[row() for _ in range(rng.randint(1, 3))])

    kind = rng.randrange(6)
    if kind == 0:
        return document("std_measure", mass=row())
    if kind == 1:
        return lps()
    if kind == 2:
        return document("random_variable", values=row())
    if kind == 3:
        events = rng.sample(algebra.events(), rng.randint(1, min(4, 2**n - 1)))
        events = [sorted(ev) for ev in events]
        return document("popper_space", conditioning_events=events, table=[row() for _ in events])
    if kind == 4:
        return document("nonstd_measure", mass=[nonstd_entry(rng) for _ in range(n)])
    doc = lps()
    coefficients = [nonstd_entry(rng) for _ in doc["measures"]]
    return {"format_version": 1, "type": "decomposition", "lps": doc, "coefficients": coefficients}
