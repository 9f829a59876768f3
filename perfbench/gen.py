"""Seeded input generators and the benchmark's own exact reference maths.

Everything here is plain Python data (tuples of ``Fraction``) and never
imports ``extprob``: the checks compare the program's outputs against
values computed here, apart from the program.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

F = Fraction
ZERO = Fraction(0)


# ---------------------------------------------------------------- linear algebra

def rank(rows) -> int:
    mat = [list(r) for r in rows]
    r = 0
    for col in range(len(mat[0]) if mat else 0):
        piv = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        for i in range(r + 1, len(mat)):
            f = mat[i][col] / mat[r][col]
            if f:
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        r += 1
    return r


def combine(coeffs, rows):
    """sum(coeffs[j] * rows[j]) as a tuple."""
    return tuple(
        sum((c * row[a] for c, row in zip(coeffs, rows)), ZERO)
        for a in range(len(rows[0]))
    )


def triangular_link(src, dst) -> bool:
    """Is each dst[i] a combination of src[0..i] with a positive src[i] weight?

    With linearly independent ``src`` this is the lower-triangular
    positive-diagonal relation that makes two systems equivalent.
    """
    if len(src) != len(dst):
        return False
    for i, target in enumerate(dst):
        coeffs = solve(src[: i + 1], target)
        if coeffs is None or coeffs[i] <= 0:
            return False
    return True


def solve(rows, target):
    """Unique coefficients c with sum(c[j] * rows[j]) == target, or None."""
    m, n = len(rows), len(target)
    aug = [[rows[j][a] for j in range(m)] + [target[a]] for a in range(n)]
    pivots = []
    r = 0
    for col in range(m):
        piv = next((i for i in range(r, n) if aug[i][col] != 0), None)
        if piv is None:
            return None
        aug[r], aug[piv] = aug[piv], aug[r]
        aug[r] = [x / aug[r][col] for x in aug[r]]
        for i in range(n):
            if i != r and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(r)
        r += 1
    if any(aug[i][m] != 0 for i in range(r, n)):
        return None
    return [aug[p][m] for p in pivots]


# ---------------------------------------------------------------- polynomials
# A polynomial in eps is a tuple of (exponent, coefficient) pairs.

def poly_eval(terms, t: Fraction) -> Fraction:
    return sum((F(c) * t**e for e, c in terms), ZERO)


def poly_degree(terms) -> int:
    return max((e for e, _ in terms), default=0)


def geometric_schedule(length: int):
    """Coefficients 1 - eps - ... - eps^k, eps, ..., eps^k as polynomials."""
    head = ((0, F(1)),) + tuple((i, F(-1)) for i in range(1, length))
    return (head,) + tuple(((i, F(1)),) for i in range(1, length))


def steep_schedule(length: int):
    """Coefficients 1 - sum(i eps^(i+1)), eps^2, 2 eps^3, ... as polynomials."""
    tail = tuple(((i + 1, F(i)),) for i in range(1, length))
    head = ((0, F(1)),) + tuple((e, -c) for (e, c), in tail)
    return (head,) + tail


def embed(schedule, rows):
    """Atom masses sum(schedule[i] * rows[i]) as polynomials."""
    out = []
    for a in range(len(rows[0])):
        acc: dict = {}
        for coeff, row in zip(schedule, rows):
            for e, c in coeff:
                acc[e] = acc.get(e, ZERO) + c * row[a]
        out.append(tuple(sorted((e, c) for e, c in acc.items() if c != 0)))
    return out


def sample_points(count: int, dens=()):
    """``count`` distinct rational eps values at which no polynomial in
    ``dens`` vanishes."""
    out = []
    k = 2
    while len(out) < count:
        t = F(1, k)
        if all(poly_eval(d, t) != 0 for d in dens):
            out.append(t)
        k += 1
    return out


# ---------------------------------------------------------------- conditionals

def events(n: int):
    """Every nonempty event of n atoms as a sorted index tuple, in
    lexicographic order."""
    return sorted(c for k in range(1, n + 1) for c in combinations(range(n), k))


def first_positive_table(rows, n: int):
    """The conditional table given every event some level makes positive:
    the first such level, conditioned on the event."""
    table = {}
    for ev in events(n):
        for row in rows:
            total = sum((row[a] for a in ev), ZERO)
            if total > 0:
                table[ev] = tuple(row[a] / total if a in ev else ZERO for a in range(n))
                break
    return table


def lex_sign(rows, x, y) -> int:
    """Sign of the first level at which E(x) and E(y) differ, else 0."""
    for row in rows:
        d = sum((m * (a - b) for m, a, b in zip(row, x, y)), ZERO)
        if d:
            return 1 if d > 0 else -1
    return 0


# ---------------------------------------------------------------- generators

def random_row(rng: random.Random, n: int, support) -> tuple:
    """A probability vector positive exactly on ``support`` (small weights)."""
    weights = {a: rng.randint(1, 7) for a in sorted(support)}
    total = sum(weights.values())
    return tuple(F(weights.get(a, 0), total) for a in range(n))


def random_support(rng: random.Random, n: int) -> frozenset:
    k = rng.randint(1, n)
    return frozenset(rng.sample(range(n), k))


def independent_rows(rng: random.Random, n: int, levels: int):
    """``levels`` linearly independent probability rows on n atoms.

    Level i is positive on n - 1 atoms for even i and n - 2 for odd i
    (at least one), chosen at random: the number of zero masses, which
    sets much of the cost, is the same for every seed.
    """
    sizes = [max(1, n - 1 - i % 2) for i in range(levels)]
    while True:
        rows = [random_row(rng, n, rng.sample(range(n), k)) for k in sizes]
        if rank(rows) == levels:
            return tuple(rows)


def triangular_transform(rng: random.Random, rows):
    """Rows T @ rows, renormalised, for a random lower-triangular T with
    positive entries on and below the diagonal: an equivalent system."""
    out = []
    for i in range(len(rows)):
        coeffs = [F(rng.randint(1, 3)) for _ in range(i)] + [F(rng.randint(1, 4))]
        row = combine(coeffs, rows[: i + 1])
        total = sum(row, ZERO)
        out.append(tuple(x / total for x in row))
    return tuple(out)


def structured_rows(rng: random.Random, n: int, levels: int, cover: bool):
    """Rows with pairwise disjoint supports, the first on at least two atoms.

    Unless ``cover``, one atom is left out of every support.
    """
    atoms = list(range(n))
    rng.shuffle(atoms)
    if not cover:
        atoms = atoms[:-1]
    cuts = sorted(rng.sample(range(2, len(atoms)), levels - 1))
    bounds = [0] + cuts + [len(atoms)]
    return tuple(
        random_row(rng, n, atoms[bounds[i]: bounds[i + 1]]) for i in range(levels)
    )


def treelike_table(rng: random.Random, n: int, shape: random.Random):
    """A forest-shaped conditioning family with a consistent table.

    Roots partition the atoms and children partition their parent; the
    forest is drawn from ``shape`` and the rows from ``rng``.  A child's
    row is its parent's row restricted and renormalised when the parent
    gives it positive mass, and a fresh row otherwise, so the chain rule
    holds on every nested pair.
    """
    table = {}

    def split(block):
        k = shape.choice((2, 2, 3)) if len(block) >= 3 else 2
        block = list(block)
        shape.shuffle(block)
        cuts = sorted(shape.sample(range(1, len(block)), k - 1))
        bounds = [0] + cuts + [len(block)]
        return [tuple(sorted(block[bounds[i]: bounds[i + 1]])) for i in range(k)]

    def grow(block, row, depth):
        table[block] = row
        if len(block) < 2 or depth > 3 or shape.random() < 0.3:
            return
        for child in split(block):
            mass = sum((row[a] for a in child), ZERO)
            if mass > 0:
                child_row = tuple(row[a] / mass if a in child else ZERO for a in range(n))
            else:
                child_row = random_row(rng, n, _sub_support(rng, child))
            grow(child, child_row, depth + 1)

    roots = split(range(n)) if shape.random() < 0.5 else [tuple(range(n))]
    for root in roots:
        grow(root, random_row(rng, n, _sub_support(rng, root)), 0)
    return table


def _sub_support(rng: random.Random, block):
    block = list(block)
    if len(block) == 1:
        return block
    return rng.sample(block, rng.randint(1, len(block) - 1 if rng.random() < 0.7 else len(block)))


def nested_fincof(rng: random.Random, universe: int):
    """A nested triple (v, x, u) of finite/cofinite sets as (mode, support)
    pairs; u and x nonempty, v inside x inside u."""
    def subset(items):
        return frozenset(i for i in items if rng.random() < 0.5)

    def nonempty_subset(items):
        items = sorted(items)
        s = subset(items)
        return s or frozenset([rng.choice(items)])

    full = range(universe)
    if rng.random() < 0.5:
        u = ("finite", nonempty_subset(full))
    else:
        u = ("cofinite", subset(full))
    chain = [u]
    for _ in range(2):
        mode, sup = chain[-1]
        empty_ok = len(chain) == 2
        if mode == "finite":
            inner = subset(sup) if empty_ok else nonempty_subset(sup)
            chain.append(("finite", inner))
        else:
            outside = [i for i in full if i not in sup]
            if (not outside and not empty_ok) or rng.random() < 0.5:
                chain.append(("cofinite", sup | subset(full)))
                continue
            inner = subset(outside) if empty_ok else nonempty_subset(outside)
            chain.append(("finite", inner))
    u, x, v = chain
    return v, x, u


def break_chain_rule(table: dict, n: int) -> dict:
    """A copy of a conditional table with the chain rule broken.

    Picks the first event x, other than the whole space, that the whole
    space gives positive mass and whose row is positive on two atoms a < b,
    and moves half the smaller of the two masses from a to b.  Then
    mu(a | space) != mu(a | x) * mu(x | space).
    """
    full = tuple(range(n))
    for x in sorted(table):
        if x == full or sum((table[full][a] for a in x), ZERO) == 0:
            continue
        positive = [a for a in x if table[x][a] > 0]
        if len(positive) >= 2:
            a, b = positive[:2]
            row = list(table[x])
            delta = min(row[a], row[b]) / 2
            row[a] -= delta
            row[b] += delta
            return {**table, x: tuple(row)}
    raise ValueError("no event to perturb")


def drop_leaf(table: dict) -> dict:
    """A copy of a forest-shaped table without its first leaf event.

    A leaf has no other event of the family inside it.  Without it the
    remaining children of its parent no longer cover the parent, or, for
    a root, the remaining roots no longer cover the space, so the copy is
    not treelike whatever the rows.  (A broken chain rule cannot stand in
    here: several forest shapes have no nested pair to break it on.)
    """
    for x in sorted(table):
        if not any(set(y) < set(x) for y in table):
            return {ev: row for ev, row in table.items() if ev != x}
    raise ValueError("no leaf event")
