"""Conditional probability spaces with explicit conditioning families.

A :class:`PopperSpace` stores, for every event in its conditioning family,
the full conditional measure on atoms.  Additivity of each conditional is
then structural; validation checks the remaining axioms at three levels:

- ``cps``: the conditional-probability axioms (unit mass on the
  conditioning event, and the chain rule for nested conditioning events),
- ``popper``: additionally the closure conditions on the family (closed
  under supersets, and under positive-probability intersections),
- ``treelike``: instead of closure, the family must form a forest whose
  siblings partition their parent and whose roots partition the space.
  The forest is a parent map: each event points to its least strict
  superset in the family, and roots point to None.

Every axiom is first checked by an exact shortcut, in time polynomial in
family size times atoms; sub-events and supersets are enumerated only to
word the findings of a shortcut that failed, so the report keeps the text
and order of the exhaustive check:

- CP3 on atoms: each conditional is additive, so both sides of
  mu(v|u) = mu(v|x) * mu(x|u) are sums over the atoms of v, and the chain
  rule holds for every sub-event of x exactly when it holds on each atom.
- One-atom closure: the family is closed under supersets exactly when it
  holds u | {a} for every member u and atom a.  Given that, every v with
  mu(v|u) != 0 contains an atom a with mu({a}|u) != 0, so positive
  closure needs only those singletons in the family.
- Peeled levels: on a closed family with CP1 and no other finding, peel
  W_0 = the space, then W_{k+1} = W_k minus the support S_k of W_k's
  row, while that remainder is in the family (the levels
  :func:`popper_to_slps` reads).  Every member x lies in some W_k and
  meets its S_k, because a member inside a remainder makes the
  remainder a member too.  Test each member x once, against W_k for the
  first such k.  For x <= u, x first meets a level no earlier than u,
  and the test of u gives mu(a|u) = mu(a|W) / mu(u|W) on the atoms of
  u, where W is u's level and mu(u|W) > 0 (u meets the support, and
  masses are nonnegative):
  - if x first meets W too, summing over x gives mu(x|u) =
    mu(x|W) / mu(u|W), and dividing the test of x, mu(a|W) =
    mu(a|x) * mu(x|W), by mu(u|W) gives mu(a|u) = mu(a|x) * mu(x|u);
  - if x first meets a later level, mu(a|W) = 0 on x, so mu(a|u) = 0
    there, mu(x|u) = 0, and both sides of the chain rule vanish.
  So |F| tests stand for every nested pair of the family F.  When some
  test fails, the same two cases still prove each pair (x, u) whose u
  passed, unless x failed at u's level, and (u, u) holds by CP1.  Only
  the nested pairs left unproven are tested directly, and only the
  sub-events of a failing pair whose integer cross-products differ are
  worded with ``Fraction``s.  The ``cps`` and ``treelike`` levels, and
  the ``popper`` level on a table with some other finding, test every
  nested pair.

The shortcuts and the forward map run on integer rows: each row's
``StdMeasure.int_row``, its masses as integers over one denominator,
which the measure makes on first use and keeps (the forward map builds
each conditional from integers and hands it that row).  A row passes its
invariants and CP1 when its integers are nonnegative and sum to the
denominator both over the space and over its event; the chain rule
compares integer products; the forward map divides an atom's integer by
the event's integer sum.  ``Fraction`` arithmetic is used only to word
the findings of a row that failed.

The module also carries the three constructions between these spaces and
lexicographic systems: the forward map from structured systems, its exact
inverse on finite spaces, and the forest construction for treelike
families, which reads the levels off the parent map in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    InvalidPopperSpaceError,
    NotAnSlpsError,
    NotTreelikeError,
    ZeroConditioningError,
)
from .lps import LPS, classify_lps
from .spaces import Event, SpaceAlgebra, StdMeasure, ValidationReport, algebra_findings
from .spaces import refuse_over_limit, subsets


def _key(ev: Event):
    return tuple(sorted(ev))


@dataclass(frozen=True)
class PopperSpace:
    """Finite algebra, conditioning family, and exact conditional table."""

    algebra: SpaceAlgebra
    conditioning_events: tuple
    table: dict = field(compare=False)

    def __post_init__(self):
        ordered = tuple(sorted((frozenset(e) for e in self.conditioning_events), key=_key))
        object.__setattr__(self, "conditioning_events", ordered)

    @classmethod
    def from_rows(cls, algebra: SpaceAlgebra, rows: dict) -> "PopperSpace":
        """Build from {event indices: atom mass row} pairs."""
        table = {}
        for indices, masses in rows.items():
            ev = algebra.event(indices)
            table[ev] = StdMeasure.from_values(algebra, masses)
        return cls(algebra, tuple(table), table)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PopperSpace):
            return NotImplemented
        return (
            self.algebra == other.algebra
            and self.conditioning_events == other.conditioning_events
            and all(self.table[ev] == other.table[ev] for ev in self.conditioning_events)
        )

    def family(self) -> frozenset:
        return frozenset(self.conditioning_events)

    def conditional(self, v: Event, u: Event) -> Fraction:
        """mu(v | u) for u in the conditioning family."""
        try:
            row = self.table[u]
        except KeyError:
            raise ZeroConditioningError(
                f"conditioning event {sorted(u)} is outside the conditioning family"
            ) from None
        return row.event_mass(v)

    def validate(self, level: str = "popper") -> ValidationReport:
        return validate_popper(self, level)


def forest_shape(space: PopperSpace) -> dict:
    """Parent links of the family, ``{event: parent or None}`` in family order.

    The parent of an event is its least strict superset in the family, and
    roots map to None.  Raises when the family is not laminar.
    """
    fam = space.conditioning_events
    for u in fam:
        for v in fam:
            if u & v and not (u <= v or v <= u):
                raise NotTreelikeError(
                    f"events {sorted(u)} and {sorted(v)} overlap without nesting"
                )
    parents = {}
    for u in fam:
        above = [v for v in fam if u < v]
        parents[u] = min(above, key=lambda v: (len(v), _key(v))) if above else None
    return parents


def _cp_findings(space: PopperSpace, rows):
    """Empty-event, missing-row, row-invariant and CP1 findings.

    With ``rows`` from :func:`_integer_rows`, a row is accepted on its
    integers: n of them, summing to the denominator over the space and
    over u, none negative.  Any other row is checked on its masses to word
    the findings.
    """
    out = []
    fam = space.conditioning_events
    n = space.algebra.n_atoms
    if frozenset() in fam:
        out.append("conditioning family contains the empty event")
    for u in fam:
        row = space.table.get(u)
        if row is None:
            out.append(f"no conditional stored for {sorted(u)}")
            continue
        masses, den = rows[u]
        if (
            len(masses) == n
            and sum(masses) == den
            and min(masses) >= 0
            and sum(masses[a] for a in u) == den
        ):
            continue
        out.extend(row.invariant_findings(where=f"conditional given {sorted(u)}"))
        if row.event_mass(u) != 1:
            out.append(
                f"CP1: mu({sorted(u)} | {sorted(u)}) = {row.event_mass(u)}, not 1"
            )
    return out


def _integer_rows(space: PopperSpace) -> dict:
    """``{u: int_row}``: each stored row's ``StdMeasure.int_row``."""
    return {u: row.int_row for u, row in space.table.items()}


def _chain_rule_on_atoms(rows: dict, x: Event, u: Event) -> bool:
    """mu(a|u) == mu(a|x) * mu(x|u) for every atom a of x.

    Both sides are additive in the sub-event, so this is the chain rule
    for every sub-event of x.  With ``rows`` from :func:`_integer_rows`,
    u_mass[a] / U == (x_mass[a] / X) * (x_in_u / U) for the integer sum
    x_in_u of u_mass over x, so the test is u_mass[a] * X == x_mass[a] * x_in_u.
    """
    (u_mass, _), (x_mass, x_den) = rows[u], rows[x]
    x_in_u = sum(u_mass[a] for a in x)
    return all(u_mass[a] * x_den == x_mass[a] * x_in_u for a in x)


def _nested_pairs(space: PopperSpace):
    stored = [u for u in space.conditioning_events if u in space.table]
    return [(x, u) for u in stored for x in stored if x <= u]


def _peeled_levels(space: PopperSpace, rows: dict):
    """``(W_k, S_k)`` for the levels peeled off a table with CP1.

    W_0 is the space, S_k the support of W_k's integer row, and
    W_{k+1} = W_k - S_k while that remainder is in the family.
    """
    fam = space.family()
    out = []
    level = space.algebra.full_event()
    while level in fam:
        masses = rows[level][0]
        support = frozenset(a for a in level if masses[a])
        out.append((level, support))
        level -= support
    return out


def _peel_tests(space: PopperSpace, rows: dict) -> dict:
    """``{x: (k, holds)}`` for each member x: the index k of the first
    peeled level whose support meets x, and whether the chain rule holds
    on (x, W_k)."""
    levels = _peeled_levels(space, rows)
    out = {}
    for x in space.conditioning_events:
        k = next(k for k, (_, support) in enumerate(levels) if not support.isdisjoint(x))
        out[x] = (k, _chain_rule_on_atoms(rows, x, levels[k][0]))
    return out


def _unproven_pairs(space: PopperSpace, peel: dict):
    """The nested pairs (x, u), x != u, u then x in family order, that the
    tests in ``peel`` (from :func:`_peel_tests`) do not prove: every x
    below a u whose test failed, and below a u whose test held, each x
    whose test failed at u's level."""
    fam = space.conditioning_events
    failed = [x for x in fam if not peel[x][1]]
    out = []
    for u in fam:
        k, holds = peel[u]
        if holds:
            out += [(x, u) for x in failed if x < u and peel[x][0] == k]
        else:
            out += [(x, u) for x in fam if x < u]
    return out


def _cp3_findings(space: PopperSpace, rows: dict, pairs):
    out = []
    for x, u in pairs:
        if _chain_rule_on_atoms(rows, x, u):
            continue
        (u_mass, _), (x_mass, x_den) = rows[u], rows[x]
        x_in_u = sum(u_mass[a] for a in x)
        x_given_u = space.conditional(x, u)
        refuse_over_limit(f"listing the CP3 findings on {sorted(x)}", 2 ** len(x))
        atoms = sorted(x)
        # The two sides below differ exactly when the atoms' integer
        # defects u_mass[a] * X - x_mass[a] * x_in_u sum to nonzero over v.
        defects = [0]
        for a in atoms:
            d = u_mass[a] * x_den - x_mass[a] * x_in_u
            defects += [s + d for s in defects]
        for v_tuple, defect in zip(subsets(atoms), defects):
            if not defect:
                continue
            v = frozenset(v_tuple)
            lhs = space.conditional(v, u)
            rhs = space.conditional(v, x) * x_given_u
            out.append(
                f"CP3: mu({sorted(v)}|{sorted(u)}) = {lhs} but "
                f"mu({sorted(v)}|{sorted(x)}) * mu({sorted(x)}|{sorted(u)}) = {rhs}"
            )
    return out


def _bitmask(ev: Event) -> int:
    return sum(1 << a for a in ev)


def _popper_closure_findings(space: PopperSpace, rows: dict):
    """Closure findings, on the integer ``rows`` from :func:`_integer_rows`.

    The one-atom and singleton shortcuts test events as bitmasks, bit a
    for atom a; the findings of a family that fails one are worded by
    listing its supersets or sub-events.
    """
    fam = space.family()
    full = space.algebra.full_event()
    masks = {_bitmask(u) for u in fam}
    closed = all((m | 1 << a) in masks for m in masks for a in full)
    out = []
    for u in space.conditioning_events:
        if not closed:
            refuse_over_limit(f"listing the supersets of {sorted(u)}", 2 ** len(full - u))
            for extra in subsets(sorted(full - u)):
                v = u | frozenset(extra)
                if v not in fam:
                    out.append(
                        f"closure: {sorted(u)} in family but superset {sorted(v)} is not"
                    )
        row = rows.get(u)
        if row is None:
            continue
        if closed and all((1 << a) in masks for a in u if row[0][a]):
            continue
        refuse_over_limit(f"listing the sub-events of {sorted(u)}", 2 ** len(u))
        for v_tuple in subsets(sorted(u)):
            v = frozenset(v_tuple)
            if v and space.conditional(v, u) != 0 and v not in fam:
                out.append(
                    f"closure: mu({sorted(v)}|{sorted(u)}) > 0 but {sorted(v)} not in family"
                )
    return out


def _treelike_findings(space: PopperSpace):
    out = []
    try:
        parents = forest_shape(space)
    except NotTreelikeError as exc:
        return [f"T2: {exc}"]
    full = space.algebra.full_event()
    for u in parents:
        children = [e for e, p in parents.items() if p == u]
        if children:
            union = frozenset().union(*children)
            if union != u:
                out.append(
                    f"T2: children of {sorted(u)} union to {sorted(union)}, not the parent"
                )
    roots = [e for e, p in parents.items() if p is None]
    if roots:
        union = frozenset().union(*roots)
        if union != full:
            out.append(f"T3: roots cover {sorted(union)}, not the whole space")
    else:
        out.append("T3: empty family has no roots")
    return out


def validate_popper(space: PopperSpace, level: str = "popper") -> ValidationReport:
    """Report every violated axiom at the requested level."""
    if level not in ("cps", "popper", "treelike"):
        raise ValueError(f"unknown validation level {level!r}")
    findings = algebra_findings(space.algebra)
    if findings:
        return ValidationReport(tuple(findings))
    rows = _integer_rows(space)
    findings = _cp_findings(space, rows)
    if level == "popper":
        closure = _popper_closure_findings(space, rows)
        # The peeled levels stand for all nested pairs only on a closed
        # family with CP1 and no other finding.
        if findings or closure:
            pairs = _nested_pairs(space)
        else:
            peel = _peel_tests(space, rows)
            if all(holds for _, holds in peel.values()):
                return ValidationReport(())
            pairs = _unproven_pairs(space, peel)
        findings += _cp3_findings(space, rows, pairs)
        findings += closure
    else:
        findings += _cp3_findings(space, rows, _nested_pairs(space))
        if level == "treelike":
            findings += _treelike_findings(space)
    return ValidationReport(tuple(findings))


def slps_to_popper(slps: LPS) -> PopperSpace:
    """Forward map: condition on every event some level makes positive.

    The conditional given an event is taken from the first level giving it
    positive probability, so the space preserves both the conditionable
    events and the most significant term of each conditional system.
    """
    if not classify_lps(slps).is_slps:
        raise NotAnSlpsError("input system is not structured")
    n = slps.algebra.n_atoms
    table = {}
    for ev in slps.algebra.events():
        for m in slps.measures:
            masses = m.int_row[0]
            total = sum(masses[a] for a in ev)
            if total > 0:
                # mass[a] / mass(ev) is masses[a] / total: the denominators
                # cancel, and the conditional's integer row is in hand.
                table[ev] = StdMeasure.from_int_row(slps.algebra, tuple(
                    masses[a] if a in ev else 0 for a in range(n)
                ), total)
                break
    return PopperSpace(slps.algebra, tuple(table), table)


def popper_to_slps(space: PopperSpace) -> LPS:
    """Inverse construction on finite spaces.

    Peels off the least event of full conditional mass given the space,
    then given the uncovered remainder, and so on while the remainder stays
    in the family; level i of the output is the conditional given the i-th
    peeled event.  The result has pairwise disjoint supports and maps back
    to the input exactly.
    """
    report = validate_popper(space, "popper")
    if not report.is_valid:
        raise InvalidPopperSpaceError("; ".join(report.findings))
    full = space.algebra.full_event()
    if full not in space.family():
        raise InvalidPopperSpaceError("conditioning family does not contain the space")
    levels = _peeled_levels(space, _integer_rows(space))
    return LPS(space.algebra, tuple(space.table[support] for _, support in levels))


def treelike_to_lps(space: PopperSpace) -> LPS:
    """Represent a treelike space as a lexicographic system.

    Walking the forest from the roots down, a root opens level 0, a child
    its parent gives positive probability shares the parent's level, and a
    child its parent gives zero opens the level after the parent's.  Level k
    mixes, with uniform weights, the conditionals given the events opening
    it.  The output gives every family event positive mass at some level
    and reproduces the whole conditional table.
    """
    report = validate_popper(space, "treelike")
    if not report.is_valid:
        raise NotTreelikeError("; ".join(report.findings))
    # CP3 holds on every nested pair, so mu(u | w) = mu(u | p) * mu(p | w) for
    # each ancestor w: a child its parent gives zero gets zero from all of them.
    parents = forest_shape(space)
    level = {}
    opening = []
    for u in sorted(parents, key=len, reverse=True):
        p = parents[u]
        if p is not None and space.conditional(u, p) > 0:
            level[u] = level[p]
        else:
            level[u] = 0 if p is None else level[p] + 1
            opening.append(u)
    rows = []
    for k in range(max(level.values()) + 1):
        openers = sorted((u for u in opening if level[u] == k), key=_key)
        weight = Fraction(1, len(openers))
        masses = tuple(
            sum((space.table[u].mass[a] * weight for u in openers), Fraction(0))
            for a in range(space.algebra.n_atoms)
        )
        rows.append(StdMeasure(space.algebra, masses))
    return LPS(space.algebra, tuple(rows))
