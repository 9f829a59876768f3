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

The module also carries the three constructions between these spaces and
lexicographic systems: the forward map from structured systems, its exact
inverse on finite spaces, and the forest-labelling construction for
treelike families.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    InvalidPopperSpaceError,
    NotAnSlpsError,
    NotTreelikeError,
)
from .lps import LPS, classify_lps
from .spaces import Event, SpaceAlgebra, StdMeasure, ValidationReport, algebra_findings, subsets


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
        return self.table[u].event_mass(v)

    def validate(self, level: str = "popper") -> ValidationReport:
        return validate_popper(self, level)


@dataclass(frozen=True)
class TreeShape:
    """Parent links organizing the conditioning family as a forest."""

    parents: tuple  # pairs (event, parent event or None), in family order

    def parent_of(self, ev: Event):
        for e, p in self.parents:
            if e == ev:
                return p
        raise KeyError(sorted(ev))

    def roots(self):
        return tuple(e for e, p in self.parents if p is None)

    def children_of(self, ev: Event):
        return tuple(e for e, p in self.parents if p == ev)


def forest_shape(space: PopperSpace) -> TreeShape:
    """Organize the family by set inclusion; raises when not laminar."""
    fam = space.conditioning_events
    for u in fam:
        for v in fam:
            if u & v and not (u <= v or v <= u):
                raise NotTreelikeError(
                    f"events {sorted(u)} and {sorted(v)} overlap without nesting"
                )
    parents = []
    for u in fam:
        above = [v for v in fam if u < v]
        parent = min(above, key=lambda v: (len(v), _key(v))) if above else None
        parents.append((u, parent))
    return TreeShape(tuple(parents))


def _cps_findings(space: PopperSpace):
    out = []
    fam = space.conditioning_events
    if frozenset() in fam:
        out.append("conditioning family contains the empty event")
    for u in fam:
        row = space.table.get(u)
        if row is None:
            out.append(f"no conditional stored for {sorted(u)}")
            continue
        out.extend(row.invariant_findings(where=f"conditional given {sorted(u)}"))
        if row.event_mass(u) != 1:
            out.append(
                f"CP1: mu({sorted(u)} | {sorted(u)}) = {row.event_mass(u)}, not 1"
            )
    # Chain rule over nested pairs of conditioning events, all sub-events.
    for u in fam:
        if u not in space.table:
            continue
        for x in fam:
            if x not in space.table or not (x <= u):
                continue
            x_given_u = space.conditional(x, u)
            for v_tuple in subsets(sorted(x)):
                v = frozenset(v_tuple)
                lhs = space.conditional(v, u)
                rhs = space.conditional(v, x) * x_given_u
                if lhs != rhs:
                    out.append(
                        f"CP3: mu({sorted(v)}|{sorted(u)}) = {lhs} but "
                        f"mu({sorted(v)}|{sorted(x)}) * mu({sorted(x)}|{sorted(u)}) = {rhs}"
                    )
    return out


def _popper_closure_findings(space: PopperSpace):
    out = []
    fam = space.family()
    full = space.algebra.full_event()
    for u in space.conditioning_events:
        for extra in subsets(sorted(full - u)):
            v = u | frozenset(extra)
            if v not in fam:
                out.append(
                    f"closure: {sorted(u)} in family but superset {sorted(v)} is not"
                )
        if u not in space.table:
            continue
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
        shape = forest_shape(space)
    except NotTreelikeError as exc:
        return [f"T2: {exc}"]
    full = space.algebra.full_event()
    for u, _ in shape.parents:
        children = shape.children_of(u)
        if children:
            union = frozenset().union(*children)
            if union != u:
                out.append(
                    f"T2: children of {sorted(u)} union to {sorted(union)}, not the parent"
                )
    roots = shape.roots()
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
    findings = _cps_findings(space)
    if level == "popper":
        findings += _popper_closure_findings(space)
    elif level == "treelike":
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
    table = {}
    for ev in slps.algebra.events():
        for m in slps.measures:
            if m.event_mass(ev) > 0:
                table[ev] = m.condition(ev)
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
    measures = []
    covered = frozenset()
    current = full
    while True:
        peeled = space.table[current].support()
        measures.append(space.table[peeled])
        covered |= peeled
        remainder = full - covered
        if remainder not in space.family():
            break
        current = remainder
    return LPS(space.algebra, tuple(measures))


def _label_family(space: PopperSpace):
    """Forest labelling: roots get 0, positive-probability successors share
    the label, maximal unlabelled events open the next level."""
    shape = forest_shape(space)
    fam = list(space.conditioning_events)
    labels = {}
    level = 0
    while len(labels) < len(fam):
        if level == 0:
            seeds = [u for u in shape.roots()]
        else:
            unlabelled = [u for u in fam if u not in labels]
            seeds = [
                u
                for u in unlabelled
                if not any(u < v for v in unlabelled)
            ]
        for u in seeds:
            labels[u] = level
        changed = True
        while changed:
            changed = False
            for u in fam:
                if u in labels:
                    continue
                for v in fam:
                    if labels.get(v) == level and space.conditional(u, v) > 0:
                        labels[u] = level
                        changed = True
                        break
        level += 1
    return labels


def treelike_to_lps(space: PopperSpace) -> LPS:
    """Represent a treelike space as a lexicographic system.

    Level k mixes, with uniform weights, the conditionals given the maximal
    events labelled k.  The output gives every family event positive mass
    at some level and reproduces the whole conditional table.
    """
    report = validate_popper(space, "treelike")
    if not report.is_valid:
        raise NotTreelikeError("; ".join(report.findings))
    labels = _label_family(space)
    n_levels = max(labels.values()) + 1
    rows = []
    for k in range(n_levels):
        at_level = [u for u, lab in labels.items() if lab == k]
        maximal = sorted(
            (u for u in at_level if not any(u < v for v in at_level)), key=_key
        )
        weight = Fraction(1, len(maximal))
        masses = tuple(
            sum((space.table[u].mass[a] * weight for u in maximal), Fraction(0))
            for a in range(space.algebra.n_atoms)
        )
        rows.append(StdMeasure(space.algebra, masses))
    return LPS(space.algebra, tuple(rows))
