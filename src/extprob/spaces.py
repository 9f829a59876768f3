"""Finite sample spaces, events, measures, expectation, and conditioning.

A :class:`SpaceAlgebra` is given by its atom partition; every event of the
algebra is a union of atoms and is represented as a frozenset of atom
indices.  Measures assign exact masses to atoms: rationals for
:class:`StdMeasure`, field elements for :class:`NonstdMeasure`.  Values are
immutable and operations are pure; the only state is what a value caches
about itself, which saves work but never changes a result: each
measure's memo of the event masses asked of it, and the integer row
``(ints, den)`` of a rational measure or random variable, made on first
use.  A standard measure checks its invariants, sums events and takes
expectations on that row, one ``Fraction`` per result; a row with a mass
that is not an ``int`` or a ``Fraction`` has no integer row and keeps the
``Fraction`` sums.  A standard measure built from an integer row
(:meth:`StdMeasure.from_int_row`) keeps only the row and makes its
``mass`` tuple when ``mass`` is first read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from ._linalg import scaled_row
from .errors import AlgebraMismatchError, SizeLimitError, ZeroConditioningError
from .field import NonstdNumber, ONE, ZERO

Event = frozenset

EVENT_LIMIT = 2**20
"""Most events an exponential routine lists or checks; a larger input
raises :class:`SizeLimitError` through :func:`refuse_over_limit`."""


def refuse_over_limit(what: str, count: int, unit: str = "events"):
    """Raise :class:`SizeLimitError` when ``what`` needs more than
    :data:`EVENT_LIMIT` of ``unit``."""
    if count > EVENT_LIMIT:
        raise SizeLimitError(
            f"{what} needs {count} {unit}, over the limit EVENT_LIMIT = {EVENT_LIMIT}"
        )


@dataclass(frozen=True)
class SpaceAlgebra:
    """Worlds plus the partition into atoms that generates the algebra."""

    worlds: tuple
    atoms: tuple

    @classmethod
    def discrete(cls, labels) -> "SpaceAlgebra":
        """Algebra in which every world is its own atom."""
        labels = tuple(labels)
        return cls(labels, tuple((w,) for w in labels))

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)

    def full_event(self) -> Event:
        return frozenset(range(len(self.atoms)))

    def event(self, indices) -> Event:
        ev = frozenset(indices)
        for i in ev:
            if not (0 <= i < len(self.atoms)):
                raise ValueError(f"atom index {i} out of range")
        return ev

    def events(self):
        """All nonempty events, in lexicographic order of their sorted index
        tuples.

        Raises :class:`SizeLimitError` before listing more than
        :data:`EVENT_LIMIT` events.
        """
        refuse_over_limit(
            f"listing the events of {len(self.atoms)} atoms", 2 ** len(self.atoms) - 1
        )
        return [frozenset(s) for s in sorted(subsets(range(len(self.atoms)))[1:])]

    def complement(self, ev: Event) -> Event:
        return self.full_event() - ev

    def describe_event(self, ev: Event) -> str:
        worlds = sorted(w for i in ev for w in self.atoms[i])
        return "{" + ",".join(str(w) for w in worlds) + "}"


def subsets(items) -> list:
    """Every subset of ``items`` as a tuple, in bitmask order.

    Subset number ``k`` holds ``items[i]`` exactly when bit ``i`` of ``k``
    is set, so the empty tuple comes first and each tuple keeps the order
    of ``items``.
    """
    out = [()]
    for it in items:
        out += [s + (it,) for s in out]
    return out


@dataclass(frozen=True)
class ValidationReport:
    """Collected invariant violations; empty means valid."""

    findings: tuple

    def __bool__(self) -> bool:
        return not self.findings

    @property
    def is_valid(self) -> bool:
        return not self.findings

    def lines(self):
        return ["ok"] if self.is_valid else [f"violation: {f}" for f in self.findings]


def _int_row(values):
    """``(ints, den)`` with ``ints[a] / den == values[a]``, or None when
    some value is not an ``int`` or a ``Fraction``."""
    if all(isinstance(x, (int, Fraction)) for x in values):
        ints, den = scaled_row(values)
        return tuple(ints), den
    return None


@dataclass(frozen=True)
class _MeasureBase:
    """Atom masses on an algebra, with a memo of event masses.

    ``_masses`` maps each event asked for to its mass.  It is filled on
    demand and never changes a result, so measures still compare and hash
    by algebra and masses only.  ``int_row`` is None here: only a
    :class:`StdMeasure` has one.
    """

    algebra: SpaceAlgebra
    mass: tuple
    _masses: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    int_row = None

    def event_mass(self, ev: Event):
        """Total mass of an event (zero element for the empty event).

        Memoized per event; exhaustive quantifications revisit the same
        events constantly.
        """
        value = self._masses.get(ev)
        if value is None:
            row = self.int_row
            if row is None:
                value = sum((self.mass[i] for i in ev), start=self._zero)
            else:
                ints, den = row
                value = Fraction(sum(ints[i] for i in ev), den)
            self._masses[ev] = value
        return value

    def expectation(self, rv: "RandomVariable"):
        if rv.algebra != self.algebra:
            raise AlgebraMismatchError("random variable on a different algebra")
        row, rv_row = self.int_row, rv.int_row
        # Too few values raise IndexError on the Fraction route.
        if row is not None and rv_row is not None and len(rv_row[0]) >= len(row[0]):
            (ints, den), (vals, vden) = row, rv_row
            return Fraction(sum(m * v for m, v in zip(ints, vals)), den * vden)
        return sum(
            (self.mass[i] * rv.values[i] for i in range(len(self.mass))),
            start=self._zero,
        )

    def support(self) -> Event:
        return frozenset(i for i, m in enumerate(self.mass) if m != self._zero)

    def condition(self, ev: Event):
        total = self.event_mass(ev)
        if total == self._zero:
            raise ZeroConditioningError(
                f"conditioning event has mass zero: {sorted(ev)}"
            )
        masses = tuple(
            self.mass[i] / total if i in ev else self._zero
            for i in range(len(self.mass))
        )
        return type(self)(self.algebra, masses)


class StdMeasure(_MeasureBase):
    """Finitely additive probability with rational atom masses."""

    _zero = Fraction(0)

    @classmethod
    def from_values(cls, algebra: SpaceAlgebra, values) -> "StdMeasure":
        return cls(
            algebra, tuple(v if type(v) is Fraction else Fraction(v) for v in values)
        )

    @classmethod
    def from_int_row(cls, algebra: SpaceAlgebra, ints: tuple, den: int) -> "StdMeasure":
        """The measure with masses ``ints[a] / den`` for a tuple of ints and
        a nonzero int.  It keeps the row and builds ``mass`` when it is
        first read."""
        if den < 0:
            ints, den = tuple(-x for x in ints), -den
        measure = object.__new__(cls)
        # Bypass the frozen __init__: ``mass`` stays unset until read.
        measure.__dict__.update(algebra=algebra, _masses={}, int_row=(ints, den))
        return measure

    @cached_property
    def mass(self):
        """The masses ``ints[a] / den`` of a measure built by
        :meth:`from_int_row`; any other measure stores its masses."""
        ints, den = self.int_row
        zero = self._zero
        return tuple(Fraction(x, den) if x else zero for x in ints)

    @classmethod
    def uniform(cls, algebra: SpaceAlgebra) -> "StdMeasure":
        n = algebra.n_atoms
        return cls(algebra, tuple(Fraction(1, n) for _ in range(n)))

    @cached_property
    def int_row(self):
        """``(ints, den)`` with ``ints[a] / den == mass[a]`` and ``den > 0``,
        or None when a mass is not an ``int`` or a ``Fraction``.  Made on
        first use over the least common denominator, unless the measure
        was built by :meth:`from_int_row`."""
        return _int_row(self.mass)

    def invariant_findings(self, where: str = "measure"):
        """Findings of a row that is not a probability on the atoms.

        A rational row of the right length is accepted on its integers:
        none negative and summing to the denominator.  Any other row is
        checked mass by mass to word its findings.
        """
        row = self.int_row
        if row is not None and len(self.mass) == self.algebra.n_atoms:
            ints, den = row
            if sum(ints) == den and min(ints) >= 0:
                return []
        return self._findings_on_masses(where)

    def _findings_on_masses(self, where):
        out = []
        if len(self.mass) != self.algebra.n_atoms:
            out.append(f"{where}: {len(self.mass)} masses for {self.algebra.n_atoms} atoms")
            return out
        for i, m in enumerate(self.mass):
            if m < 0:
                out.append(f"{where}: negative mass {m} at atom {i}")
        total = sum(self.mass, start=Fraction(0))
        if not isinstance(total, Fraction):
            # Ints and Fractions sum to a Fraction, so some mass is neither.
            return out + [
                f"{where}: mass {m!r} at atom {i} is neither int nor Fraction"
                for i, m in enumerate(self.mass)
                if not isinstance(m, (int, Fraction))
            ]
        if total != 1:
            out.append(f"{where}: masses sum to {total}, not 1")
        return out


class NonstdMeasure(_MeasureBase):
    """Finitely additive probability with masses in the infinitesimal field."""

    _zero = ZERO

    @classmethod
    def from_values(cls, algebra: SpaceAlgebra, values) -> "NonstdMeasure":
        return cls(algebra, tuple(NonstdNumber.coerce(v) for v in values))

    def standard_part(self) -> StdMeasure:
        return StdMeasure(
            self.algebra, tuple(m.standard_part() for m in self.mass)
        )

    def invariant_findings(self, where: str = "measure"):
        out = []
        if len(self.mass) != self.algebra.n_atoms:
            out.append(f"{where}: {len(self.mass)} masses for {self.algebra.n_atoms} atoms")
            return out
        foreign = [
            f"{where}: mass {m!r} at atom {i} is not a NonstdNumber"
            for i, m in enumerate(self.mass)
            if not isinstance(m, NonstdNumber)
        ]
        if foreign:
            return foreign
        for i, m in enumerate(self.mass):
            if m.sign() < 0:
                out.append(f"{where}: negative mass {m} at atom {i}")
            elif not m.is_limited:
                out.append(f"{where}: unlimited mass {m} at atom {i}")
        total = sum(self.mass, start=ZERO)
        if total != ONE:
            out.append(f"{where}: masses sum to {total}, not 1")
        return out


@dataclass(frozen=True)
class RandomVariable:
    """Rational-valued function of the atoms (measurable by construction)."""

    algebra: SpaceAlgebra
    values: tuple

    @cached_property
    def int_row(self):
        """``(ints, den)`` with ``ints[a] / den == values[a]``, or None when
        a value is not an ``int`` or a ``Fraction``; made on first use."""
        return _int_row(self.values)

    @classmethod
    def from_values(cls, algebra: SpaceAlgebra, values) -> "RandomVariable":
        return cls(algebra, tuple(Fraction(v) for v in values))

    @classmethod
    def indicator(cls, algebra: SpaceAlgebra, ev: Event) -> "RandomVariable":
        return cls(
            algebra,
            tuple(
                Fraction(1) if i in ev else Fraction(0)
                for i in range(algebra.n_atoms)
            ),
        )

    def scale(self, k) -> "RandomVariable":
        k = Fraction(k)
        return RandomVariable(self.algebra, tuple(v * k for v in self.values))

    def __add__(self, other: "RandomVariable") -> "RandomVariable":
        if other.algebra != self.algebra:
            raise AlgebraMismatchError("random variables on different algebras")
        return RandomVariable(
            self.algebra, tuple(a + b for a, b in zip(self.values, other.values))
        )

    def __sub__(self, other: "RandomVariable") -> "RandomVariable":
        return self + other.scale(-1)

    def range_values(self):
        return sorted(set(self.values))

    def level_event(self, value) -> Event:
        """Atoms on which the variable takes the given value."""
        value = Fraction(value)
        return frozenset(i for i, v in enumerate(self.values) if v == value)

    def preimage_event(self, values) -> Event:
        wanted = {Fraction(v) for v in values}
        return frozenset(i for i, v in enumerate(self.values) if v in wanted)


def algebra_findings(algebra: SpaceAlgebra):
    out = []
    seen = {}
    covered = []
    for b, block in enumerate(algebra.atoms):
        if not block:
            out.append(f"atoms[{b}]: empty block")
        for w in block:
            if w in seen:
                out.append(f"atoms[{b}]: world {w!r} already in atoms[{seen[w]}]")
            seen[w] = b
            covered.append(w)
    missing = [w for w in algebra.worlds if w not in seen]
    if missing:
        out.append(f"worlds not covered by atoms: {missing}")
    known = set(algebra.worlds)
    extra = [w for w in covered if w not in known]
    if extra:
        out.append(f"atoms mention unknown worlds: {extra}")
    return out


def validate_space(algebra: SpaceAlgebra, measures=()) -> ValidationReport:
    """Check partition and measure invariants; returns a report, never raises."""
    findings = list(algebra_findings(algebra))
    for k, m in enumerate(measures):
        if m.algebra != algebra:
            findings.append(f"measures[{k}]: built on a different algebra")
            continue
        findings.extend(m.invariant_findings(where=f"measures[{k}]"))
    return ValidationReport(tuple(findings))
