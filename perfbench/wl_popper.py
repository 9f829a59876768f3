"""Workload ``popper``: the conditional-space side.

Event enumeration (``spaces``), Popper validation and ``Fraction``
arithmetic do the work; ``NonstdNumber`` arithmetic runs only for the few
counting-measure standard parts inside ``sampled_axiom_check``.  A
round is a fixed mix, whatever the seed:

- 8 structured systems, on 4 to 7 atoms with 2 levels (one atom in no
  support) and 3 levels (every atom in one), through
  ``slps_to_popper``, ``validate_popper(..., "popper")``,
  ``popper_to_slps`` and ``slps_to_popper`` again, plus the validation of
  a copy of the image whose chain rule the benchmark broke;
- 15 treelike tables, three on each of 5 to 9 atoms, with forest shapes
  that do not depend on the seed, through
  ``validate_popper(..., "treelike")`` and ``treelike_to_lps``, plus the
  treelike validation of a copy without one leaf event;
- 4 batches of 60 ``indep_events(..., mode="popper")`` queries on the
  conditional spaces of systems on 4 to 7 atoms;
- ``sampled_axiom_check`` for ``mu1`` and for ``mu2`` on 2000 nested
  finite/cofinite triples over the naturals below 8 each, and on 50 of
  them with v and u swapped, which must be reported not nested; the
  ``mu1`` item also asks ``fincof_cond`` for every triple with a finite u.
"""

from __future__ import annotations

import random
import re
from functools import cached_property

from extprob import fincof, independence, popper, spaces
from extprob import lps as lpsmod

import checks
import gen
from checks import expect
from items import Item, drop_row, mass_off, rows, table

FINCOF_TRIPLES = 2000
FINCOF_UNIVERSE = 8
# Triples given to sampled_axiom_check with v and u swapped: each one that
# is not a single set three times is not nested and must be reported.
FINCOF_SWAPPED = 50
INDEP_QUERIES = 60
# With three trees per size the cheap treelike items are half the round, so
# the median item is one of them and not a jump between item kinds.
TREES_PER_SIZE = 3


def _algebra(n):
    return spaces.SpaceAlgebra.discrete([f"w{i}" for i in range(n)])


def _flip_first(values):
    return [not values[0]] + list(values[1:])


class StructuredItem(Item):
    kind = "structured"
    direct = {
        "popper.slps_to_popper": 2,
        "popper.validate_popper": 2,
        "popper.popper_to_slps": 1,
    }

    def __init__(self, rng, n, levels):
        self.algebra = _algebra(n)
        self.n = n
        self.rows = gen.structured_rows(rng, n, levels, cover=levels == 3)
        # The broken table is an input, built from the source's table.
        self.broken = gen.break_chain_rule(gen.first_positive_table(self.rows, n), n)

    @cached_property
    def expected(self) -> dict:
        """The image's table by the first-positive-level rule; computed at
        the first check, not at set-up."""
        return gen.first_positive_table(self.rows, self.n)

    def run(self):
        system = lpsmod.LPS.from_rows(self.algebra, self.rows)
        image = popper.slps_to_popper(system)
        report = popper.validate_popper(image, "popper")
        back = popper.popper_to_slps(image)
        again = popper.slps_to_popper(back)
        broken = popper.validate_popper(popper.PopperSpace.from_rows(self.algebra, self.broken), "popper")
        return image, report, back, again, broken

    def plain(self, out):
        image, report, back, again, broken = out
        return {
            "image": table(image),
            "valid": report.is_valid,
            "back": rows(back),
            "again": table(again),
            "broken_valid": broken.is_valid,
        }

    def check(self, p) -> None:
        checks.check_table(p["image"], self.expected, "slps_to_popper")
        expect(p["valid"], "the image of a structured system fails validation")
        checks.check_rows(p["back"], self.rows, "popper_to_slps")
        checks.check_table(p["again"], self.expected, "slps_to_popper of popper_to_slps")
        expect(not p["broken_valid"], "a table with a broken chain rule passes validation")

    def corruptions(self, p):
        last = sorted(p["again"])[-1]
        return [
            {**p, "image": drop_row(p["image"])},
            {**p, "valid": False},
            {**p, "back": [mass_off(p["back"][0])] + p["back"][1:]},
            {**p, "again": {**p["again"], last: mass_off(p["again"][last], last[0])}},
            {**p, "broken_valid": True},
        ]


class TreelikeItem(Item):
    kind = "treelike"
    direct = {"popper.validate_popper": 2, "popper.treelike_to_lps": 1}

    def __init__(self, rng, n, k):
        self.algebra = _algebra(n)
        # The forest shapes are the same for every seed; the rows are not.
        self.table = gen.treelike_table(rng, n, random.Random(f"forest/{n}/{k}"))
        self.broken = gen.drop_leaf(self.table)

    def run(self):
        space = popper.PopperSpace.from_rows(self.algebra, self.table)
        report = popper.validate_popper(space, "treelike")
        broken = popper.validate_popper(popper.PopperSpace.from_rows(self.algebra, self.broken), "treelike")
        return report, popper.treelike_to_lps(space), broken

    def plain(self, out):
        report, system, broken = out
        return {"valid": report.is_valid, "levels": rows(system), "broken_valid": broken.is_valid}

    def check(self, p) -> None:
        expect(p["valid"], "a forest-shaped table fails treelike validation")
        checks.check_treelike(p["levels"], self.table, "treelike_to_lps")
        expect(not p["broken_valid"], "a forest without one of its leaves passes treelike validation")

    def corruptions(self, p):
        return [
            {**p, "valid": False},
            {**p, "levels": [mass_off(p["levels"][0])] + p["levels"][1:]},
            {**p, "broken_valid": True},
        ]


class IndepItem(Item):
    kind = "indep"
    direct = {"independence.indep_events": INDEP_QUERIES}

    def __init__(self, rng, n, levels):
        self.algebra = _algebra(n)
        self.n = n
        self.table = gen.first_positive_table(gen.independent_rows(rng, n, levels), n)
        self.queries = []
        for _ in range(INDEP_QUERIES):
            u = tuple(sorted(gen.random_support(rng, n)))
            v = tuple(sorted(gen.random_support(rng, n)))
            given = None if rng.random() < 0.3 else tuple(sorted(gen.random_support(rng, n)))
            self.queries.append((u, v, given))
        self.events = [
            (frozenset(u), frozenset(v), None if g is None else frozenset(g))
            for u, v, g in self.queries
        ]

    def run(self):
        space = popper.PopperSpace.from_rows(self.algebra, self.table)
        return [
            independence.indep_events(space, u, v, given, mode="popper")
            for u, v, given in self.events
        ]

    def check(self, p) -> None:
        for (u, v, given), verdict in zip(self.queries, p):
            expected = checks.popper_indep(self.table, self.n, u, v, given)
            expect(verdict is expected, f"indep_events({list(u)}, {list(v)}, given {given}) is {verdict}")
        expect(len(p) == len(self.queries), "missing independence verdicts")

    def corruptions(self, p):
        return [_flip_first(p)]


class FincofItem(Item):
    kind = "fincof"
    direct = {"fincof.sampled_axiom_check": 2}

    def __init__(self, rng, family):
        self.family = family
        self.triples = [gen.nested_fincof(rng, FINCOF_UNIVERSE) for _ in range(FINCOF_TRIPLES)]
        self.events = [
            tuple(fincof.FinCofEvent(mode, support) for mode, support in triple)
            for triple in self.triples
        ]
        self.swapped = [tuple(reversed(triple)) for triple in self.events[:FINCOF_SWAPPED]]
        # fincof_cond's closed form is checked for the counting family.
        self.conds = [
            (i, triple) for i, triple in enumerate(self.triples)
            if family == "mu1" and triple[2][0] == "finite"
        ]

    def run(self):
        report = fincof.sampled_axiom_check(self.family, self.events)
        swapped = fincof.sampled_axiom_check(self.family, self.swapped)
        values = [
            fincof.fincof_cond(self.family, self.events[i][0], self.events[i][2])
            for i, _ in self.conds
        ]
        return report, swapped, values

    def plain(self, out):
        report, swapped, values = out
        return {"findings": list(report.findings), "swapped": list(swapped.findings), "values": values}

    @cached_property
    def unnested(self) -> list:
        """Indices of the swapped triples that are not nested: all but those
        whose three sets are one set."""
        return [
            i for i, (v, x, u) in enumerate(self.triples[:FINCOF_SWAPPED])
            if not v == x == u
        ]

    def check(self, p) -> None:
        expect(not p["findings"], f"{self.family}: axiom findings {p['findings'][:2]}")
        flagged = [int(re.match(r"triple\[(\d+)\]", f).group(1)) for f in p["swapped"]]
        expect(flagged == self.unnested,
               f"{self.family}: swapped triples flagged {flagged[:5]}, expected {self.unnested[:5]}")
        expect(len(p["values"]) == len(self.conds), "missing fincof_cond values")
        for (_, (v, _x, u)), value in zip(self.conds, p["values"]):
            expect(value == checks.fincof_counting(v, u), f"fincof_cond({v}, {u}) = {value}")

    def corruptions(self, p):
        out = [{**p, "findings": ["triple[0]: CP1 fails"]}, {**p, "swapped": p["swapped"][1:]}]
        if p["values"]:
            out.append({**p, "values": [p["values"][0] + 1] + p["values"][1:]})
        return out


def build(seed: int, workdir=None):
    rng = random.Random(f"popper/{seed}")
    items = [StructuredItem(rng, n, levels) for n in range(4, 8) for levels in (2, 3)]
    items += [TreelikeItem(rng, n, k) for n in range(5, 10) for k in range(TREES_PER_SIZE)]
    items += [IndepItem(rng, n, 2 + n % 2) for n in range(4, 8)]
    items += [FincofItem(rng, family) for family in ("mu1", "mu2")]
    return items
