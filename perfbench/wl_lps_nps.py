"""Workload ``lps_nps``: the fine equivalence and the layered decomposition.

Field arithmetic, ``_linalg`` and ``lps.equivalence`` do most of the work.
Each item also asks two questions whose answer may be no: whether a
rising schedule embeds the system, and whether the source's embedding is
simeq to the second system's.
Inputs are seeded systems on 3 to 6 atoms with 1 to min(n, 4) levels; a
round visits every (atoms, levels) shape four times, twice with a second
system that is a lower-triangular positive-diagonal transform of the first
and twice with an independent draw, so every round has the same make-up
whatever the seed.
"""

from __future__ import annotations

import random
from functools import cached_property

from extprob import lps as lpsmod
from extprob import npsbridge, spaces

import checks
import gen
from checks import expect
from items import Item, bump, certificate, field_masses, field_value, flip, mass_off, rows

SHAPES = [(n, levels) for n in range(3, 7) for levels in range(1, min(n, 4) + 1)]


class LpsNpsItem(Item):
    kind = "lps_nps"
    direct = {
        "npsbridge.lps_to_nps": 2,
        "npsbridge.nps_to_lps": 1,
        "lps.equivalence": 1,
        "npsbridge.verify_aeqchar": 2,
        "npsbridge.nps_equiv": 3,
    }

    def __init__(self, algebra, rows_a, rows_b, triangular: bool):
        self.algebra = algebra
        self.rows_a = rows_a
        self.rows_b = rows_b
        self.triangular = triangular

    def run(self):
        system = lpsmod.LPS.from_rows(self.algebra, self.rows_a)
        nu = npsbridge.lps_to_nps(system)
        dec = npsbridge.nps_to_lps(nu)
        recomposed = dec.recompose()
        dec_cert = lpsmod.equivalence(dec.lps, system)
        steep = npsbridge.steep_schedule(len(self.rows_a))
        aeqchar = npsbridge.verify_aeqchar(system, steep)
        rising = npsbridge.geometric_schedule(len(self.rows_a))[::-1]
        aeqchar_rising = npsbridge.verify_aeqchar(system, rising)
        other = npsbridge.lps_to_nps(lpsmod.LPS.from_rows(self.algebra, self.rows_b))
        aeq = npsbridge.nps_equiv(nu, other, "aeq")
        steep_nu = npsbridge.Decomposition(system, steep).recompose()
        simeq = npsbridge.nps_equiv(nu, steep_nu, "simeq")
        simeq_other = npsbridge.nps_equiv(nu, other, "simeq")
        return nu, dec, recomposed, dec_cert, aeqchar, aeqchar_rising, aeq, simeq, simeq_other

    def plain(self, out):
        nu, dec, recomposed, dec_cert, aeqchar, aeqchar_rising, aeq, simeq, simeq_other = out
        return {
            "nps": field_masses(nu),
            "coeffs": [field_value(c) for c in dec.coefficients],
            "layers": rows(dec.lps),
            "recomposed": field_masses(recomposed),
            "dec_cert": certificate(dec_cert),
            "aeqchar": aeqchar,
            "aeqchar_rising": aeqchar_rising,
            "aeq": certificate(aeq),
            "simeq": simeq,
            "simeq_other": simeq_other,
        }

    @cached_property
    def same_tables(self) -> bool:
        """The first-positive-level rule gives both source systems the same
        conditional table; computed at the first check, not at set-up."""
        n = len(self.rows_a[0])
        return gen.first_positive_table(self.rows_a, n) == gen.first_positive_table(self.rows_b, n)

    def check(self, p) -> None:
        geo = gen.geometric_schedule(len(self.rows_a))
        checks.check_field_masses(p["nps"], geo, self.rows_a, "lps_to_nps")
        checks.check_decomposition(p["coeffs"], p["layers"], geo, self.rows_a, "nps_to_lps")
        checks.check_field_masses(p["recomposed"], geo, self.rows_a, "recompose")
        checks.check_equivalent(p["dec_cert"], p["layers"], self.rows_a, "equivalence(decomposition, source)")
        expect(p["aeqchar"] is True, "verify_aeqchar rejected the steep schedule")
        # Reversed, the geometric schedule rises, so its ratios are not
        # infinitesimal; with one level there is nothing to reverse.
        expect(
            p["aeqchar_rising"] is (len(self.rows_a) == 1),
            f"verify_aeqchar gave {p['aeqchar_rising']} for the reversed geometric schedule",
        )
        if self.triangular:
            checks.check_equivalent(p["aeq"], self.rows_a, self.rows_b, "aeq of a triangular transform")
        else:
            checks.check_aeq(p["aeq"], self.rows_a, self.rows_b, "aeq of an independent draw")
        # Both embeddings weight the same source system with schedules that
        # fall infinitely fast, so the first-positive-level rule gives them
        # the same conditional table.
        expect(p["simeq"] is True, "simeq of the geometric and steep embeddings is false")
        expect(
            p["simeq_other"] is self.same_tables,
            f"simeq against the second system is {p['simeq_other']}, its tables "
            f"{'agree' if self.same_tables else 'differ'}",
        )

    def corruptions(self, p):
        def with_(key, value):
            return {**p, key: value}

        return [
            with_("nps", [bump(p["nps"][0])] + p["nps"][1:]),
            with_("coeffs", [bump(p["coeffs"][0])] + p["coeffs"][1:]),
            with_("layers", [mass_off(p["layers"][0])] + p["layers"][1:]),
            with_("recomposed", p["recomposed"][:-1] + [bump(p["recomposed"][-1])]),
            with_("dec_cert", {**p["dec_cert"], "verdict": flip(p["dec_cert"]["verdict"])}),
            with_("aeqchar", False),
            with_("aeqchar_rising", not p["aeqchar_rising"]),
            with_("aeq", {**p["aeq"], "verdict": flip(p["aeq"]["verdict"])}),
            with_("simeq", False),
            with_("simeq_other", not p["simeq_other"]),
        ]


def build(seed: int, workdir=None):
    rng = random.Random(f"lps_nps/{seed}")
    items = []
    for triangular in (True, False, True, False):
        for n, levels in SHAPES:
            algebra = spaces.SpaceAlgebra.discrete([f"w{i}" for i in range(n)])
            rows_a = gen.independent_rows(rng, n, levels)
            rows_b = (
                gen.triangular_transform(rng, rows_a)
                if triangular
                else gen.independent_rows(rng, n, levels)
            )
            items.append(LpsNpsItem(algebra, rows_a, rows_b, triangular))
    return items
