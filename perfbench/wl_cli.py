"""Workload ``cli``: the user's path through ``extprob.cli.main(argv)``.

``main`` is called in-process with stdout and stderr captured, so
argument handling, ``jsonio`` parsing (reads) and encoding (writes) do
the work and the deciders little; process start-up is already in
``setup_s``.  The documents are written from the seed at set-up, by the
benchmark's own encoder: heavy deciders get small spaces, light commands
larger documents.  One item is one command; a round is the 29 commands
below, run three times over, whatever the seed.

Three of them are malformed inputs that must end with exit 3 and a
message.  Each raises out of ``main`` today, so each is a failed
operation in every round until the input boundary is mended.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from functools import cache
from pathlib import Path

from extprob import cli

import checks
import gen
from checks import expect
from items import Item

# Atoms of the documents given to the light commands (validate, expect,
# believe).
BIG = 120
BIG_NPS = 60
# A round runs the command list this many times, so that a round is long
# next to the reference loops around it.
PASSES = 3

FIXTURES = (
    "fincof-alternating", "fincof-counting", "fincof-max", "fincof-uniform",
    "fragile-independence", "mcgee", "needapproximate", "no-superset-closure",
)


# ---------------------------------------------------------------- documents

def _rat(q) -> str:
    return str(Fraction(q))


def _space(n: int) -> dict:
    return {"worlds": [f"w{i}" for i in range(n)], "atoms": [[f"w{i}"] for i in range(n)]}


def _doc(type_name: str, **body) -> dict:
    return {"format_version": 1, "type": type_name, **body}


def lps_doc(rows) -> dict:
    return _doc("lps", space=_space(len(rows[0])), measures=[[_rat(x) for x in r] for r in rows])


def nps_doc(polys) -> dict:
    mass = [{"num": [[e, _rat(c)] for e, c in p], "den": [[0, "1"]]} for p in polys]
    return _doc("nonstd_measure", space=_space(len(polys)), mass=mass)


def popper_doc(table: dict, n: int) -> dict:
    events = sorted(table)
    return _doc(
        "popper_space", space=_space(n),
        conditioning_events=[list(ev) for ev in events],
        table=[[_rat(x) for x in table[ev]] for ev in events],
    )


# ---------------------------------------------------------------- reading output

def _terms(pairs):
    return tuple((e, Fraction(c)) for e, c in pairs)


def _field(doc):
    return (_terms(doc["num"]), _terms(doc["den"]))


def _rows(lps: dict):
    return [tuple(Fraction(x) for x in row) for row in lps["measures"]]


def _table(doc: dict) -> dict:
    return {
        tuple(ev): tuple(Fraction(x) for x in row)
        for ev, row in zip(doc["conditioning_events"], doc["table"])
    }


def parse_output(text: str) -> dict:
    """Report lines up to the first JSON document, and that document."""
    lines = text.splitlines()
    cut = next((i for i, line in enumerate(lines) if line.startswith("{")), len(lines))
    doc = json.loads("\n".join(lines[cut:])) if cut < len(lines) else None
    return {"head": lines[:cut], "doc": doc}


def _change_first(values: list) -> list:
    return [_rat(Fraction(values[0]) + Fraction(1, 7))] + values[1:]


def damage_head(data: dict) -> dict:
    return {**data, "head": data["head"][:-1] + [data["head"][-1] + " (damaged)"]}


def damage_measures(data: dict) -> dict:
    doc = data["doc"]
    key = "lps" if doc["type"] == "decomposition" else None
    lps = doc[key] if key else doc
    measures = [_change_first(lps["measures"][0])] + lps["measures"][1:]
    lps = {**lps, "measures": measures}
    return {**data, "doc": {**doc, key: lps} if key else lps}


def drop_table_row(data: dict) -> dict:
    doc = data["doc"]
    return {**data, "doc": {
        **doc,
        "conditioning_events": doc["conditioning_events"][:-1],
        "table": doc["table"][:-1],
    }}


def damage_mass(data: dict) -> dict:
    doc = data["doc"]
    first = doc["mass"][0]
    num = first["num"] or [[0, "0"]]
    num = [[num[0][0], _rat(Fraction(num[0][1]) + Fraction(1, 7))]] + num[1:]
    return {**data, "doc": {**doc, "mass": [{**first, "num": num}] + doc["mass"][1:]}}


def damage_matrix(data: dict) -> dict:
    doc = data["doc"]
    forward = [_change_first(doc["forward_matrix"][0])] + doc["forward_matrix"][1:]
    return {**data, "doc": {**doc, "forward_matrix": forward}}


def add_failure(data: dict) -> dict:
    return {**data, "head": data["head"] + ["FAILED: damaged"]}


# ---------------------------------------------------------------- items

class CliItem(Item):
    """One command.  ``rc`` is the expected exit code, or a function that
    computes it at the first check, so that set-up only builds inputs."""

    kind = "cli"
    direct = {"cli.main": 1}

    def __init__(self, name, argv, rc, verify=None, damage=damage_head, known_fault=None):
        self.name = name
        self.argv = argv
        self.rc = rc
        self.verify = verify
        self.damage = damage
        self.known_fault = known_fault
        self.reference = None

    def run(self):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                rc = cli.main(self.argv)
            except SystemExit as exc:
                rc = exc.code
        return rc, out.getvalue(), err.getvalue()

    def plain(self, out):
        rc, stdout, stderr = out
        return {"rc": rc, "out": stdout, "err": stderr, "data": parse_output(stdout)}

    def expected_rc(self) -> int:
        return self.rc() if callable(self.rc) else self.rc

    def check(self, p) -> None:
        rc = self.expected_rc()
        expect(p["rc"] == rc, f"{self.name}: exit {p['rc']}, expected {rc}")
        if rc == cli.BAD_INPUT:
            expect(p["err"].strip(), f"{self.name}: exit 3 without a message")
        if self.reference is None:
            # A second run of the same argv, outside the timed window.
            self.reference = self.run()[1]
        expect(p["out"] == self.reference, f"{self.name}: stdout differs between two runs")
        if self.verify is not None:
            self.verify(p["data"])

    def corruptions(self, p):
        out = [{**p, "rc": p["rc"] + 1}]
        if self.verify is not None:
            out.append({**p, "data": self.damage(p["data"])})
        return out


def _head(*lines):
    def verify(data):
        expect(data["head"] == list(lines), f"report {data['head']}, expected {list(lines)}")
    return verify


def build(seed: int, workdir: Path):
    rng = random.Random(f"cli/{seed}")
    workdir.mkdir(parents=True, exist_ok=True)

    def write(name, doc) -> str:
        path = workdir / name
        path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
        return str(path)

    geo3 = gen.geometric_schedule(3)
    big = gen.independent_rows(rng, BIG, 4)
    rv = [Fraction(rng.randint(-5, 5)) for _ in range(BIG)]
    nps_big = gen.embed(geo3, gen.independent_rows(rng, BIG_NPS, 3))
    conv = gen.independent_rows(rng, 8, 3)
    slps = gen.structured_rows(rng, 6, 3, cover=True)
    small = gen.independent_rows(rng, 5, 3)
    pop_rows = gen.structured_rows(rng, 5, 2, cover=False)
    pop_table = gen.first_positive_table(pop_rows, 5)
    tree = gen.treelike_table(rng, 7, random.Random("forest/cli"))
    aeq_a = gen.independent_rows(rng, 6, 3)
    aeq_b = gen.triangular_transform(rng, aeq_a)
    sim = gen.independent_rows(rng, 5, 3)
    dep_base = gen.independent_rows(rng, 10, 4)
    mix = gen.combine((Fraction(1, 3), Fraction(2, 3)), dep_base[:2])
    dep = dep_base[:2] + (mix,) + dep_base[2:]
    u = tuple(sorted(gen.random_support(rng, 5)))
    v = tuple(sorted(gen.random_support(rng, 5)))
    belief_event = tuple(sorted(gen.random_support(rng, BIG)))

    f = {
        "lps_big": write("lps_big.json", lps_doc(big)),
        "rv_big": write("rv_big.json", _doc("random_variable", space=_space(BIG), values=[_rat(x) for x in rv])),
        "nps_big": write("nps_big.json", nps_doc(nps_big)),
        "lps_conv": write("lps_conv.json", lps_doc(conv)),
        "slps": write("slps.json", lps_doc(slps)),
        "nps_small": write("nps_small.json", nps_doc(gen.embed(geo3, small))),
        "popper": write("popper.json", popper_doc(pop_table, 5)),
        "popper_bad": write("popper_bad.json", popper_doc(gen.break_chain_rule(pop_table, 5), 5)),
        "tree": write("tree.json", popper_doc(tree, 7)),
        "lps_a": write("lps_a.json", lps_doc(aeq_a)),
        "lps_b": write("lps_b.json", lps_doc(aeq_b)),
        "nps_geo": write("nps_geo.json", nps_doc(gen.embed(geo3, sim))),
        "nps_steep": write("nps_steep.json", nps_doc(gen.embed(gen.steep_schedule(3), sim))),
        "lps_dep": write("lps_dep.json", lps_doc(dep)),
        "two": write("two.json", lps_doc(((Fraction(1), Fraction(0)),))),
        "bad_cond": write("bad_cond.json", _doc(
            "popper_space", space=_space(2), conditioning_events=5, table=[["1", "0"]])),
        "bad_worlds": write("bad_worlds.json", _doc(
            "std_measure", space={"worlds": 3, "atoms": [["w0"]]}, mass=["1"])),
    }

    def converted(source, target, verify, damage):
        return CliItem(
            f"convert {source} {target}",
            ["convert", "--from", source, "--to", target, "--in", f[{
                ("lps", "nps"): "lps_conv", ("lps", "popper"): "slps",
                ("nps", "lps"): "nps_small", ("nps", "popper"): "nps_small",
                ("popper", "lps"): "popper", ("treelike", "lps"): "tree",
            }[(source, target)]]],
            0, verify, damage,
        )

    def lps_to_nps(data):
        _head("converted lps to nps")(data)
        masses = [_field(m) for m in data["doc"]["mass"]]
        checks.check_field_masses(masses, geo3, conv, "convert lps nps")

    def nps_to_lps(data):
        _head("converted nps to lps")(data)
        doc = data["doc"]
        coeffs = [_field(c) for c in doc["coefficients"]]
        checks.check_decomposition(coeffs, _rows(doc["lps"]), geo3, small, "convert nps lps")

    def table_of(rows, n, route):
        def verify(data):
            _head(f"converted {route}")(data)
            checks.check_table(_table(data["doc"]), gen.first_positive_table(rows, n), f"convert {route}")
        return verify

    def rows_of(expected, route):
        def verify(data):
            _head(f"converted {route}")(data)
            checks.check_rows(_rows(data["doc"]), expected, f"convert {route}")
        return verify

    def treelike(data):
        _head("converted treelike to lps")(data)
        checks.check_treelike(_rows(data["doc"]), tree, "convert treelike lps")

    def aeq(data):
        _head("aeq: equivalent")(data)
        doc = data["doc"]
        cert = {
            "verdict": doc["verdict"], "lhs": aeq_a, "rhs": aeq_b,
            "forward": [tuple(Fraction(x) for x in r) for r in doc["forward_matrix"]],
            "backward": [tuple(Fraction(x) for x in r) for r in doc["backward_matrix"]],
        }
        checks.check_equivalent(cert, aeq_a, aeq_b, "compare aeq")

    def reduced(data):
        _head("length: 5 -> 4", "certified: equivalent")(data)
        checks.check_rows(_rows(data["doc"]), dep_base, "reduce")

    def fixture_passed(data):
        expect(data["head"] and not any(line.startswith("FAILED") for line in data["head"]),
               "fixture reports a failed assertion")

    # Expected values are computed at the first check, outside set-up.
    @cache
    def expectation():
        return [sum((m * x for m, x in zip(row, rv)), Fraction(0)) for row in big]

    @cache
    def indep():
        return checks.popper_indep(gen.first_positive_table(small, 5), 5, u, v, None)

    @cache
    def weak():
        return sum((big[0][a] for a in belief_event), Fraction(0)) == 1

    @cache
    def simeq_small():
        return gen.first_positive_table(small, 5) == gen.first_positive_table(sim, 5)

    def verdict(line, value):
        """Exit code and report check for a yes/no command."""
        return (lambda: 0 if value() else 1), (lambda data: _head(f"{line}: {str(value()).lower()}")(data))

    items = [
        converted("lps", "nps", lps_to_nps, damage_mass),
        converted("lps", "popper", table_of(slps, 6, "lps to popper"), drop_table_row),
        converted("nps", "lps", nps_to_lps, damage_measures),
        converted("nps", "popper", table_of(small, 5, "nps to popper"), drop_table_row),
        converted("popper", "lps", rows_of(pop_rows, "popper to lps"), damage_measures),
        converted("treelike", "lps", treelike, damage_measures),
        CliItem("compare aeq", ["compare", "--relation", "aeq", "--a", f["lps_a"], "--b", f["lps_b"]],
                0, aeq, damage_matrix),
        # Both documents embed the same source system, so the
        # first-positive-level rule gives them the same table.
        CliItem("compare simeq", ["compare", "--relation", "simeq", "--a", f["nps_geo"], "--b", f["nps_steep"]],
                0, _head("simeq: true")),
        # Two independent draws: the verdict is whether their tables agree.
        CliItem("compare simeq independent", ["compare", "--relation", "simeq", "--a", f["nps_small"],
                                              "--b", f["nps_geo"]], *verdict("simeq", simeq_small)),
        CliItem("validate lps", ["validate", "--in", f["lps_big"]], 0, _head("lps: valid")),
        CliItem("validate nps", ["validate", "--in", f["nps_big"]], 0, _head("nonstd_measure: valid")),
        CliItem("validate cps", ["validate", "--level", "cps", "--in", f["popper"]],
                0, _head("popper_space: valid at level cps")),
        CliItem("validate popper", ["validate", "--level", "popper", "--in", f["popper_bad"]],
                1, lambda data: expect(data["head"][:1] == ["popper_space: invalid"],
                                       "a broken chain rule is reported valid"),
                lambda data: {**data, "head": ["popper_space: valid at level popper"]}),
        CliItem("validate treelike", ["validate", "--level", "treelike", "--in", f["tree"]],
                0, _head("popper_space: valid at level treelike")),
        CliItem("expect", ["expect", "--measure", f["lps_big"], "--rv", f["rv_big"]],
                0, lambda data: _head("expectation: (" + ", ".join(str(x) for x in expectation()) + ")")(data)),
        CliItem("reduce", ["reduce", "--in", f["lps_dep"]], 0, reduced, damage_measures),
        CliItem("indep", ["indep", "--measure", f["nps_small"], "--mode", "approx",
                          "--u", ",".join(map(str, u)), "--v", ",".join(map(str, v))],
                *verdict("independent (approx)", indep)),
        CliItem("believe", ["believe", "--model", f["lps_big"], "--kind", "weak",
                            "--event", ",".join(map(str, belief_event))],
                *verdict("weak", weak)),
    ]
    items += [
        CliItem(f"fixtures run {name}", ["fixtures", "run", name], 0, fixture_passed, add_failure)
        for name in FIXTURES
    ]
    items += [
        CliItem("validate popper_space with conditioning_events 5", ["validate", "--in", f["bad_cond"]],
                cli.BAD_INPUT, known_fault="TypeError from jsonio.parse_document escapes main"),
        CliItem("validate a space with worlds 3", ["validate", "--in", f["bad_worlds"]],
                cli.BAD_INPUT, known_fault="TypeError from jsonio.parse_space escapes main"),
        CliItem("believe --event 7 on 2 atoms", ["believe", "--model", f["two"], "--kind", "weak", "--event", "7"],
                cli.BAD_INPUT, known_fault="ValueError from SpaceAlgebra.event escapes main"),
    ]
    return items * PASSES
