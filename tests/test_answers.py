"""Same answers: one sha256 per family of outputs over a fixed seeded corpus.

Each constant is the digest of the outputs as the library gives them
today.  A change that means to alter an output updates the constant and
shows the old and new output for one input; any other change to a digest
is a regression.  The families:

- ``certificates``: ``jsonio.dumps`` of ``equivalence`` on ``aeq_pair``
  draws, forward and backward matrices and witnesses;
- ``aeqchar``: ``verify_aeqchar`` verdicts (or exception names) on random
  systems under ``aeqchar_schedules``;
- ``decompositions``: ``jsonio.dumps`` of ``nps_to_lps`` on ``simeq_pair``
  measures and ``tilted_apart`` copies;
- ``cli``: exit code and stdout of ``cli.main`` for ``compare --relation
  aeq`` and ``reduce`` on ``aeq_pair`` documents, and ``fixtures run`` on
  every fixture;
- ``findings``: ``validate_space`` findings of single measures and of
  systems on ``mass_row`` rows (valid and invalid, `int` and `Fraction`;
  a `float` row is refused when its measure is built, and its
  ``TypeError`` is the output), and ``validate_popper`` findings at all
  three levels of forward-map images, treelike spaces and damaged copies
  of both;
- ``expectations``: expectations, event masses and ``believe`` verdicts
  (or exception names and messages, the refusal of a `float` entry
  among them) of measures, systems, conditional spaces and infinitesimal
  measures;
- ``popper_images``: ``jsonio.dumps`` of ``slps_to_popper`` on structured
  systems, and the exception of a system that is not;
- ``cli_light``: exit code and stdout of ``cli.main`` for ``validate``
  (measures, systems, and tables at each level), ``expect``, ``believe``
  and ``convert --from lps --to popper``;
- ``help``: ``--help`` of ``extprob`` and of each command, 80 columns wide;
- ``indep``: verdicts (or exception names and messages) of
  ``approx_indep_set``, ``approx_indep_mutual``, ``weak_indep`` and
  ``indep_events`` in every mode on ``indep_draw`` grids, and the set
  and mutual checks on a uniform 12 x 5 grid;
- ``parsed``: ``jsonio.dumps`` of ``parse_document`` (or the exception)
  over documents of every type whose entries repeat a few strings, with
  `int` entries and the odd malformed one among them;
- ``nps_images``: ``jsonio.dumps`` of ``nps_to_popper`` on ``simeq_pair``
  measures and ``tilted_apart`` copies;
- ``simeq``: ``nps_equiv(..., "simeq")`` verdicts (or exception names and
  messages) on ``simeq_pair`` draws, ``tilted`` and ``tilted_apart``
  copies, and pairs on different algebras.
"""

import contextlib
import hashlib
import io
import random
from fractions import Fraction

import pytest
from genspaces import (
    aeq_pair,
    aeqchar_schedules,
    algebra_of,
    compose,
    covering_slps,
    indep_draw,
    mass_row,
    parsed_document,
    random_lps,
    random_slps,
    random_treelike_space,
    simeq_pair,
    tilted,
    tilted_apart,
)

from extprob import cli, jsonio
from extprob.belief import LPS_KINDS, NPS_KINDS, POPPER_KINDS, believes
from extprob.fixtures import FIXTURES
from extprob.independence import approx_indep_mutual, approx_indep_set, indep_events, weak_indep
from extprob.lps import LPS, equivalence
from extprob.npsbridge import (
    geometric_schedule,
    lps_to_nps,
    nps_equiv,
    nps_to_lps,
    nps_to_popper,
    verify_aeqchar,
)
from extprob.popper import PopperSpace, slps_to_popper, validate_popper
from extprob.spaces import NonstdMeasure, RandomVariable, SpaceAlgebra, StdMeasure, validate_space

DIGESTS = {
    "certificates": "d2e95ed0b3e61d61e56e2996c8d0c2bd87d79f96f857b210321b8a21652e2466",
    "aeqchar": "a82fd4a73371ffa40379f5fe6c4fe1be0615dcff19addf8a68a337ad3c20d1db",
    "decompositions": "7ec0183240cd451c04c78df6024f5d86ff3037e4f5ae7c29f7bed826cc5daf00",
    "cli": "605352b57fdcc812a5ee003ce7c85d0ec1be8aac87f453921a6cb38f1a8e50a9",
    "findings": "fd085e395255ba5daa097d20f6bfb45be9706a36783e67f709c4f9e20e6b5391",
    "expectations": "ae07d618a31a5fb398f4ecf3d17629749abfffe160d81fca54807b0fbeae497f",
    "popper_images": "ef29a14ff1900f9b03f145c60644f623d0a15a9de71ffe579869d983b50bf1e9",
    "cli_light": "c77d1ee4b7f4a6f7f4d48e79d88cfb5454af47627eee32a8dd6e05a764b1c0b7",
    "help": "ce7be4bfe1dcf2b5fa48d0b8de195bc86f13be2307e80190ddf70fd72557279c",
    "indep": "490c08b4030e47828cbdbd85291bd70fe00f55ce6f9f9cfbb48456525d313fb3",
    "parsed": "9d118dca93f77be4e26ff4b6fefe16b1754ccece68f2c9164e1e85f524e23996",
    "nps_images": "6a02aa635ac7105a709c133ee58679e77eced5ec638f5d1cd2d5cd9e916322bf",
    "simeq": "55e1c0027326a5a8a47cf48fcb376db059c1622ffd7e915ef899de68788e3129",
}


def sha256(chunks):
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk.encode())
        h.update(b"\0")
    return h.hexdigest()


def certificates():
    rng = random.Random(1601)
    verdicts = {"equivalent": 0, "inequivalent": 0}
    for _ in range(600):
        cert = equivalence(*aeq_pair(rng))
        verdicts[cert.verdict] += 1
        yield jsonio.dumps(cert)
    assert min(verdicts.values()) >= 200, verdicts


def aeqchar():
    rng = random.Random(1602)
    verdicts = {True: 0, False: 0}
    for _ in range(300):
        system = random_lps(rng, algebra_of(rng.randint(1, 5)), max_len=5)
        for schedule in aeqchar_schedules(rng, len(system)):
            verdict = verify_aeqchar(system, schedule)
            verdicts[verdict] += 1
            yield str(verdict)
    assert min(verdicts.values()) >= 800, verdicts


def decompositions():
    rng = random.Random(1603)
    for _ in range(300):
        a, b = simeq_pair(rng)
        for nu in (a, b, tilted_apart(rng, a)):
            yield jsonio.dumps(nps_to_lps(nu))


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return f"{code}\n{out.getvalue()}"


def cli_outputs(tmp_path):
    rng = random.Random(1604)
    codes = {0: 0, 1: 0}

    def document(name, system):
        path = tmp_path / name
        path.write_text(jsonio.dumps(lps_to_nps(system) if rng.random() < 0.3 else system))
        return str(path)

    for k in range(80):
        a, b = aeq_pair(rng, max_atoms=4, max_len=4)
        pa, pb = document(f"a{k}.json", a), document(f"b{k}.json", b)
        out = run_cli(["compare", "--relation", "aeq", "--a", pa, "--b", pb])
        codes[int(out[0])] += 1
        yield out
        (tmp_path / f"r{k}.json").write_text(jsonio.dumps(a))
        yield run_cli(["reduce", "--in", str(tmp_path / f"r{k}.json")])
    for name in sorted(FIXTURES):
        yield run_cli(["fixtures", "run", name])
    assert min(codes.values()) >= 20, codes


def outcome(call, *args):
    """``str`` of the result, or the exception's name and message."""
    try:
        return str(call(*args))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def random_event(rng, n):
    return frozenset(rng.sample(range(n), rng.randint(1, n)))


def damaged(rng, space):
    """``space`` with one defect: mass moved between two atoms of a row, a
    row halved, an event dropped from the family and the table, or a row
    dropped from the table only."""
    table = dict(space.table)
    events = list(space.conditioning_events)
    u = rng.choice(events)
    kind = rng.randrange(4)
    if kind == 0:
        mass = list(table[u].mass)
        shift = Fraction(1, 7)
        mass[rng.randrange(len(mass))] -= shift
        mass[rng.randrange(len(mass))] += shift
        table[u] = StdMeasure(space.algebra, tuple(mass))
    elif kind == 1:
        table[u] = StdMeasure(space.algebra, tuple(m / 2 for m in table[u].mass))
    else:
        del table[u]
        if kind == 2:
            events.remove(u)
    return PopperSpace(space.algebra, tuple(events), table)


def random_popper(rng, algebra):
    """A forward-map image or a treelike space, damaged half of the time."""
    if rng.random() < 0.5:
        space = slps_to_popper(rng.choice((random_slps, covering_slps))(rng, algebra))
    else:
        space = random_treelike_space(rng, algebra)
    return damaged(rng, space) if rng.random() < 0.5 else space


def findings():
    rng = random.Random(1705)
    rows = {True: 0, False: 0}
    tables = {True: 0, False: 0}
    for _ in range(400):
        n = rng.randint(1, 5)
        algebra = algebra_of(n)
        valid, row = mass_row(rng, n)
        rows[valid] += 1
        yield outcome(lambda: repr(validate_space(algebra, [StdMeasure(algebra, row)]).findings))
        levels = [mass_row(rng, n)[1] for _ in range(rng.randint(1, 3))]
        yield outcome(lambda: repr(validate_space(
            algebra, [StdMeasure(algebra, level) for level in levels]
        ).findings))
    for _ in range(150):
        space = random_popper(rng, algebra_of(rng.randint(1, 4)))
        for level in ("cps", "popper", "treelike"):
            report = validate_popper(space, level)
            tables[report.is_valid] += 1
            yield repr(report.findings)
    assert min(rows.values()) >= 150 and min(tables.values()) >= 100, (rows, tables)


def expectations():
    rng = random.Random(1706)
    for _ in range(300):
        n = rng.randint(1, 5)
        algebra = algebra_of(n)
        row = mass_row(rng, n)[1]
        values = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
        draw = rng.random()
        on = algebra
        if draw < 0.2:
            values = [int(v * 4) for v in values]
        elif draw < 0.3:
            values = [float(v) for v in values]
        elif draw < 0.35:
            values.append(Fraction(1))
            on = algebra_of(n + 1)
        ev = random_event(rng, n)
        yield outcome(lambda: StdMeasure(algebra, row).expectation(RandomVariable(on, tuple(values))))
        yield outcome(lambda: StdMeasure(algebra, row).event_mass(ev))
        system = random_lps(rng, algebra, max_len=3)
        y = RandomVariable.from_values(algebra, [rng.randint(-3, 3) for _ in range(n)])
        yield outcome(system.expectation_vector, y)
        yield outcome(system.compare_expectations, y, RandomVariable.indicator(algebra, ev))
        nu = compose(system, geometric_schedule(len(system)))
        yield outcome(nu.expectation, y)
        space = slps_to_popper(random_slps(rng, algebra))
        for model, kinds in ((system, LPS_KINDS), (space, POPPER_KINDS), (nu, NPS_KINDS)):
            for kind in kinds:
                yield outcome(believes, model, ev, kind)


def popper_images():
    rng = random.Random(1707)
    outcomes = {True: 0, False: 0}
    for _ in range(200):
        algebra = algebra_of(rng.randint(1, 5))
        system = rng.choice((random_slps, covering_slps, random_lps, random_lps))(rng, algebra)
        image = outcome(lambda: jsonio.dumps(slps_to_popper(system)))
        outcomes[image.startswith("{")] += 1
        yield image
    assert min(outcomes.values()) >= 40, outcomes


def cli_light(tmp_path):
    rng = random.Random(1708)
    codes = {0: 0, 1: 0, 3: 0}

    def write(name, obj):
        path = tmp_path / name
        path.write_text(jsonio.dumps(obj))
        return str(path)

    def run(argv):
        out = run_cli(argv)
        codes[int(out[0])] += 1
        return out

    def document(name, algebra, type_name, **body):
        """The document ``jsonio.dumps`` writes for a measure or system of
        these rows, written without building one: a `float` row is kept,
        and the reader refuses it."""
        doc = {"format_version": 1, "type": type_name, "space": jsonio.encode_space(algebra)}
        return write(name, {**doc, **body})

    for k in range(40):
        n = rng.randint(1, 5)
        algebra = algebra_of(n)
        row = mass_row(rng, n)[1]
        measure = document(f"m{k}.json", algebra, "std_measure", mass=[str(m) for m in row])
        levels = [mass_row(rng, n)[1] for _ in range(rng.randint(1, 2))]
        system = document(f"s{k}.json", algebra, "lps", measures=[
            [str(m) for m in level] for level in levels
        ])
        table = random_popper(rng, algebra).table
        # A document lists a row for each event, so a row dropped from the
        # table drops its event too.
        space = write(f"p{k}.json", PopperSpace(algebra, tuple(table), table))
        rv = write(f"x{k}.json", RandomVariable.from_values(
            algebra, [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
        ))
        good = write(f"g{k}.json", random_lps(rng, algebra, max_len=3))
        slps = write(f"t{k}.json", rng.choice((random_slps, random_lps))(rng, algebra))
        event = ",".join(str(a) for a in sorted(random_event(rng, n)))
        yield run(["validate", "--in", measure])
        yield run(["validate", "--in", system])
        for level in ("cps", "popper", "treelike"):
            yield run(["validate", "--in", space, "--level", level])
        for model in (measure, system, good):
            yield run(["expect", "--measure", model, "--rv", rv])
        for kind in LPS_KINDS:
            yield run(["believe", "--model", good, "--event", event, "--kind", kind])
        for kind in POPPER_KINDS:
            yield run(["believe", "--model", space, "--event", event, "--kind", kind])
        yield run(["convert", "--from", "lps", "--to", "popper", "--in", slps])
    assert min(codes.values()) >= 40, codes


COMMANDS = (
    [], ["validate"], ["convert"], ["compare"], ["expect"], ["indep"],
    ["verify-witness"], ["believe"], ["reduce"], ["fixtures"],
    ["fixtures", "list"], ["fixtures", "run"],
)


def help_texts():
    for argv in COMMANDS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as stop:
            cli.main(argv + ["--help"])
        yield f"{stop.value.code}\n{out.getvalue()}"


def independence():
    rng = random.Random(1811)
    verdicts = {True: 0, False: 0}
    for _ in range(150):
        nu, x, ys = indep_draw(rng)
        n = nu.algebra.n_atoms
        verdict = approx_indep_set(nu, x, ys)
        verdicts[verdict] += 1
        yield str(verdict)
        yield outcome(approx_indep_mutual, nu, [x] + ys)
        yield outcome(weak_indep, nu, x, ys[0])
        yield outcome(weak_indep, nu, ys[0], x, True)
        u, v, given = (frozenset(rng.sample(range(n), rng.randint(0, n))) for _ in range(3))
        for mode in ("exact", "approx"):
            yield outcome(indep_events, nu, u, v, given, mode)
            yield outcome(indep_events, nu, u, v, None, mode)
        if n <= 6:
            space = nps_to_popper(nu)
            yield outcome(indep_events, space, u, v, given, "popper")
            yield outcome(indep_events, space, u, v, None, "exact")
        yield outcome(indep_events, nu, u, v, given, "popper")
        yield outcome(indep_events, nu, u, v, given, "fuzzy")
        other = RandomVariable.from_values(algebra_of(n), [0] * n)
        yield outcome(approx_indep_set, nu, x, [other])
        yield outcome(weak_indep, nu, other, x)
    grid = SpaceAlgebra.discrete([(i, j) for i in range(12) for j in range(5)])
    nu = NonstdMeasure.from_values(grid, [Fraction(1, 60)] * 60)
    x, y = (RandomVariable.from_values(grid, [w[c] for w in grid.worlds]) for c in (0, 1))
    yield outcome(approx_indep_set, nu, x, [y])
    yield outcome(approx_indep_mutual, nu, [y, x])
    assert min(verdicts.values()) >= 50, verdicts


def parsed():
    rng = random.Random(1812)
    outcomes = {True: 0, False: 0}
    for _ in range(600):
        doc = parsed_document(rng)
        text = outcome(lambda: jsonio.dumps(jsonio.parse_document(doc)[1]))
        outcomes[text.startswith("{")] += 1
        yield text
    assert min(outcomes.values()) >= 120, outcomes


def nps_images():
    rng = random.Random(1901)
    for _ in range(150):
        a, b = simeq_pair(rng, max_atoms=5)
        for nu in (a, tilted_apart(rng, b)):
            yield jsonio.dumps(nps_to_popper(nu))


def simeq():
    rng = random.Random(1902)
    verdicts = {True: 0, False: 0}
    for _ in range(600):
        a, b = simeq_pair(rng)
        for other in (b, tilted(rng, b), tilted_apart(rng, a)):
            verdict = nps_equiv(a, other, "simeq")
            verdicts[verdict] += 1
            yield str(verdict)
        if rng.random() < 0.1:
            yield outcome(nps_equiv, a, lps_to_nps(random_lps(rng, algebra_of(7))), "simeq")
    assert min(verdicts.values()) >= 200, verdicts


def test_certificates():
    assert sha256(certificates()) == DIGESTS["certificates"]


def test_aeqchar_verdicts():
    assert sha256(aeqchar()) == DIGESTS["aeqchar"]


def test_decompositions():
    assert sha256(decompositions()) == DIGESTS["decompositions"]


def test_cli_outputs(tmp_path):
    assert sha256(cli_outputs(tmp_path)) == DIGESTS["cli"]


def test_findings():
    assert sha256(findings()) == DIGESTS["findings"]


def test_expectations_and_beliefs():
    assert sha256(expectations()) == DIGESTS["expectations"]


def test_popper_images():
    assert sha256(popper_images()) == DIGESTS["popper_images"]


def test_light_cli_outputs(tmp_path):
    assert sha256(cli_light(tmp_path)) == DIGESTS["cli_light"]


def test_help(monkeypatch):
    # argparse wraps help to the terminal width; pin it.
    monkeypatch.setenv("COLUMNS", "80")
    assert sha256(help_texts()) == DIGESTS["help"]


def test_independence_verdicts():
    assert sha256(independence()) == DIGESTS["indep"]


def test_parsed_documents():
    assert sha256(parsed()) == DIGESTS["parsed"]


def test_nps_images():
    assert sha256(nps_images()) == DIGESTS["nps_images"]


def test_simeq_verdicts():
    assert sha256(simeq()) == DIGESTS["simeq"]
