"""Fuzz the command-line boundary with mutated documents.

Seeded documents on 2 to 4 atoms, built with ``genspaces``, get one or two
mutations each: a key or entry deleted, an entry repeated, a number scaled
(a name gets a digit appended), junk put in (``{}``, ``[[]]``, ``1.0``,
``"1/0"``) or an integer pushed over ``EXPONENT_MAX``.  Two of the
commands that read the mutated document, drawn at random, then run through
``cli.main`` beside valid inputs, so every command runs over the examples.
Each call must end without an exception, with an exit code in {0, 1, 2,
3}, within a few seconds (a per-call clock; no thread or process is
started), and exit 1 from any command but ``validate`` must come from
inputs that all pass ``validate``.  A mutated document that parses must
keep its space as written, so no entry is read as something it is not.
"""

import contextlib
import copy
import io
import json
import random
import time
from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from genspaces import algebra_of, covering_slps, random_lps, random_slps, random_treelike_space

from extprob import cli, jsonio
from extprob.npsbridge import lps_to_nps, nps_to_lps
from extprob.popper import slps_to_popper
from extprob.spaces import RandomVariable, StdMeasure

SECONDS_PER_CALL = 3.0
MAX_EXAMPLES = 800
COMMANDS_PER_CASE = 2
JUNK = ({}, [[]], 1.0, "1/0")
SCALES = (Fraction(2), Fraction(1, 2), Fraction(-1), Fraction(0))
WITNESSES = ("weights", "measures")

# One command per line; "@name" stands for the path of document ``name``.
COMMANDS = [line.split() for line in """
validate --in @measure
validate --in @lps
validate --in @nps
validate --in @decomposition
validate --in @popper --level cps
validate --in @popper
validate --in @tree --level treelike
validate --in @x
convert --from lps --to nps --in @lps
convert --from lps --to popper --in @slps
convert --from nps --to lps --in @nps
convert --from nps --to popper --in @nps
convert --from popper --to lps --in @popper
convert --from treelike --to lps --in @tree
compare --relation aeq --a @lps --b @other
compare --relation aeq --a @nps --b @lps
compare --relation simeq --a @nps --b @nps
expect --measure @measure --rv @x
expect --measure @lps --rv @x
indep --measure @nps --mode exact --u 0 --v 1
indep --measure @nps --mode approx --u 0 --v 0,1
indep --measure @popper --mode popper --u 0 --v 1
indep --measure @nps --variant weak --x @x --y @y
indep --measure @nps --variant set --x @x --ys @y,@x
verify-witness --kind bbd-r --target @lps --xs @x,@y --witness @weights
verify-witness --kind kr-seq --target @popper --xs @x,@y --witness @measures
believe --model @lps --kind weak --event 0
believe --model @nps --kind nps-weak --event 0
believe --model @popper --kind popper-weak --event 0
reduce --in @lps
""".strip().splitlines()]


def documents(rng):
    """Valid documents on one algebra of 2 to 4 atoms, by name."""
    algebra = algebra_of(rng.randint(2, 4))
    n = algebra.n_atoms
    system = random_lps(rng, algebra)
    nu = lps_to_nps(random_lps(rng, algebra))
    objects = {
        "measure": system.measures[0],
        "lps": system,
        "other": random_lps(rng, algebra),
        "slps": random_slps(rng, algebra),
        "nps": nu,
        "decomposition": nps_to_lps(nu),
        "popper": slps_to_popper(covering_slps(rng, algebra)),
        "tree": random_treelike_space(rng, algebra),
        "x": RandomVariable.from_values(algebra, [rng.randint(-2, 2) for _ in range(n)]),
        "y": RandomVariable.from_values(algebra, [rng.randint(-2, 2) for _ in range(n)]),
    }
    docs = {name: jsonio.encode(obj) for name, obj in objects.items()}
    docs["weights"] = {
        "type": "witness", "kind": "bbd-r", "weights": [["1/2"] * (len(system) - 1)],
    }
    docs["measures"] = {
        "type": "witness", "kind": "kr-seq",
        "measures": [jsonio.encode(StdMeasure.uniform(algebra))],
    }
    return docs


def node_paths(tree, path=()):
    """The path of every node of a JSON tree, the root first."""
    yield path
    keys = tree if isinstance(tree, dict) else range(len(tree)) if isinstance(tree, list) else ()
    for key in keys:
        yield from node_paths(tree[key], path + (key,))


def pick(rng, doc):
    """The path of a node of ``doc``.  A place in the document's shape (a
    path with its list indices left out) is drawn first, then a node at
    that place, so a key met once, such as ``type``, is drawn as often as
    the entries of every row."""
    places = {}
    for path in node_paths(doc):
        places.setdefault(tuple("*" if type(k) is int else k for k in path), []).append(path)
    return rng.choice(rng.choice(list(places.values())))


def mutate(rng, doc):
    """``doc`` with one mutation at a node drawn by ``pick``."""
    path = pick(rng, doc)
    kind = rng.choice(("delete", "repeat", "scale", "junk", "exponent"))
    if not path:
        return copy.deepcopy(rng.choice(JUNK)) if kind == "junk" else doc
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key, value = path[-1], parent[path[-1]]
    if kind == "delete":
        del parent[key]
    elif kind == "repeat" and isinstance(parent, list):
        parent.insert(key, copy.deepcopy(value))
    elif kind == "scale" and isinstance(value, str):
        try:
            parent[key] = str(Fraction(value) * rng.choice(SCALES))
        except (ValueError, ZeroDivisionError):
            parent[key] = value + "0"
    elif kind == "scale" and type(value) is int:
        parent[key] = value * 2 + 1
    elif kind == "exponent" and type(value) is int:
        parent[key] = jsonio.EXPONENT_MAX + 1
    elif kind == "junk":
        parent[key] = copy.deepcopy(rng.choice(JUNK))
    return doc


def run(argv):
    """Exit code of ``cli.main(argv)``; fails on an escaped exception or a
    slow call."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    seconds = time.perf_counter() - start
    assert seconds < SECONDS_PER_CALL, f"{argv} took {seconds:.1f} s"
    assert code in (0, 1, 2, 3), f"{argv} exited {code}"
    if code == 3:
        assert err.getvalue().strip() and not out.getvalue(), argv
    return code


def reads(template):
    """The names of the documents a command template reads."""
    return [t[1:] for token in template for t in token.split(",") if t.startswith("@")]


NAMES = sorted({name for template in COMMANDS for name in reads(template)})


def check_case(seed, workdir):
    """Mutate one document of the draw ``seed`` and run two of the commands
    that read it, with the documents written to ``workdir``."""
    rng = random.Random(seed)
    docs = documents(rng)
    name = rng.choice(NAMES)
    for _ in range(rng.randint(1, 2)):
        docs[name] = mutate(rng, docs[name])
    doc = docs[name]
    files = {}
    for key, value in docs.items():
        files[key] = workdir / f"{key}.json"
        files[key].write_text(json.dumps(value), encoding="utf-8")

    if name not in WITNESSES:
        try:
            _, obj = jsonio.parse_document(doc)
        except jsonio.ParseError:
            pass
        else:
            if doc["type"] == "decomposition":
                obj, doc = obj.lps, doc["lps"]
            assert jsonio.encode_space(obj.algebra) == doc["space"], doc

    readers = [template for template in COMMANDS if name in reads(template)]
    for template in rng.sample(readers, min(COMMANDS_PER_CASE, len(readers))):
        argv = [",".join(str(files[t[1:]]) if t.startswith("@") else t for t in token.split(","))
                for token in template]
        if run(argv) == 1 and template[0] != "validate":
            for key in sorted(set(reads(template)) - set(WITNESSES)):
                assert run(["validate", "--level", "cps", "--in", str(files[key])]) == 0, (
                    f"{template} exited 1 on {key}, which fails validate: {docs[key]}"
                )


def test_mutated_documents_through_every_command(tmp_path):
    @settings(max_examples=MAX_EXAMPLES, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(0, 2**32 - 1))
    def check(seed):
        check_case(seed, tmp_path)

    check()
