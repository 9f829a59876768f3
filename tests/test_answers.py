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
  every fixture.
"""

import contextlib
import hashlib
import io
import random

from genspaces import aeq_pair, aeqchar_schedules, algebra_of, random_lps, simeq_pair, tilted_apart

from extprob import cli, jsonio
from extprob.fixtures import FIXTURES
from extprob.lps import equivalence
from extprob.npsbridge import lps_to_nps, nps_to_lps, verify_aeqchar

DIGESTS = {
    "certificates": "d2e95ed0b3e61d61e56e2996c8d0c2bd87d79f96f857b210321b8a21652e2466",
    "aeqchar": "a82fd4a73371ffa40379f5fe6c4fe1be0615dcff19addf8a68a337ad3c20d1db",
    "decompositions": "7ec0183240cd451c04c78df6024f5d86ff3037e4f5ae7c29f7bed826cc5daf00",
    "cli": "605352b57fdcc812a5ee003ce7c85d0ec1be8aac87f453921a6cb38f1a8e50a9",
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


def test_certificates():
    assert sha256(certificates()) == DIGESTS["certificates"]


def test_aeqchar_verdicts():
    assert sha256(aeqchar()) == DIGESTS["aeqchar"]


def test_decompositions():
    assert sha256(decompositions()) == DIGESTS["decompositions"]


def test_cli_outputs(tmp_path):
    assert sha256(cli_outputs(tmp_path)) == DIGESTS["cli"]
