"""Command-line front end.

Exit codes: 0 success or affirmative verdict; 1 well-formed negative
verdict (invalid space, inequivalent, not independent, belief fails,
fixture assertion fails, conversion precondition unmet); 2 usage error;
3 input parse or validation error, or an input over a size limit.  Reports
are printed in full only after a command succeeds, and every enumeration is
emitted in lexicographic index order, so identical invocations produce
byte-identical output.

Every input document is checked where it is read, and one that fails its
check exits 3.  Measures, systems and decompositions must keep the measure
invariants (masses nonnegative and summing to one) on a valid space; a
popper_space must keep the cps axioms; a random_variable must lie on a
valid space.  ``validate`` reports the findings of the same checks, for a
popper_space at the requested level.  A conversion from a table checks it
only when the conversion refuses it: one that succeeds has validated the
table at a stricter level already.

File formats (JSON, exact; no floats anywhere):

- rationals: strings "a/b" (or "a" for integers)
- field elements: {"num": [[exp, "a/b"], ...], "den": [[exp, "a/b"], ...]}
  with strictly increasing exponents per list; "den" nonempty
- events: sorted lists of atom indices
- space: {"worlds": [...], "atoms": [[...], ...]} where atoms partition
  the worlds

Documents (all carry "format_version": 1 and "type"):

- std_measure:    {"type": "std_measure", "space": ..., "mass": ["1/2", ...]}
- nonstd_measure: {"type": "nonstd_measure", "space": ..., "mass": [elem, ...]}
- lps:            {"type": "lps", "space": ..., "measures": [["1/2", ...], ...]}
- popper_space:   {"type": "popper_space", "space": ...,
                   "conditioning_events": [[0], [0, 1], ...],
                   "table": [["1", "0"], ...]}  (rows align with the events)
- random_variable:{"type": "random_variable", "space": ..., "values": [...]}
- decomposition:  {"type": "decomposition", "lps": ..., "coefficients": [...]}
- witness files for verify-witness:
    bbd-r:   {"type": "witness", "kind": "bbd-r", "weights": [["1/2"], ...]}
    bbd-nps: {"type": "witness", "kind": "bbd-nps", "measure": nonstd_measure}
    kr-nps:  {"type": "witness", "kind": "kr-nps", "measure": nonstd_measure}
    kr-seq:  {"type": "witness", "kind": "kr-seq", "measures": [std_measure, ...]}
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import jsonio
from .belief import LPS_KINDS, NPS_KINDS, POPPER_KINDS, believes
from .errors import ExtprobError, SizeLimitError
from .fixtures import FIXTURES, run_fixture
from .independence import approx_indep_set, indep_events, verify_indep_witness, weak_indep
from .lps import certified_reduction, equivalence
from .npsbridge import nps_equiv, nps_to_lps, nps_to_popper, lps_to_nps
from .popper import popper_to_slps, slps_to_popper, treelike_to_lps
from .spaces import validate_space

OK, NEGATIVE, USAGE, BAD_INPUT = 0, 1, 2, 3


class _Negative(Exception):
    """A well-formed negative verdict carrying its report lines."""

    def __init__(self, lines):
        super().__init__("\n".join(lines))
        self.lines = lines


class _BadInput(Exception):
    pass


def _read(path, read):
    """``read(path)``, with a file that cannot be read or parsed as bad input."""
    try:
        return read(path)
    except (jsonio.ParseError, OSError) as exc:
        raise _BadInput(f"{path}: {exc}") from None


# The check each document type gets, given the object and, for a table, the
# level.  Every document is checked when it is read (a table at the cps
# level), and ``validate`` reports the findings of the same check.
_CHECKS = {
    "std_measure": lambda m, level: validate_space(m.algebra, (m,)),
    "nonstd_measure": lambda m, level: validate_space(m.algebra, (m,)),
    "lps": lambda s, level: validate_space(s.algebra, s.measures),
    "decomposition": lambda d, level: validate_space(d.lps.algebra, d.lps.measures),
    "popper_space": lambda p, level: p.validate(level),
    "random_variable": lambda x, level: validate_space(x.algebra),
}

_MEASURES = ("std_measure", "nonstd_measure", "lps")
_RV = ("random_variable",)


def _require(path, report):
    if not report.is_valid:
        raise _BadInput(f"{path}: " + "; ".join(report.findings))


def _load(path, expected=None, check=True):
    """``(type, object)`` of the document at ``path``: one of the
    ``expected`` types, if given, and one that passes its check, if
    ``check``."""
    type_name, obj = _read(path, jsonio.load_path)
    if expected and type_name not in expected:
        raise _BadInput(
            f"{path}: expected {', '.join(expected)} document, got {type_name}"
        )
    if check:
        _require(path, _CHECKS[type_name](obj, "cps"))
    return type_name, obj


def _parse_event(algebra, text):
    try:
        indices = [int(tok) for tok in text.split(",")] if text.strip() else []
    except ValueError:
        raise _BadInput(f"bad event index list {text!r}") from None
    try:
        return algebra.event(indices)
    except ValueError as exc:
        raise _BadInput(f"{exc} (the space has {algebra.n_atoms} atoms)") from None


def _emit(lines, out_doc=None, out_path=None):
    text = "\n".join(lines)
    if out_doc is not None:
        rendered = jsonio.dumps(out_doc)
        if out_path:
            try:
                with open(out_path, "w", encoding="utf-8") as fh:
                    fh.write(rendered)
            except OSError as exc:
                raise _BadInput(f"{out_path}: {exc.strerror or exc}") from None
            text += ("\n" if text else "") + f"wrote {out_path}"
        else:
            text += ("\n" if text else "") + rendered.rstrip("\n")
    print(text)
    return OK


def cmd_validate(args):
    type_name, obj = _load(args.infile, check=False)
    report = _CHECKS[type_name](obj, args.level)
    if not report.is_valid:
        raise _Negative([f"{type_name}: invalid"] + report.lines())
    return _emit([f"{type_name}: valid at level {args.level}"
                  if type_name == "popper_space" else f"{type_name}: valid"])


# Each route's source document type and converter.  A converter is called
# through its module-level name, the binding that perfbench's tracer
# replaces to count and time it.
_CONVERSIONS = {
    ("lps", "nps"): ("lps", lambda obj: lps_to_nps(obj)),
    ("lps", "popper"): ("lps", lambda obj: slps_to_popper(obj)),
    ("nps", "lps"): ("nonstd_measure", lambda obj: nps_to_lps(obj)),
    ("nps", "popper"): ("nonstd_measure", lambda obj: nps_to_popper(obj)),
    ("popper", "lps"): ("popper_space", lambda obj: popper_to_slps(obj)),
    ("treelike", "lps"): ("popper_space", lambda obj: treelike_to_lps(obj)),
}


def cmd_convert(args):
    route = (args.source, args.target)
    if route not in _CONVERSIONS:
        raise _BadInput(f"no conversion from {args.source} to {args.target}")
    type_name, convert = _CONVERSIONS[route]
    # A conversion from a table validates it at a stricter level than cps
    # first, so the table is checked only when the conversion refuses it.
    table = type_name == "popper_space"
    obj = _load(args.infile, (type_name,), check=not table)[1]
    try:
        result = convert(obj)
    except SizeLimitError:
        raise  # refused by size: exit 3 with the message, not a verdict
    except ExtprobError as exc:
        if table:
            _require(args.infile, _CHECKS[type_name](obj, "cps"))
        raise _Negative([f"cannot convert: {exc}"]) from None
    return _emit([f"converted {args.source} to {args.target}"],
                 jsonio.encode(result), args.out)


def cmd_compare(args):
    type_a, a = _load(args.a, _MEASURES)
    type_b, b = _load(args.b, _MEASURES)
    if args.relation == "simeq":
        if type_a != "nonstd_measure" or type_b != "nonstd_measure":
            raise _BadInput("simeq compares two nonstd_measure documents")
        verdict = nps_equiv(a, b, "simeq")
        if not verdict:
            raise _Negative(["simeq: false"])
        return _emit(["simeq: true"])
    systems = []
    for type_name, obj in ((type_a, a), (type_b, b)):
        if type_name == "nonstd_measure":
            systems.append(nps_to_lps(obj).lps)
        elif type_name == "lps":
            systems.append(obj)
        else:
            raise _BadInput("aeq compares lps or nonstd_measure documents")
    cert = equivalence(systems[0], systems[1])
    lines = [f"aeq: {cert.verdict}"]
    if not cert.equivalent:
        x, y = cert.witness
        lines.append(f"witness x: {[str(v) for v in x.values]}")
        lines.append(f"witness y: {[str(v) for v in y.values]}")
        raise _Negative(lines + ["certificate:", jsonio.dumps(cert).rstrip("\n")])
    return _emit(lines, jsonio.encode(cert))


def cmd_expect(args):
    type_name, measure = _load(args.measure, _MEASURES)
    rv = _load(args.rv, _RV)[1]
    if rv.algebra != measure.algebra:
        raise _BadInput("random variable and measure use different spaces")
    if type_name == "lps":
        values = measure.expectation_vector(rv)
        return _emit(["expectation: (" + ", ".join(str(v) for v in values) + ")"])
    return _emit([f"expectation: {measure.expectation(rv)}"])


def cmd_indep(args):
    if args.variant == "events":
        if args.mode == "popper":
            model = _load(args.measure, ("popper_space",))[1]
        else:
            type_name, model = _load(args.measure, _MEASURES)
            if type_name != "nonstd_measure":
                raise _BadInput(f"{args.mode} mode needs a nonstd_measure")
        u = _parse_event(model.algebra, args.u)
        v = _parse_event(model.algebra, args.v)
        given = _parse_event(model.algebra, args.given) if args.given is not None else None
        holds = indep_events(model, u, v, given, mode=args.mode)
        if not holds:
            raise _Negative([f"independent ({args.mode}): false"])
        return _emit([f"independent ({args.mode}): true"])
    type_name, nu = _load(args.measure, _MEASURES)
    if type_name != "nonstd_measure":
        raise _BadInput(f"{args.variant} variant needs a nonstd_measure")
    x = _load(args.x, _RV)[1]
    if args.variant == "weak":
        y = _load(args.y, _RV)[1]
        holds = weak_indep(nu, x, y, require_product_range=args.require_product_range)
        if not holds:
            raise _Negative(["weakly independent: false"])
        return _emit(["weakly independent: true"])
    ys = [_load(path, _RV)[1] for path in args.ys.split(",")]
    holds = approx_indep_set(nu, x, ys)
    if not holds:
        raise _Negative(["approximately independent of set: false"])
    return _emit(["approximately independent of set: true"])


def _load_witness(path, kind, algebra):
    """The witness of ``kind`` in ``path``: a nonempty list of mixing
    weights strictly between 0 and 1, or measures (at least one) that keep
    their invariants on ``algebra``."""
    doc = _read(path, jsonio.read_json)
    if not isinstance(doc, dict) or doc.get("type") != "witness":
        raise _BadInput(f"{path}: expected a witness document")
    if doc.get("kind") != kind:
        raise _BadInput(f"{path}: witness kind {doc.get('kind')!r} does not match {kind}")
    try:
        if kind == "bbd-r":
            weights = [[jsonio.parse_rational(w) for w in vec] for vec in doc["weights"]]
        elif kind == "kr-seq":
            measures = [jsonio.parse_std_measure(m) for m in doc["measures"]]
        else:
            measures = [jsonio.parse_nonstd_measure(doc["measure"])]
    except (KeyError, TypeError, ValueError) as exc:
        raise _BadInput(f"{path}: {exc}") from None
    # An empty list yields no check, and no failed check reads as accepted.
    if kind == "bbd-r":
        if not weights:
            raise _BadInput(f"{path}: the witness lists no weights")
        outside = [w for vec in weights for w in vec if not 0 < w < 1]
        if outside:
            raise _BadInput(f"{path}: mixing weight {outside[0]} outside (0, 1)")
        return weights
    if not measures:
        raise _BadInput(f"{path}: the witness lists no measures")
    _require(path, validate_space(algebra, measures))
    return measures if kind == "kr-seq" else measures[0]


def cmd_verify_witness(args):
    target = _load(args.target, ("lps",) if args.kind.startswith("bbd") else ("popper_space",))[1]
    xs = [_load(path, _RV)[1] for path in args.xs.split(",")]
    if any(x.algebra != target.algebra for x in xs):
        raise _BadInput("random variables and target use different spaces")
    witness = _load_witness(args.witness, args.kind, target.algebra)
    report = verify_indep_witness(args.kind, target, xs, witness)
    if not report.accepted:
        raise _Negative(report.lines())
    return _emit(report.lines())


def cmd_believe(args):
    expected = {
        **{k: ("lps",) for k in LPS_KINDS},
        **{k: ("popper_space",) for k in POPPER_KINDS},
        **{k: ("nonstd_measure",) for k in NPS_KINDS},
    }
    if args.kind not in expected:
        raise _BadInput(f"unknown belief kind {args.kind!r}")
    model = _load(args.model, expected[args.kind])[1]
    event = _parse_event(model.algebra, args.event)
    holds, level = believes(model, event, args.kind)
    lines = [f"{args.kind}: {str(holds).lower()}"]
    if holds and level is not None:
        lines.append(f"level: {level}")
    if not holds:
        raise _Negative(lines)
    return _emit(lines)


def cmd_reduce(args):
    system = _load(args.infile, ("lps",))[1]
    reduced, cert = certified_reduction(system)
    lines = [
        f"length: {len(system)} -> {len(reduced)}",
        f"certified: {cert.verdict}",
    ]
    return _emit(lines, jsonio.encode(reduced), args.out)


def cmd_fixtures(args):
    if args.action == "list":
        return _emit(sorted(FIXTURES))
    try:
        passed, lines = run_fixture(args.name)
    except KeyError:
        raise _BadInput(
            f"unknown fixture {args.name!r}; available: {', '.join(sorted(FIXTURES))}"
        ) from None
    if not passed:
        raise _Negative(lines)
    return _emit(lines)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later one.  Sharing is safe: nothing changes the parser once it is built,
    and each parse fills a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="extprob",
        description="Exact conversions and checks for extended probability "
        "representations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a document's axioms")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--level", choices=("cps", "popper", "treelike"), default="popper")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("convert", help="convert between representations")
    p.add_argument("--from", dest="source", required=True,
                   choices=("lps", "nps", "popper", "treelike"))
    p.add_argument("--to", dest="target", required=True,
                   choices=("lps", "nps", "popper"))
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("compare", help="decide an equivalence relation")
    p.add_argument("--relation", choices=("aeq", "simeq"), required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("expect", help="exact expectation of a random variable")
    p.add_argument("--measure", required=True)
    p.add_argument("--rv", required=True)
    p.set_defaults(func=cmd_expect)

    p = sub.add_parser("indep", help="independence checks")
    p.add_argument("--measure", required=True)
    p.add_argument("--variant", choices=("events", "weak", "set"), default="events")
    p.add_argument("--mode", choices=("exact", "approx", "popper"), default="exact")
    p.add_argument("--u", help="event atom indices, comma separated")
    p.add_argument("--v", help="event atom indices, comma separated")
    p.add_argument("--given")
    p.add_argument("--x", help="random variable file (weak/set variants)")
    p.add_argument("--y", help="random variable file (weak variant)")
    p.add_argument("--ys", help="comma separated variable files (set variant)")
    p.add_argument("--require-product-range", action="store_true")
    p.set_defaults(func=cmd_indep)

    p = sub.add_parser("verify-witness", help="check a strong-independence witness")
    p.add_argument("--kind", required=True,
                   choices=("bbd-r", "bbd-nps", "kr-nps", "kr-seq"))
    p.add_argument("--target", required=True)
    p.add_argument("--xs", required=True, help="comma separated variable files")
    p.add_argument("--witness", required=True)
    p.set_defaults(func=cmd_verify_witness)

    p = sub.add_parser("believe", help="evaluate a belief operator")
    p.add_argument("--model", required=True)
    p.add_argument("--event", required=True)
    p.add_argument("--kind", required=True)
    p.set_defaults(func=cmd_believe)

    p = sub.add_parser("reduce", help="drop linearly dependent levels")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("fixtures", help="run a worked fixture")
    fsub = p.add_subparsers(dest="action", required=True)
    fp = fsub.add_parser("list")
    fp.set_defaults(func=cmd_fixtures, action="list")
    fp = fsub.add_parser("run")
    fp.add_argument("name")
    fp.set_defaults(func=cmd_fixtures, action="run")

    return parser


def _missing_flags(args) -> str:
    if args.command == "indep":
        if args.variant == "events" and (args.u is None or args.v is None):
            return "indep --variant events needs --u and --v"
        if args.variant == "weak" and (args.x is None or args.y is None):
            return "indep --variant weak needs --x and --y"
        if args.variant == "set" and (args.x is None or args.ys is None):
            return "indep --variant set needs --x and --ys"
    return ""


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    problem = _missing_flags(args)
    if problem:
        print(problem, file=sys.stderr)
        return USAGE
    try:
        return args.func(args)
    except _Negative as exc:
        print("\n".join(exc.lines))
        return NEGATIVE
    except _BadInput as exc:
        print(str(exc), file=sys.stderr)
        return BAD_INPUT
    except ExtprobError as exc:
        print(str(exc), file=sys.stderr)
        return BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
