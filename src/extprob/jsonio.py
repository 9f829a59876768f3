"""Exact JSON encodings for every core object.

All numbers are strings ("a/b" rationals) or exponent/coefficient pair
lists, never floats, so files round-trip exactly.  Every document carries a
format_version and a type tag (a string); parse functions check structure
(shapes, increasing exponents, worlds that are strings, integers or lists
of those) but leave semantic validation (mass sums, axioms) to the callers
that need it.

Rows are read straight into the integer form the library computes with.
Each parse of a document keeps one memo, local to that parse, from a
rational string to its lowest-terms ``(num, den)`` integers: rows repeat a
few numbers (``"0"``, ``"1/2"``), so each distinct string is matched
against the grammar by :func:`parse_rational` once.  The memo takes
``str`` keys only: ``True``, ``1`` and ``1.0`` are equal as dict keys, but
only ``1`` is a rational, so any other value is parsed every time.  A
string that fails is never stored, so a document raises the error of the
same entry as an entry-by-entry parse would.  A measure's row is handed to
:meth:`StdMeasure.from_int_row` over the least common denominator of its
entries, and a polynomial is built from its integer pairs, so no
``Fraction`` is made for a measure's mass until something reads it.

:func:`dumps` writes a document with the bytes of ``json.dumps(doc,
indent=2, sort_keys=True)`` plus a newline, through a small writer over
the shapes the encoders produce (dicts with string keys, lists, strings,
ints and bools) that encodes each string with the standard library's C
string encoder; ``json.dumps`` with an indent runs its pure-Python encoder.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from itertools import chain

from .field import EpsPolynomial, NonstdNumber
from .lps import LPS, EquivCertificate
from .npsbridge import Decomposition
from .popper import PopperSpace
from .spaces import NonstdMeasure, RandomVariable, SpaceAlgebra, StdMeasure

FORMAT_VERSION = 1

# Longest numerator or denominator accepted, in decimal digits: the
# interpreter's default bound on int/str conversion.  Only plain digits are
# accepted, so no literal (an exponent such as "1e999999999") can stand for
# a longer integer than it spells out.
RATIONAL_MAX_DIGITS = 4300

# Largest exponent of eps accepted in a polynomial, and largest total
# degree of the distinct denominators of a measure's masses (the degree of
# the common denominator that sums of masses reach).  The gcd that puts a
# field element in lowest terms takes time that grows with the degree, so a
# short document with a huge exponent, or many masses over different
# denominators, would run for hours.  The embeddings of a system with L
# levels use exponents below L, and polynomial masses have denominator 1.
EXPONENT_MAX = 100

_DIGITS = rf"[0-9]{{1,{RATIONAL_MAX_DIGITS}}}"
_RATIONAL = re.compile(rf"(-?{_DIGITS})(?:/({_DIGITS}))?")


class ParseError(ValueError):
    """Malformed document."""


def encode_rational(q: Fraction) -> str:
    return str(q)


def parse_rational(text) -> Fraction:
    """Parse ``-?digits`` or ``-?digits/digits``, each part at most
    RATIONAL_MAX_DIGITS digits long."""
    match = _RATIONAL.fullmatch(str(text))
    if match is None:
        raise ParseError(
            f"bad rational {text!r}: expected an integer or a/b with at most "
            f"{RATIONAL_MAX_DIGITS} digits in each part"
        )
    num, den = match.groups()
    if den is None:
        return Fraction(int(num))
    try:
        return Fraction(int(num), int(den))
    except ZeroDivisionError as exc:
        raise ParseError(f"bad rational {text!r}: {exc}") from None


def _parse_pair(text, memo: dict) -> tuple:
    """``(num, den)`` of ``parse_rational(text)`` in lowest terms, once per
    distinct string in ``memo``."""
    if type(text) is not str:
        q = parse_rational(text)
        return q.numerator, q.denominator
    pair = memo.get(text)
    if pair is None:
        q = parse_rational(text)
        pair = memo[text] = q.numerator, q.denominator
    return pair


def _parse_int_row(row, memo: dict) -> tuple:
    """``(ints, den)`` with ``ints[a] / den`` the rational ``row[a]``, over
    the least common denominator of the entries."""
    pairs = [_parse_pair(x, memo) for x in row]
    den = math.lcm(*(d for _, d in pairs))
    return tuple(n if d == den else n * (den // d) for n, d in pairs), den


def _std_measure(algebra, row, memo: dict) -> StdMeasure:
    return StdMeasure.from_int_row(algebra, *_parse_int_row(row, memo))


def encode_nonstd(x: NonstdNumber) -> dict:
    return {
        "num": [[e, encode_rational(c)] for e, c in x.num.terms],
        "den": [[e, encode_rational(c)] for e, c in x.den.terms],
    }


def _parse_poly(pairs, where: str, memo: dict) -> EpsPolynomial:
    if not isinstance(pairs, list):
        raise ParseError(f"{where}: expected a list of [exponent, coefficient] pairs")
    exps = []
    terms = []
    for item in pairs:
        if not (isinstance(item, list) and len(item) == 2):
            raise ParseError(f"{where}: bad term {item!r}")
        e, c = item
        if not isinstance(e, int) or e < 0:
            raise ParseError(f"{where}: bad exponent {e!r}")
        if e > EXPONENT_MAX:
            raise ParseError(f"{where}: exponent {e} is above EXPONENT_MAX = {EXPONENT_MAX}")
        exps.append(e)
        num, den = _parse_pair(c, memo)
        if num:
            terms.append((int(e), num, den))
    if exps != sorted(set(exps)):
        raise ParseError(f"{where}: exponents must be strictly increasing")
    # Over the lcm of the reduced denominators, no prime divides every
    # numerator: the polynomial is in its canonical form.
    den = math.lcm(*(d for _, _, d in terms))
    return EpsPolynomial(tuple((e, n * (den // d)) for e, n, d in terms), den)


def parse_nonstd(doc) -> NonstdNumber:
    return _parse_nonstd(doc, {})


def _parse_nonstd(doc, memo: dict) -> NonstdNumber:
    if not isinstance(doc, dict) or set(doc) != {"num", "den"}:
        raise ParseError(f"bad field element {doc!r}")
    num = _parse_poly(doc["num"], "num", memo)
    den = _parse_poly(doc["den"], "den", memo)
    if den.is_zero:
        raise ParseError("zero denominator")
    return NonstdNumber._make(num, den)


def encode_space(algebra: SpaceAlgebra) -> dict:
    return {
        "worlds": [_encode_world(w) for w in algebra.worlds],
        "atoms": [[_encode_world(w) for w in block] for block in algebra.atoms],
    }


def _encode_world(w):
    return list(w) if isinstance(w, tuple) else w


def _place(b) -> str:
    return "worlds" if b is None else f"atoms[{b}]"


def _parse_world(w, b):
    """A world: a string, an integer, or a list of those (read as a tuple)."""
    if type(w) is str or type(w) is int:
        return w
    if isinstance(w, list) and all(type(x) is str or type(x) is int for x in w):
        return tuple(w)
    raise ParseError(
        f"{_place(b)}: bad world {w!r}: expected a string, an integer or a list of those"
    )


_PLAIN_WORLDS = {str, int}


def _worlds(block, b=None) -> tuple:
    """The worlds of the space (``b`` None) or of atom block ``b``.  A list
    of strings and ints is taken in one step; only a list that holds
    something else is checked world by world."""
    if not isinstance(block, list):
        raise ParseError(f"wrongly shaped field: {_place(b)} must be a list, got {block!r}")
    if set(map(type, block)) <= _PLAIN_WORLDS:
        return tuple(block)
    return tuple(_parse_world(w, b) for w in block)


def parse_space(doc) -> SpaceAlgebra:
    if not isinstance(doc, dict) or "worlds" not in doc or "atoms" not in doc:
        raise ParseError("space needs worlds and atoms")
    worlds = _worlds(doc["worlds"])
    blocks = doc["atoms"]
    if not isinstance(blocks, list):
        raise ParseError(f"wrongly shaped field: atoms must be a list, got {blocks!r}")
    if set(map(type, blocks)) <= {list}:
        if set(map(type, chain.from_iterable(blocks))) <= _PLAIN_WORLDS:
            return SpaceAlgebra(worlds, tuple(map(tuple, blocks)))
    return SpaceAlgebra(worlds, tuple(_worlds(block, b) for b, block in enumerate(blocks)))


def encode_event(ev) -> list:
    return sorted(ev)


def parse_event(doc, algebra: SpaceAlgebra):
    if not isinstance(doc, list):
        raise ParseError(f"event must be a sorted index list, got {doc!r}")
    for i in doc:
        if type(i) is not int:
            raise ParseError(f"event {doc!r}: bad atom index {i!r}: expected an integer")
    try:
        return algebra.event(doc)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def _document(type_name: str, body: dict) -> dict:
    return {"format_version": FORMAT_VERSION, "type": type_name, **body}


def encode_std_measure(m: StdMeasure) -> dict:
    return _document(
        "std_measure",
        {
            "space": encode_space(m.algebra),
            "mass": [encode_rational(x) for x in m.mass],
        },
    )


def encode_nonstd_measure(m: NonstdMeasure) -> dict:
    return _document(
        "nonstd_measure",
        {
            "space": encode_space(m.algebra),
            "mass": [encode_nonstd(x) for x in m.mass],
        },
    )


def encode_lps(system: LPS) -> dict:
    return _document(
        "lps",
        {
            "space": encode_space(system.algebra),
            "measures": [[encode_rational(x) for x in m.mass] for m in system.measures],
        },
    )


def encode_popper(space: PopperSpace) -> dict:
    return _document(
        "popper_space",
        {
            "space": encode_space(space.algebra),
            "conditioning_events": [encode_event(ev) for ev in space.conditioning_events],
            "table": [
                [encode_rational(x) for x in space.table[ev].mass]
                for ev in space.conditioning_events
            ],
        },
    )


def encode_random_variable(rv: RandomVariable) -> dict:
    return _document(
        "random_variable",
        {
            "space": encode_space(rv.algebra),
            "values": [encode_rational(x) for x in rv.values],
        },
    )


def encode_decomposition(dec: Decomposition) -> dict:
    return _document(
        "decomposition",
        {
            "lps": encode_lps(dec.lps),
            "coefficients": [encode_nonstd(c) for c in dec.coefficients],
        },
    )


def encode_certificate(cert: EquivCertificate) -> dict:
    body = {"verdict": cert.verdict}
    if cert.equivalent:
        body["forward_matrix"] = [
            [encode_rational(x) for x in row] for row in cert.forward_matrix
        ]
        body["backward_matrix"] = [
            [encode_rational(x) for x in row] for row in cert.backward_matrix
        ]
    else:
        x, y = cert.witness
        body["witness"] = {
            "x": [encode_rational(v) for v in x.values],
            "y": [encode_rational(v) for v in y.values],
        }
    return _document("equiv_certificate", body)


def _mass_row(doc, algebra, where):
    if not isinstance(doc, list) or len(doc) != algebra.n_atoms:
        raise ParseError(f"{where}: need {algebra.n_atoms} entries")
    return doc


def parse_std_measure(doc) -> StdMeasure:
    algebra = parse_space(doc["space"])
    row = _mass_row(doc["mass"], algebra, "mass")
    return _std_measure(algebra, row, {})


def parse_nonstd_measure(doc) -> NonstdMeasure:
    algebra = parse_space(doc["space"])
    row = _mass_row(doc["mass"], algebra, "mass")
    memo = {}
    masses = tuple(_parse_nonstd(x, memo) for x in row)
    degree = sum(d.degree() for d in {m.den for m in masses})
    if degree > EXPONENT_MAX:
        raise ParseError(
            f"mass: the distinct denominators have total degree {degree}, "
            f"above EXPONENT_MAX = {EXPONENT_MAX}"
        )
    return NonstdMeasure(algebra, masses)


def parse_lps(doc) -> LPS:
    algebra = parse_space(doc["space"])
    measures = doc["measures"]
    if not isinstance(measures, list) or not measures:
        raise ParseError("lps needs a nonempty measure list")
    memo = {}
    rows = []
    for i, row in enumerate(measures):
        row = _mass_row(row, algebra, f"measures[{i}]")
        rows.append(_std_measure(algebra, row, memo))
    return LPS(algebra, tuple(rows))


def parse_popper(doc) -> PopperSpace:
    algebra = parse_space(doc["space"])
    events = doc["conditioning_events"]
    rows = doc["table"]
    if len(events) != len(rows):
        raise ParseError("conditioning_events and table lengths differ")
    memo = {}
    table = {}
    for ev_doc, row in zip(events, rows):
        ev = parse_event(ev_doc, algebra)
        if ev in table:
            raise ParseError(f"duplicate conditioning event {ev_doc}")
        row = _mass_row(row, algebra, f"table[{ev_doc}]")
        table[ev] = _std_measure(algebra, row, memo)
    return PopperSpace(algebra, tuple(table), table)


def parse_random_variable(doc) -> RandomVariable:
    algebra = parse_space(doc["space"])
    row = _mass_row(doc["values"], algebra, "values")
    memo = {}
    return RandomVariable(algebra, tuple(Fraction(*_parse_pair(x, memo)) for x in row))


def parse_decomposition(doc) -> Decomposition:
    system = parse_lps(doc["lps"])
    memo = {}
    coeffs = tuple(_parse_nonstd(c, memo) for c in doc["coefficients"])
    return Decomposition(system, coeffs)


_PARSERS = {
    "std_measure": parse_std_measure,
    "nonstd_measure": parse_nonstd_measure,
    "lps": parse_lps,
    "popper_space": parse_popper,
    "random_variable": parse_random_variable,
    "decomposition": parse_decomposition,
}

_ENCODERS = {
    StdMeasure: encode_std_measure,
    NonstdMeasure: encode_nonstd_measure,
    LPS: encode_lps,
    PopperSpace: encode_popper,
    RandomVariable: encode_random_variable,
    Decomposition: encode_decomposition,
    EquivCertificate: encode_certificate,
}


def encode(obj) -> dict:
    encoder = _ENCODERS.get(type(obj))
    if encoder is None:
        raise TypeError(f"no encoding for {type(obj).__name__}")
    return encoder(obj)


def parse_document(doc):
    """Dispatch on the type tag; returns (type_name, object)."""
    if not isinstance(doc, dict):
        raise ParseError("document must be a JSON object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ParseError(f"unsupported format_version {version!r}")
    type_name = doc.get("type")
    parser = _PARSERS.get(type_name) if isinstance(type_name, str) else None
    if parser is None:
        raise ParseError(f"unknown document type {type_name!r}")
    try:
        return type_name, parser(doc)
    except KeyError as exc:
        raise ParseError(f"missing field {exc}") from None
    except TypeError as exc:
        raise ParseError(f"wrongly shaped field: {exc}") from None


def dumps(obj) -> str:
    """The document of ``obj`` (or the dict ``obj``) as
    ``json.dumps(doc, indent=2, sort_keys=True)`` writes it, plus a
    newline."""
    doc = obj if isinstance(obj, dict) else encode(obj)
    out = []
    _write(doc, "\n", out)
    out.append("\n")
    return "".join(out)


_encode_str = json.encoder.encode_basestring_ascii


def _write(value, newline: str, out: list):
    """Append the JSON text of ``value`` to ``out``; ``newline`` is a line
    break followed by the indentation of the line ``value`` starts on."""
    kind = type(value)
    if kind is str:
        out.append(_encode_str(value))
    elif kind is list:
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif kind is dict:
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep)
            out.append(_encode_str(key))
            out.append(": ")
            _write(value[key], inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif kind is int:
        out.append(int.__repr__(value))
    elif kind is bool:
        out.append("true" if value else "false")
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def read_json(path):
    """The JSON value in the file at ``path``.

    Bytes that are not UTF-8, malformed JSON, an integer literal longer than
    the interpreter converts and nesting deeper than the decoder recurses
    all raise ParseError; a path that cannot be read raises OSError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:
        raise ParseError(str(exc)) from None


def load_path(path):
    return parse_document(read_json(path))
