"""Round-trip fidelity and strictness of the JSON encodings."""

import json
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genspaces import aeq_pair, algebra_of, entry, parsed_document, random_lps, simeq_pair

from extprob import cli, jsonio
from extprob._linalg import scaled_row
from extprob.field import EPS, ONE, EpsPolynomial
from extprob.lps import LPS, equivalence
from extprob.npsbridge import Decomposition, lps_to_nps, nps_to_lps, nps_to_popper
from extprob.popper import PopperSpace, slps_to_popper
from extprob.spaces import NonstdMeasure, RandomVariable, SpaceAlgebra, StdMeasure

from oracles import parse_document_by_fractions, parse_rational_by_str, poly_by_fractions

F = Fraction

AB = SpaceAlgebra.discrete(["a", "b"])
GRID = SpaceAlgebra.discrete([(1, 1), (1, 2), (2, 1), (2, 2)])


def roundtrip(obj):
    doc = jsonio.encode(obj)
    type_name, back = jsonio.parse_document(doc)
    return back


class TestRoundTrips:
    def test_nonstd_number(self):
        x = (F(1, 2) + EPS) / (ONE - 3 * EPS)
        assert jsonio.parse_nonstd(jsonio.encode_nonstd(x)) == x

    def test_std_measure(self):
        m = StdMeasure.from_values(AB, [F(1, 3), F(2, 3)])
        assert roundtrip(m) == m

    def test_nonstd_measure(self):
        m = NonstdMeasure.from_values(AB, [ONE - EPS, EPS])
        assert roundtrip(m) == m

    def test_lps(self):
        system = LPS.from_rows(AB, [(F(1, 2), F(1, 2)), (1, 0)])
        assert roundtrip(system) == system

    def test_popper_space(self):
        space = slps_to_popper(LPS.from_rows(AB, [(1, 0), (0, 1)]))
        assert roundtrip(space) == space

    def test_random_variable_with_tuple_worlds(self):
        rv = RandomVariable.from_values(GRID, [1, 2, 3, 4])
        assert roundtrip(rv) == rv

    def test_decomposition(self):
        dec = nps_to_lps(NonstdMeasure.from_values(AB, [F(1, 2) + EPS, F(1, 2) - EPS]))
        back = roundtrip(dec)
        assert back.lps == dec.lps and back.coefficients == dec.coefficients

    def test_certificate_encoding_carries_witness(self):
        cert = equivalence(
            LPS.from_rows(AB, [(F(1, 2), F(1, 2)), (1, 0)]),
            LPS.from_rows(AB, [(F(1, 2), F(1, 2))]),
        )
        doc = jsonio.encode(cert)
        assert doc["verdict"] == "inequivalent"
        assert doc["witness"] == {"x": ["1", "0"], "y": ["0", "1"]}

    def test_encode_unknown_type(self):
        with pytest.raises(TypeError, match="^no encoding for Fraction$"):
            jsonio.encode(F(1, 2))

    def test_encoder_errors_are_its_own(self):
        """A table without a row for one of its events fails in the
        encoder, not as an unknown type."""
        space = slps_to_popper(LPS.from_rows(AB, [(1, 0), (0, 1)]))
        table = dict(space.table)
        del table[AB.event({1})]
        with pytest.raises(KeyError) as missing:
            jsonio.dumps(PopperSpace(AB, space.conditioning_events, table))
        assert missing.value.args == (AB.event({1}),)

    def test_dumps_deterministic(self):
        m = StdMeasure.from_values(AB, [F(1, 3), F(2, 3)])
        assert jsonio.dumps(m) == jsonio.dumps(m)


class TestStrictness:
    def test_rejects_unknown_type(self):
        with pytest.raises(jsonio.ParseError):
            jsonio.parse_document({"format_version": 1, "type": "mystery"})

    def test_rejects_bad_version(self):
        with pytest.raises(jsonio.ParseError):
            jsonio.parse_document({"format_version": 2, "type": "lps"})

    def test_rejects_unsorted_exponents(self):
        with pytest.raises(jsonio.ParseError):
            jsonio.parse_nonstd({"num": [[2, "1"], [1, "1"]], "den": [[0, "1"]]})

    def test_exponent_limit_is_inclusive(self):
        top = jsonio.EXPONENT_MAX
        x = jsonio.parse_nonstd({"num": [[0, "1"], [top, "1"]], "den": [[0, "1"], [1, "1"]]})
        assert x.num.degree() + x.den.degree() >= top
        for where in ("num", "den"):
            doc = {"num": [[0, "1"]], "den": [[0, "1"]]}
            doc[where] = [[0, "1"], [top + 1, "1"]]
            with pytest.raises(jsonio.ParseError, match=f"{where}: exponent {top + 1} is above"):
                jsonio.parse_nonstd(doc)

    def test_denominator_degree_limit_is_inclusive(self):
        """The degrees of the distinct mass denominators add up; a
        denominator shared by several masses counts once."""
        top = jsonio.EXPONENT_MAX

        def measure(*degrees):
            mass = [{"num": [[0, "1"]], "den": [[0, "1"], [d, "1"]]} for d in degrees]
            return {
                "format_version": 1,
                "type": "nonstd_measure",
                "space": jsonio.encode_space(algebra_of(len(degrees))),
                "mass": mass,
            }

        for degrees in ((top,), (top // 2, top - top // 2), (top, top)):
            _, nu = jsonio.parse_document(measure(*degrees))
            assert [m.den.degree() for m in nu.mass] == list(degrees)
        for degrees in ((top // 2, top - top // 2 + 1), (1, 2, top - 2)):
            with pytest.raises(
                jsonio.ParseError,
                match=f"total degree {top + 1}, above EXPONENT_MAX = {top}",
            ):
                jsonio.parse_document(measure(*degrees))

    def test_rejects_zero_denominator(self):
        with pytest.raises(jsonio.ParseError):
            jsonio.parse_nonstd({"num": [[0, "1"]], "den": []})

    def test_rejects_bad_rational(self):
        with pytest.raises(jsonio.ParseError):
            jsonio.parse_rational("0.5x")

    @pytest.mark.parametrize(
        "text",
        ["1e999999999", "0.5", "+1", " 1", "1/-2", "1/0", "9" * (jsonio.RATIONAL_MAX_DIGITS + 1)],
    )
    def test_rational_grammar_rejects(self, text):
        with pytest.raises(jsonio.ParseError):
            jsonio.parse_rational(text)

    def test_rational_grammar_accepts(self):
        assert jsonio.parse_rational("-3/4") == F(-3, 4)
        assert jsonio.parse_rational("12") == 12
        big = "9" * jsonio.RATIONAL_MAX_DIGITS
        assert jsonio.parse_rational(f"{big}/{big}") == 1

    def test_parse_rational_matches_fraction_of_str(self):
        """Seeded inputs near the grammar give the value ``Fraction(str)``
        gives, or the same ParseError text as the two-pass parse."""
        top = jsonio.RATIONAL_MAX_DIGITS
        rng = random.Random(83)

        def digits():
            n = rng.choice((1, 1, 2, 3, 5, 9, 20, top, top + 1))
            if rng.random() < 0.1:
                return "0" * min(n, 4)
            lead = "0" * rng.choice((0, 0, 0, 1, 3))
            return (lead + "".join(rng.choice("0123456789") for _ in range(n)))[:top + 1]

        texts = ["-0", "0/0", "-0/0", "00", "-00/007", "007/0010", "1/0", "-1/0", "0/5",
                 "9" * top, "-" + "0" * top, f"{'0' * (top - 1)}1/{'9' * top}",
                 0, -7, 10 ** 50, True, None, 0.5]
        for _ in range(2000):
            text = rng.choice(("", "", "", "-", "+", " ")) + digits()
            if rng.random() < 0.6:
                text += "/" + rng.choice(("", "", "", "-", "+")) + digits()
            if rng.random() < 0.1:
                at = rng.randrange(len(text) + 1)
                text = text[:at] + rng.choice("/-+ ._e0") + text[at:]
            texts.append(text)
        accepted = rejected = zero_den = 0
        for text in texts:
            try:
                want = parse_rational_by_str(text)
            except jsonio.ParseError as exc:
                with pytest.raises(jsonio.ParseError) as got:
                    jsonio.parse_rational(text)
                assert str(got.value) == str(exc), text
                rejected += 1
                zero_den += "Fraction(" in str(exc)
                continue
            got = jsonio.parse_rational(text)
            assert type(got) is Fraction and got == want, text
            accepted += 1
        assert accepted >= 600 and rejected >= 600 and zero_den >= 20, (accepted, rejected, zero_den)

    def test_rejects_wrong_mass_count(self):
        doc = jsonio.encode(StdMeasure.from_values(AB, [F(1, 2), F(1, 2)]))
        doc["mass"] = ["1"]
        with pytest.raises(jsonio.ParseError):
            jsonio.parse_document(doc)

    def test_rejects_event_out_of_range(self):
        with pytest.raises(jsonio.ParseError):
            jsonio.parse_event([7], AB)

    @pytest.mark.parametrize("index", [0.9, "1", True, None, [0]])
    def test_rejects_event_index_that_is_not_an_int(self, index):
        doc = jsonio.encode(PopperSpace.from_rows(AB, {(0, 1): (1, 0), (1,): (0, 1)}))
        doc["conditioning_events"][0] = [index, 1]
        with pytest.raises(jsonio.ParseError) as err:
            jsonio.parse_document(doc)
        assert str(err.value) == f"event {[index, 1]!r}: bad atom index {index!r}: expected an integer"

    @pytest.mark.parametrize("type_name", [["lps"], {}, 1])
    def test_rejects_type_that_is_not_a_string(self, type_name):
        doc = jsonio.encode(LPS.from_rows(AB, [(1, 0)]))
        doc["type"] = type_name
        with pytest.raises(jsonio.ParseError) as err:
            jsonio.parse_document(doc)
        assert str(err.value) == f"unknown document type {type_name!r}"

    @pytest.mark.parametrize("space, message", [
        ({"worlds": [{}, "b"], "atoms": [["a"], ["b"]]}, "worlds: bad world {}"),
        ({"worlds": ["a", "b"], "atoms": [["a"], [[[]]]]}, r"atoms\[1\]: bad world \[\[\]\]"),
        ({"worlds": ["a", 1.0], "atoms": [["a"], [1.0]]}, "worlds: bad world 1.0"),
        ({"worlds": ["a", True], "atoms": [["a"], [True]]}, "worlds: bad world True"),
        ({"worlds": ["a", "b"], "atoms": ["a", ["b"]]}, r"atoms\[0\] must be a list, got 'a'"),
        ({"worlds": "ab", "atoms": [["a"], ["b"]]}, "worlds must be a list, got 'ab'"),
        ({"worlds": ["a", "b"], "atoms": "ab"}, "atoms must be a list, got 'ab'"),
    ])
    def test_rejects_malformed_space_entries(self, space, message):
        """A world is a string, an integer or a list of those, and worlds,
        atoms and each atom block are lists: anything else is named, not
        hashed or read one character at a time."""
        doc = jsonio.encode(StdMeasure.from_values(AB, [1, 0]))
        doc["space"] = space
        with pytest.raises(jsonio.ParseError, match=message):
            jsonio.parse_document(doc)


def _documents(row):
    """``(type, document, entries)`` for each type that carries rational
    rows, the rows built from ``row``, and every rational entry of the
    document."""
    n = len(row)
    space = jsonio.encode_space(algebra_of(n))
    levels = [row, row[::-1], row]
    masses = [{"num": [[0, x]], "den": [[0, "1"], [1, "2/4"]]} for x in row]
    events = [list(range(n)), [0], [n - 1]]
    docs = [
        ("std_measure", {"mass": row}, row),
        ("lps", {"measures": levels}, levels),
        ("random_variable", {"values": row}, row),
        ("popper_space", {"conditioning_events": events, "table": levels}, levels),
        ("nonstd_measure", {"mass": masses}, [[x, "1", "2/4"] for x in row]),
    ]
    for type_name, body, entries in docs:
        doc = {"format_version": 1, "type": type_name, "space": space, **body}
        if type_name in ("lps", "popper_space", "nonstd_measure"):
            entries = [x for part in entries for x in part]
        yield type_name, doc, entries


# Rows that mix strings, ints and entries that are not rationals.
MIXED_ROWS = [
    ["1", 1, "2/4", "1"],
    [1, "1", 1, "-0"],
    ["1", True, "1"],
    [True, "1", "1"],
    [1, True, "1"],
    ["1", 1.0, "1"],
    [1, "1", 1.0],
    ["1", "1.0", "1"],
    ["2/4", "1/0", "2/4"],
    ["1/2", "1/2", None],
    ["1", [1], "1"],
    [False, 0, "0"],
    [0, "0", False],
]


class TestRationalMemo:
    """Each parser keeps one memo per document from a rational string to
    its value; anything but a string is parsed every time."""

    @pytest.fixture
    def matched(self, monkeypatch):
        """The texts the rational grammar is run on."""
        texts = []
        grammar = jsonio._RATIONAL

        class Counted:
            def fullmatch(self, text):
                texts.append(text)
                return grammar.fullmatch(text)

        monkeypatch.setattr(jsonio, "_RATIONAL", Counted())
        return texts

    def test_grammar_runs_once_per_distinct_string(self, matched):
        for row in (["1/2", "0", "1/2", "1/2"], ["1/2", 1, "1/2", 1, "0", "007", "0"]):
            for type_name, doc, entries in _documents(row):
                matched.clear()
                jsonio.parse_document(doc)
                want = Counter({x for x in entries if type(x) is str})
                want.update(str(x) for x in entries if type(x) is not str)
                assert Counter(matched) == want, (type_name, row)
                assert len(matched) < len(entries)

    def test_one_memo_per_document(self, matched):
        docs = [doc for _, doc, _ in _documents(["1/2", "1/2"])]
        for doc in docs:
            jsonio.parse_document(doc)
        assert matched.count("1/2") == len(docs)

    def test_decomposition(self, matched):
        system = next(doc for name, doc, _ in _documents(["1/2", "1/2"]) if name == "lps")
        coefficient = {"num": [[0, "1"], [1, "-1"]], "den": [[0, "1"]]}
        doc = {"format_version": 1, "type": "decomposition", "lps": system,
               "coefficients": [coefficient] * 3}
        jsonio.parse_document(doc)
        assert sorted(matched) == ["-1", "1", "1/2"]

    def test_equal_entries_give_equal_masses_and_row_integers(self):
        """Equal entries, however written, give equal integers in the
        parsed row and equal ``Fraction`` masses when the masses are read."""
        _, doc, _ = next(_documents(["2/4", "1/2", "2/4"]))
        m = jsonio.parse_document(doc)[1]
        (x, y, z), den = m.int_row
        assert x == y == z and (x, den) == (1, 2)
        assert m.mass == (F(1, 2),) * 3 and {type(v) for v in m.mass} == {F}

    @pytest.mark.parametrize("row", MIXED_ROWS)
    def test_mixed_rows_parse_entry_by_entry(self, row):
        """Values and types, or the ParseError of the first bad entry, are
        those of ``parse_rational`` on each entry in turn."""
        try:
            want = [jsonio.parse_rational(x) for x in row]
        except jsonio.ParseError as exc:
            want = str(exc)
        for type_name, doc, entries in _documents(row):
            if isinstance(want, str):
                with pytest.raises(jsonio.ParseError) as got:
                    jsonio.parse_document(doc)
                assert str(got.value) == want, type_name
                continue
            obj = jsonio.parse_document(doc)[1]
            if type_name == "nonstd_measure":
                assert list(obj.mass) == [jsonio.parse_nonstd(m) for m in doc["mass"]]
                continue
            values = {
                "std_measure": lambda: obj.mass,
                "lps": lambda: [x for m in obj.measures for x in m.mass],
                "random_variable": lambda: obj.values,
                "popper_space": lambda: [
                    x for ev in doc["conditioning_events"] for x in obj.table[frozenset(ev)].mass
                ],
            }[type_name]()
            assert list(values) == [jsonio.parse_rational(x) for x in entries], type_name
            assert {type(v) for v in values} == {F}, type_name


def test_rejects_duplicate_conditioning_events():
    space = slps_to_popper(LPS.from_rows(AB, [(1, 0), (0, 1)]))
    doc = jsonio.encode(space)
    doc["conditioning_events"].append(doc["conditioning_events"][0])
    doc["table"].append(doc["table"][0])
    with pytest.raises(jsonio.ParseError):
        jsonio.parse_document(doc)


def _outcome(call, *args):
    """The result, or the exception's type and message."""
    try:
        return call(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _std_measures(obj):
    """Every standard measure a parsed object holds, in document order."""
    if isinstance(obj, StdMeasure):
        return [obj]
    if isinstance(obj, LPS):
        return list(obj.measures)
    if isinstance(obj, Decomposition):
        return list(obj.lps.measures)
    if isinstance(obj, PopperSpace):
        return list(obj.table.values())
    return []


class TestAgainstFractionRoute:
    """Documents read into integer rows against the parser that read each
    entry as a ``Fraction`` (``oracles.parse_document_by_fractions``)."""

    def assert_same_reading(self, doc):
        got = _outcome(jsonio.parse_document, doc)
        want = _outcome(parse_document_by_fractions, doc)
        if type(want) is not tuple or type(want[0]) is not str:
            assert got == want
            return
        (type_name, obj), (_, old) = got, want
        check = cli._CHECKS[type_name]
        assert check(obj, "cps") == check(old, "cps")
        for m, o in zip(_std_measures(obj), _std_measures(old), strict=True):
            # Neither the parse nor the check builds the Fraction masses.
            assert "mass" not in m.__dict__
            ints, den = m.int_row
            assert (list(ints), den) == scaled_row(o.mass)
        assert got == want
        return type_name

    def test_parsed_family(self):
        rng = random.Random(1812)
        read = Counter(self.assert_same_reading(parsed_document(rng)) for _ in range(600))
        assert read[None] >= 120 and len(read) == 7, read

    @pytest.mark.parametrize("row", MIXED_ROWS + [
        ["2/4", "-0", "007", "-3/6"],
        ["-3/6", 2, "007", -1],
        ["0", "-0", 0, "00"],
    ])
    def test_rows_written_many_ways(self, row):
        for _, doc, _ in _documents(row):
            self.assert_same_reading(doc)

    def test_polynomials_against_from_pairs(self):
        rng = random.Random(2401)
        shapes = Counter()
        for _ in range(2000):
            exps = sorted(rng.sample(range(jsonio.EXPONENT_MAX + 2), rng.randint(0, 4)))
            if exps and rng.random() < 0.1:
                exps[-1] = rng.choice([exps[0], -1, True, 1.5])
            pairs = [[e, entry(rng)] for e in exps]
            if pairs and rng.random() < 0.05:
                pairs[0] = pairs[0][:1]
            got = _outcome(jsonio._parse_poly, pairs, "num", {})
            want = _outcome(poly_by_fractions, pairs)
            assert got == want, pairs
            if isinstance(got, EpsPolynomial):
                assert (got.coeffs, got.den) == (want.coeffs, want.den)
                assert {type(e) for e, _ in got.coeffs} <= {int}
                shapes["zero" if got.is_zero else "den 1" if got.den == 1 else "den > 1"] += 1
            else:
                shapes["error"] += 1
        assert min(shapes.values()) >= 100 and len(shapes) == 4, shapes


_JSON_LEAVES = st.one_of(
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**80), max_value=10**80),
    st.text(),
    st.sampled_from(["", '"\\/\b\f\n\r\t', "\x00\x1f\x7f", "é€\U0001d11e", "\ud800"]),
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda values: st.lists(values, max_size=4) | st.dictionaries(st.text(), values, max_size=4),
    max_leaves=30,
)


class TestDumps:
    """``jsonio.dumps`` writes the bytes of ``json.dumps(doc, indent=2,
    sort_keys=True)`` and a newline."""

    @settings(max_examples=200, derandomize=True, database=None)
    @given(st.dictionaries(st.text(), _JSON_VALUES, max_size=5))
    def test_json_values(self, doc):
        assert jsonio.dumps(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def test_every_encoder_on_seeded_objects(self):
        rng = random.Random(2402)
        objects = []
        for _ in range(40):
            a, b = aeq_pair(rng, max_atoms=4)
            nu = lps_to_nps(a)
            objects += [a, a.measures[0], nu, nps_to_lps(nu), nps_to_popper(nu), equivalence(a, b)]
            objects.append(equivalence(a, random_lps(rng, a.algebra)))
            objects.append(RandomVariable.from_values(a.algebra, [rng.randint(-3, 3) for _ in a.measures[0].mass]))
            x, _ = simeq_pair(rng, max_atoms=4)
            objects.append(x)
        assert {type(obj) for obj in objects} == set(jsonio._ENCODERS)
        for obj in objects:
            assert jsonio.dumps(obj) == json.dumps(jsonio.encode(obj), indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("value", [1.5, None, (1,), {1: "a"}, {"a": [float("nan")]}])
    def test_other_values_are_refused(self, value):
        with pytest.raises(TypeError):
            jsonio.dumps({"value": value} if not isinstance(value, dict) else value)
