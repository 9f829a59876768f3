"""Round-trip fidelity and strictness of the JSON encodings."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from genspaces import algebra_of

from extprob import jsonio
from extprob.field import EPS, ONE
from extprob.lps import LPS, equivalence
from extprob.npsbridge import nps_to_lps
from extprob.popper import PopperSpace, slps_to_popper
from extprob.spaces import NonstdMeasure, RandomVariable, SpaceAlgebra, StdMeasure

from oracles import parse_rational_by_str

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

    def test_equal_masses_share_one_value(self):
        _, doc, _ = next(_documents(["2/4", "1/2", "2/4"]))
        a, b, c = jsonio.parse_document(doc)[1].mass
        assert a is c and a == b == F(1, 2) and type(a) is F

    @pytest.mark.parametrize(
        "row",
        [
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
        ],
    )
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
