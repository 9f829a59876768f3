"""Command-line behavior: exit codes, determinism, and report content."""

import argparse
import json
import time
from fractions import Fraction

import pytest

from genspaces import algebra_of

from extprob import cli, jsonio
from extprob import lps as lps_module
from extprob.cli import main
from extprob.field import EPS, ONE, ZERO
from extprob.lps import LPS, reduce_lps
from extprob.npsbridge import lps_to_nps, nps_to_popper
from extprob.popper import PopperSpace
from extprob.spaces import EVENT_LIMIT, NonstdMeasure, RandomVariable, SpaceAlgebra, StdMeasure

F = Fraction

AB = SpaceAlgebra.discrete(["w1", "w2"])


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(jsonio.dumps(obj) if not isinstance(obj, dict) else
                    json.dumps(obj, indent=2, sort_keys=True))
    return str(path)


@pytest.fixture
def mcgee_file(tmp_path):
    nu = NonstdMeasure.from_values(AB, [F(1, 2) + EPS, F(1, 2) - EPS])
    return write(tmp_path, "mcgee_nu1.json", nu)


@pytest.fixture
def uniform_file(tmp_path):
    nu = NonstdMeasure.from_values(AB, [F(1, 2), F(1, 2)])
    return write(tmp_path, "uniform.json", nu)


class TestConvert:
    def test_slps_to_popper(self, tmp_path, capsys):
        path = write(tmp_path, "slps.json", LPS.from_rows(AB, [(1, 0), (0, 1)]))
        assert main(["convert", "--from", "lps", "--to", "popper", "--in", path]) == 0
        out = capsys.readouterr().out
        doc = json.loads(out[out.index("{"):])
        assert doc["type"] == "popper_space"
        full = doc["conditioning_events"].index([0, 1])
        assert doc["table"][full] == ["1", "0"]

    def test_non_slps_is_negative_verdict(self, tmp_path, capsys):
        path = write(
            tmp_path, "lps.json", LPS.from_rows(AB, [(F(1, 2), F(1, 2)), (1, 0)])
        )
        assert main(["convert", "--from", "lps", "--to", "popper", "--in", path]) == 1
        assert "cannot convert" in capsys.readouterr().out

    def test_nps_round_trip_via_files(self, tmp_path, capsys):
        system = LPS.from_rows(AB, [(F(1, 2), F(1, 2)), (1, 0)])
        path = write(tmp_path, "lps.json", system)
        out_path = str(tmp_path / "nu.json")
        assert main(
            ["convert", "--from", "lps", "--to", "nps", "--in", path, "--out", out_path]
        ) == 0
        _, nu = jsonio.load_path(out_path)
        assert nu == lps_to_nps(system)
        back_path = str(tmp_path / "dec.json")
        assert main(
            ["convert", "--from", "nps", "--to", "lps", "--in", out_path,
             "--out", back_path]
        ) == 0
        _, dec = jsonio.load_path(back_path)
        assert dec.recompose() == nu


class TestCompare:
    def test_aeq_negative_with_witness(self, mcgee_file, uniform_file, capsys):
        code = main(
            ["compare", "--relation", "aeq", "--a", mcgee_file, "--b", uniform_file]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "aeq: inequivalent" in out
        assert "witness x: ['1', '0']" in out
        assert "witness y: ['0', '1']" in out

    def test_simeq_affirmative(self, mcgee_file, uniform_file, capsys):
        code = main(
            ["compare", "--relation", "simeq", "--a", mcgee_file, "--b", uniform_file]
        )
        assert code == 0
        assert "simeq: true" in capsys.readouterr().out

    def test_byte_identical_reports(self, mcgee_file, uniform_file, capsys):
        main(["compare", "--relation", "aeq", "--a", mcgee_file, "--b", uniform_file])
        first = capsys.readouterr().out
        main(["compare", "--relation", "aeq", "--a", mcgee_file, "--b", uniform_file])
        assert capsys.readouterr().out == first


class TestValidate:
    def test_invalid_measure_is_negative(self, tmp_path, capsys):
        doc = jsonio.encode(StdMeasure.from_values(AB, [F(1, 2), F(1, 2)]))
        doc["mass"] = ["1/2", "1/3"]
        path = write(tmp_path, "bad.json", doc)
        assert main(["validate", "--in", path]) == 1
        assert "sum to 5/6" in capsys.readouterr().out

    def test_popper_levels(self, tmp_path, capsys):
        space = nps_to_popper(
            NonstdMeasure.from_values(AB, [ONE - EPS, EPS])
        )
        path = write(tmp_path, "popper.json", space)
        assert main(["validate", "--in", path, "--level", "popper"]) == 0
        assert "valid" in capsys.readouterr().out

    def test_garbage_is_parse_error(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        assert main(["validate", "--in", str(path)]) == 3


class TestExpect:
    def test_exact_field_value(self, mcgee_file, tmp_path, capsys):
        rv = RandomVariable.from_values(AB, [1, -1])
        rv_path = write(tmp_path, "rv.json", rv)
        assert main(["expect", "--measure", mcgee_file, "--rv", rv_path]) == 0
        assert "expectation: 2*eps" in capsys.readouterr().out


class TestIndep:
    def test_event_independence_exit_codes(self, tmp_path):
        algebra = SpaceAlgebra.discrete(["w1", "w2", "w3", "w4"])
        nu = NonstdMeasure.from_values(
            algebra,
            [1 - 2 * EPS + EPS**2, EPS - EPS**2, EPS - EPS**2, EPS**2],
        )
        path = write(tmp_path, "nu.json", nu)
        assert main(
            ["indep", "--measure", path, "--mode", "exact", "--u", "1,3", "--v", "2,3"]
        ) == 0
        assert main(
            ["indep", "--measure", path, "--mode", "approx", "--u", "3", "--v", "1,3"]
        ) == 1


class TestBelieve:
    def test_assumed_reports_level(self, tmp_path, capsys):
        path = write(tmp_path, "lps.json", LPS.from_rows(AB, [(1, 0), (0, 1)]))
        assert main(
            ["believe", "--model", path, "--event", "0", "--kind", "assumed"]
        ) == 0
        out = capsys.readouterr().out
        assert "assumed: true" in out and "level: 0" in out
        assert main(
            ["believe", "--model", path, "--event", "0", "--kind", "certain"]
        ) == 1


class TestReduce:
    def test_reduction_report(self, tmp_path, capsys):
        system = LPS.from_rows(
            AB, [(F(1, 2), F(1, 2)), (F(1, 2), F(1, 2)), (1, 0)]
        )
        path = write(tmp_path, "lps.json", system)
        assert main(["reduce", "--in", path]) == 0
        out = capsys.readouterr().out
        assert "length: 3 -> 2" in out and "certified: equivalent" in out

    def test_one_reduction_per_command(self, tmp_path, monkeypatch, capsys):
        """The certificate is checked against the reduction the command
        made, so the system is reduced once."""
        calls = []

        def counted(system):
            calls.append(len(system))
            return reduce_lps(system)

        monkeypatch.setattr(lps_module, "reduce_lps", counted)
        monkeypatch.setattr(cli, "reduce_lps", counted, raising=False)
        system = LPS.from_rows(
            AB, [(F(1, 2), F(1, 2)), (F(1, 2), F(1, 2)), (1, 0)]
        )
        out_path = tmp_path / "reduced.json"
        path = write(tmp_path, "lps.json", system)
        assert main(["reduce", "--in", path, "--out", str(out_path)]) == 0
        assert calls == [3]
        assert capsys.readouterr().out == (
            f"length: 3 -> 2\ncertified: equivalent\nwrote {out_path}\n"
        )
        assert out_path.read_text() == jsonio.dumps(reduce_lps(system))


class TestWitnessCommand:
    def test_kr_nps_accepted(self, tmp_path, capsys):
        grid = SpaceAlgebra.discrete([(1, 1), (1, 2), (2, 1), (2, 2)])
        px = {1: ONE - EPS, 2: EPS}
        nu = NonstdMeasure.from_values(
            grid, [px[i] * px[j] for (i, j) in grid.worlds]
        )
        target = write(tmp_path, "target.json", nps_to_popper(nu))
        x = write(
            tmp_path,
            "x.json",
            RandomVariable.from_values(grid, [i for (i, _) in grid.worlds]),
        )
        y = write(
            tmp_path,
            "y.json",
            RandomVariable.from_values(grid, [j for (_, j) in grid.worlds]),
        )
        witness = write(
            tmp_path,
            "witness.json",
            {
                "type": "witness",
                "kind": "kr-nps",
                "measure": jsonio.encode_nonstd_measure(nu),
            },
        )
        code = main(
            ["verify-witness", "--kind", "kr-nps", "--target", target,
             "--xs", f"{x},{y}", "--witness", witness]
        )
        assert code == 0
        assert "accepted: true" in capsys.readouterr().out


class TestTreelikePaths:
    def test_validate_and_convert_treelike(self, tmp_path, capsys):
        abc = SpaceAlgebra.discrete(["a", "b", "c"])
        space = PopperSpace.from_rows(
            abc,
            {
                (0, 1, 2): (F(1, 2), F(1, 2), 0),
                (0, 1): (F(1, 2), F(1, 2), 0),
                (2,): (0, 0, 1),
            },
        )
        path = write(tmp_path, "tree.json", space)
        assert main(["validate", "--in", path, "--level", "treelike"]) == 0
        assert main(["validate", "--in", path, "--level", "popper"]) == 1
        capsys.readouterr()
        assert main(
            ["convert", "--from", "treelike", "--to", "lps", "--in", path]
        ) == 0
        out = capsys.readouterr().out
        doc = json.loads(out[out.index("{"):])
        assert doc["measures"] == [["1/2", "1/2", "0"], ["0", "0", "1"]]


class TestIndepVariants:
    def make_grid(self, tmp_path):
        grid = SpaceAlgebra.discrete([(1, 1), (1, 2), (2, 1), (2, 2)])
        px = {1: ONE - EPS, 2: EPS}
        nu = NonstdMeasure.from_values(grid, [px[i] * px[j] for (i, j) in grid.worlds])
        measure = write(tmp_path, "nu.json", nu)
        x = write(
            tmp_path, "x.json",
            RandomVariable.from_values(grid, [i for (i, _) in grid.worlds]),
        )
        y = write(
            tmp_path, "y.json",
            RandomVariable.from_values(grid, [j for (_, j) in grid.worlds]),
        )
        return measure, x, y

    def test_weak_and_set_variants(self, tmp_path, capsys):
        measure, x, y = self.make_grid(tmp_path)
        assert main(
            ["indep", "--measure", measure, "--variant", "weak", "--x", x, "--y", y]
        ) == 0
        assert main(
            ["indep", "--measure", measure, "--variant", "set", "--x", x, "--ys", y]
        ) == 0
        capsys.readouterr()

    def test_missing_flags_usage_error(self, tmp_path):
        measure, x, _ = self.make_grid(tmp_path)
        assert main(["indep", "--measure", measure, "--variant", "weak", "--x", x]) == 2

    def test_set_variant_twelve_by_five(self, tmp_path, capsys):
        """A uniform 12 x 5 grid has independent coordinates; with the mass
        of world (0, 0) times eps they are not."""
        grid = SpaceAlgebra.discrete([(i, j) for i in range(12) for j in range(5)])
        x = write(tmp_path, "x.json", RandomVariable.from_values(grid, [i for i, _ in grid.worlds]))
        y = write(tmp_path, "y.json", RandomVariable.from_values(grid, [j for _, j in grid.worlds]))
        masses = [ONE] * 60
        masses[0] = EPS
        total = sum(masses, ZERO)
        for name, mass, code, verdict in (
            ("uniform.json", [F(1, 60)] * 60, 0, "true"),
            ("tilted.json", [m / total for m in masses], 1, "false"),
        ):
            measure = write(tmp_path, name, NonstdMeasure.from_values(grid, mass))
            start = time.perf_counter()
            assert main(["indep", "--measure", measure, "--variant", "set", "--x", x, "--ys", y]) == code
            assert time.perf_counter() - start < 1.0
            captured = capsys.readouterr()
            assert captured.out == f"approximately independent of set: {verdict}\n"
            assert captured.err == ""


class TestBelievePopper:
    def test_popper_kinds(self, tmp_path, capsys):
        system = LPS.from_rows(AB, [(1, 0), (0, 1)])
        from extprob.popper import slps_to_popper

        path = write(tmp_path, "pop.json", slps_to_popper(system))
        assert main(
            ["believe", "--model", path, "--event", "0", "--kind", "popper-weak"]
        ) == 0
        assert main(
            ["believe", "--model", path, "--event", "0", "--kind", "popper-strong"]
        ) == 1
        capsys.readouterr()


class TestWitnessNegative:
    def test_bbd_r_rejection_exit_code(self, tmp_path, capsys):
        grid = SpaceAlgebra.discrete([(1, 1), (1, 2), (2, 1), (2, 2)])
        point = {(1, 1): F(1), (1, 2): F(0), (2, 1): F(0), (2, 2): F(0)}
        system = LPS.from_rows(
            grid,
            [
                tuple(point[w] for w in grid.worlds),
                tuple(F(1, 4) for _ in grid.worlds),
            ],
        )
        target = write(tmp_path, "target.json", system)
        x = write(
            tmp_path, "x.json",
            RandomVariable.from_values(grid, [i for (i, _) in grid.worlds]),
        )
        y = write(
            tmp_path, "y.json",
            RandomVariable.from_values(grid, [j for (_, j) in grid.worlds]),
        )
        witness = write(
            tmp_path, "w.json",
            {"type": "witness", "kind": "bbd-r", "weights": [["1/2"]]},
        )
        code = main(
            ["verify-witness", "--kind", "bbd-r", "--target", target,
             "--xs", f"{x},{y}", "--witness", witness]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "accepted: false" in out and "caveat" in out


class TestMalformedInput:
    """Malformed input ends with exit 3 and a message, never a traceback."""

    def run_bad(self, argv, capsys):
        start = time.perf_counter()
        assert main(argv) == 3
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        return captured.err

    GRID = SpaceAlgebra.discrete([(1, 1), (1, 2), (2, 1), (2, 2)])

    def witness_args(self, tmp_path, kind, witness, target=None, xs=None):
        """verify-witness argv for ``witness`` against a valid target and
        the two coordinates of the 2 x 2 grid."""
        grid = self.GRID
        if target is None:
            system = LPS.from_rows(grid, [(1, 0, 0, 0), (F(1, 4),) * 4])
            target = system if kind.startswith("bbd") else nps_to_popper(lps_to_nps(system))
        if xs is None:
            xs = [RandomVariable.from_values(grid, [w[c] for w in grid.worlds]) for c in (0, 1)]
        x_paths = [write(tmp_path, f"x{c}.json", x) for c, x in enumerate(xs)]
        return [
            "verify-witness", "--kind", kind, "--target", write(tmp_path, "target.json", target),
            "--xs", ",".join(x_paths),
            "--witness", write(tmp_path, "w.json", {"type": "witness", "kind": kind, **witness}),
        ]

    @pytest.mark.parametrize("kind, witness, message", [
        ("bbd-nps", {"measure": [ZERO] * 4}, "w.json: measures[0]: masses sum to 0, not 1"),
        ("bbd-nps", {"measure": [ONE + EPS, -EPS, ZERO, ZERO]},
         "w.json: measures[0]: negative mass -eps at atom 1"),
        ("kr-nps", {"measure": [ONE * 2, -ONE, ZERO, ZERO]},
         "w.json: measures[0]: negative mass -1 at atom 1"),
        ("kr-seq", {"measures": [(F(1, 4),) * 4, (2, -1, 0, 0)]},
         "w.json: measures[1]: negative mass -1 at atom 1"),
        ("kr-seq", {"measures": [(1, 0)]}, "w.json: measures[0]: built on a different algebra"),
        ("bbd-nps", {"measure": [ONE, ZERO]}, "w.json: measures[0]: built on a different algebra"),
        ("bbd-r", {"weights": [["1/2"], ["2"]]}, "w.json: mixing weight 2 outside (0, 1)"),
        ("kr-seq", {"measures": []}, "w.json: the witness lists no measures"),
        ("bbd-r", {"weights": []}, "w.json: the witness lists no weights"),
    ])
    def test_malformed_witness(self, tmp_path, capsys, kind, witness, message):
        """Witness measures are validated on the target's space, mixing
        weights must lie strictly between 0 and 1, and an empty list is no
        witness."""
        if "measure" in witness:
            masses = witness["measure"]
            space = self.GRID if len(masses) == 4 else AB
            witness = {"measure": jsonio.encode(NonstdMeasure(space, tuple(masses)))}
        elif "measures" in witness:
            witness = {"measures": [
                jsonio.encode(StdMeasure.from_values(self.GRID if len(m) == 4 else AB, m))
                for m in witness["measures"]
            ]}
        err = self.run_bad(self.witness_args(tmp_path, kind, witness), capsys)
        assert err.endswith(message + "\n"), err

    def test_witness_variables_on_another_space(self, tmp_path, capsys):
        xs = [RandomVariable.from_values(AB, [0, 1])]
        argv = self.witness_args(tmp_path, "bbd-r", {"weights": [["1/2"]]}, xs=xs)
        assert self.run_bad(argv, capsys) == "random variables and target use different spaces\n"

    def test_malformed_lps_target(self, tmp_path, capsys):
        target = LPS(self.GRID, (StdMeasure.from_values(self.GRID, [2, -1, 0, 0]),))
        argv = self.witness_args(tmp_path, "bbd-r", {"weights": [[]]}, target=target)
        assert self.run_bad(argv, capsys).endswith(
            "target.json: measures[0]: negative mass -1 at atom 1\n"
        )

    def test_malformed_table_target(self, tmp_path, capsys):
        """A conditional-space target is validated at the cps level."""
        target = PopperSpace.from_rows(self.GRID, {(0, 1, 2, 3): (2, -1, 0, 0)})
        witness = {"measures": [jsonio.encode(StdMeasure.from_values(self.GRID, [F(1, 4)] * 4))]}
        argv = self.witness_args(tmp_path, "kr-seq", witness, target=target)
        assert self.run_bad(argv, capsys).endswith(
            "target.json: conditional given [0, 1, 2, 3]: negative mass -1 at atom 1\n"
        )

    @pytest.mark.parametrize("kind", ["weak", "nps-weak", "popper-weak"])
    def test_believe_checks_its_model(self, tmp_path, capsys, kind):
        """Systems and measures are validated, and conditional spaces at the
        cps level."""
        where = "measures[0]"
        if kind == "weak":
            model = LPS(AB, (StdMeasure.from_values(AB, [2, -1]),))
        elif kind == "nps-weak":
            model = NonstdMeasure(AB, (ONE * 2, -ONE))
        else:
            model = PopperSpace.from_rows(self.GRID, {(0, 1, 2, 3): (2, -1, 0, 0)})
            where = "conditional given [0, 1, 2, 3]"
        path = write(tmp_path, "model.json", model)
        err = self.run_bad(["believe", "--model", path, "--event", "0", "--kind", kind], capsys)
        assert err == f"{path}: {where}: negative mass -1 at atom 1\n"

    def test_popper_independence_checks_its_table(self, tmp_path, capsys):
        """``indep --mode popper`` validates its table at the cps level."""
        model = PopperSpace.from_rows(self.GRID, {(0, 1, 2, 3): (2, -1, 0, 0)})
        path = write(tmp_path, "model.json", model)
        err = self.run_bad(["indep", "--measure", path, "--mode", "popper", "--u", "0", "--v", "1"], capsys)
        assert err == f"{path}: conditional given [0, 1, 2, 3]: negative mass -1 at atom 1\n"

    def test_conditioning_events_not_a_list(self, tmp_path, capsys):
        doc = jsonio.encode(nps_to_popper(NonstdMeasure.from_values(AB, [ONE - EPS, EPS])))
        doc["conditioning_events"] = 5
        path = write(tmp_path, "popper.json", doc)
        assert "wrongly shaped field" in self.run_bad(["validate", "--in", path], capsys)

    def test_worlds_not_a_list(self, tmp_path, capsys):
        doc = jsonio.encode(StdMeasure.from_values(AB, [1, 0]))
        doc["space"]["worlds"] = 3
        path = write(tmp_path, "measure.json", doc)
        assert "wrongly shaped field" in self.run_bad(["validate", "--in", path], capsys)

    def test_believe_event_out_of_range(self, tmp_path, capsys):
        path = write(tmp_path, "lps.json", LPS.from_rows(AB, [(1, 0)]))
        err = self.run_bad(
            ["believe", "--model", path, "--kind", "weak", "--event", "7"], capsys
        )
        assert "atom index 7 out of range" in err

    def test_indep_event_out_of_range(self, tmp_path, capsys):
        path = write(tmp_path, "nu.json", NonstdMeasure.from_values(AB, [ONE - EPS, EPS]))
        err = self.run_bad(
            ["indep", "--measure", path, "--u", "0", "--v", "1", "--given", "0,2"], capsys
        )
        assert "atom index 2 out of range" in err

    def singleton_family(self, tmp_path):
        """A popper_space whose family [[0], [1]] lacks the full event."""
        return write(tmp_path, "p.json", PopperSpace.from_rows(AB, {(0,): (1, 0), (1,): (0, 1)}))

    def test_believe_popper_weak_without_full_event(self, tmp_path, capsys):
        path = self.singleton_family(tmp_path)
        err = self.run_bad(
            ["believe", "--model", path, "--kind", "popper-weak", "--event", "0"], capsys
        )
        assert "[0, 1] is outside the conditioning family" in err

    def test_indep_popper_given_outside_family(self, tmp_path, capsys):
        path = self.singleton_family(tmp_path)
        err = self.run_bad(
            ["indep", "--measure", path, "--mode", "popper",
             "--u", "0", "--v", "0", "--given", "0,1"],
            capsys,
        )
        assert "[0, 1] is outside the conditioning family" in err

    def test_zero_denominator_after_repeated_string(self, tmp_path, capsys):
        doc = jsonio.encode(LPS.from_rows(AB, [(F(1, 2), F(1, 2)), (F(1, 2), F(1, 2))]))
        doc["measures"][1][1] = "1/0"
        path = write(tmp_path, "lps.json", doc)
        err = self.run_bad(["validate", "--in", path], capsys)
        assert err == f"{path}: bad rational '1/0': Fraction(1, 0)\n"

    def test_bad_lps_level_is_named(self, tmp_path, capsys):
        path = write(tmp_path, "lps.json", LPS.from_rows(AB, [(1, 0), (F(1, 2), F(1, 3))]))
        err = self.run_bad(["reduce", "--in", path], capsys)
        assert "measures[1]: masses sum to 5/6, not 1" in err

    def test_exponent_literal_mass(self, tmp_path, capsys):
        doc = jsonio.encode(StdMeasure.from_values(AB, [1, 0]))
        doc["mass"] = ["1e999999999", "0"]
        path = write(tmp_path, "measure.json", doc)
        assert "bad rational" in self.run_bad(["validate", "--in", path], capsys)

    def test_exponent_literal_witness_weight(self, tmp_path, capsys):
        target = write(tmp_path, "lps.json", LPS.from_rows(AB, [(1, 0), (0, 1)]))
        x = write(tmp_path, "x.json", RandomVariable.from_values(AB, [0, 1]))
        witness = write(
            tmp_path, "w.json",
            {"type": "witness", "kind": "bbd-r", "weights": [["1e999999999"]]},
        )
        err = self.run_bad(
            ["verify-witness", "--kind", "bbd-r", "--target", target,
             "--xs", x, "--witness", witness],
            capsys,
        )
        assert "bad rational" in err

    def test_exponent_over_limit(self, tmp_path, capsys):
        doc = jsonio.encode(NonstdMeasure.from_values(AB, [ONE - EPS, EPS]))
        doc["mass"][0] = {"num": [[0, "1"], [10**9, "1"]], "den": [[0, "1"], [1, "1"]]}
        path = write(tmp_path, "nu.json", doc)
        err = self.run_bad(["validate", "--in", path], capsys)
        assert f"exponent {10**9} is above EXPONENT_MAX = {jsonio.EXPONENT_MAX}" in err

    def test_mass_denominators_over_degree_limit(self, tmp_path, capsys):
        """Five masses 1/(1 + a*eps^b + c*eps^100), each exponent within
        the limit: summing them reaches a denominator of degree 500, whose
        gcds take tens of seconds, so the document is refused."""
        doc = jsonio.encode(NonstdMeasure.from_values(algebra_of(5), [ONE] + [0] * 4))
        doc["mass"] = [
            {"num": [[0, "1"]], "den": [[0, "1"], [b, str(a)], [100, str(c)]]}
            for a, b, c in ((3, 73, 2), (5, 16, 8), (8, 61, 7), (4, 13, 8), (1, 50, 7))
        ]
        path = write(tmp_path, "nu.json", doc)
        err = self.run_bad(["validate", "--in", path], capsys)
        assert f"total degree 500, above EXPONENT_MAX = {jsonio.EXPONENT_MAX}" in err

    @staticmethod
    def unreadable_file(tmp_path, kind):
        """A path whose JSON cannot be read: bytes that are not UTF-8,
        nesting far past the decoder's recursion limit, an integer literal
        longer than the interpreter converts, or a directory."""
        path = tmp_path / kind
        if kind == "undecodable":
            path.write_bytes(b"\xff\xfe\x00bad")
        elif kind == "deep":
            path.write_text("[" * 200000 + "]" * 200000)
        elif kind == "long-integer":
            path.write_text("1" * 5000)
        else:
            path.mkdir()
        return str(path)

    @pytest.mark.parametrize("kind", ["undecodable", "deep", "long-integer", "directory"])
    def test_unreadable_document(self, tmp_path, capsys, kind):
        path = self.unreadable_file(tmp_path, kind)
        assert self.run_bad(["validate", "--in", path], capsys).startswith(f"{path}: ")

    @pytest.mark.parametrize("kind", ["undecodable", "deep", "long-integer", "directory"])
    def test_unreadable_witness(self, tmp_path, capsys, kind):
        target = write(tmp_path, "lps.json", LPS.from_rows(AB, [(1, 0), (0, 1)]))
        x = write(tmp_path, "x.json", RandomVariable.from_values(AB, [0, 1]))
        witness = self.unreadable_file(tmp_path, kind)
        err = self.run_bad(
            ["verify-witness", "--kind", "bbd-r", "--target", target,
             "--xs", x, "--witness", witness],
            capsys,
        )
        assert err.startswith(f"{witness}: ")

    @pytest.mark.parametrize("kind", ["missing-directory", "directory"])
    def test_unwritable_out(self, tmp_path, capsys, kind):
        path = write(tmp_path, "lps.json", LPS.from_rows(AB, [(1, 0), (0, 1)]))
        if kind == "directory":
            out, reason = str(tmp_path), "Is a directory"
            argv = ["convert", "--from", "lps", "--to", "popper", "--in", path]
        else:
            out, reason = str(tmp_path / "missing" / "x.json"), "No such file or directory"
            argv = ["reduce", "--in", path]
        assert self.run_bad(argv + ["--out", out], capsys) == f"{out}: {reason}\n"


class TestSizeLimit:
    """A 26-atom table is answered at once or refused by name, never by
    listing 2^25 sub-events."""

    ATOMS = SpaceAlgebra.discrete([f"w{i}" for i in range(26)])

    def test_missing_supersets_over_limit(self, tmp_path, capsys):
        only = PopperSpace.from_rows(self.ATOMS, {(0,): [1] + [0] * 25})
        path = write(tmp_path, "single.json", only)
        start = time.perf_counter()
        assert main(["validate", "--level", "popper", "--in", path]) == 3
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"EVENT_LIMIT = {EVENT_LIMIT}" in captured.err

    def test_valid_nested_table_at_cps_level(self, tmp_path, capsys):
        rows = {
            tuple(range(26)): [F(1, 26)] * 26,
            tuple(range(25)): [F(1, 25)] * 25 + [0],
        }
        path = write(tmp_path, "nested.json", PopperSpace.from_rows(self.ATOMS, rows))
        start = time.perf_counter()
        assert main(["validate", "--level", "cps", "--in", path]) == 0
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().out == "popper_space: valid at level cps\n"


class TestEventLimit:
    """Coarse equivalence on 24 atoms reads only the one- and two-atom
    events; a conversion that lists every event refuses by name."""

    @staticmethod
    def levels(n, *rows):
        return lps_to_nps(LPS.from_rows(SpaceAlgebra.discrete([f"w{i}" for i in range(n)]), rows))

    def compare(self, tmp_path, a, b):
        paths = [write(tmp_path, name, nu) for name, nu in (("a.json", a), ("b.json", b))]
        start = time.perf_counter()
        code = main(["compare", "--relation", "simeq", "--a", paths[0], "--b", paths[1]])
        assert time.perf_counter() - start < 2.0
        return code

    def test_simeq_true_on_24_atoms(self, tmp_path, capsys):
        uniform = self.levels(24, [F(1, 24)] * 24)
        tiebreak = self.levels(24, [F(1, 24)] * 24, [1] + [0] * 23)
        assert self.compare(tmp_path, uniform, tiebreak) == 0
        assert capsys.readouterr().out == "simeq: true\n"

    def test_simeq_false_on_24_atoms(self, tmp_path, capsys):
        uniform = self.levels(24, [F(1, 24)] * 24)
        last_atom_later = self.levels(24, [F(1, 23)] * 23 + [0], [0] * 23 + [1])
        assert self.compare(tmp_path, uniform, last_atom_later) == 1
        assert capsys.readouterr().out == "simeq: false\n"

    def test_convert_to_popper_over_limit(self, tmp_path, capsys):
        path = write(tmp_path, "nu.json", self.levels(26, [F(1, 26)] * 26))
        start = time.perf_counter()
        assert main(["convert", "--from", "nps", "--to", "popper", "--in", path]) == 3
        assert time.perf_counter() - start < 2.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"EVENT_LIMIT = {EVENT_LIMIT}" in captured.err


class TestFixtures:
    def test_needapproximate_lines(self, capsys):
        assert main(["fixtures", "run", "needapproximate"]) == 0
        out = capsys.readouterr().out
        assert "weak_indep: true" in out
        assert "approx_indep_set(Y;[X]): false (1/3 vs 1/2)" in out

    def test_every_fixture_passes(self, capsys):
        from extprob.fixtures import FIXTURES

        for name in sorted(FIXTURES):
            assert main(["fixtures", "run", name]) == 0, name
        capsys.readouterr()

    def test_unknown_fixture(self, capsys):
        assert main(["fixtures", "run", "nope"]) == 3
        capsys.readouterr()


class TestParserReuse:
    """``main`` builds its parser once per process, and a shared parser
    answers every argv as a freshly built one does."""

    SUBCOMMANDS = (
        ["validate"], ["convert"], ["compare"], ["expect"], ["indep"],
        ["verify-witness"], ["believe"], ["reduce"], ["fixtures"],
        ["fixtures", "list"], ["fixtures", "run"],
    )

    def test_one_parser_tree_per_process(self, monkeypatch, capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(parser, *args, **kwargs):
            built.append(parser)
            init(parser, *args, **kwargs)

        cli.build_parser.cache_clear()
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        for _ in range(3):
            assert main(["fixtures", "list"]) == 0
            assert main(["fixtures", "run", "nope"]) == 3
            with pytest.raises(SystemExit):
                main(["validate"])
        one_tree = len(built)
        assert one_tree > 1
        cli.build_parser.__wrapped__()
        assert len(built) == 2 * one_tree
        assert cli.build_parser() is cli.build_parser()
        capsys.readouterr()

    def argv_sequence(self, tmp_path):
        lps = write(tmp_path, "lps.json", LPS.from_rows(AB, [(F(1, 2), F(1, 2)), (1, 0)]))
        measure = write(tmp_path, "nu.json", NonstdMeasure.from_values(AB, [ONE - EPS, EPS]))
        return [
            ["--help"],
            *[[*sub, "--help"] for sub in self.SUBCOMMANDS],
            ["mystery"],
            [],
            ["validate"],
            ["convert", "--from", "lps", "--to", "nps"],
            ["indep", "--measure", measure, "--u", "0"],
            ["indep", "--measure", measure, "--variant", "weak"],
            ["validate", "--in", lps],
            ["convert", "--from", "lps", "--to", "nps", "--in", lps],
            ["indep", "--measure", measure, "--u", "0", "--v", "1"],
            ["believe", "--model", lps, "--kind", "weak", "--event", "0"],
            ["reduce", "--in", lps],
            ["fixtures", "list"],
            ["fixtures", "run", "mcgee"],
            ["fixtures", "run", "nope"],
        ]

    @staticmethod
    def run(argv, capsys):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("exit", exc.code)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_shared_parser_answers_as_a_fresh_one(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        sequence = self.argv_sequence(tmp_path)
        cli.build_parser.cache_clear()
        first = [self.run(argv, capsys) for argv in sequence]
        second = [self.run(argv, capsys) for argv in sequence]
        fresh = []
        for argv in sequence:
            cli.build_parser.cache_clear()
            fresh.append(self.run(argv, capsys))
        assert second == first
        assert fresh == first
        codes = [code for code, _, _ in first]
        assert codes.count(("exit", 0)) == 1 + len(self.SUBCOMMANDS)
        assert codes.count(("exit", 2)) == 4
        assert 2 in codes and 1 in codes and 3 in codes and 0 in codes
        for code, out, err in first:
            if code == ("exit", 0):
                assert out.startswith("usage: extprob") and err == ""
            if code == ("exit", 2):
                assert err.startswith("usage: extprob") and out == ""
