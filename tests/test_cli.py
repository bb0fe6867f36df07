import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import slopecalc
from slopecalc import BoundaryData, Slope, amputate, parse_slope
from slopecalc.branched_surface import surface_from_dict
from slopecalc.cli import load_surface, run

from oracles import multicurve_grid, parse_coordinates

SIMPLE_DOC = {
    "sectors": [
        {"id": "A", "cusped_euler": 0, "boundary": False},
        {"id": "B", "cusped_euler": 0, "boundary": False},
        {"id": "C", "cusped_euler": 0, "boundary": False},
    ],
    "branch_curves": [{"out1": "A", "out2": "B", "in": "C"}],
}


@pytest.fixture
def surface_file(tmp_path):
    path = tmp_path / "surf.json"
    path.write_text(json.dumps(SIMPLE_DOC))
    return str(path)


@pytest.fixture
def annuli_file(tmp_path):
    doc = {
        "sectors": [{"id": "A"}],
        "branch_curves": [],
        "vertical_annuli": [
            {"id": "V0", "degree": 0, "boundary_classes": ["essential", "essential"]},
            {"id": "V1", "degree": 1, "boundary_classes": ["essential", "disk-bounding"]},
        ],
    }
    path = tmp_path / "annuli.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestFareyCommand:
    def test_path_text(self, capsys):
        assert run(["farey", "path", "--from", "1/2", "--to", "inf"]) == 0
        assert capsys.readouterr().out == "1/2, 1/1, inf\n"

    def test_path_json_round_trip(self, capsys):
        assert run(["farey", "path", "--from", "1/5", "--to", "inf", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [str(parse_slope(v)) for v in doc["path"]] == doc["path"]
        assert doc["path"] == ["1/5", "1/4", "1/3", "1/2", "1/1", "inf"]

    def test_successor(self, capsys):
        assert run(["farey", "successor", "--of", "2/5"]) == 0
        assert capsys.readouterr().out == "1/2\n"

    def test_mediant_edge_intersection_neighbor(self, capsys):
        assert run(["farey", "mediant", "--a", "1/1", "--b", "inf"]) == 0
        assert run(["farey", "edge", "--a", "1/3", "--b", "2/3"]) == 0
        assert run(["farey", "intersection", "--a", "1/3", "--b", "2/3"]) == 0
        # negative slopes need the = form so argparse does not read them as flags
        assert run(["farey", "neighbor", "--of=-1/2", "--upper=-2/5"]) == 0
        assert capsys.readouterr().out == "2/1\nfalse\n3\n-3/7\n"

    def test_domain_error_exits_one(self, capsys):
        assert run(["farey", "successor", "--of", "inf"]) == 1
        err = capsys.readouterr().err
        assert "error:" in err

    def test_parse_error_exits_two(self, capsys):
        assert run(["farey", "path", "--from", "bogus", "--to", "inf"]) == 2


class TestWeightsCommand:
    def test_solve_positive(self, surface_file, capsys):
        assert run(
            ["weights", "solve", "--input", surface_file, "--max", "2", "--positive"]
        ) == 0
        out = capsys.readouterr().out
        assert "(1, 1, 2)" in out
        assert "1 solution(s)" in out

    def test_solve_json(self, surface_file, capsys):
        assert run(
            ["weights", "solve", "--input", surface_file, "--max", "2", "--format", "json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["count"] == 6
        assert {"A": 1, "B": 1, "C": 2} in doc["solutions"]

    def test_check_and_euler(self, surface_file, tmp_path, capsys):
        good = tmp_path / "w.json"
        good.write_text(json.dumps({"A": 1, "B": 2, "C": 3}))
        assert run(["weights", "check", "--input", surface_file, "--weights", str(good)]) == 0
        assert run(["weights", "euler", "--input", surface_file, "--weights", str(good)]) == 0
        assert capsys.readouterr().out == "valid\n0\n"

    def test_invalid_weights_fail_euler(self, surface_file, tmp_path, capsys):
        bad = tmp_path / "w.json"
        bad.write_text(json.dumps({"A": 1, "B": 1, "C": 1}))
        assert run(["weights", "euler", "--input", surface_file, "--weights", str(bad)]) == 1
        assert "branch equations" in capsys.readouterr().err


class TestSurfaceLoading:
    def test_missing_file(self, capsys):
        assert run(["degree-check", "--input", "/nonexistent.json"]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_unparseable_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run(["degree-check", "--input", str(path)]) == 1
        assert "cannot parse" in capsys.readouterr().err

    def test_dangling_reference_names_violation(self, tmp_path, capsys):
        doc = {"sectors": [{"id": "A"}], "branch_curves": [{"out1": "A", "out2": "A", "in": "Z"}]}
        path = tmp_path / "dangling.json"
        path.write_text(json.dumps(doc))
        assert run(["degree-check", "--input", str(path)]) == 1
        assert "Z" in capsys.readouterr().err

    def test_empty_sector_list_accepted(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"sectors": [], "branch_curves": []}))
        assert not load_surface(str(path)).sectors

    @staticmethod
    def one_line_error(argv, capsys):
        assert run(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        return err

    @pytest.mark.parametrize(
        "doc, message",
        [
            (
                {"vertical_annuli": [
                    {"id": "V", "degree": 0, "boundary_classes": ["essential"] * 2},
                    {"id": "V", "degree": 1, "boundary_classes": ["disk-bounding"] * 2},
                ]},
                "duplicate annulus id 'V'",
            ),
            (
                {"sectors": [{"id": "A"}], "boundary_curves": [{"sector": "Z", "role": "in"}]},
                "boundary curve references unknown sector 'Z'",
            ),
            (
                {
                    "sectors": [{"id": "A"}],
                    "boundary_curves": [{"sector": "A", "role": "sideways"}],
                },
                "unknown incidence role 'sideways'",
            ),
        ],
        ids=["duplicate-annulus", "boundary-curve-sector", "boundary-curve-role"],
    )
    def test_invalid_references_exit_one(self, tmp_path, capsys, doc, message):
        path = tmp_path / "surf.json"
        path.write_text(json.dumps(doc))
        assert message in self.one_line_error(["degree-check", "--input", str(path)], capsys)

    def test_top_level_array_exits_one(self, tmp_path, capsys):
        path = tmp_path / "array.json"
        path.write_text(json.dumps([SIMPLE_DOC]))
        err = self.one_line_error(["degree-check", "--input", str(path)], capsys)
        assert "top level must be an object, got list" in err

    @pytest.mark.parametrize("value", ["false", 0, None])
    def test_boundary_must_be_boolean(self, tmp_path, capsys, value):
        path = tmp_path / "surf.json"
        path.write_text(json.dumps({"sectors": [{"id": "A", "boundary": value}]}))
        err = self.one_line_error(["degree-check", "--input", str(path)], capsys)
        assert "sector 'A' boundary must be true or false" in err

    @pytest.mark.parametrize(
        "doc",
        [
            {"sectors": [{"id": None}]},
            {"sectors": [{"id": 1}], "branch_curves": [{"out1": "1", "out2": "1", "in": "1"}]},
            {"sectors": [{"id": "A"}], "branch_curves": [{"out1": "A", "out2": "A", "in": None}]},
            {"sectors": [{"id": "A"}], "boundary_curves": [{"sector": ["A"], "role": "in"}]},
            {"vertical_annuli": [{"id": 0, "degree": 0, "boundary_classes": ["essential"] * 2}]},
        ],
        ids=["sector-null", "sector-int", "branch-curve", "boundary-curve", "annulus"],
    )
    def test_ids_must_be_strings(self, tmp_path, capsys, doc):
        path = tmp_path / "surf.json"
        path.write_text(json.dumps(doc))
        err = self.one_line_error(["degree-check", "--input", str(path)], capsys)
        assert "must be a string" in err

    @pytest.mark.parametrize(
        "field", ["sectors", "branch_curves", "boundary_curves", "vertical_annuli"]
    )
    def test_arrays_must_be_arrays(self, tmp_path, capsys, field):
        # an empty object used to pass as the empty array
        path = tmp_path / "surf.json"
        path.write_text(json.dumps({field: {}}))
        err = self.one_line_error(["weights", "solve", "--input", str(path), "--max", "0"], capsys)
        assert f"{field} must be an array, got dict" in err

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"sectors": ["A"]}, "sectors entry must be an object, got str"),
            (
                {"sectors": [{"id": "A"}], "branch_curves": [["A", "A", "A"]]},
                "branch_curves entry must be an object, got list",
            ),
            (
                {"sectors": [{"id": "A"}], "boundary_curves": [["A", "in"]]},
                "boundary_curves entry must be an object, got list",
            ),
            ({"vertical_annuli": [7]}, "vertical_annuli entry must be an object, got int"),
            (
                {"sectors": [{"id": "A"}], "boundary_curves": [{"sector": "A"}]},
                "malformed surface document: missing field 'role'",
            ),
        ],
        ids=["sector", "branch-curve", "boundary-curve", "annulus", "missing-role"],
    )
    def test_entries_are_objects_with_named_fields(self, tmp_path, capsys, doc, message):
        path = tmp_path / "surf.json"
        path.write_text(json.dumps(doc))
        assert message in self.one_line_error(["degree-check", "--input", str(path)], capsys)

    @pytest.mark.parametrize(
        "classes, message",
        [
            ({"essential": 1, "disk-bounding": 2}, "boundary_classes must be an array, got dict"),
            (["essential", 1], "annulus 'V' boundary class must be a string, got int"),
        ],
        ids=["object", "integer-class"],
    )
    def test_boundary_classes_are_strings_in_an_array(self, tmp_path, capsys, classes, message):
        annulus = {"id": "V", "degree": 0, "boundary_classes": classes}
        path = tmp_path / "surf.json"
        path.write_text(json.dumps({"vertical_annuli": [annulus]}))
        assert message in self.one_line_error(["degree-check", "--input", str(path)], capsys)

    def test_role_must_be_a_string(self, tmp_path, capsys):
        doc = {"sectors": [{"id": "A"}], "boundary_curves": [{"sector": "A", "role": ["in"]}]}
        path = tmp_path / "surf.json"
        path.write_text(json.dumps(doc))
        err = self.one_line_error(["degree-check", "--input", str(path)], capsys)
        assert "boundary curve role must be a string, got list" in err

    def test_weight_document_must_be_an_object(self, surface_file, tmp_path, capsys):
        path = tmp_path / "w.json"
        path.write_text(json.dumps([{"A": 0, "B": 0, "C": 0}]))
        argv = ["weights", "check", "--input", surface_file, "--weights", str(path)]
        err = self.one_line_error(argv, capsys)
        assert "malformed weight document: top level must be an object, got list" in err

    @pytest.mark.parametrize("count", [1, 3])
    def test_annulus_needs_two_boundary_classes(self, tmp_path, capsys, count):
        annulus = {"id": "V", "degree": 0, "boundary_classes": ["essential"] * count}
        path = tmp_path / "surf.json"
        path.write_text(json.dumps({"vertical_annuli": [annulus]}))
        err = self.one_line_error(["degree-check", "--input", str(path)], capsys)
        assert f"annulus V: needs two boundary classes, got {count}" in err

    @pytest.mark.parametrize("value", [1.9, 1.5, "2", True])
    @pytest.mark.parametrize("field", ["cusped_euler", "degree", "weight"])
    def test_integers_are_not_coerced(self, surface_file, tmp_path, capsys, field, value):
        path = tmp_path / "doc.json"
        if field == "weight":
            path.write_text(json.dumps({"A": value, "B": 1, "C": 2}))
            argv = ["weights", "check", "--input", surface_file, "--weights", str(path)]
        else:
            sector = {"id": "A", "cusped_euler": 0}
            annulus = {"id": "V", "degree": 1, "boundary_classes": ["disk-bounding"] * 2}
            (sector if field == "cusped_euler" else annulus)[field] = value
            path.write_text(json.dumps({"sectors": [sector], "vertical_annuli": [annulus]}))
            argv = ["degree-check", "--input", str(path)]
        assert "must be an integer" in self.one_line_error(argv, capsys)


class TestAmputateCommand:
    def test_json_output_reloadable(self, surface_file, tmp_path, capsys):
        assert run(["amputate", "--input", surface_file, "--sectors", "C", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        reparsed = surface_from_dict(doc)
        expected = amputate(surface_from_dict(SIMPLE_DOC), {"C"})
        assert reparsed == expected

    def test_text_output(self, surface_file, capsys):
        assert run(["amputate", "--input", surface_file, "--sectors", "A,B,C"]) == 0
        out = capsys.readouterr().out
        assert "sectors: (none)" in out

    def test_unknown_sector_exits_one(self, surface_file, capsys):
        assert run(["amputate", "--input", surface_file, "--sectors", "Q"]) == 1


class TestDegreeCheckCommand:
    def test_violations_listed(self, annuli_file, capsys):
        assert run(["degree-check", "--input", annuli_file]) == 0
        out = capsys.readouterr().out
        assert "V1" in out and "V0" not in out

    def test_json(self, annuli_file, capsys):
        assert run(["degree-check", "--input", annuli_file, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["annuli"] == 2
        assert len(doc["violations"]) == 2  # mixed classes + essential at degree 1


class TestSeifertCommand:
    def test_text_report_ends_with_verdict(self, capsys):
        assert run(["seifert", "--triple", "(1/3,1/6,-1/2)", "--kmax", "5"]) == 0
        out = capsys.readouterr().out
        assert out.rstrip().endswith("verdict: torus-bundle candidate")

    def test_json_report_round_trips(self, capsys):
        assert run(
            ["seifert", "--triple", "(1/3,1/6,-1/2)", "--kmax", "2", "--format", "json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "torus-bundle candidate"
        assert parse_slope(doc["limit"]) == Slope(-1, 2)
        assert [parse_slope(r["s_k"]) for r in doc["rows"]][:2] == [
            Slope(-2, 5),
            Slope(-5, 11),
        ]

    def test_infeasible_normalization_exits_one(self, capsys):
        assert run(["seifert", "--triple", "(1/2,1/2,1/2)", "--kmax", "1"]) == 1
        assert "outside (-2, 0)" in capsys.readouterr().err

    def test_fractional_kmax(self, capsys):
        assert run(["seifert", "--triple", "(1/3,1/6,-1/2)", "--kmax", "2/3"]) == 0
        out = capsys.readouterr().out
        assert "   2/3  " in out

    def test_bad_triple_exits_two(self):
        assert run(["seifert", "--triple", "nonsense", "--kmax", "1"]) == 2


class TestMulticurveCommand:
    def test_text(self, capsys):
        assert run(["multicurve", "--boundary", "1,1,1"]) == 0
        assert capsys.readouterr().out == "(1,1,1|0,0,0)\ncount: 1\n"

    def test_json_round_trip(self, capsys):
        assert run(
            ["multicurve", "--boundary", "1,1,1", "--allow-boundary-parallel", "--format", "json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["count"] == 5
        parsed = [parse_coordinates(c) for c in doc["coordinates"]]
        assert parsed == multicurve_grid(BoundaryData(1, 1, 1), True)


class TestContract:
    def test_closed_stdout_exits_without_traceback(self):
        env = dict(os.environ, PYTHONPATH=str(Path(slopecalc.__file__).parents[1]))
        argv = ["multicurve", "--boundary", "30,30,30", "--allow-boundary-parallel"]
        proc = subprocess.Popen(
            [sys.executable, "-m", "slopecalc.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.readline() == b"(0,0,0|30,30,30)\n"
        proc.stdout.close()  # like `| head -1`
        assert proc.wait(timeout=60) != 0
        assert proc.stderr.read() == b""
        proc.stderr.close()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["weights", "solve", "--input", "{two}", "--max", "100000"],
                "error: more than 100000 solutions with weights up to 100000\n",
            ),
            (
                ["seifert", "--triple", "(1/3,1/5,-1/2)", "--kmax", "1e7"],
                "error: k_max 10000000 needs 10000001 rows, more than 10000\n",
            ),
        ],
        ids=["weights", "seifert"],
    )
    def test_output_caps_exit_one_without_traceback(self, argv, message, tmp_path):
        # two unconstrained sectors ask for 10^10 weight solutions; 1e7 asks
        # for 10^7 Seifert rows: both stop at a cap instead of running on
        two = tmp_path / "two.json"
        two.write_text(json.dumps({"sectors": [{"id": "A"}, {"id": "B"}]}))
        env = dict(os.environ, PYTHONPATH=str(Path(slopecalc.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "slopecalc.cli", *(a.format(two=two) for a in argv)],
            capture_output=True, text=True, env=env, timeout=30,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", message)

    def test_positive_search_with_a_forced_zero_sector_ends_at_once(self, tmp_path):
        # the curve (A, B, A) forces B = 0, so no positive weight exists at any
        # --max; the search used to run every value of A first
        path = tmp_path / "aba.json"
        path.write_text(json.dumps({
            "sectors": [{"id": "A"}, {"id": "B"}],
            "branch_curves": [{"out1": "A", "out2": "B", "in": "A"}],
        }))
        env = dict(os.environ, PYTHONPATH=str(Path(slopecalc.__file__).parents[1]))
        argv = ["weights", "solve", "--input", str(path), "--positive", "--max", str(10**12)]
        proc = subprocess.run(
            [sys.executable, "-m", "slopecalc.cli", *argv],
            capture_output=True, text=True, env=env, timeout=10,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            0, "sectors: A, B\n0 solution(s)\n", ""
        )

    def test_tight_multicurve_is_closed_form(self):
        # one coordinate vector at any size; the grid search it replaced grew as k**3
        env = dict(os.environ, PYTHONPATH=str(Path(slopecalc.__file__).parents[1]))
        argv = ["multicurve", "--boundary", "999999,1000000,1000001"]
        proc = subprocess.run(
            [sys.executable, "-m", "slopecalc.cli", *argv],
            capture_output=True, text=True, env=env, timeout=10,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            0, "(999998,1000000,1000002|0,0,0)\ncount: 1\n", ""
        )

    def test_unknown_flag_exits_two(self):
        assert run(["farey", "path", "--from", "1/2", "--to", "inf", "--bogus"]) == 2

    def test_unknown_subcommand_exits_two(self):
        assert run(["frobnicate"]) == 2

    def test_help_exits_zero(self):
        assert run(["--help"]) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["farey", "path", "--from", "1/2", "--to", "inf"],
            ["seifert", "--triple", "(1/3,1/6,-1/2)", "--kmax", "3", "--format", "json"],
            ["multicurve", "--boundary", "2,3,4", "--allow-boundary-parallel"],
        ],
    )
    def test_byte_identical_reruns(self, argv, capsys):
        assert run(argv) == 0
        first = capsys.readouterr()
        assert run(argv) == 0
        second = capsys.readouterr()
        assert first.out == second.out
        assert first.err == second.err


CHAIN_DOC = {
    "sectors": [
        {"id": "A", "cusped_euler": -1},
        {"id": "B"},
        {"id": "C", "cusped_euler": 1},
        {"id": "D", "boundary": True},
    ],
    "branch_curves": [
        {"out1": "A", "out2": "B", "in": "C"},
        {"out1": "C", "out2": "A", "in": "D"},
    ],
    "vertical_annuli": [
        {"id": "V0", "degree": 0, "boundary_classes": ["essential", "essential"]},
        {"id": "V1", "degree": 1, "boundary_classes": ["disk-bounding", "disk-bounding"]},
    ],
}

GOLDEN_FILES = {
    "simple.json": SIMPLE_DOC,
    "chain.json": CHAIN_DOC,
    "annuli.json": {
        "sectors": [{"id": "A"}],
        "branch_curves": [],
        "vertical_annuli": [
            {"id": "V0", "degree": 0, "boundary_classes": ["essential", "essential"]},
            {"id": "V1", "degree": 1, "boundary_classes": ["essential", "disk-bounding"]},
            {"id": "V2", "degree": 2, "boundary_classes": ["disk-bounding", "disk-bounding"]},
        ],
    },
    "valid.json": {"A": 1, "B": 1, "C": 2, "D": 3},
    "invalid.json": {"A": 1, "B": 1, "C": 1, "D": 1},
}

WORKED_ROWS = [
    {"k": "0", "k1": 1, "k2": 0, "s_k": "-2/5", "determinant": 1, "edge": True, "coprime": True},
    {"k": "1/3", "k1": 3, "k2": 1, "s_k": "-5/11", "determinant": 1, "edge": True, "coprime": True},
]
CASE2_ROWS = [
    {"k": "0", "k1": 0, "k2": 0, "s_k": "-1/1", "determinant": -1, "edge": False, "coprime": True},
    {"k": "1/2", "k1": 1, "k2": 1, "s_k": "-1/1", "determinant": -3, "edge": False, "coprime": False},
]
EMPTY_FAMILY_NOTE = "no admissible (k1, k2) pairs: gcd(a1, a2) does not divide a2' - a1'"

# Every subcommand form: argv (file names resolve in the golden directory),
# the exact text stdout, and the document that --format json prints as
# json.dumps(doc, indent=2, sort_keys=True).
GOLDEN = [
    pytest.param(
        ["farey", "path", "--from", "1/5", "--to", "inf"],
        "1/5, 1/4, 1/3, 1/2, 1/1, inf\n",
        {"from": "1/5", "to": "inf", "path": ["1/5", "1/4", "1/3", "1/2", "1/1", "inf"]},
        id="farey-path",
    ),
    pytest.param(
        ["farey", "path", "--from=-3/7", "--to", "1/2"],
        "-3/7, -2/5, -1/3, 0/1, 1/2\n",
        {"from": "-3/7", "to": "1/2", "path": ["-3/7", "-2/5", "-1/3", "0/1", "1/2"]},
        id="farey-path-negative",
    ),
    pytest.param(
        ["farey", "successor", "--of", "2/5"],
        "1/2\n",
        {"of": "2/5", "successor": "1/2"},
        id="farey-successor",
    ),
    pytest.param(
        ["farey", "mediant", "--a", "1/1", "--b", "inf"],
        "2/1\n",
        {"a": "1/1", "b": "inf", "mediant": "2/1"},
        id="farey-mediant",
    ),
    pytest.param(
        ["farey", "edge", "--a", "1/3", "--b", "1/2"],
        "true\n",
        {"a": "1/3", "b": "1/2", "edge": True},
        id="farey-edge-true",
    ),
    pytest.param(
        ["farey", "edge", "--a", "1/3", "--b", "2/3"],
        "false\n",
        {"a": "1/3", "b": "2/3", "edge": False},
        id="farey-edge-false",
    ),
    pytest.param(
        ["farey", "intersection", "--a", "1/3", "--b", "2/3"],
        "3\n",
        {"a": "1/3", "b": "2/3", "intersection": 3},
        id="farey-intersection",
    ),
    pytest.param(
        ["farey", "neighbor", "--of=-1/2", "--upper=-2/5"],
        "-3/7\n",
        {"of": "-1/2", "upper": "-2/5", "neighbor": "-3/7"},
        id="farey-neighbor",
    ),
    pytest.param(
        ["weights", "solve", "--input", "simple.json", "--max", "1"],
        "sectors: A, B, C\n(0, 0, 0)\n(0, 1, 1)\n(1, 0, 1)\n3 solution(s)\n",
        {
            "sectors": ["A", "B", "C"],
            "solutions": [
                {"A": 0, "B": 0, "C": 0},
                {"A": 0, "B": 1, "C": 1},
                {"A": 1, "B": 0, "C": 1},
            ],
            "count": 3,
        },
        id="weights-solve",
    ),
    pytest.param(
        ["weights", "solve", "--input", "chain.json", "--max", "3", "--positive"],
        "sectors: A, B, C, D\n(1, 1, 2, 3)\n1 solution(s)\n",
        {
            "sectors": ["A", "B", "C", "D"],
            "solutions": [{"A": 1, "B": 1, "C": 2, "D": 3}],
            "count": 1,
        },
        id="weights-solve-positive",
    ),
    pytest.param(
        ["weights", "solve", "--input", "chain.json", "--max", "1", "--positive"],
        "sectors: A, B, C, D\n0 solution(s)\n",
        {"sectors": ["A", "B", "C", "D"], "solutions": [], "count": 0},
        id="weights-solve-none",
    ),
    pytest.param(
        ["weights", "check", "--input", "chain.json", "--weights", "valid.json"],
        "valid\n",
        {"valid": True},
        id="weights-check-valid",
    ),
    pytest.param(
        ["weights", "check", "--input", "chain.json", "--weights", "invalid.json"],
        "invalid\n",
        {"valid": False},
        id="weights-check-invalid",
    ),
    pytest.param(
        ["weights", "euler", "--input", "chain.json", "--weights", "valid.json"],
        "1\n",
        {"carried_euler": 1},
        id="weights-euler",
    ),
    pytest.param(
        ["amputate", "--input", "chain.json", "--sectors", "B"],
        "sectors: A, C, D\nbranch curves: (C,A->D)\nboundary curves: A:out1, C:in\n",
        {
            "sectors": [
                {"id": "A", "cusped_euler": -1, "boundary": True},
                {"id": "C", "cusped_euler": 1, "boundary": True},
                {"id": "D", "cusped_euler": 0, "boundary": True},
            ],
            "branch_curves": [{"out1": "C", "out2": "A", "in": "D"}],
            "boundary_curves": [{"sector": "A", "role": "out1"}, {"sector": "C", "role": "in"}],
            "vertical_annuli": CHAIN_DOC["vertical_annuli"],
        },
        id="amputate",
    ),
    pytest.param(
        ["amputate", "--input", "simple.json", "--sectors", "A,B,C"],
        "sectors: (none)\nbranch curves: (none)\nboundary curves: (none)\n",
        {"sectors": [], "branch_curves": []},
        id="amputate-to-none",
    ),
    pytest.param(
        ["degree-check", "--input", "annuli.json"],
        "annulus V1: mixed boundary classes (essential, disk-bounding)\n"
        "annulus V1: degree 1 with an essential boundary\n"
        "annulus V2: degree 2 outside the 0/1 dichotomy\n",
        {
            "annuli": 3,
            "violations": [
                "annulus V1: mixed boundary classes (essential, disk-bounding)",
                "annulus V1: degree 1 with an essential boundary",
                "annulus V2: degree 2 outside the 0/1 dichotomy",
            ],
        },
        id="degree-check",
    ),
    pytest.param(
        ["degree-check", "--input", "chain.json"],
        "no violations\n",
        {"annuli": 2, "violations": []},
        id="degree-check-clean",
    ),
    pytest.param(
        ["seifert", "--triple", "(1/3,1/6,-1/2)", "--kmax", "1/3"],
        "triple: (1/3, 1/6, -1/2)\n"
        "normalized: (1/3, 1/6, -1/2)\n"
        "euler number: 0\n"
        "torus bundle: yes\n"
        "limit slope: -1/2\n"
        "duals: 1/2, 1/5\n"
        "r1=1 r2=0 step=1/3\n"
        "     k    k1    k2         s_k     det  edge  coprime\n"
        "     0     1     0        -2/5       1  yes   yes\n"
        "   1/3     3     1       -5/11       1  yes   yes\n"
        "verdict: torus-bundle candidate\n",
        {
            "triple": "(1/3, 1/6, -1/2)",
            "normalized": "(1/3, 1/6, -1/2)",
            "euler": "0",
            "torus_bundle": True,
            "limit": "-1/2",
            "duals": ["1/2", "1/5"],
            "r1": 1,
            "r2": 0,
            "step": "1/3",
            "rows": WORKED_ROWS,
            "verdict": "torus-bundle candidate",
        },
        id="seifert",
    ),
    pytest.param(
        ["seifert", "--triple", "(1/2,1/2,-1/2)", "--kmax", "1/2"],
        "triple: (1/2, 1/2, -1/2)\n"
        "normalized: (1/2, 1/2, -1/2)\n"
        "euler number: 1/2\n"
        "torus bundle: no\n"
        "limit slope: -1/1\n"
        "duals: 1/1, 1/1\n"
        "r1=0 r2=0 step=1/2\n"
        "     k    k1    k2         s_k     det  edge  coprime\n"
        "     0     0     0        -1/1      -1  no    yes\n"
        "   1/2     1     1        -1/1      -3  no    no\n"
        "note: Case-2 assumption violated (zero-twisting torus exists)\n"
        "verdict: GCS finite\n",
        {
            "triple": "(1/2, 1/2, -1/2)",
            "normalized": "(1/2, 1/2, -1/2)",
            "euler": "1/2",
            "torus_bundle": False,
            "limit": "-1/1",
            "duals": ["1/1", "1/1"],
            "r1": 0,
            "r2": 0,
            "step": "1/2",
            "rows": CASE2_ROWS,
            "note": "Case-2 assumption violated (zero-twisting torus exists)",
            "verdict": "GCS finite",
        },
        id="seifert-note",
    ),
    pytest.param(
        ["seifert", "--triple", "(1/3,2/3,-1/2)", "--kmax", "5"],
        "triple: (1/3, 2/3, -1/2)\n"
        "normalized: (1/3, 2/3, -1/2)\n"
        "euler number: 1/2\n"
        "torus bundle: no\n"
        "limit slope: -1/1\n"
        f"note: {EMPTY_FAMILY_NOTE}\n"
        "verdict: GCS finite\n",
        {
            "triple": "(1/3, 2/3, -1/2)",
            "normalized": "(1/3, 2/3, -1/2)",
            "euler": "1/2",
            "torus_bundle": False,
            "limit": "-1/1",
            "rows": [],
            "note": EMPTY_FAMILY_NOTE,
            "verdict": "GCS finite",
        },
        id="seifert-empty-family",
    ),
    pytest.param(
        ["multicurve", "--boundary", "1,1,1", "--allow-boundary-parallel"],
        "(0,0,0|1,1,1)\n(0,0,2|1,0,0)\n(0,2,0|0,1,0)\n(1,1,1|0,0,0)\n(2,0,0|0,0,1)\ncount: 5\n",
        {
            "boundary": "1,1,1",
            "allow_boundary_parallel": True,
            "coordinates": [
                "(0,0,0|1,1,1)",
                "(0,0,2|1,0,0)",
                "(0,2,0|0,1,0)",
                "(1,1,1|0,0,0)",
                "(2,0,0|0,0,1)",
            ],
            "count": 5,
        },
        id="multicurve",
    ),
    pytest.param(
        ["multicurve", "--boundary", "1,0,0"],
        "count: 0\n",
        {"boundary": "1,0,0", "allow_boundary_parallel": False, "coordinates": [], "count": 0},
        id="multicurve-none",
    ),
]


@pytest.fixture
def golden_dir(tmp_path):
    for name, doc in GOLDEN_FILES.items():
        (tmp_path / name).write_text(json.dumps(doc))
    return tmp_path


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv, text, doc", GOLDEN)
def test_golden_stdout(golden_dir, capsys, argv, text, doc, fmt):
    argv = [str(golden_dir / a) if a.endswith(".json") else a for a in argv]
    assert run(argv + ["--format", fmt]) == 0
    expected = text if fmt == "text" else json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert capsys.readouterr() == (expected, "")
