"""The command line, `python -m conewalk.cli`: every check of its behaviour.

Most tests call cli.main in process (run_cli): its exit code and stdout,
and nothing on stderr, since every outcome, errors included, is one JSON
record on stdout, which a strict reader (strict_loads) must accept.
TestEntryPoint runs the real entry point in a subprocess, once per path
out of main, and checks that a solve's report and trace do not depend on
PYTHONHASHSEED.
"""
import itertools
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conewalk import cli
from conewalk.cli import load_lp_file, main, write_lp_file
from conewalk.lp import LinearProgram, normalize
from conewalk.reduction import solve
from conewalk.walk import WalkConfig

from conftest import SQRT2, make_square

INSTANCES = Path(__file__).resolve().parent.parent / "instances"


@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "square.json"
    sq = make_square()
    write_lp_file(str(path), LinearProgram(A=sq.A, b=sq.b, c=sq.c),
                  name="unit-square", integral=True, Delta=1)
    return str(path)


@pytest.fixture
def infeasible_file(tmp_path):
    path = tmp_path / "infeasible.json"
    lp = LinearProgram(
        A=[[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
        b=[0.0, -1.0, 1.0, 0.0], c=[1.0, 1.0])
    write_lp_file(str(path), lp, name="empty")
    return str(path)


@pytest.fixture
def unbounded_file(tmp_path):
    path = tmp_path / "unbounded.json"
    lp = LinearProgram(A=[[-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                       b=[0.0, 1.0, 0.0], c=[1.0, 0.0])
    write_lp_file(str(path), lp, name="ray")
    return str(path)


@pytest.fixture
def wide_file(tmp_path):
    """n=4: 8 box rows and 120 seeded Gaussian rows give 124 distinct row
    directions, past the brute-force delta budget (C(124,3)*124 > 10^7)."""
    rng = np.random.default_rng(7)
    A = np.vstack([np.eye(4), -np.eye(4), rng.standard_normal((120, 4))])
    b = np.concatenate([np.ones(8), 1.0 + rng.random(120)])
    path = tmp_path / "wide.json"
    write_lp_file(str(path), LinearProgram(A=A, b=b, c=np.ones(4)),
                  name="wide")
    return str(path)


@pytest.fixture
def crossed_file(tmp_path):
    """n=5: 96 seeded Gaussian rows, past the brute-force delta budget, and
    row 97, the negation of row 1 with its bound crossed by 1/16."""
    rng = np.random.default_rng(7500)
    A = rng.standard_normal((96, 5))
    b = rng.uniform(0.5, 1.0, 96)
    c = rng.standard_normal(5)
    path = tmp_path / "crossed.json"
    write_lp_file(str(path), LinearProgram(
        A=np.vstack([A, -A[0]]), b=np.append(b, -(b[0] + 1.0 / 16.0)), c=c),
        name="crossed")
    return str(path)


@pytest.fixture
def integral_wide_file(tmp_path):
    """n=3: the 578 primitive integer rows of [-4, 4]^3, 289 directions, past
    the brute-force delta budget (C(289,2)*289 > 10^7), with 'Delta' 333,
    Hadamard's bound (48^1.5 < 333).  Rows (-1, 1, 0) and (-1, -1, 0) give
    x1 >= -1 against row (1, 0, 0)'s x1 <= -2: infeasible by phase 1, with
    no crossed pair, since row (-1, 0, 0) only asks x1 >= -10."""
    rows = [v for v in itertools.product(range(-4, 5), repeat=3)
            if math.gcd(*v) == 1]
    b = [float(sum(map(abs, v))) for v in rows]
    for row, rhs in [((1, 0, 0), -2.0), ((-1, 1, 0), 1.0),
                     ((-1, -1, 0), 1.0), ((-1, 0, 0), 10.0)]:
        b[rows.index(row)] = rhs
    path = tmp_path / "integral-wide.json"
    write_lp_file(str(path), LinearProgram(A=rows, b=b, c=[1, 2, 3]),
                  name="integral-wide", integral=True, Delta=333)
    return str(path)


@pytest.fixture
def normalize_calls(monkeypatch):
    """The programs normalize is called on, by solve or by the CLI itself."""
    import conewalk.reduction as reduction_module

    seen = []

    def counting(lp):
        seen.append(lp)
        return normalize(lp)

    monkeypatch.setattr(reduction_module, "normalize", counting)
    monkeypatch.setattr(cli, "normalize", counting)
    return seen


def strict_loads(text: str):
    """json.loads that refuses NaN and Infinity, which json.loads accepts
    but are not JSON."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


def run_cli(capsys, argv):
    """main's exit code and stdout; anything on stderr (a warning, a
    traceback), or a stdout line that strict_loads refuses, fails the
    test."""
    code = main(argv)
    captured = capsys.readouterr()
    assert captured.err == ""
    for line in captured.out.splitlines():
        strict_loads(line)
    return code, captured.out


def assert_one_error_record(capsys, argv, mention):
    """Exit 1 with one JSON error record on stdout and nothing on stderr."""
    code, out = run_cli(capsys, argv)
    assert code == 1
    line, = out.splitlines()
    record = json.loads(line)
    assert record["status"] == "error"
    assert mention in record["error"]


class TestSolveCommand:
    def test_shipped_instance_solves_with_warnings_as_errors(self, capsys):
        # n = 2: the walk warns about nothing the user could act on
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_cli(capsys, [
                "solve", "--input", str(INSTANCES / "unit-square.json")])
        assert code == 0
        assert json.loads(out)["status"] == "optimal"

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "row 2 lies 1e-9 from x <= 1: lp.tightest_rows merges it "
        "(DUPLICATE_TOL) and delta_bruteforce counts that distance as "
        "in-span (SPAN_TOL), so delta 1 sizes a box of radius about 3 "
        "and the optimum at y = 10^9 + 1 reads as box contact"))
    def test_nearly_parallel_far_row_bounds_the_program(self, capsys,
                                                        tmp_path):
        path = tmp_path / "far-row.json"
        write_lp_file(str(path), LinearProgram(
            A=[[1, 0], [1000000000, 1], [-1, 0], [0, -1]],
            b=[1, 1000000001, 0, 0], c=[1, 1]), name="far-row")
        code, out = run_cli(capsys, ["solve", "--input", str(path),
                                     "--seed", "0"])
        report = json.loads(out)
        assert (code, report["status"]) == (0, "optimal"), report
        assert report["value"] == pytest.approx(1e9 + 1, rel=1e-12)

    def test_crossed_rows_past_the_delta_budget_are_infeasible(
            self, capsys, crossed_file):
        # the library's verdict (test_reduction.py::TestCrossedOppositeRows):
        # the pair needs no box, so no delta is certified or reported
        code, out = run_cli(capsys, ["solve", "--input", crossed_file,
                                     "--seed", "0"])
        report = json.loads(out)
        assert (code, report["status"], report.get("witness_iteration")) \
            == (2, "infeasible", 97), report
        assert (report["delta"], report["delta_method"]) == (None, None)

    def test_square(self, capsys, square_file):
        code, out = run_cli(capsys, ["solve", "--input", square_file,
                                     "--seed", "0"])
        assert code == 0
        report = json.loads(out)
        assert report["status"] == "optimal"
        assert report["basis"] == [1, 2]
        assert report["value"] == pytest.approx(np.sqrt(2.0), abs=1e-7)
        # unit rows are network rows: delta 1/n, not the square's exact 1
        assert report["delta"] == pytest.approx(0.5)
        assert report["delta_method"] == "network_rows"
        assert report["walk"]["alpha"] == pytest.approx(64.0)
        assert report["seed"] == 0

    def test_infeasible_exit_code(self, capsys, infeasible_file):
        code, out = run_cli(capsys, ["solve", "--input", infeasible_file])
        assert code == 2
        report = json.loads(out)
        assert report["status"] == "infeasible"
        assert report["witness_iteration"] == 2

    def test_infeasible_witness_value_is_in_the_file_rows_units(
            self, capsys, tmp_path):
        # row 4, 2x <= 1, normalizes to x <= 0.5; its minimum over x >= 0.6
        # is 0.6 for the normalized row and 1.2 for the file's
        raw = {"n": 2, "m": 4, "A": [[-1, 0], [0, 1], [0, -1], [2, 0]],
               "b": [-0.6, 1, 0, 1], "c": [1, 1]}
        path = tmp_path / "scaled-witness.json"
        path.write_text(json.dumps(raw))
        code, out = run_cli(capsys, ["solve", "--input", str(path)])
        report = json.loads(out)
        assert (code, report["witness_iteration"]) == (2, 4), report
        assert report["witness_value"] > raw["b"][3]
        assert report["witness_value"] == pytest.approx(1.2, rel=1e-12)

    def test_unbounded_exit_code(self, capsys, unbounded_file):
        code, out = run_cli(capsys, ["solve", "--input", unbounded_file])
        assert code == 3
        assert json.loads(out)["status"] == "unbounded"

    def test_face_reaching_the_box_is_one_error_record(self, capsys,
                                                       tmp_path):
        # the half-strip x1 <= 1, 0 <= x2 <= 1, max x2 is bounded, but its
        # optimal face x2 = 1 reaches the box: a box row of cone multiplier
        # 0 in the final basis is no unbounded verdict (exit 3)
        path = tmp_path / "half-strip.json"
        write_lp_file(str(path), LinearProgram(
            A=[[1, 0], [0, 1], [0, -1]], b=[1, 1, 0], c=[0, 1]))
        assert_one_error_record(
            capsys, ["solve", "--input", str(path), "--seed", "0"],
            "FaceReachesBox: ")

    def test_byte_identical_reports(self, capsys, square_file):
        argv = ["solve", "--input", square_file, "--seed", "42"]
        _, first = run_cli(capsys, argv)
        _, second = run_cli(capsys, argv)
        assert first == second

    def test_malformed_input(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"n\": 2}")
        code, out = run_cli(capsys, ["solve", "--input", str(bad)])
        assert code == 1
        report = json.loads(out)
        assert report["status"] == "error"
        assert "missing" in report["error"]

    @pytest.mark.parametrize("text", ["5", "true", "null", '"nmAbc"',
                                      '["n", "m", "A", "b", "c"]'])
    def test_non_object_input(self, capsys, tmp_path, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert_one_error_record(capsys, ["solve", "--input", str(bad)],
                                "must hold a JSON object")

    @pytest.mark.parametrize("field, value", [
        ("n", True), ("n", 1.0), ("m", 2.0), ("m", "2"), ("m", None)])
    def test_n_and_m_must_be_json_integers(self, capsys, tmp_path, field,
                                           value):
        # (2, 1) == (2.0, True): a shape check alone would accept these
        raw = {"n": 1, "m": 2, "A": [[1], [-1]], "b": [1, 0], "c": [1],
               field: value}
        path = tmp_path / "sizes.json"
        path.write_text(json.dumps(raw))
        assert_one_error_record(capsys, ["solve", "--input", str(path)],
                                f"{field!r} must be an integer, got {value!r}")

    @pytest.mark.parametrize("value", ["1", "1e0", " 1 ", True, False])
    @pytest.mark.parametrize("field", ["A", "b", "c"])
    def test_array_entries_must_be_json_numbers(self, capsys, tmp_path, field,
                                                value):
        # numpy reads "1", " 1 " and true as 1.0: without the check each of
        # these files solves the unit square and exits 0
        raw = {"n": 2, "m": 4, "A": [[1, 0], [0, 1], [-1, 0], [0, -1]],
               "b": [1, 1, 0, 0], "c": [1, 1]}
        row = raw[field][0] if field == "A" else raw[field]
        row[0] = value
        path = tmp_path / "entries.json"
        path.write_text(json.dumps(raw))
        assert_one_error_record(
            capsys, ["solve", "--input", str(path)],
            f"entries of {field!r} must be JSON numbers, got {value!r}")

    @pytest.mark.parametrize("field", ["A", "b", "c"])
    def test_number_past_the_float_range_is_malformed(self, capsys, tmp_path,
                                                      field):
        raw = {"n": 2, "m": 4, "A": [[1, 0], [0, 1], [-1, 0], [0, -1]],
               "b": [1, 1, 0, 0], "c": [1, 1]}
        row = raw[field][0] if field == "A" else raw[field]
        row[0] = 10**400
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(raw))
        assert_one_error_record(capsys, ["solve", "--input", str(path)],
                                f"{path} has malformed arrays: ")

    def test_box_radius_past_the_float_range(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        write_lp_file(str(path), LinearProgram(
            A=[[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
            b=[1e308, 1.0, 0.0, 0.0], c=[1.0, 1.0]))
        assert_one_error_record(capsys, ["solve", "--input", str(path)],
                                "TooLarge: box radius")

    @pytest.mark.parametrize("argv", [["solve"], ["verify-delta"]])
    def test_normalize_past_the_float_range(self, capsys, tmp_path, argv):
        # the first row's right-hand side scales to 1e302 / 1e-8; --delta
        # auto does not fall back to the integral bound for that
        path = tmp_path / "overflow.json"
        write_lp_file(str(path), LinearProgram(
            A=[[1e-8, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
            b=[1e302, 1.0, 0.0, 0.0], c=[1.0, 1.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_one_error_record(capsys, [*argv, "--input", str(path)],
                                    "TooLarge: scaling to unit norms")

    def test_box_corner_slacks_past_the_float_range(self, capsys, tmp_path):
        # delta = 1e-308 gives a finite radius of 1e308, but phase 1 would
        # overflow on the corner slacks
        path = tmp_path / "huge-1d.json"
        write_lp_file(str(path), LinearProgram(A=[[1.0], [-1.0]],
                                               b=[1.0, 0.0], c=[1.0]),
                      integral=True, Delta=10**154)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_one_error_record(
                capsys, ["solve", "--delta", "bound", "--input", str(path)],
                "TooLarge: box radius")

    def test_one_dimensional_walk_parameters_past_the_float_range(
            self, capsys, tmp_path):
        # delta = 1e-308 at n = 1: the box radius 1e-10 * 1e308 + 1 is
        # finite, the step budget is not; no alpha = inf reaches the JSON
        path = tmp_path / "huge-1d-steps.json"
        write_lp_file(str(path), LinearProgram(A=[[1.0], [-1.0]],
                                               b=[1e-10, 0.0], c=[1.0]),
                      integral=True, Delta=10**154)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_one_error_record(
                capsys, ["solve", "--delta", "bound", "--input", str(path)],
                "TooLarge: step budget")

    @pytest.mark.parametrize("Delta, argv, mention", [
        (10**60, ["solve", "--delta", "bound"], "TooLarge: step budget"),
        (3 * 10**153, ["solve", "--delta", "bound", "--steps", "10"],
         "TooLarge: alpha"),
        (10**200, ["verify-delta", "--method", "bound"],
         "TooLarge: the bound 1/(n * Delta^2)"),
        # 401 digits: Delta itself is past the float range
        (10**400, ["verify-delta", "--method", "bound"],
         "TooLarge: the bound 1/(n * Delta^2)"),
        (10**400, ["solve", "--delta", "bound"],
         "TooLarge: the bound 1/(n * Delta^2)"),
    ], ids=["steps", "alpha", "bound", "bound-401-digits",
            "solve-401-digits"])
    def test_delta_too_small_for_floats(self, capsys, tmp_path, Delta, argv,
                                        mention):
        # delta = 1/(2 Delta^2): delta^3 underflows, 4 n^3 / delta
        # overflows, and 1/(2 * 10^400) is no float
        path = tmp_path / "huge-Delta.json"
        sq = make_square()
        write_lp_file(str(path), LinearProgram(A=sq.A, b=sq.b, c=sq.c),
                      integral=True, Delta=Delta)
        assert_one_error_record(capsys, [*argv, "--input", str(path)],
                                mention)

    def test_unreadable_input(self, capsys, tmp_path):
        code, out = run_cli(capsys, ["solve", "--input",
                                     str(tmp_path / "nope.json")])
        assert code == 1
        assert json.loads(out)["status"] == "error"

    def test_delta_bound_method(self, capsys, square_file):
        code, out = run_cli(capsys, ["solve", "--input", square_file,
                                     "--delta", "bound"])
        assert code == 0
        report = json.loads(out)
        assert report["delta"] == pytest.approx(0.5)
        assert report["delta_method"] == "integer_bound"

    @pytest.mark.parametrize("spec", ["auto", "brute", "bound"])
    def test_certificate_sizes_the_box_without_a_second_brute_force(
            self, capsys, square_file, monkeypatch, spec):
        # the certificate --delta resolves sizes the box as it is: solve
        # certifies nothing again
        import conewalk.phase1 as phase1_module

        def forbidden(lp):
            raise AssertionError("delta certified twice")

        monkeypatch.setattr(phase1_module, "delta_bruteforce", forbidden)
        code, out = run_cli(capsys, ["solve", "--input", square_file,
                                     "--delta", spec])
        assert code == 0
        assert json.loads(out)["status"] == "optimal"

    def test_auto_delta_certifies_the_rows_solve_walks(self, capsys,
                                                       tmp_path):
        # rows 5 and 6 share a direction within DUPLICATE_TOL; solve keeps
        # row 5, a network row, and drops row 6, which is none
        lp = LinearProgram(
            A=[[1, 0], [0, 1], [-1, 0], [0, -1], [1, -1], [1, -1.000000000001]],
            b=[1, 1, 0, 0, 0.5, 5], c=[0.3, 1])
        path = tmp_path / "near-copy.json"
        write_lp_file(str(path), lp, name="near-copy")
        code, out = run_cli(capsys, ["solve", "--input", str(path),
                                     "--seed", "0"])
        report = json.loads(out)
        rep = solve(lp, WalkConfig(seed=0))
        assert code == 0
        assert (report["delta"], report["delta_method"]) == \
            (rep.delta, rep.delta_method) == (0.5, "network_rows")

    def test_over_budget_auto_falls_back_to_the_integral_bound(
            self, capsys, integral_wide_file):
        code, out = run_cli(capsys, ["solve", "--input", integral_wide_file])
        report = json.loads(out)
        assert (code, report["status"], report["witness_iteration"]) == \
            (2, "infeasible", 354), report
        assert (report["delta"], report["delta_method"]) == \
            (1.0 / (3 * 333**2), "integer_bound")

    @pytest.mark.parametrize("fixture, calls", [
        ("square_file", 1), ("crossed_file", 1), ("integral_wide_file", 2)])
    def test_default_solve_normalizes_once(self, capsys, normalize_calls,
                                           request, fixture, calls):
        # solve alone normalizes; a second solve, and a second normalize,
        # only when the brute-force delta is over budget and the integral
        # bound retries
        run_cli(capsys, ["solve", "--input",
                         request.getfixturevalue(fixture)])
        assert len(normalize_calls) == calls

    def test_over_budget_auto_names_only_the_integral_delta_route(
            self, capsys, wide_file):
        code, out = run_cli(capsys, ["solve", "--input", wide_file])
        assert code == 1
        assert json.loads(out) == {
            "status": "error",
            "error": "instance too large for brute-force delta; add "
                     "'integral': true and a 'Delta' field to the instance "
                     "file"}

    def test_trace_file(self, capsys, square_file, tmp_path):
        trace = tmp_path / "trace.jsonl"
        code, out = run_cli(capsys, ["solve", "--input", square_file,
                                     "--seed", "5", "--steps", "40",
                                     "--trace", str(trace)])
        assert code == 0
        report = json.loads(out)
        lines = [ln for ln in trace.read_text().splitlines() if ln]
        assert len(lines) == sum(report["walk"]["steps_per_level"])
        for ln in lines:
            rec = json.loads(ln)
            assert rec["step"] >= 1
            assert len(rec["basis"]) == 2

    def test_unwritable_trace_path_is_one_error_record(self, capsys,
                                                       square_file, tmp_path):
        trace = tmp_path / "no-such-dir" / "t.jsonl"
        assert_one_error_record(
            capsys, ["solve", "--input", square_file, "--trace", str(trace)],
            f"cannot write trace file {trace}")

    @pytest.mark.skipif(not Path("/dev/full").exists(),
                        reason="needs a device whose writes fail")
    def test_failed_trace_write_is_one_error_record(self, capsys):
        # the path opens, but every write to it fails with ENOSPC
        assert_one_error_record(
            capsys, ["solve", "--input", str(INSTANCES / "network-n3.json"),
                     "--seed", "0", "--trace", "/dev/full"],
            "cannot write trace file /dev/full: ")

    def test_trace_positions_index_the_boxed_program(self, capsys, tmp_path):
        # box rows at 0..2n-1, then the kept rows; the program is bounded,
        # so every box row stays slack and no walk basis holds one
        path = INSTANCES / "network-n3.json"
        trace = tmp_path / "trace.jsonl"
        code, _ = run_cli(capsys, ["solve", "--input", str(path), "--seed",
                                   "0", "--trace", str(trace)])
        assert code == 0
        spec = json.loads(path.read_text())
        records = [json.loads(ln) for ln in trace.read_text().splitlines()]
        assert records
        assert all(2 * spec["n"] <= p < 2 * spec["n"] + spec["m"]
                   for r in records for p in r["basis"])

    def test_trace_includes_retried_attempts(self, capsys, square_file,
                                             tmp_path):
        # the step counter restarts with every walk attempt, so the number
        # of step-1 records is the retry count plus one
        trace = tmp_path / "retry_trace.jsonl"
        code, out = run_cli(capsys, ["solve", "--input", square_file,
                                     "--seed", "6", "--trace", str(trace)])
        assert code == 0
        report = json.loads(out)
        records = [json.loads(ln) for ln in trace.read_text().splitlines()
                   if ln]
        restarts = sum(1 for r in records if r["step"] == 1)
        expected = report["walk"]["retries"] + len(
            [s for s in report["walk"]["steps_per_level"] if s > 0])
        assert restarts == expected

    def test_report_self_certifies(self, capsys, square_file):
        # feasibility and cone membership re-check from the report alone
        from conewalk.lp import normalize
        from conewalk.simplex import cone_membership

        _, out = run_cli(capsys, ["solve", "--input", square_file,
                                  "--seed", "9"])
        report = json.loads(out)
        lp, _ = load_lp_file(square_file)
        nlp = normalize(lp)
        x = np.array(report["x"], dtype=float)
        basis = tuple(b - 1 for b in report["basis"])
        assert nlp.is_feasible(x)
        np.testing.assert_allclose(nlp.A[list(basis)] @ x,
                                   nlp.b[list(basis)], atol=1e-9)
        assert cone_membership(nlp, basis, nlp.c).inside

    def test_floats_read_back_as_the_library_doubles(self, capsys,
                                                     tmp_path):
        # at c = [-1, -1] the square's optimum is the origin, which the
        # library returns as [-0.0, -0.0]
        sq = make_square()
        lp = LinearProgram(A=sq.A, b=sq.b, c=[-1.0, -1.0])
        path = tmp_path / "square-min.json"
        write_lp_file(str(path), lp, name="square-min")
        _, out = run_cli(capsys, ["solve", "--input", str(path),
                                  "--seed", "0"])
        report = strict_loads(out)
        want = solve(lp, WalkConfig(seed=0)).x
        assert [type(t) for t in report["x"]] == [float, float]
        assert [math.copysign(1.0, t) for t in report["x"]] == [-1.0, -1.0]
        assert np.array(report["x"]).tobytes() == want.tobytes()
        for value in (report["value"], report["delta"],
                      report["walk"]["alpha"]):
            assert type(value) is float

    def test_x_reads_back_bit_for_bit(self, capsys):
        path = str(INSTANCES / "network-n3.json")
        _, out = run_cli(capsys, ["solve", "--input", path, "--seed", "0"])
        lp, _ = load_lp_file(path)
        assert np.array(strict_loads(out)["x"]).tobytes() == \
            solve(lp, WalkConfig(seed=0)).x.tobytes()

    def test_a_nan_in_the_report_raises_and_prints_nothing(
            self, capsys, monkeypatch, square_file):
        real = cli.solve
        monkeypatch.setattr(cli, "solve", lambda *args, **kwargs: replace(
            real(*args, **kwargs), value=math.nan))
        with pytest.raises(ValueError):
            main(["solve", "--input", square_file])
        assert capsys.readouterr().out == ""


class TestMalformedArguments:
    """Usage errors end in the JSON error record and exit 1, never in
    argparse's exit 2 (which reads as infeasible) or a bare traceback."""

    def assert_usage_error(self, capsys, argv, mention):
        code, out = run_cli(capsys, argv)
        assert code == 1
        report = json.loads(out)
        assert report["status"] == "error"
        assert mention in report["error"]

    @pytest.mark.parametrize("argv,mention", [
        (["solve"], "--input"),
        ([], "command"),
        (["solve", "--input", "x.json", "--seed", "x"], "--seed"),
        (["solve", "--input", "x.json", "--radius", "5"], "--radius"),
        (["solve", "--input", "x.json", "--step-constant", "0"],
         "--step-constant"),
        (["solve", "--input", "x.json", "--max-retries", "3"],
         "--max-retries"),
        (["walk-stats", "--input", "x.json", "--max-retries", "3"],
         "--max-retries"),
        # a number is no certificate: --delta names how to certify one
        (["solve", "--input", "x.json", "--delta", "0.5"], "--delta"),
        (["walk-stats", "--input", "x.json", "--delta", "0.5"], "--delta"),
    ])
    def test_argparse_errors(self, capsys, argv, mention):
        self.assert_usage_error(capsys, argv, mention)

    @pytest.mark.parametrize("flag,value", [
        ("--delta", "0"), ("--delta", "2"), ("--delta", "nan"),
        ("--steps", "-3"), ("--alpha", "0"), ("--alpha", "-5"),
        ("--seed", "-1"),
    ])
    def test_out_of_range_numbers(self, capsys, square_file, flag, value):
        for command in ("solve", "walk-stats"):
            self.assert_usage_error(
                capsys, [command, "--input", square_file, flag, value], flag)

    def test_zero_seeds(self, capsys, square_file):
        self.assert_usage_error(
            capsys, ["walk-stats", "--input", square_file, "--seeds", "0"],
            "--seeds")


class TestVerifyDeltaCommand:
    def test_square_brute(self, capsys, square_file):
        code, out = run_cli(capsys, ["verify-delta", "--input", square_file])
        assert code == 0
        record = json.loads(out)
        assert record["delta"] == pytest.approx(1.0)
        assert record["method"] == "brute_force"
        assert "witness_row" in record

    def test_triangle_brute(self, capsys, tmp_path):
        path = tmp_path / "triangle.json"
        lp = LinearProgram(
            A=[[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]],
            b=[0.0, 0.0, 1.0], c=[0.0, 1.0])
        write_lp_file(str(path), lp, name="triangle")
        code, out = run_cli(capsys, ["verify-delta", "--input", str(path)])
        assert code == 0
        assert json.loads(out)["delta"] == pytest.approx(1.0 / SQRT2, abs=1e-9)

    @pytest.mark.parametrize("name", sorted(
        p.name for p in INSTANCES.glob("*.json")))
    def test_brute_witness_spans_a_hyperplane(self, capsys, name):
        # n - 1 rows, or none at delta 1
        path = INSTANCES / name
        code, out = run_cli(capsys, ["verify-delta", "--input", str(path),
                                     "--method", "brute"])
        assert code == 0
        record = json.loads(out)
        subset = record["witness_subset"]
        assert "witness_row" in record
        assert (len(subset) == json.loads(path.read_text())["n"] - 1
                or (subset == [] and record["delta"] == 1)), record

    def test_brute_over_budget_is_one_error_record(self, capsys, wide_file):
        assert_one_error_record(
            capsys, ["verify-delta", "--input", wide_file, "--method", "brute"],
            "TooLarge: C(124,3)*124 ")

    def test_square_bound(self, capsys, square_file):
        code, out = run_cli(capsys, ["verify-delta", "--input", square_file,
                                     "--method", "bound"])
        assert code == 0
        record = json.loads(out)
        assert record["delta"] == pytest.approx(0.5)
        assert record["Delta"] == 1

    @pytest.mark.parametrize("Delta", ["x", 0, -3, 1.5, True, "2"])
    @pytest.mark.parametrize("argv", [["solve", "--delta", "bound"],
                                      ["verify-delta", "--method", "bound"]])
    def test_bound_rejects_a_malformed_Delta(self, capsys, tmp_path, argv,
                                             Delta):
        path = tmp_path / "square.json"
        record = json.loads((INSTANCES / "unit-square.json").read_text())
        path.write_text(json.dumps({**record, "integral": True,
                                    "Delta": Delta}))
        assert_one_error_record(
            capsys, argv + ["--input", str(path)],
            f"'Delta' must be an integer >= 1, got {Delta!r}")

    @pytest.mark.parametrize("integral", ["no", 1, "true"])
    @pytest.mark.parametrize("argv", [["solve", "--delta", "bound"],
                                      ["verify-delta", "--method", "bound"]])
    def test_bound_needs_integral_to_be_json_true(self, capsys, tmp_path,
                                                  argv, integral):
        path = tmp_path / "square.json"
        record = json.loads((INSTANCES / "unit-square.json").read_text())
        path.write_text(json.dumps({**record, "integral": integral,
                                    "Delta": 1}))
        assert_one_error_record(
            capsys, argv + ["--input", str(path)],
            "add 'integral': true and a 'Delta' field")

    def test_bound_requires_integral_metadata(self, capsys, tmp_path):
        path = tmp_path / "plain.json"
        lp = LinearProgram(A=[[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0],
                              [0.0, -1.0]],
                           b=[1.0, 1.0, 0.0, 0.0], c=[1.0, 1.0])
        write_lp_file(str(path), lp)
        code, out = run_cli(capsys, ["verify-delta", "--input", str(path),
                                     "--method", "bound"])
        assert code == 1
        assert json.loads(out)["status"] == "error"


class TestWalkStatsCommand:
    def test_square_batch(self, capsys, square_file):
        code, out = run_cli(capsys, ["walk-stats", "--input", square_file,
                                     "--seeds", "20"])
        assert code == 0
        stats = json.loads(out)
        inst = stats["instances"][0]
        assert inst["name"] == "unit-square"
        assert inst["seeds"] == 20
        assert inst["success_rate"] >= 0.95
        assert len(inst["per_seed"]) == 20

    def test_single_seed_matches_solve(self, capsys, square_file):
        code, out = run_cli(capsys, ["walk-stats", "--input", square_file,
                                     "--seeds", "1", "--seed", "3"])
        stats = json.loads(out)["instances"][0]
        _, solve_out = run_cli(capsys, ["solve", "--input", square_file,
                                        "--seed", "3"])
        report = json.loads(solve_out)
        assert stats["per_seed"][0]["pivots"] == report["walk"]["pivots"]
        assert stats["per_seed"][0]["retries"] == report["walk"]["retries"]
        assert stats["mean_pivots"] == report["walk"]["pivots"]

    def test_multiple_inputs(self, capsys, square_file, infeasible_file):
        code, out = run_cli(capsys, ["walk-stats",
                                     "--input", square_file,
                                     "--input", infeasible_file,
                                     "--seeds", "2"])
        assert code == 0
        stats = json.loads(out)
        assert len(stats["instances"]) == 2
        assert all(len(i["per_seed"]) == 2 for i in stats["instances"])
        assert stats["instances"][1]["median_pivots"] is None

    def test_delta_certified_once_per_instance(self, capsys, square_file,
                                               infeasible_file,
                                               unbounded_file, monkeypatch):
        # the first seed's solve certifies delta, and its certificate, from
        # the report or the unbounded verdict, sizes the later seeds' boxes;
        # the infeasible file's crossed pair needs none.  Every file has
        # network rows: their structure certifies delta, and the
        # enumeration never runs
        import conewalk.reduction as reduction_module

        calls = {"certify": 0, "brute": 0}

        def counting(name, original):
            def count(lp):
                calls[name] += 1
                return original(lp)
            return count

        monkeypatch.setattr(reduction_module, "certify_delta",
                            counting("certify", reduction_module.certify_delta))
        monkeypatch.setattr(reduction_module, "delta_bruteforce",
                            counting("brute", reduction_module.delta_bruteforce))
        code, out = run_cli(capsys, [
            "walk-stats", "--input", square_file, "--input", infeasible_file,
            "--input", unbounded_file, "--seeds", "3"])
        assert code == 0
        assert [[r["status"] for r in i["per_seed"]]
                for i in json.loads(out)["instances"]] == \
            [["optimal"] * 3, ["infeasible"] * 3, ["unbounded"] * 3]
        assert calls == {"certify": 2, "brute": 0}

    def test_a_failed_seed_passes_its_certificate_on(self, capsys, tmp_path,
                                                     monkeypatch):
        # the rows are no network or interval rows, so delta is brute force;
        # b = 1e308 sends every seed's box radius past the float range
        import conewalk.reduction as reduction_module

        calls = []
        original = reduction_module.delta_bruteforce
        monkeypatch.setattr(reduction_module, "delta_bruteforce",
                            lambda lp: calls.append(lp) or original(lp))
        path = tmp_path / "huge-rhs.json"
        write_lp_file(str(path), LinearProgram(
            A=[[1, 0], [0, 1], [-1, 0], [0, -1], [0.6, 0.8]],
            b=[1e308, 1, 0, 0, 1], c=[1, 1]))
        code, out = run_cli(capsys, ["walk-stats", "--input", str(path),
                                     "--seeds", "3"])
        inst, = json.loads(out)["instances"]
        assert code == 0
        assert all(r["error"].startswith("TooLarge: box radius")
                   for r in inst["per_seed"])
        assert len(calls) == 1

    def test_crossed_rows_past_the_delta_budget_are_infeasible(
            self, capsys, crossed_file):
        code, out = run_cli(capsys, ["walk-stats", "--input", crossed_file,
                                     "--seeds", "2"])
        assert code == 0, out
        inst, = json.loads(out)["instances"]
        assert [r["status"] for r in inst["per_seed"]] == ["infeasible"] * 2

    def test_integral_fallback_runs_once_per_file(self, capsys,
                                                  normalize_calls,
                                                  integral_wide_file):
        # seed 0 solves twice, the brute force over budget and then the
        # integral bound, which solves seed 1 at once
        code, out = run_cli(capsys, ["walk-stats", "--input",
                                     integral_wide_file, "--seeds", "2"])
        assert code == 0
        inst, = json.loads(out)["instances"]
        assert [r["status"] for r in inst["per_seed"]] == ["infeasible"] * 2
        assert len(normalize_calls) == 3

    def test_over_budget_without_Delta_aborts(self, capsys, wide_file,
                                               square_file):
        assert_one_error_record(
            capsys, ["walk-stats", "--input", square_file, "--input",
                     wide_file, "--seeds", "2"],
            "instance too large for brute-force delta")

    def test_failed_seed_is_recorded(self, capsys, square_file, monkeypatch):
        import conewalk.cli as cli_module
        from conewalk.errors import RetriesExhausted

        original = cli_module.solve

        def failing_on_seed_1(lp, cfg, **kwargs):
            if cfg.seed == 1:
                raise RetriesExhausted("3 full-budget walk attempts ended "
                                       "outside the optimal cone")
            return original(lp, cfg, **kwargs)

        monkeypatch.setattr(cli_module, "solve", failing_on_seed_1)
        code, out = run_cli(capsys, ["walk-stats", "--input", square_file,
                                     "--seeds", "3"])
        assert code == 0
        inst = json.loads(out)["instances"][0]
        failed = inst["per_seed"][1]
        assert failed == {"seed": 1, "status": "error",
                          "error": "RetriesExhausted: 3 full-budget walk "
                                   "attempts ended outside the optimal cone",
                          "pivots": None, "retries": None}
        solved = [r for r in inst["per_seed"] if r["status"] == "optimal"]
        assert [r["seed"] for r in solved] == [0, 2]
        assert inst["success_rate"] == pytest.approx(
            sum(r["retries"] == 0 for r in solved) / 3)
        assert inst["mean_pivots"] == pytest.approx(
            np.mean([r["pivots"] for r in solved]))

    def test_cli_error_still_aborts(self, capsys, square_file,
                                    infeasible_file):
        # the infeasible file has no Delta field, so '--delta bound' is unusable
        code, out = run_cli(capsys, ["walk-stats", "--input", square_file,
                                     "--input", infeasible_file,
                                     "--delta", "bound", "--seeds", "2"])
        assert code == 1
        report = json.loads(out)
        assert report["status"] == "error"
        assert "Delta" in report["error"]


SRC = Path(__file__).resolve().parent.parent / "src"


def run_entry_point(argv, tmp_path, **env):
    """python -m conewalk.cli from this checkout's src/, in tmp_path: its
    exit code and stdout.  Nothing may reach stderr, and the last stdout
    line is strict JSON."""
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "conewalk.cli", *map(str, argv)],
        cwd=tmp_path, env={**os.environ, **env, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120)
    assert proc.stderr == ""
    strict_loads(proc.stdout.splitlines()[-1])
    return proc.returncode, proc.stdout


class TestEntryPoint:
    """The real entry point, argparse's exits and sys.exit included: one
    run per path out of main."""

    @pytest.mark.parametrize("argv, code", [
        (["solve", "--input", INSTANCES / "unit-square.json"], 0),
        (["solve", "--input", INSTANCES / "infeasible-strip.json"], 2),
        (["solve", "--input", INSTANCES / "halfplane-ray.json"], 3),
        (["solve"], 1),
        (["verify-delta", "--input", INSTANCES / "network-n3.json",
          "--method", "brute"], 0),
        (["walk-stats", "--input", INSTANCES / "unit-square.json",
          "--seeds", "2"], 0),
    ], ids=["optimal", "infeasible", "unbounded", "usage-error",
            "verify-delta", "walk-stats"])
    def test_exit_code(self, tmp_path, argv, code):
        assert run_entry_point(argv, tmp_path)[0] == code

    def test_string_entry_is_one_error_record(self, tmp_path):
        # numpy reads the string "1" as 1.0
        path = tmp_path / "string-entry.json"
        path.write_text(json.dumps({
            "n": 2, "m": 4, "A": [[1, 0], [0, 1], [-1, 0], [0, -1]],
            "b": ["1", 1, 0, 0], "c": [1, 1]}))
        code, out = run_entry_point(["solve", "--input", path], tmp_path)
        (line,) = out.splitlines()
        assert code == 1
        assert "entries of 'b' must be JSON numbers" in json.loads(line)["error"]

    def test_outcome_is_independent_of_the_hash_seed(self, tmp_path):
        # solve keys dicts by row bytes and basis tuples: an outcome that
        # followed a hash-ordered container's iteration order differs here
        outputs = []
        for hash_seed in ("0", "1"):
            trace = tmp_path / f"trace-{hash_seed}.jsonl"
            code, out = run_entry_point(
                ["solve", "--input", INSTANCES / "network-n3-padded.json",
                 "--seed", "1", "--trace", trace],
                tmp_path, PYTHONHASHSEED=hash_seed)
            assert code == 0
            outputs.append((out, trace.read_bytes()))
        assert outputs[0][1]
        assert outputs[0] == outputs[1]
