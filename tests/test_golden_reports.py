"""`conewalk solve` on the shipped instances against recorded reports.

``golden_solve_reports.jsonl`` holds one record per instance file and seed:
the exit code and the report.  Counts, bases, statuses and the delta method
must match exactly; every other number within 1e-12 relative.  Regenerate
the file only when the random stream changes, and say so in CHANGES.md:

    PYTHONPATH=src python tests/test_golden_reports.py
"""
import contextlib
import io
import json
import math
import warnings
from pathlib import Path

import pytest

from conewalk import jsonio
from conewalk.cli import main

INSTANCES = Path(__file__).resolve().parent.parent / "instances"
GOLDEN = Path(__file__).with_name("golden_solve_reports.jsonl")
NAMES = ("halfplane-ray.json", "infeasible-strip.json", "network-n3.json",
         "unit-square.json")
SEEDS = (0, 1, 2)
EXACT = {"status", "basis", "steps_per_level", "pivots", "retries",
         "box_row", "witness_iteration", "delta_method"}
RTOL = 1e-12


def fresh_record(name: str, seed: int) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(["solve", "--input", str(INSTANCES / name),
                     "--seed", str(seed)])
    return {"instance": name, "seed": seed, "exit": code,
            "report": json.loads(out.getvalue())}


def golden_records() -> dict:
    records = [json.loads(line) for line in GOLDEN.read_text().splitlines()]
    return {(r["instance"], r["seed"]): r for r in records}


def assert_matches(fresh, golden, path: str = "record", exact=False) -> None:
    if isinstance(golden, dict):
        assert fresh.keys() == golden.keys(), path
        for k in golden:
            assert_matches(fresh[k], golden[k], f"{path}.{k}", exact or k in EXACT)
    elif exact:
        assert fresh == golden, path
    elif isinstance(golden, list):
        assert len(fresh) == len(golden), path
        for f, g in zip(fresh, golden):
            assert_matches(f, g, path)
    elif isinstance(golden, float) or isinstance(fresh, float):
        assert math.isclose(fresh, golden, rel_tol=RTOL, abs_tol=0.0), path
    else:
        assert fresh == golden, path


def test_golden_file_covers_every_instance_and_seed():
    assert set(golden_records()) == {(n, s) for n in NAMES for s in SEEDS}


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("seed", SEEDS)
def test_solve_matches_golden_report(name, seed):
    assert_matches(fresh_record(name, seed), golden_records()[(name, seed)])


if __name__ == "__main__":
    GOLDEN.write_text("".join(jsonio.json_line(fresh_record(name, seed))
                              for name in NAMES for seed in SEEDS))
