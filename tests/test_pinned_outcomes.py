"""`solve` on generator instances against recorded outcomes, bit for bit.

``pinned_solve_outcomes.jsonl`` holds one record per instance and solve
seed: the basis, the bytes of x (as hex), the walk's steps, pivots, terms
and retries, or the class of the error raised, with an Infeasible's
phase-1 witness (its iteration and the repr of its value) and an
Unbounded's box row.  Every field must match
exactly, so any change to the arithmetic or the random stream of a solve
shows here.  Regenerate the file only when the walk changes (its random
stream or its weight) or when a change means to alter the arithmetic;
list what moved in CHANGES.md:

    PYTHONPATH=src python tests/test_pinned_outcomes.py
"""
import json
from pathlib import Path

import numpy as np
import pytest

from conewalk.errors import ConewalkError, Infeasible, Unbounded
from conewalk.lp import LinearProgram
from conewalk.oracle import tu_instance_generator
from conewalk.reduction import solve
from conewalk.walk import WalkConfig

from conftest import assert_exact_optimum

PINNED = Path(__file__).with_name("pinned_solve_outcomes.jsonl")
SIZES = ((3, 8), (3, 12), (4, 14), (4, 18), (5, 12))
KINDS = ("box", "interval", "network")
SEEDS = (0, 1)


def _infeasible() -> LinearProgram:
    """network n=3 m=10, plus x_0 >= b_0 + 1 against its row x_0 <= b_0."""
    lp = tu_instance_generator("network", 3, 10, 0)
    return LinearProgram(A=np.vstack([lp.A, -lp.A[0]]),
                         b=np.append(lp.b, -lp.b[0] - 1.0), c=lp.c)


def _unbounded() -> LinearProgram:
    """network n=3 m=10 without its rows that bound x_0 from above."""
    lp = tu_instance_generator("network", 3, 10, 0)
    keep = lp.A[:, 0] <= 0.0
    return LinearProgram(A=lp.A[keep], b=lp.b[keep], c=[1.0, 0.3, 0.2])


def instances() -> dict[str, LinearProgram]:
    """30 generator instances (5 sizes x 3 kinds x generator seeds 0, 1),
    one infeasible and one unbounded program."""
    out = {f"{kind}-n{n}-m{m}-g{g}": tu_instance_generator(kind, n, m, g)
           for n, m in SIZES for kind in KINDS for g in (0, 1)}
    out["infeasible-network-n3"] = _infeasible()
    out["unbounded-network-n3"] = _unbounded()
    return out


def outcome(lp: LinearProgram, seed: int) -> dict:
    try:
        report = solve(lp, WalkConfig(seed=seed))
    except Infeasible as exc:
        return {"error": "Infeasible", "iteration": exc.iteration,
                "value": repr(exc.value)}
    except Unbounded as exc:
        return {"error": "Unbounded", "box_row": exc.box_row}
    except ConewalkError as exc:
        return {"error": type(exc).__name__}
    (stats,) = report.levels
    return {"basis": list(report.basis), "x": report.x.tobytes().hex(),
            "steps": stats.steps_taken, "pivots": report.pivots,
            "terms": stats.terms, "retries": report.retries}


def pinned() -> dict:
    records = [json.loads(line) for line in PINNED.read_text().splitlines()]
    return {(r["instance"], r["seed"]): r["outcome"] for r in records}


PROGRAMS = instances()


def test_pinned_file_covers_every_instance_and_seed():
    assert set(pinned()) == {(name, s) for name in PROGRAMS for s in SEEDS}


@pytest.mark.parametrize("name", PROGRAMS)
@pytest.mark.parametrize("seed", SEEDS)
def test_solve_matches_pinned_outcome(name, seed):
    assert outcome(PROGRAMS[name], seed) == pinned()[(name, seed)]


OPTIMA = [key for key, out in pinned().items() if "basis" in out]


@pytest.mark.parametrize("name, seed", OPTIMA)
def test_pinned_optimum_has_an_exact_certificate(name, seed):
    assert_exact_optimum(PROGRAMS[name], pinned()[(name, seed)]["basis"])


if __name__ == "__main__":
    PINNED.write_text("".join(
        json.dumps({"instance": name, "seed": seed,
                    "outcome": outcome(lp, seed)}, allow_nan=False) + "\n"
        for name, lp in PROGRAMS.items() for seed in SEEDS))
