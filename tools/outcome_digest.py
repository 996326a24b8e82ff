"""Digest every solve outcome of the perfbench instance prefixes.

For each seed and workload, solves the first 102 / 84 / 540 instances of
tu-walk / padded-rows / verdicts (perfbench/workloads.build, the counts a
30-second run sized them at) with this checkout's package, and prints the
solve count and two sha256 digests.  The first is over every outcome
field:

- an optimum: its basis, the bytes of x, value, delta, delta_method,
  alpha, retries, and every walk counter: steps, pivots, terms, and the
  accepted, rejected and lazy steps;
- an error: its class and message, its certificate (the delta
  certificate that sized the box, as repr(delta) and method, or null when
  the solve ended before one, as a crossed pair does), and Infeasible's
  iteration and repr(value) or Unbounded's box_row.

The second is over the answers alone: the same fields without retries
and the walk counters (ANSWER_FIELDS).  Two checkouts that print the
same first digests solved every instance alike, bit for bit; the same
second digests, with the answers alike, however the walks went.  Only
perfbench/workloads.py is read from perfbench/.

    python tools/outcome_digest.py --seeds 1 2
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from conewalk import WalkConfig, solve  # noqa: E402
from conewalk.errors import ConewalkError, Infeasible, Unbounded  # noqa: E402

PREFIX = {"tu-walk": 102, "padded-rows": 84, "verdicts": 540}
ANSWER_FIELDS = ("basis", "x", "value", "delta", "delta_method", "alpha",
                 "error", "message", "certificate", "iteration", "box_row")


def outcome(inst: workloads.Instance) -> dict:
    """Every field of one solve's outcome, exact floats as repr or hex."""
    try:
        rep = solve(inst.lp, WalkConfig(seed=inst.solve_seed))
    except ConewalkError as exc:
        cert = exc.certificate
        out = {"error": type(exc).__name__, "message": str(exc),
               "certificate": None if cert is None else {
                   "delta": repr(cert.delta), "method": cert.method.value}}
        if isinstance(exc, Infeasible):
            out.update(iteration=exc.iteration, value=repr(exc.value))
        if isinstance(exc, Unbounded):
            out.update(box_row=exc.box_row)
        return out
    (stats,) = rep.levels
    return {"basis": list(rep.basis), "x": rep.x.tobytes().hex(),
            "value": repr(rep.value), "delta": repr(rep.delta),
            "delta_method": rep.delta_method, "alpha": repr(rep.alpha),
            "steps": stats.steps_taken, "pivots": rep.pivots,
            "retries": rep.retries, "terms": stats.terms,
            "accepted": stats.accepted_moves,
            "rejected": stats.rejected_moves, "lazy": stats.lazy_stays}


def digest(workload: str, seed: int) -> tuple[int, str, str]:
    """The solve count and the sha256 of the workload's prefix outcomes,
    then of their answers."""
    full, answers = hashlib.sha256(), hashlib.sha256()
    pool = workloads.build(workload, seed, PREFIX[workload])
    for inst in pool:
        out = outcome(inst)
        answer = {k: out[k] for k in ANSWER_FIELDS if k in out}
        full.update(json.dumps(out, sort_keys=True).encode() + b"\n")
        answers.update(json.dumps(answer, sort_keys=True).encode() + b"\n")
    return len(pool), full.hexdigest(), answers.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    args = ap.parse_args(argv)
    for seed in args.seeds:
        for workload in PREFIX:
            count, full, answers = digest(workload, seed)
            print(f"seed {seed} {workload:<11} {count:4d} solves "
                  f"sha256 {full} {answers}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
