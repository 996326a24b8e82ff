"""Self-test: seeded wrong answers must raise failed_frac and clear ``correct``.

    python3 perfbench/selftest.py

Solves a few fixed instances of two workloads honestly, then again through a
solve function that corrupts chosen answers (a shifted optimum value, an
infeasible x, a suboptimal x, a flipped verdict), and checks that the benchmark's own answer
check counts each corruption as a failed, wrong solve.  Exits 0 on success.
"""
from __future__ import annotations

import dataclasses
import sys
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (sets the thread cap before numpy loads)


def _corrupting(solve, corrupt):
    """A solve function whose solve number j is passed through corrupt[j]."""
    def solve_fn(j, lp, cfg):
        if j in corrupt:
            return corrupt[j](solve, lp, cfg)
        return solve(lp, cfg)
    return solve_fn


def _shift_value(solve, lp, cfg):
    report = solve(lp, cfg)
    return dataclasses.replace(report, value=report.value + 1e-3)


def _infeasible_x(solve, lp, cfg):
    report = solve(lp, cfg)
    x = report.x + 1e3 * lp.A[0]  # far outside row 0's half-space
    return dataclasses.replace(report, x=x, value=float(lp.c @ x))


def _suboptimal_x(solve, lp, cfg):
    report = solve(lp, cfg)
    x = 0.0 * report.x  # the generators keep the origin strictly inside
    return dataclasses.replace(report, x=x, value=float(lp.c @ x))


def _flip_verdict(solve, lp, cfg):
    from conewalk.errors import Unbounded
    try:
        solve(lp, cfg)
    except Exception as exc:
        raise Unbounded("corrupted verdict") from exc
    raise Unbounded("corrupted verdict")


def _measure(workload, count, solve_fn):
    import workloads
    pool = workloads.build(workload, seed=1, count=count)
    # ref=1.0: the speed reference plays no part in the answer check.
    records = [dict(run._record(solve_fn, j, pool, j), ref=1.0) for j in range(count)]
    run._check(pool, records, {})
    return run._timing_metrics(pool, records), records


def main() -> int:
    run._import_package()
    warnings.simplefilter("ignore")
    from conewalk import solve

    cases = [
        # tu-walk instances 0, 1 and 2 get a value that disagrees with x, an
        # infeasible x, and a feasible but suboptimal x.
        ("tu-walk", 4, {0: _shift_value, 1: _infeasible_x, 2: _suboptimal_x}),
        # verdicts instance 0 is built infeasible; report it unbounded.
        ("verdicts", 4, {0: _flip_verdict}),
    ]
    ok = True
    for workload, count, corrupt in cases:
        honest, honest_recs = _measure(workload, count, run._plain_solve)
        seeded, seeded_recs = _measure(workload, count, _corrupting(solve, corrupt))
        wrong = [k for k, r in enumerate(seeded_recs) if r["wrong"]]
        passed = (all(k in wrong for k in corrupt)
                  and seeded["failed_frac"] >= honest["failed_frac"] + len(corrupt) / count - 1e-12
                  and not any(r["wrong"] for r in honest_recs))
        print(f"{workload}: failed_frac honest={honest['failed_frac']:.3f} "
              f"seeded={seeded['failed_frac']:.3f} wrong solves={wrong} "
              f"-> {'PASS' if passed else 'FAIL'}")
        ok &= passed
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
