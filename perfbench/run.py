"""Seeded closed-loop benchmark of ``conewalk.solve``.

    python3 perfbench/run.py --workload tu-walk --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/`` next to
this directory.  One process and one thread send back-to-back solves (a
closed loop with one client) of the workload's seeded instances, check every
answer against the brute-force oracle or against how the instance was built,
and print a summary followed, on the last line, by one JSON object with the
keys correct, attempted, failed and metrics.

A run solves a fixed number of instances: ``--seconds`` times the workload's
rate at the nominal reference speed (``NOMINAL_RATE``), so it takes about
``--seconds`` on a machine at that speed.  The instances, and so ``attempted``
and which solves fail, depend only on the workload, ``--seed`` and
``--seconds``; a time limit would let the host's speed decide them.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` solves half as
many instances, each twice, back to back: once with every layer wrapped
(perfbench/tracing.py) and once untraced.  It reports the per-layer metrics
and the tracing overhead, and writes the spans to ``.perfbench/``.
``--workload all`` runs each workload in its own child process.
"""
from __future__ import annotations

import os

# Cap the BLAS pools before numpy loads: numpy ships a threaded OpenBLAS, and
# threads would compete with the single-client loop on a small machine.
THREAD_CAP = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREAD_CAP)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("tu-walk", "padded-rows", "verdicts")
# Solves per second at the nominal reference speed (reference.NOMINAL_S),
# averaged over seeds; a run solves round(seconds * rate) instances.
NOMINAL_RATE = {"tu-walk": 3.4, "padded-rows": 2.8, "verdicts": 18.0}
SETUP_REPEATS = 9     # set-up is repeated and its median reported
CHILD_TIMEOUT_S = 175

END_TO_END = ("solve_s.p50", "solved_frac", "peak_rss_mb", "setup_s")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _import_package():
    """Import conewalk from this checkout; returns the import time in seconds.

    numpy and scipy.linalg, which conewalk imports, are loaded before the
    clock starts: their load time belongs to the environment, and it swings
    with the host's file cache far more than anything the package does.
    """
    if not (SRC / "conewalk" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {SRC / 'conewalk'}")
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import conewalk
    elapsed = perf_counter() - t0
    if Path(conewalk.__file__).resolve().parent != SRC / "conewalk":
        raise SystemExit(f"perfbench: imported conewalk from {conewalk.__file__}")
    return elapsed


def _environment() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "thread_cap": THREAD_CAP}


def _record(solve_fn, j, pool, i) -> dict:
    """Solve pool[i] as solve number j; time it and classify the outcome.

    outcome is "optimum", "infeasible", "unbounded" or "error"; detail is the
    SolveReport of an optimum or the text of the error.
    """
    from conewalk import WalkConfig
    from conewalk.errors import Infeasible, Unbounded
    inst = pool[i]
    cfg = WalkConfig(seed=inst.solve_seed)
    rec = {"i": i, "outcome": "optimum", "x": None, "value": None, "detail": None}
    t0 = perf_counter()
    try:
        report = solve_fn(j, inst.lp, cfg)
    except Infeasible:
        rec["outcome"] = "infeasible"
    except Unbounded:
        rec["outcome"] = "unbounded"
    except Exception as exc:  # every other exception is a failed solve
        rec["outcome"], rec["detail"] = "error", f"{type(exc).__name__}: {exc}"
    else:
        rec["x"], rec["value"], rec["detail"] = report.x, report.value, report
    rec["s"] = perf_counter() - t0
    return rec


def solve_count(workload, seconds, trace):
    """Instances one run solves: about ``seconds`` of work at nominal speed.

    A traced run solves each instance twice, so it takes half as many.
    """
    count = round(seconds * NOMINAL_RATE[workload] / (2 if trace else 1))
    return max(1, count)


def _run(pool, clock, *solve_fns):
    """Closed loop through the pool, once, from first to last.

    Each pool entry is solved by every one of ``solve_fns`` in turn, back to
    back, so slow drift of the machine hits them alike.  Every record also
    holds the reference time measured just before (``ref``).  Returns one
    record list per function.
    """
    runs = [[] for _ in solve_fns]
    for j in range(len(pool)):
        ref = clock.local()
        for solve_fn, records in zip(solve_fns, runs):
            records.append(dict(_record(solve_fn, j, pool, j), ref=ref))
    return runs


def _check(pool, records, optima):
    """Mark each record ok or not against the oracle or the expected verdict.

    Runs after the timed loop, so oracle work stays out of every metric;
    ``optima`` caches the oracle's optimum of each pool entry.
    """
    import workloads
    for r in records:
        inst = pool[r["i"]]
        if r["outcome"] == "error":
            r["ok"], r["wrong"] = False, False
            continue
        if r["i"] not in optima:
            optima[r["i"]] = workloads.oracle_optimum(inst)
        r["ok"] = workloads.answer_matches(inst, r["outcome"], r["x"],
                                           r["value"], optima[r["i"]])
        r["wrong"] = not r["ok"]


def _quantile(values, q):
    """Nearest-rank quantile; failures enter as +inf."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _stratified_p50(pool, records, time_of):
    """Geometric mean over size groups of each group's median solve time.

    A pooled median of these workloads sits between the per-size clusters
    and moves with the few instances near the boundary; within a group the
    median is steady.  Failed solves count as infinitely slow.
    """
    groups = {}
    for r in records:
        groups.setdefault(pool[r["i"]].group, []).append(
            time_of(r) if r["ok"] else math.inf)
    medians = [statistics.median(v) for v in groups.values()]
    return math.exp(statistics.fmean(math.log(m) for m in medians))


def _timing_metrics(pool, records):
    """Solve-time metrics in seconds at the nominal reference speed."""
    import reference

    def at_nominal(r):
        return reference.at_nominal(r["s"], r["ref"])

    times = [at_nominal(r) if r["ok"] else math.inf for r in records]
    solved = sum(r["ok"] for r in records)
    return {
        "solve_s.p50": _stratified_p50(pool, records, at_nominal),
        "solve_s.p90": _quantile(times, 0.9),
        "solves_per_s": solved / sum(at_nominal(r) for r in records),
        "failed_frac": 1.0 - solved / len(records),
        "solved_frac": solved / len(records),
        "wall_solve_s.p50": _stratified_p50(pool, records, lambda r: r["s"]),
    }


def _plain_solve(j, lp, cfg):
    from conewalk import solve
    return solve(lp, cfg)


def _setup(workload, seed, count, import_s, clock):
    """Build the pool and run the untimed warm-up solve, SETUP_REPEATS times.

    Returns the pool and the set-up time in seconds at the nominal reference
    speed: the package import plus the median repeat.
    """
    import reference
    import workloads
    import_s = reference.at_nominal(import_s, clock.local())
    times = []
    for _ in range(SETUP_REPEATS):
        clock.measure()
        ref = clock.local()
        t0 = perf_counter()
        pool = workloads.build(workload, seed, count)
        _record(_plain_solve, 0, [workloads.warmup(workload)], 0)
        times.append(reference.at_nominal(perf_counter() - t0, ref))
    return pool, import_s + statistics.median(times)


def _print_summary(workload, seed, metrics, records, pool, env, trace_mode):
    mode = "traced" if trace_mode else "untraced"
    print(f"# perfbench workload={workload} seed={seed} {mode}")
    print("# env " + json.dumps(env, sort_keys=True))
    import reference
    print(f"# solves attempted={len(records)} "
          f"failed={sum(not r['ok'] for r in records)} "
          f"wrong={sum(r['wrong'] for r in records)} "
          f"wall_s={sum(r['s'] for r in records):.2f} "
          f"nominal_s={sum(reference.at_nominal(r['s'], r['ref']) for r in records):.2f}")
    for name, value in metrics.items():
        shown = "null" if value is None else f"{value:.6g}"
        note = "" if trace_mode or name in END_TO_END else "  (not gated)"
        print(f"{name:32s} {shown:>14s} {_unit(name)}{note}")
    failures = {}
    for r in records:
        if not r["ok"]:
            what = r["detail"] if r["outcome"] == "error" else f"wrong answer ({r['outcome']})"
            key = f"{pool[r['i']].label}: {what}"
            failures[key] = failures.get(key, 0) + 1
    for key, count in failures.items():
        print(f"# failed x{count}: {key}")


# Failed solves count as infinitely slow; JSON has no infinity, so a time
# that lands on a failure is written as this many seconds.
FAILED_SOLVE_S = 1e9


def _result_line(records, metrics):
    metrics = {k: FAILED_SOLVE_S if v == math.inf else v for k, v in metrics.items()}
    return json.dumps({
        "correct": not any(r["wrong"] for r in records),
        "attempted": len(records),
        "failed": sum(not r["ok"] for r in records),
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
    })


def _unit(name):
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    if name == "peak_rss_mb":
        return "MB"
    if name.endswith(("_s", ".s")) or "_s." in name:
        return "s"
    return "count"


def run_workload(workload, seed, seconds, trace):
    import_s = _import_package()
    import reference
    env = _environment()
    clock = reference.ReferenceClock()
    pool, setup_s = _setup(workload, seed, solve_count(workload, seconds, trace),
                           import_s, clock)
    optima = {}
    if not trace:
        (records,) = _run(pool, clock, _plain_solve)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        _check(pool, records, optima)
        metrics = _timing_metrics(pool, records)
        metrics["peak_rss_mb"] = peak_rss_mb
        metrics["setup_s"] = setup_s
        _print_summary(workload, seed, metrics, records, pool, env, trace_mode=False)
        print(_result_line(records, {k: metrics[k] for k in END_TO_END}))
        return 0

    import tracing
    tracer = tracing.Tracer()
    # Each instance is solved traced and then untraced: the untraced twin is
    # the base of the overhead ratio and of the end-to-end figures below.
    traced, untraced = _run(pool, clock, tracer.solve, _plain_solve)
    if tracer.missing:
        print("# missing patch points: " + ", ".join(sorted(tracer.missing)))
    _check(pool, traced, optima)
    _check(pool, untraced, optima)
    reports = [r["detail"] for r in traced if r["outcome"] == "optimum"]
    metrics = tracing.layer_metrics(
        tracer,
        reported_steps=sum(sum(rep.steps_per_level) for rep in reports),
        levels=sum(len(rep.levels) for rep in reports))
    metrics["trace.overhead_frac"] = (
        sum(r["s"] for r in traced) / sum(r["s"] for r in untraced) - 1.0)
    timing = _timing_metrics(pool, untraced)
    for name in ("wall_solve_s.p50", "solve_s.p90", "solves_per_s", "failed_frac"):
        metrics[name] = timing[name]
    metrics["reference_s"] = statistics.median(clock.times)
    _write_spans(tracer, workload, seed)
    _print_summary(workload, seed, metrics, traced, pool, env, trace_mode=True)
    print(_result_line(traced + untraced, metrics))
    return 0


def _write_spans(tracer, workload, seed):
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"spans-{workload}-seed{seed}.jsonl", "w") as fh:
        for idx, s in enumerate(tracer.spans):
            name, start, end, parent, solve_id, raised, _ = s
            fh.write(json.dumps({"id": idx, "name": name, "start": start,
                                 "end": end, "parent": parent,
                                 "solve": solve_id, "raised": raised}) + "\n")


def run_all(seed, seconds, trace):
    """Each workload in its own child process, so peak RSS is per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"perfbench: workload {workload} exited with {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if args.seconds <= 0:
        raise SystemExit("perfbench: --seconds must be positive")
    warnings.filterwarnings("ignore", message="n=.* the neighboring-cell weight-ratio bound degrades")
    warnings.filterwarnings("ignore", message="Diagonal number .* is exactly zero")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
