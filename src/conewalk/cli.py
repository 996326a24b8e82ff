"""Command-line front end: solve, verify-delta, walk-stats.

Instances travel as JSON files; reports are single-line standard JSON on
stdout (json.dumps, allow_nan=False), so identical flags produce identical
bytes and every float reads back as the double the library returned.
Exit codes: 0 optimal, 1 error (also for malformed arguments), 2 infeasible,
3 unbounded.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import statistics
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .errors import ConewalkError, Infeasible, TooLarge, Unbounded
from .lp import (
    DeltaCertificate,
    LinearProgram,
    delta_bruteforce,
    delta_integer_bound,
    normalize,
)
from .reduction import MAX_RETRIES, certify_delta, solve, walked_program
from .walk import WalkConfig

EXIT_OPTIMAL = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2
EXIT_UNBOUNDED = 3


class CliError(ConewalkError):
    pass


class _Parser(argparse.ArgumentParser):
    """Usage errors raise CliError, so they end in the JSON error record and
    exit 1 instead of argparse's exit 2, which would read as infeasible."""

    def error(self, message: str):
        raise CliError(f"{self.prog}: {message}")


def _checked(kind, ok, requirement: str, *, auto: bool = False):
    """An argparse type: ``kind(text)`` if it meets ``ok``; 'auto' -> None."""
    def parse(text: str):
        if auto and text == "auto":
            return None
        try:
            value = kind(text)
            if ok(value):
                return value
        except ValueError:
            pass
        also = " or 'auto'" if auto else ""
        raise argparse.ArgumentTypeError(
            f"must be {requirement}{also}, got {text!r}")
    return parse


def _non_negative(value: int) -> bool:
    return value >= 0


def _positive(value: float) -> bool:
    return math.isfinite(value) and value > 0.0


def _check_numbers(path: str, key: str, value) -> None:
    """CliError naming key unless every entry of the nested lists value is
    a JSON number: a string or a boolean is not one, though numpy would
    read it as one."""
    todo = [value]
    while todo:
        item = todo.pop()
        if type(item) is list:
            todo.extend(reversed(item))
        elif type(item) not in (int, float):
            raise CliError(f"{path}: entries of {key!r} must be JSON numbers, "
                           f"got {item!r}")


def load_lp_file(path: str) -> tuple[LinearProgram, dict]:
    """Read an instance file; returns the program and the raw record."""
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise CliError(f"{path} must hold a JSON object")
    for key in ("n", "m", "A", "b", "c"):
        if key not in raw:
            raise CliError(f"{path} is missing required field {key!r}")
        if key in ("n", "m") and type(raw[key]) is not int:
            raise CliError(f"{path}: {key!r} must be an integer, got {raw[key]!r}")
    for key in ("A", "b", "c"):
        _check_numbers(path, key, raw[key])
    try:
        A = np.array(raw["A"], dtype=float)
        b = np.array(raw["b"], dtype=float)
        c = np.array(raw["c"], dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise CliError(f"{path} has malformed arrays: {exc}") from exc
    if A.shape != (raw["m"], raw["n"]) or b.shape != (raw["m"],) \
            or c.shape != (raw["n"],):
        raise CliError(f"{path}: array shapes disagree with n/m")
    try:
        program = LinearProgram(A=A, b=b, c=c)
    except (ConewalkError, ValueError) as exc:
        raise CliError(f"{path}: {exc}") from exc
    return program, raw


def write_lp_file(path: str, lp: LinearProgram, *, name: str = "",
                  integral: bool | None = None, Delta: int | None = None) -> None:
    record: dict = {"name": name, "n": lp.n, "m": lp.m,
                    "A": [[float(x) for x in row] for row in lp.A],
                    "b": [float(x) for x in lp.b],
                    "c": [float(x) for x in lp.c]}
    if integral is not None:
        record["integral"] = bool(integral)
    if Delta is not None:
        record["Delta"] = int(Delta)
    Path(path).write_text(json.dumps(record, allow_nan=False) + "\n")


def _integral_bound(lp: LinearProgram, raw: dict,
                    why: str) -> DeltaCertificate:
    """The integral-data certificate from the file's 'integral' and 'Delta'.

    A file without them raises CliError: why, then the fields to add; only
    JSON true enables the bound.  So does a 'Delta' that is not a JSON
    integer >= 1.
    """
    if raw.get("integral") is not True or "Delta" not in raw:
        raise CliError(f"{why}; add 'integral': true and a 'Delta' field to "
                       "the instance file")
    Delta = raw["Delta"]
    if type(Delta) is not int or Delta < 1:
        raise CliError(f"'Delta' must be an integer >= 1, got {Delta!r}")
    return delta_integer_bound(lp.A, Delta)


def _resolve_delta(spec: str, lp: LinearProgram,
                   raw: dict) -> DeltaCertificate:
    """The certificate for --delta 'brute', 'bound' or 'auto'.

    solve sizes the box from it, sets the auto walk parameters from it and
    reports it.  'auto' and 'brute' certify the rows solve walks, the
    tightest of each direction (reduction.walked_program); 'auto' certifies
    as solve does by default (reduction.certify_delta: the rows' structure,
    then brute force) and falls back to the integral bound only when the
    brute force is over its budget, not when normalize raises TooLarge.
    """
    if spec == "bound":
        return _integral_bound(lp, raw, "--delta bound needs integral data")
    _, walked = walked_program(normalize(lp))
    try:
        return (delta_bruteforce(walked) if spec == "brute"
                else certify_delta(walked))
    except TooLarge:
        if spec == "brute":
            raise
        return _integral_bound(lp, raw,
                               "instance too large for brute-force delta")


def _describe(exc: ConewalkError) -> str:
    return f"{type(exc).__name__}: {exc}"


def _error_report(message: str) -> dict:
    return {"status": "error", "error": message}


def _solve_once(lp: LinearProgram, cert: DeltaCertificate,
                cfg: WalkConfig) -> tuple[dict, int]:
    try:
        report = solve(lp, cfg, delta=cert)
    except Infeasible as exc:
        row_norm = float(np.linalg.norm(lp.A[exc.iteration - 1]))
        return ({"status": "infeasible", "witness_iteration": exc.iteration,
                 "witness_value": exc.value * row_norm, "delta": cert.delta,
                 "delta_method": cert.method.value, "seed": cfg.seed},
                EXIT_INFEASIBLE)
    except Unbounded as exc:
        return ({"status": "unbounded", "box_row": exc.box_row,
                 "delta": cert.delta, "delta_method": cert.method.value,
                 "seed": cfg.seed}, EXIT_UNBOUNDED)
    return ({
        "status": "optimal",
        "basis": [p + 1 for p in report.basis],
        "x": [float(t) for t in report.x],
        "value": report.value,
        "delta": cert.delta,
        "delta_method": cert.method.value,
        "walk": {
            "alpha": report.alpha,
            "steps_per_level": list(report.steps_per_level),
            "pivots": report.pivots,
            "retries": report.retries,
            "terms": sum(s.terms for s in report.levels),
        },
        "seed": report.seed,
    }, EXIT_OPTIMAL)


def cmd_solve(args) -> tuple[dict, int]:
    lp, raw = load_lp_file(args.input)
    cert = _resolve_delta(args.delta, lp, raw)
    # the solve itself does no I/O: an OSError here comes from opening,
    # writing or closing the trace
    try:
        trace = open(args.trace, "w") if args.trace else None
        with trace or contextlib.nullcontext():
            cfg = WalkConfig(alpha=args.alpha, steps=args.steps,
                             seed=args.seed, trace=trace)
            return _solve_once(lp, cert, cfg)
    except OSError as exc:
        raise CliError(f"cannot write trace file {args.trace}: {exc}") from exc


def cmd_verify_delta(args) -> tuple[dict, int]:
    lp, raw = load_lp_file(args.input)
    if args.method == "brute":
        cert = delta_bruteforce(normalize(lp))
        j, subset = cert.witness
        record = {"delta": cert.delta, "method": cert.method.value,
                  "witness_row": j + 1,
                  "witness_subset": [i + 1 for i in subset]}
    else:
        cert = _integral_bound(lp, raw, "--method bound needs integral data")
        record = {"delta": cert.delta, "method": cert.method.value,
                  "Delta": cert.Delta}
    return record, EXIT_OPTIMAL


def cmd_walk_stats(args) -> tuple[dict, int]:
    cfg = WalkConfig(alpha=args.alpha, steps=args.steps, seed=args.seed)
    instances = []
    for path in args.input:
        lp, raw = load_lp_file(path)
        cert = _resolve_delta(args.delta, lp, raw)
        per_seed = []
        for seed in range(cfg.seed, cfg.seed + args.seeds):
            try:
                report, _ = _solve_once(lp, cert, replace(cfg, seed=seed))
            except ConewalkError as exc:  # this seed failed; keep the others
                record = {**_error_report(_describe(exc)),
                          "pivots": None, "retries": None}
            else:
                walk = report.get("walk", {})
                record = {"status": report["status"],
                          "pivots": walk.get("pivots"),
                          "retries": walk.get("retries")}
            per_seed.append({"seed": seed, **record})
        solved = [r for r in per_seed if r["status"] == "optimal"]
        pivot_counts = [r["pivots"] for r in solved]
        instances.append({
            "name": raw.get("name", Path(path).name),
            "m": lp.m,
            "n": lp.n,
            "seeds": args.seeds,
            "success_rate": sum(1 for r in solved if r["retries"] == 0)
            / args.seeds,
            "mean_pivots": float(np.mean(pivot_counts)) if pivot_counts else None,
            "median_pivots": float(statistics.median(pivot_counts))
            if pivot_counts else None,
            "per_seed": per_seed,
        })
    return {"instances": instances}, EXIT_OPTIMAL


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", default=0,
                   type=_checked(int, _non_negative, "a non-negative integer"))
    p.add_argument("--steps", default=None,
                   type=_checked(int, _non_negative, "a non-negative integer",
                                 auto=True),
                   help="walk budget of one attempt, inside which the "
                        f"walk restarts; {MAX_RETRIES + 1} failed attempts "
                        "raise RetriesExhausted (default: auto)")
    p.add_argument("--alpha", default=None,
                   type=_checked(float, _positive, "a positive number",
                                 auto=True),
                   help="objective scaling (default: auto)")
    p.add_argument("--delta", default="auto",
                   choices=("auto", "brute", "bound"),
                   help="how the row separation is certified: 'auto' (the "
                        "rows' structure, then brute force, then the "
                        "integral bound), 'brute' or 'bound'; the "
                        "certificate sizes the box and sets the auto walk "
                        "parameters (default: auto)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="conewalk",
        description="Randomized-walk simplex solver for max c^T x, Ax <= b")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve an instance file")
    p_solve.add_argument("--input", required=True)
    p_solve.add_argument("--trace", default=None,
                         help="write a line-delimited JSON walk trace here: "
                              "one record per step of every walk, restarts "
                              "included (the step counter restarts per "
                              "walk); lazy steps have "
                              "log_weight_proposal null; basis positions "
                              "are 0-based in the program the walk runs "
                              "on: the 2n box rows, then the kept rows "
                              "(the tightest of each direction, in the "
                              "order the directions first occur); "
                              "tracing never changes the walk")
    _add_solver_flags(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_delta = sub.add_parser("verify-delta",
                             help="certify the row-separation value")
    p_delta.add_argument("--input", required=True)
    p_delta.add_argument("--method", choices=("brute", "bound"),
                         default="brute")
    p_delta.set_defaults(func=cmd_verify_delta)

    p_stats = sub.add_parser("walk-stats",
                             help="aggregate solver runs over many seeds")
    p_stats.add_argument("--input", action="append", required=True,
                         help="instance file (repeatable)")
    p_stats.add_argument("--seeds", default=100,
                         type=_checked(int, lambda v: v >= 1,
                                       "a positive integer"))
    _add_solver_flags(p_stats)
    p_stats.set_defaults(func=cmd_walk_stats)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command and print its record, or the error record, as one
    JSON line; a NaN or an infinity in a record raises ValueError and
    prints nothing."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        record, code = args.func(args)
    except CliError as exc:
        record, code = _error_report(str(exc)), EXIT_ERROR
    except ConewalkError as exc:
        record, code = _error_report(_describe(exc)), EXIT_ERROR
    print(json.dumps(record, allow_nan=False))
    return code


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
