"""Spans around the calls into each conewalk layer, recorded from outside.

``Tracer.solve()`` replaces module attributes with timing wrappers for the
duration of one solve and restores them afterwards.  Each call records a span (name, start, end, parent
span, solve id, exception name or None, extra data) in memory; nothing is
written while solves run.  A patch point the package no longer has is
reported by name and its metrics come out as None instead of failing.
"""
from __future__ import annotations

import importlib
import math
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, span name).  solve() imports phase1 and default_radius
# lazily on every call, so patched module attributes see those calls too.
PATCH_POINTS = (
    ("conewalk.reduction", "normalize", "lp.normalize"),
    ("conewalk.reduction", "delta_bruteforce", "reduction.delta"),
    ("conewalk.reduction", "run_walk", "walk.run"),
    ("conewalk.reduction", "verify_problem1", "identify.verify"),
    ("conewalk.reduction", "extract_element", "identify.extract"),
    ("conewalk.reduction", "reduce_lp", "reduction.reduce"),
    ("conewalk.oracle", "default_radius", "oracle.radius"),
    ("conewalk.phase1", "bounding_box", "phase1.box"),
    ("conewalk.phase1", "phase1_vertex", "phase1.vertex"),
    ("conewalk.phase1", "solve_bounded", "phase1.bounded"),
    ("conewalk.phase1", "delta_bruteforce", "phase1.aug_delta"),
    ("conewalk.simplex", "pivot_across_facet", "simplex.pivot"),
    ("conewalk.walk", "pivot_across_facet", "walk.pivot"),
)
ROOT = "solve"

NAME, START, END, PARENT, SOLVE, RAISED, DATA = range(7)


def _walk_data(args, kwargs, outcome) -> dict:
    return {"steps": outcome.steps_taken, "pivots": outcome.pivots,
            "accepted": outcome.accepted_moves,
            "rejected": outcome.rejected_moves, "lazy": outcome.lazy_stays,
            "in_cone": outcome.stopped_with_c_in_cone}


def _size_data(args, kwargs, result) -> dict:
    lp = args[0]
    return {"m": lp.m, "n": lp.n}


def _verify_data(args, kwargs, result) -> dict:
    return {"pass": bool(result)}


EXTRA = {"walk.run": _walk_data, "reduction.delta": _size_data,
         "phase1.aug_delta": _size_data, "oracle.radius": _size_data,
         "identify.verify": _verify_data}


class Tracer:
    """In-memory span recorder for one single-threaded benchmark run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._solve_id = -1
        self.missing: set[str] = set()

    def call(self, name, fn, *args, **kwargs):
        """Run fn as a span; exceptions are recorded and re-raised."""
        idx = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                self._solve_id, None, None]
        self.spans.append(span)
        self._stack.append(idx)
        span[START] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span[END] = perf_counter()
            span[RAISED] = type(exc).__name__
            raise
        else:
            span[END] = perf_counter()
            extra = EXTRA.get(name)
            if extra is not None:
                span[DATA] = extra(args, kwargs, result)
            return result
        finally:
            self._stack.pop()

    def solve(self, solve_id: int, lp, cfg):
        """conewalk.solve(lp, cfg), patched, as the root span of solve ``solve_id``."""
        from conewalk import solve
        self._solve_id = solve_id
        with self.patched():
            return self.call(ROOT, solve, lp, cfg)

    def _wrap(self, name, fn):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    @contextmanager
    def patched(self):
        """Install the wrappers for the duration of the block."""
        originals = []
        try:
            for module_name, attr, name in PATCH_POINTS:
                try:
                    module = importlib.import_module(module_name)
                    fn = getattr(module, attr)
                except (ImportError, AttributeError):
                    self.missing.add(f"{module_name}.{attr}")
                    continue
                originals.append((module, attr, fn))
                setattr(module, attr, self._wrap(name, fn))
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    def missing_spans(self) -> set[str]:
        return {name for module, attr, name in PATCH_POINTS
                if f"{module}.{attr}" in self.missing}


def _has_ancestor(spans, span, name) -> bool:
    parent = span[PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False


def layer_metrics(tracer: Tracer, reported_steps: int, levels: int) -> dict:
    """Per-layer totals over every traced solve.

    Times are self times: a span's duration minus the durations of its
    direct children.  ``reported_steps`` and ``levels`` come from the
    SolveReports the traced solves returned.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    c = defaultdict(int)  # counters
    # Attempts in solve order; identification marks the ones that succeeded.
    walks: list[dict] = []
    last_walk: dict[int, dict] = {}

    for i, s in enumerate(spans):
        name = s[NAME]
        if name == "reduction.delta":
            name = ("reduction.level_delta"
                    if _has_ancestor(spans, s, "phase1.bounded") else "lp.delta")
        elif name == "simplex.pivot" and _has_ancestor(spans, s, "phase1.vertex"):
            name = "phase1.pivot"
        self_s[name] += s[END] - s[START] - child_time[i]
        calls[name] += 1
        if s[RAISED] and name != ROOT:
            c["raised_calls"] += 1
        data = s[DATA]
        if name == "lp.delta" and data:
            c["delta_subsets"] += sum(math.comb(data["m"], k) for k in range(1, data["n"]))
        elif name == "oracle.radius" and data:
            c["basic_systems"] += math.comb(data["m"], data["n"])
        elif name == "phase1.aug_delta" and s[RAISED] == "TooLarge":
            c["aug_delta_toolarge"] += 1
        elif name == "walk.run":
            attempt = dict(data or {}, ok=bool(data and data["in_cone"]))
            walks.append(attempt)
            last_walk[s[SOLVE]] = attempt
        elif name == "identify.verify" and data and data["pass"]:
            c["verify_pass"] += 1
            last_walk.get(s[SOLVE], {})["verified"] = True
        elif name == "identify.extract":
            if s[RAISED] == "NoLargeCoefficient":
                c["no_large_coefficient"] += 1
            elif not s[RAISED] and last_walk.get(s[SOLVE], {}).get("verified"):
                last_walk[s[SOLVE]]["ok"] = True

    def steps(attempts):
        return sum(a.get("steps", 0) for a in attempts)

    total_steps = steps(walks)
    failed = [a for a in walks if not a["ok"]]
    walk_s = self_s["walk.run"] + self_s["walk.pivot"]
    total_s = sum(s[END] - s[START] for s in spans if s[NAME] == ROOT)
    out = {
        "trace.solve_s": total_s,
        "trace.raised_calls": c["raised_calls"],
        "lp.normalize_s": self_s["lp.normalize"],
        "lp.delta_s": self_s["lp.delta"],
        "lp.delta_subsets": c["delta_subsets"],
        "oracle.radius_s": self_s["oracle.radius"],
        "oracle.basic_systems": c["basic_systems"],
        "phase1.box_s": self_s["phase1.box"],
        "phase1.vertex_s": self_s["phase1.vertex"],
        "phase1.pivots": calls["phase1.pivot"],
        "phase1.pivot_s": self_s["phase1.pivot"],
        "phase1.aug_delta_s": self_s["phase1.aug_delta"],
        "phase1.aug_delta_toolarge": c["aug_delta_toolarge"],
        "phase1.bounded_self_s": self_s["phase1.bounded"],
        "walk.run_s": self_s["walk.run"],
        "walk.attempts": len(walks),
        "walk.failed_attempts": len(failed),
        "walk.steps": total_steps,
        "walk.steps_failed": steps(failed),
        "walk.reported_steps": reported_steps,
        "walk.useful_step_ratio": (total_steps - steps(failed)) / total_steps
        if total_steps else None,
        "walk.steps_per_s": total_steps / walk_s if walk_s > 0 else None,
        "walk.accepted": sum(a.get("accepted", 0) for a in walks),
        "walk.rejected": sum(a.get("rejected", 0) for a in walks),
        "walk.lazy": sum(a.get("lazy", 0) for a in walks),
        "walk.pivots": sum(a.get("pivots", 0) for a in walks),
        "walk.pivot_calls": calls["walk.pivot"],
        "walk.pivot_s": self_s["walk.pivot"],
        "identify.s": self_s["identify.verify"] + self_s["identify.extract"],
        "identify.verify_calls": calls["identify.verify"],
        "identify.verify_pass": c["verify_pass"],
        "identify.no_large_coefficient": c["no_large_coefficient"],
        # No reduction runs at this commit, so these are counts: a time that
        # is exactly 0 in every run cannot be told from a stuck timer.
        "reduction.reduce_calls": calls["reduction.reduce"],
        "reduction.level_delta_calls": calls["reduction.level_delta"],
        "reduction.levels": levels,
        "reduction.solve_self_s": self_s[ROOT],
    }
    return _null_missing(out, tracer.missing_spans())


# Spans each layer's metrics are computed from: when one of them could not
# be patched, the layer's metrics are None.  The root's self time absorbs
# any unpatched call, so it is None as soon as anything is missing.
NEEDS = {
    "lp.": {"lp.normalize", "reduction.delta"},
    "oracle.": {"oracle.radius"},
    "phase1.": {"phase1.box", "phase1.vertex", "phase1.bounded",
                "phase1.aug_delta", "simplex.pivot"},
    "walk.": {"walk.run", "walk.pivot", "identify.verify", "identify.extract"},
    "identify.": {"identify.verify", "identify.extract"},
    "reduction.": {"reduction.reduce", "reduction.delta"},
}


def _null_missing(metrics: dict, missing: set[str]) -> dict:
    if not missing:
        return metrics
    return {k: (None if k == "reduction.solve_self_s"
                or any(k.startswith(p) and need & missing
                       for p, need in NEEDS.items()) else v)
            for k, v in metrics.items()}
