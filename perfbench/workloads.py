"""Seeded instance streams for the three benchmark workloads, and their references.

Every instance comes straight from ``conewalk.oracle.tu_instance_generator``
(no non-degeneracy screening), optionally padded or turned into a verdict
instance.  Instances cycle round-robin through a fixed list of strata, so any
prefix of the stream holds the strata in (nearly) equal shares.

Only stable public names of the package are imported here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from conewalk import LinearProgram
from conewalk.lp import normalize
from conewalk.oracle import enumerate_vertices, pad_redundant, tu_instance_generator

KINDS = ("box", "interval", "network")
PADDED_M = 42

# (kind, n, native m) per workload.  tu-walk keeps native sizes so the walk
# dominates; padded-rows pads small bases to PADDED_M so the C(m, n)
# enumerations dominate while the region, and hence the pivots, stay fixed.
TU_WALK = tuple((k, n, m) for n, ms in ((4, (14, 16, 18, 20)), (5, (12, 14, 16)))
                for m in ms for k in KINDS)
PADDED_ROWS = tuple((k, n, m) for n, ms in ((3, (8, 12)), (4, (10, 14)))
                    for m in ms for k in KINDS)
VERDICTS = tuple((k, n, m, verdict)
                 for n, m in ((3, 10), (4, 14), (5, 14))
                 for verdict in ("infeasible", "unbounded") for k in KINDS)

# Infeasible instances ask x_j >= u_j + gap for an upper bound x_j <= u_j.
INFEASIBLE_GAP = 1.0 / 16.0


@dataclass(frozen=True)
class Instance:
    """One solve of a workload: the program, its solve seed and its origin."""

    label: str            # stratum and seeds, enough to rebuild it
    group: str            # size group for the stratified median
    lp: LinearProgram     # what the solver receives
    solve_seed: int
    expect: str           # "optimum", "infeasible" or "unbounded"
    oracle_lp: LinearProgram | None  # region the oracle enumerates


def _infeasible(lp: LinearProgram, axis: int) -> LinearProgram:
    """Append -x_axis <= -(u + gap) after the upper bound x_axis <= u.

    The generators put the upper bounds of the axis box in rows 0..n-1, so the
    last row contradicts row ``axis``; phase 1 reaches it only after all others.
    """
    row = np.zeros(lp.n)
    row[axis] = -1.0
    return LinearProgram(A=np.vstack([lp.A, row]),
                         b=np.append(lp.b, -(lp.b[axis] + INFEASIBLE_GAP)),
                         c=lp.c.copy())


def _unbounded(lp: LinearProgram, axis: int) -> LinearProgram:
    """Drop every row with a positive coefficient on ``axis``; make c_axis > 0.

    The ray along +e_axis then stays feasible and improves the objective.  The
    lower bound -x_axis <= l keeps A of full column rank.
    """
    keep = lp.A[:, axis] <= 0.0
    c = lp.c.copy()
    c[axis] = abs(c[axis])
    return LinearProgram(A=lp.A[keep], b=lp.b[keep], c=c)


def _make(workload: str, stratum: tuple, gen_seed: int, solve_seed: int) -> Instance:
    kind, n, m, *verdict = stratum
    base = tu_instance_generator(kind, n, m, gen_seed)
    label = f"{kind} n={n} m={m} gen_seed={gen_seed} solve_seed={solve_seed}"
    if workload == "padded-rows":
        return Instance(f"{label} padded to m={PADDED_M}", f"n={n}",
                        pad_redundant(base, PADDED_M, gen_seed), solve_seed,
                        "optimum", base)
    if workload == "verdicts":
        axis = gen_seed % n
        lp = (_infeasible if verdict[0] == "infeasible" else _unbounded)(base, axis)
        return Instance(f"{label} {verdict[0]} on axis {axis}", f"n={n} {verdict[0]}",
                        lp, solve_seed, verdict[0], None)
    return Instance(label, f"n={n}", base, solve_seed, "optimum", base)


def build(workload: str, seed: int, count: int) -> list[Instance]:
    """The first ``count`` instances of a workload's stream for ``seed``."""
    strata = STRATA[workload]
    rng = np.random.default_rng([seed, sum(map(ord, workload))])
    out = []
    for j in range(count):
        gen_seed, solve_seed = (int(s) for s in rng.integers(0, 2**31, size=2))
        out.append(_make(workload, strata[j % len(strata)], gen_seed, solve_seed))
    return out


def warmup(workload: str) -> Instance:
    """A fixed instance of the workload's first stratum for the untimed warm-up."""
    return _make(workload, STRATA[workload][0], 0, 0)


STRATA = {"tu-walk": TU_WALK, "padded-rows": PADDED_ROWS, "verdicts": VERDICTS}


def oracle_optimum(inst: Instance) -> float | None:
    """Optimal value by exhaustive vertex enumeration; None for verdicts.

    A padded instance uses its unpadded base: padding only appends slack
    copies of existing rows, which keeps the region and its vertices.
    """
    if inst.oracle_lp is None:
        return None
    best = enumerate_vertices(normalize(inst.oracle_lp)).optimal_point
    return float(inst.lp.c @ best)


def answer_matches(inst: Instance, outcome: str, x, value, optimum) -> bool:
    """Does a solve's outcome agree with the reference?

    An optimum needs the expected kind, an x feasible for the input program,
    c^T x equal to the reported value, and that value within tolerance of the
    oracle's optimum.  A verdict needs the class the instance was built for.
    """
    if outcome != inst.expect:
        return False
    if outcome != "optimum":
        return True
    lp = inst.lp
    x = np.asarray(x, dtype=float)
    tol = 1e-6 * (1.0 + float(np.max(np.abs(lp.b))))
    if x.shape != (lp.n,) or not np.all(lp.A @ x <= lp.b + tol):
        return False
    if not math.isclose(float(lp.c @ x), value, rel_tol=1e-9, abs_tol=1e-9):
        return False
    return math.isclose(value, optimum, rel_tol=1e-6, abs_tol=1e-6)
