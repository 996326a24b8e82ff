"""Dimension reduction around a fixed optimal row, and the recursive solver.

Once one row of the optimal basis is certified, its constraint is set to
equality: coordinates rotate so the fixed row becomes the first unit vector,
the first variable is substituted away, and the remaining rows are projected,
rescaled to unit length and deduplicated.  The solver recurses on the
(n-1)-dimensional instance until the walk identifies a whole basis at once
or a single dimension remains.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import phase1
from .errors import (
    ConewalkError,
    NoLargeCoefficient,
    ObjectiveVanishes,
    RetriesExhausted,
    TooLarge,
    UnboundedLP,
)
from .geometry import rotation_to_e1
from .identify import extract_element, verify_problem1
from .lp import (
    DeltaCertificate,
    LinearProgram,
    NormalizedLP,
    delta_bruteforce,
    delta_value_and_method,
    normalize,
)
from .simplex import Vertex, cone_membership, vertex_of_basis
from .tolerances import OBJ_TOL, SPAN_TOL
from .walk import WalkConfig, default_alpha, run_walk

DUPLICATE_TOL = 1e-9
DEFAULT_MAX_RETRIES = 10


@dataclass(frozen=True)
class ReductionStep:
    """Bookkeeping for one reduction: enough to lift points back up."""

    fixed_row: int                 # parent row position set to equality
    fixed_label: int
    b_fixed: float
    U: np.ndarray                  # orthonormal, parent row -> first unit vector
    scale_factors: np.ndarray      # per kept row, all >= 1
    index_map: tuple[int, ...]     # reduced row position -> parent row position
    dropped: tuple[int, ...]       # parent rows parallel to the fixed row
    merged: tuple[int, ...]        # parent rows merged into a tighter duplicate

    def lift(self, y: np.ndarray) -> np.ndarray:
        """Map a reduced-space point back to parent coordinates."""
        return self.U @ np.concatenate(([self.b_fixed], np.asarray(y, float)))


def reduce_lp(lp: NormalizedLP, fixed: int, v: Vertex,
              ) -> tuple[NormalizedLP, Vertex, ReductionStep]:
    """Fix one basis row of v to equality and project the instance down.

    Rows that project to zero are parallel to the fixed row and are dropped;
    rows that project to the same direction are merged keeping the tighter
    right-hand side.  The image of v (with the fixed row removed from its
    basis) starts the next level.
    """
    if lp.n < 2:
        raise ValueError("cannot reduce a one-dimensional instance")
    if fixed not in v.basis:
        raise ValueError(f"row {fixed} is not in the basis of the given vertex")

    a_fixed = lp.A[fixed]
    b_fixed = float(lp.b[fixed])
    U = rotation_to_e1(a_fixed)
    rotated = lp.A @ U
    ftol = lp.feas_tol()

    dropped: list[int] = []
    slots: list[list] = []  # [direction, rhs, parent, scale]
    merged: list[int] = []
    for i in range(lp.m):
        if i == fixed:
            continue
        projected = rotated[i, 1:]
        rhs = float(lp.b[i] - rotated[i, 0] * b_fixed)
        norm = float(np.linalg.norm(projected))
        if norm <= SPAN_TOL:
            if rhs < -ftol:
                raise ConewalkError(
                    f"row {i} contradicts the fixed constraint; the face is "
                    "empty, which a feasible vertex rules out")
            dropped.append(i)
            continue
        direction = projected / norm
        rhs /= norm
        for slot in slots:
            if np.max(np.abs(slot[0] - direction)) <= DUPLICATE_TOL:
                if rhs < slot[1]:
                    merged.append(slot[2])
                    slot[1], slot[2], slot[3] = rhs, i, 1.0 / norm
                else:
                    merged.append(i)
                break
        else:
            slots.append([direction, rhs, i, 1.0 / norm])

    objective = (lp.c @ U)[1:]
    obj_norm = float(np.linalg.norm(objective))
    if obj_norm <= OBJ_TOL:
        raise ObjectiveVanishes("projected objective is numerically zero; "
                                "every vertex of the fixed face is optimal")

    index_map = tuple(slot[2] for slot in slots)
    reduced = NormalizedLP(
        A=np.array([slot[0] for slot in slots]),
        b=np.array([slot[1] for slot in slots]),
        c=objective / obj_norm,
        row_labels=tuple(lp.row_labels[p] for p in index_map),
    )
    step = ReductionStep(
        fixed_row=fixed, fixed_label=lp.row_labels[fixed], b_fixed=b_fixed,
        U=U, scale_factors=np.array([slot[3] for slot in slots]),
        index_map=index_map, dropped=tuple(dropped), merged=tuple(merged),
    )

    parent_to_reduced = {p: pos for pos, p in enumerate(index_map)}
    try:
        start_basis = tuple(parent_to_reduced[p] for p in v.basis if p != fixed)
    except KeyError as exc:
        raise ConewalkError("a basis row was merged away; the instance is "
                            "degenerate") from exc
    start = vertex_of_basis(reduced, start_basis)
    image = (U.T @ v.point)[1:]
    if float(np.max(np.abs(start.point - image))) > 1e-7 * (1.0 + np.max(np.abs(image))):
        raise ConewalkError("reduced start vertex drifted from the image of "
                            "the parent vertex")
    return reduced, start, step


@dataclass
class LevelStats:
    """Walk statistics for one recursion level."""

    n: int
    retries: int
    steps_taken: int
    pivots: int
    accepted_moves: int
    rejected_moves: int
    lazy_stays: int
    stopped_with_c_in_cone: bool
    fixed_label: int | None  # label of the row fixed afterwards, if any


@dataclass
class SolveReport:
    """Self-certifying solve result over the input program's rows."""

    basis: tuple[int, ...]           # row positions in the input program
    x: np.ndarray
    value: float                     # input objective at x
    delta: float
    delta_method: str
    alpha: float
    steps_per_level: tuple[int, ...]
    pivots: int
    retries: int
    seed: int
    levels: tuple[LevelStats, ...]


def _solve_direct_1d(lp: NormalizedLP) -> tuple[int, ...]:
    """One variable left: the tight constraint maximizing c is the basis."""
    direction = 1.0 if lp.c[0] > 0 else -1.0
    candidates = [i for i in range(lp.m) if lp.A[i, 0] * direction > 0.5]
    if not candidates:
        raise UnboundedLP("no constraint bounds the objective direction")
    best = min(candidates, key=lambda i: lp.b[i])
    x = np.array([direction * lp.b[best]])
    if not lp.is_feasible(x):
        raise ConewalkError("one-dimensional instance is infeasible; the "
                            "reduction chain produced an empty face")
    return (best,)


def _level_stats(n: int, retries: int, outcome, fixed_label) -> LevelStats:
    """One level's record; ``outcome`` is None for the walk-free 1-D base."""
    if outcome is None:
        return LevelStats(n=n, retries=retries, steps_taken=0, pivots=0,
                          accepted_moves=0, rejected_moves=0, lazy_stays=0,
                          stopped_with_c_in_cone=True, fixed_label=fixed_label)
    return LevelStats(
        n=n, retries=retries, steps_taken=outcome.steps_taken,
        pivots=outcome.pivots, accepted_moves=outcome.accepted_moves,
        rejected_moves=outcome.rejected_moves, lazy_stays=outcome.lazy_stays,
        stopped_with_c_in_cone=outcome.stopped_with_c_in_cone,
        fixed_label=fixed_label)


def _solve_level(lp: NormalizedLP, delta: float, cfg: WalkConfig, start: Vertex,
                 *, base_seed: int, level: int, max_retries: int,
                 ) -> tuple[tuple[int, ...], tuple[LevelStats, ...]]:
    """Recursive core: optimal-basis row positions of this instance, and the
    stats of this level followed by those of the levels below it."""
    if lp.n == 1:
        return _solve_direct_1d(lp), (_level_stats(1, 0, None, None),)

    for retry in range(max_retries + 1):
        seed = np.random.SeedSequence([base_seed, level, retry])
        outcome = run_walk(lp, replace(cfg, seed=seed), start, delta=delta)

        if outcome.stopped_with_c_in_cone:
            return (outcome.final.basis,
                    (_level_stats(lp.n, retry, outcome, None),))

        if not verify_problem1(lp, outcome.final.basis, outcome.c_prime, delta):
            continue
        try:
            element = extract_element(lp, outcome.final.basis,
                                      outcome.c_prime, delta)
        except NoLargeCoefficient:
            continue  # tolerance breach; treat as a failed attempt
        stats = _level_stats(lp.n, retry, outcome, lp.row_labels[element.row])
        try:
            reduced, next_start, step = reduce_lp(
                lp, element.row, outcome.current_vertex)
        except ObjectiveVanishes:
            # c is parallel to the fixed row: the whole face is optimal,
            # so the current vertex's tight rows already form a basis.
            return outcome.current_vertex.basis, (stats,)
        try:
            sub_delta = delta_bruteforce(reduced).delta
        except TooLarge:
            sub_delta = delta  # still valid one dimension down
        sub_basis, sub_levels = _solve_level(
            reduced, sub_delta, cfg, next_start, base_seed=base_seed,
            level=level + 1, max_retries=max_retries)
        mapped = {step.index_map[p] for p in sub_basis}
        return tuple(sorted(mapped | {element.row})), (stats,) + sub_levels

    raise RetriesExhausted(
        f"walk failed verification {max_retries + 1} times at level {level} "
        f"(n={lp.n})")


def solve(lp: LinearProgram, cfg: WalkConfig | None = None, *,
          delta: float | DeltaCertificate | None = None,
          max_retries: int = DEFAULT_MAX_RETRIES) -> SolveReport:
    """Solve max c^T x s.t. Ax <= b end to end.

    Normalizes, certifies the row separation (brute force unless supplied),
    finds an initial vertex or a certified infeasibility, reduces to a
    bounded instance via an enclosing box, and runs the walk-driven
    recursion.  The box radius comes in closed form from the certified
    delta; a bare float delta drives the walk but is certified by brute
    force before it may size the box.  Raises Infeasible or Unbounded with
    certificates, and RetriesExhausted if every walk attempt at some level
    fails.
    """
    if max_retries < 0:
        raise ValueError(f"max_retries must be >= 0, got {max_retries!r}")
    cfg = cfg or WalkConfig()
    nlp = normalize(lp)

    if delta is None:
        delta = delta_bruteforce(nlp)
    delta_value, delta_method = delta_value_and_method(delta)
    if not (0.0 < delta_value <= 1.0 + 1e-9):
        raise ValueError(f"delta must lie in (0, 1], got {delta_value!r}")

    boxed = phase1.bounding_box(nlp, phase1.certified_radius(nlp, delta))
    start = phase1.phase1_vertex(nlp, boxed)  # raises Infeasible
    basis, x, levels = phase1.solve_bounded(
        nlp, boxed, cfg, start, delta_value, max_retries=max_retries)

    if not nlp.is_feasible(x):
        raise ConewalkError("reconstructed optimum is infeasible")
    if not cone_membership(nlp, basis, nlp.c).inside:
        raise ConewalkError("reported basis does not certify optimality")

    return SolveReport(
        basis=basis,
        x=x,
        value=float(lp.c @ x),
        delta=delta_value,
        delta_method=delta_method,
        alpha=cfg.alpha if cfg.alpha is not None
        else default_alpha(nlp.n, delta_value),
        steps_per_level=tuple(s.steps_taken for s in levels),
        pivots=sum(s.pivots for s in levels),
        retries=sum(s.retries for s in levels),
        seed=cfg.seed,
        levels=levels,
    )
