"""The solver, its Las Vegas walk, and the paper's step 5 as library code.

solve runs every stage of the solve in order: normalize, keep the tightest
row of each direction (lp.tightest_rows), certify the row separation, box
the program, find a start basis by phase 1, resolve the walk parameters,
take an optimal basis of the boxed program (one Las Vegas walk, or Bland's
rule at n = 1), read x and the box's verdict (phase1.solve_bounded), and
certify the optimum against every input row.  The boxed program's memo of
basis factors and vertices (simplex.basis_factors) serves every stage
after the box, so no basis is factored or solved twice in a solve.

Step 5 turns a walk into one certified row of the optimal basis, then
drops a dimension; solve calls neither half: at the paper's constants a
full-budget walk cannot reach the verification ball that would certify
the row (README, "How it works", step 5).  Identification: when a vector
c' close to the objective (gap below delta/(2n)) lies in the cone of a
basis B', at least one conic coefficient of c' over B' exceeds
(1/n)(1 - delta/(2n)), and every row achieving that belongs to the true
optimal basis.  verify_problem1 and extract_element read those
coefficients from one solve with the program's factors of A_B
(simplex.cone_membership).  Reduction: reduce_lp sets the certified row's
constraint to equality, rotates coordinates so the fixed row becomes the
first unit vector, substitutes the first variable away, and projects the
remaining rows and rescales them to unit length.  It merges the projected
rows by the rule solve applies to the input.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import count

import numpy as np

from . import phase1
from .errors import (
    ConewalkError,
    Infeasible,
    NoLargeCoefficient,
    ObjectiveVanishes,
    RetriesExhausted,
)
from .geometry import rotation_to_e1
from .lp import (
    DeltaCertificate,
    LinearProgram,
    NormalizedLP,
    _derived,
    delta_bruteforce,
    delta_from_structure,
    normalize,
    tightest_rows,
)
from .simplex import (
    Basis,
    Vertex,
    bland_simplex,
    cone_membership,
    vertex_of_basis,
)
from .tolerances import OBJ_TOL, SPAN_TOL
from .walk import Parallelepiped, WalkConfig, center, run_walk

MAX_RETRIES = 10  # failed full-budget attempts after the first
RESTART_UNIT = 64  # walk steps per unit of Luby's restart schedule


def luby(t: int) -> int:
    """Term t >= 1 of Luby's universal restart sequence 1, 1, 2, 1, 1, 2, 4, 1, ...

    Luby, Sinclair & Zuckerman (1993): restarting a Las Vegas algorithm
    after luby(1), luby(2), ... units of work costs at most a log factor
    over the best fixed cutoff.
    """
    while True:
        k = t.bit_length()  # 2^(k-1) <= t <= 2^k - 1
        if t == (1 << k) - 1:
            return 1 << (k - 1)
        t -= (1 << (k - 1)) - 1


@dataclass(frozen=True)
class IdentifiedElement:
    row: int                      # row position certified optimal
    mu: np.ndarray                # conic coefficients over the basis (sorted order)
    c_prime: np.ndarray
    gap: float                    # ||c - c'||_2
    qualifying: tuple[int, ...]   # every row clearing the threshold


def scaled_center(lp: NormalizedLP, cell: Parallelepiped,
                  alpha: float) -> np.ndarray:
    """c' = z_P / alpha for a walk's final cell P: its input to Problem 1."""
    return center(lp, cell) / alpha


def coefficient_threshold(n: int, delta: float) -> float:
    return (1.0 / n) * (1.0 - delta / (2.0 * n))


def verify_problem1(lp: NormalizedLP, basis: Basis, c_prime: np.ndarray,
                    delta: float) -> bool:
    """Both success conditions: c' in the cone of the basis, and gap < delta/(2n)."""
    gap = float(np.linalg.norm(lp.c - c_prime))
    if gap >= delta / (2.0 * lp.n):
        return False
    return cone_membership(lp, basis, c_prime).inside


def extract_element(lp: NormalizedLP, basis: Basis, c_prime: np.ndarray,
                    delta: float) -> IdentifiedElement:
    """Pick the certified optimal row: largest coefficient, ties to smallest index."""
    basis = tuple(sorted(basis))
    mu = cone_membership(lp, basis, np.asarray(c_prime, dtype=float)).coeffs
    threshold = coefficient_threshold(lp.n, delta)
    qualifying = tuple(row for row, m in zip(basis, mu) if m > threshold)
    if not qualifying:
        raise NoLargeCoefficient(
            f"no coefficient exceeds {threshold:g}; verification tolerances "
            "were likely breached")
    best = max(qualifying, key=lambda row: (mu[basis.index(row)], -row))
    gap = float(np.linalg.norm(lp.c - c_prime))
    return IdentifiedElement(row=best, mu=mu, c_prime=np.asarray(c_prime, float),
                             gap=gap, qualifying=qualifying)


def reduce_lp(lp: NormalizedLP, fixed: int, v: Vertex,
              ) -> tuple[NormalizedLP, Vertex, tuple[int, ...]]:
    """Fix one basis row of v to equality and project the instance down.

    Rows that project to zero are parallel to the fixed row and are dropped;
    of the rows that project to one direction, only the tightest is kept
    (lp.tightest_rows, the rule solve applies to the input).  Returns the
    reduced program, the image of v (with the fixed row removed from its
    basis), which starts the next level, and the index map: reduced row
    position -> lp row position.
    """
    if lp.n < 2:
        raise ValueError("cannot reduce a one-dimensional instance")
    if fixed not in v.basis:
        raise ValueError(f"row {fixed} is not in the basis of the given vertex")

    b_fixed = float(lp.b[fixed])
    U = rotation_to_e1(lp.A[fixed])
    rotated = lp.A @ U
    ftol = lp.feas_tol()

    rows, directions, rhs = [], [], []  # the rows not parallel to the fixed
    for i in range(lp.m):
        if i == fixed:
            continue
        projected = rotated[i, 1:]
        row_rhs = float(lp.b[i] - rotated[i, 0] * b_fixed)
        norm = float(np.linalg.norm(projected))
        if norm <= SPAN_TOL:
            if row_rhs < -ftol:
                raise ConewalkError(
                    f"row {i} contradicts the fixed constraint; the face is "
                    "empty, which a feasible vertex rules out")
            continue
        rows.append(i)
        directions.append(projected / norm)
        rhs.append(row_rhs / norm)
    directions, rhs = np.array(directions), np.array(rhs)
    kept = tightest_rows(directions, rhs)

    objective = (lp.c @ U)[1:]
    obj_norm = float(np.linalg.norm(objective))
    if obj_norm <= OBJ_TOL:
        raise ObjectiveVanishes("projected objective is numerically zero; "
                                "every vertex of the fixed face is optimal")

    index_map = tuple(rows[k] for k in kept)
    reduced = NormalizedLP(A=directions[kept], b=rhs[kept],
                           c=objective / obj_norm)

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
    return reduced, start, index_map


@dataclass
class LevelStats:
    """Statistics of the solve's Las Vegas walk.

    The counters sum over every walk it started: each attempt runs as
    restarts (terms), and all of them count.
    """

    retries: int = 0               # failed full-budget attempts
    steps_taken: int = 0
    pivots: int = 0
    accepted_moves: int = 0
    rejected_moves: int = 0
    lazy_stays: int = 0
    terms: int = 0                 # walks started


@dataclass
class SolveReport:
    """Self-certifying solve result over the input program's rows.

    levels holds one LevelStats, the walk's (a 1-D program is not walked:
    its stats count nothing), and steps_per_level its step count.
    """

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


def _las_vegas_walk(lp: NormalizedLP, cfg: WalkConfig,
                    start: Basis) -> tuple[Basis, LevelStats]:
    """Walk lp from the sorted start basis to an optimal basis: the basis,
    whose factors the walk left in lp's memo, and the walk's stats.

    cfg is resolved (WalkConfig.resolved): its alpha and steps are set.  An
    attempt is a series of terms on Luby's schedule, each one run_walk call
    with its own seed, step budget and weight, at cfg.alpha and onto
    cfg.trace: term t walks min(RESTART_UNIT * luby(t), budget) steps from
    start on SeedSequence([cfg.seed, retry, t]), budget being cfg.steps;
    step i reads raw words 2i and 2i + 1 of that seed's PCG64 stream
    (walk._draws).  The in-cone stop is an exact optimality certificate,
    so a restart only costs work, and a short term (fewer steps than the
    budget) may follow any weight: it walks f_beta with beta = n^2, the
    paper's weight on cells of edge 1, which pulls it toward alpha*c (walk
    module docstring).
    The series ends at the first term that stops in the cone or runs the
    whole budget; only that full-budget term is a paper attempt, walking
    the paper's weight (beta = 1) and alpha.  One that ends outside the
    cone has failed, and MAX_RETRIES + 1 failed ones raise
    RetriesExhausted.  Every term shares lp's walk memo, which changes no
    step (walk module docstring).
    """
    stats = LevelStats()
    for retry in range(MAX_RETRIES + 1):
        stats.retries = retry
        for term in count(1):
            steps = min(RESTART_UNIT * luby(term), cfg.steps)
            seed = np.random.SeedSequence([cfg.seed, retry, term])
            full = steps == cfg.steps  # the paper's attempt
            stats.terms += 1
            outcome = run_walk(lp, start, alpha=cfg.alpha, steps=steps,
                               seed=seed, trace=cfg.trace,
                               _beta=1.0 if full else float(lp.n**2))
            stats.steps_taken += outcome.steps_taken
            stats.pivots += outcome.pivots
            stats.accepted_moves += outcome.accepted_moves
            stats.rejected_moves += outcome.rejected_moves
            stats.lazy_stays += outcome.lazy_stays
            if outcome.stopped_with_c_in_cone:
                return outcome.final.basis, stats
            if full:
                break

    raise RetriesExhausted(
        f"{MAX_RETRIES + 1} full-budget walk attempts ended outside the "
        f"optimal cone (n={lp.n})")


def walked_program(nlp: NormalizedLP) -> tuple[np.ndarray, NormalizedLP]:
    """The input positions of the tightest row of each direction
    (lp.tightest_rows), in the order of the directions' first rows, and the
    program of those rows, which solve walks and certifies delta for.  Each
    dropped row repeats a kept direction, so the kept rows span R^n.  When
    no row is dropped, kept is every position in order and the program is
    nlp itself."""
    kept = tightest_rows(nlp.A, nlp.b)
    if len(kept) == nlp.m:
        return kept, nlp
    return kept, _derived(nlp.A[kept], nlp.b[kept], nlp.c)


def certify_delta(lp: NormalizedLP) -> DeltaCertificate:
    """lp's row separation: from the rows' structure when they are scaled
    rows of a totally unimodular matrix (lp.delta_from_structure), else by
    brute force, which may raise TooLarge."""
    return delta_from_structure(lp) or delta_bruteforce(lp)


def solve(lp: LinearProgram, cfg: WalkConfig | None = None, *,
          delta: DeltaCertificate | None = None) -> SolveReport:
    """Solve max c^T x s.t. Ax <= b end to end.

    Normalizes and keeps the tightest row of each direction
    (walked_program), which leaves the region unchanged.  The rest runs
    on the kept rows, the walked program.  Its row separation comes from
    one certificate: delta, or certify_delta's when delta is None.  That
    certificate sizes the enclosing box, which reduces the program to a
    bounded instance; sets the walk parameters the config leaves auto
    (WalkConfig.resolved); and is reported (SolveReport.delta and
    delta_method).  Phase 1 finds an initial basis or a certified
    infeasibility.  The boxed program's optimal basis comes from one Las
    Vegas walk, or at n = 1 from Bland's rule started at the phase-1
    basis (at most one pivot); phase1.solve_bounded raises Unbounded if
    that basis holds a box row of positive cone multiplier, FaceReachesBox
    if its box rows all have multiplier 0, else reads x, the basis's
    vertex, from the boxed program's memo.  Reported positions (basis and the
    Infeasible witness) are input positions, Infeasible's value is for the
    row scaled to unit length, and x is certified against every input row.
    Raises Infeasible or Unbounded with certificates, FaceReachesBox (no
    verdict) as above, RetriesExhausted if
    MAX_RETRIES + 1 full-budget walk attempts fail, TooLarge if delta is
    too small for a finite box radius or walk parameters, at every n, and
    ConewalkError if the certificate rejects the optimum it reconstructed
    (x infeasible for an input row beyond the feasibility tolerance, or c
    outside the reported basis's cone).  Before any work, an lp that is
    not a LinearProgram, a cfg that is not a WalkConfig or None, or a
    delta that is not a DeltaCertificate or None raises TypeError (a bare
    number would size the box unchecked).  A bad alpha, steps or seed never
    reaches solve: WalkConfig raises TypeError or ValueError for it when it
    is built.
    """
    if not isinstance(lp, LinearProgram):
        raise TypeError(f"lp must be a LinearProgram, got "
                        f"{type(lp).__name__}")
    if cfg is None:
        cfg = WalkConfig()
    elif not isinstance(cfg, WalkConfig):
        raise TypeError(f"cfg must be a WalkConfig or None, got {cfg!r}")
    if delta is not None and not isinstance(delta, DeltaCertificate):
        raise TypeError(
            f"delta must be a DeltaCertificate or None, got {delta!r}; set "
            "WalkConfig.alpha and steps to tune the walk, and pass a "
            "certificate from delta_bruteforce, delta_from_structure or "
            "delta_integer_bound to set the row separation")
    nlp = normalize(lp)
    kept, walked = walked_program(nlp)

    cert = delta or certify_delta(walked)
    boxed = phase1.bounding_box(walked, phase1.certified_radius(walked, cert))
    try:
        start = phase1.phase1_vertex(walked, boxed)
    except Infeasible as exc:
        row = int(kept[exc.iteration - 1])
        raise phase1.infeasibility(row, exc.value, float(nlp.b[row])) from None
    walk_cfg = cfg.resolved(boxed.n, cert.delta)  # once per solve: warns once
    if boxed.n == 1:
        # After the collapse each direction has one row and the box rows lie
        # beyond the margin: Bland's rule pivots at most once, with no tie.
        basis = bland_simplex(boxed, start, boxed.c)
        stats = LevelStats()
    else:
        basis, stats = _las_vegas_walk(boxed, walk_cfg, start)
    x = phase1.solve_bounded(boxed, basis)
    # a basis of input rows: solve_bounded raised on a box row
    basis = tuple(sorted(int(kept[p - 2 * boxed.n]) for p in basis))

    if not nlp.is_feasible(x):
        raise ConewalkError("reconstructed optimum is infeasible")
    if not cone_membership(nlp, basis, nlp.c).inside:
        raise ConewalkError("reported basis does not certify optimality")

    return SolveReport(
        basis=basis,
        x=x,
        value=float(lp.c @ x),
        delta=cert.delta,
        delta_method=cert.method.value,
        alpha=walk_cfg.alpha,
        steps_per_level=(stats.steps_taken,),
        pivots=stats.pivots,
        retries=stats.retries,
        seed=cfg.seed,
        levels=(stats,),
    )
