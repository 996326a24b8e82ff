"""Initial vertex, infeasibility certification, and the boundedness box.

solve calls these on the walked program, the input's kept rows: the
tightest row of each direction, in the order the directions first occur
(lp.tightest_rows).  The boxed program is the walked program's rows
followed by 2n slab rows along n linearly independent rows of it.  It
introduces no direction beyond negations, so the row-separation property
is preserved: the boxed program has the input's delta.  The box radius
follows in closed form from a certified delta, so no basic system is ever
solved to size it.  A vertex of the boxed program is grown one constraint
at a time; an optimum of the boxed program touching the box certifies
unboundedness.
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .errors import Infeasible, RankDeficient, TooLarge, Unbounded
from .geometry import LU, lu_solve, residual, solve_square
from .lp import DeltaCertificate, NormalizedLP, _derived, delta_bruteforce
from .simplex import Basis, Vertex, bland_simplex, vertex_of_basis
from .tolerances import SPAN_TOL
from .walk import WalkConfig

if TYPE_CHECKING:
    from .reduction import LevelStats


def find_independent_rows(lp: NormalizedLP) -> tuple[int, ...]:
    """Lexicographically first set of n linearly independent rows.

    A row is chosen when its distance to the span of the rows chosen before
    exceeds SPAN_TOL.  The orthonormal basis of that span grows by one row
    per row chosen: the residual tested is the vector orthonormal_basis
    would append for the row, so every distance is dist_to_span's, bit for
    bit, and no basis is rebuilt.
    """
    chosen: list[int] = []
    onb: list[np.ndarray] = []
    for i in range(lp.m):
        w = residual(lp.A[i], onb)
        norm = float(np.linalg.norm(w))
        if norm > SPAN_TOL:
            chosen.append(i)
            onb.append(w / norm)
            if len(chosen) == lp.n:
                return tuple(chosen)
    raise RankDeficient("fewer than n independent rows; invalid instance")


def bounding_box(lp: NormalizedLP, radius: float) -> NormalizedLP:
    """The boxed program: lp's rows, then the 2n box rows.

    The box is the slabs |a_i^T x| <= radius along n independent rows:
    their directions first, then their negations.  The directions are unit
    vectors, so the box contains the ball of the given radius; the caller
    guarantees that ball holds every basic point.  Every row is one of lp's
    rows or its negation, so the boxed program inherits lp's validation.
    """
    if not (math.isfinite(radius) and radius > 0.0):
        raise ValueError(f"radius must be finite and positive, got {radius!r}")
    dirs = lp.A[list(find_independent_rows(lp))]
    return _derived(lp, A=np.vstack([lp.A, dirs, -dirs]),
                    b=np.concatenate([lp.b, np.full(2 * lp.n, float(radius))]))


def certified_radius(lp: NormalizedLP,
                     delta: float | DeltaCertificate) -> float:
    """A ball radius that strictly holds every basic point of the instance.

    Column j of A_B^{-1} has norm 1/dist(a_j, span(B minus j)) <= 1/delta,
    so every basic point satisfies ||x|| <= n * max|b| / delta.  The margin
    beyond that is 1, or twice the input's feasibility tolerance when that
    is larger, so every box row is slack at every basic point by more than
    the tolerance at which solve_bounded judges contact.  Only a
    certificate may size the box: a
    bare float is a claim, and one that is too large would shrink the box
    onto a vertex and turn a bounded program into an "unbounded" verdict,
    so the input is certified by brute force instead (which may raise
    TooLarge).  A radius whose box-corner slacks, about 2 * radius + max|b|,
    leave the float range raises TooLarge too: phase 1 could not subtract
    them.
    """
    if not isinstance(delta, DeltaCertificate):
        delta = delta_bruteforce(lp)
    b_max = float(np.max(np.abs(lp.b)))
    radius = lp.n * b_max / delta.delta + max(1.0, 2.0 * lp.feas_tol())
    if not math.isfinite(2.0 * radius + b_max):
        raise TooLarge(f"box radius n * max|b| / delta leaves the box-corner "
                       f"slacks 2 * radius + max|b| past the float range: "
                       f"n={lp.n}, max|b|={b_max:.6g}, "
                       f"delta={delta.delta:.6g}")
    return radius


def infeasibility(row: int, value: float, rhs: float) -> Infeasible:
    """The certificate that 0-based row ``row`` cannot be satisfied: its
    minimum over the previous region is ``value`` > ``rhs``."""
    return Infeasible(
        f"constraint {row + 1} cannot be satisfied: its minimum over "
        f"the previous region is {value:.12g} > {rhs:.12g}",
        iteration=row + 1, value=value)


def phase1_vertex(lp: NormalizedLP, boxed: NormalizedLP) -> Vertex:
    """Grow a vertex of P intersected with the box, or certify infeasibility.

    ``boxed`` is ``bounding_box(lp, radius)``.  Starting from the box corner
    where the n box rows along the directions (not their negations) are
    tight, constraint i is brought in by minimizing a_i^T x over the region
    satisfying the box and the first i-1 constraints; a minimum above b_i
    certifies the whole program infeasible, with the iteration index as
    witness.  solve passes its walked program, the tightest row of each
    direction: that region is still cut by input rows, so it holds every
    feasible point in the box, and the box holds every vertex.  solve
    reports row i's input position.

    The returned vertex's basis indexes the boxed program (original rows
    first, then the box rows).  The test uses the input's tolerance: box
    corners are exact up to rounding of order radius * eps, and a tolerance
    that grew with the radius would let real infeasibility through.
    """
    m, n = lp.m, lp.n
    ftol = lp.feas_tol()

    # Box-first ordering keeps row positions stable while constraints
    # append: the region before constraint i is the first 2n + i rows.
    # bounding_box took the box directions from find_independent_rows, so
    # every prefix, the 2n box rows alone included, holds n independent
    # rows and is derived from boxed without re-validation.
    ordered = _derived(boxed, A=np.vstack([boxed.A[m:], lp.A]),
                       b=np.concatenate([boxed.b[m:], lp.b]))

    def prefix(k: int) -> NormalizedLP:
        return _derived(ordered, A=ordered.A[:k], b=ordered.b[:k])

    # Every prefix has ordered's rows at every position it holds, so one
    # memo of basis factors serves them all: each basis is factored once.
    factors: dict[Basis, LU] = {}
    v = vertex_of_basis(prefix(2 * n), tuple(range(n)), _factors=factors)
    for i in range(m):
        v = bland_simplex(prefix(2 * n + i), v, -lp.A[i], _factors=factors)
        value = float(lp.A[i] @ v.point)
        if value > lp.b[i] + ftol:
            raise infeasibility(i, value, float(lp.b[i]))
        # The minimizer is already a vertex of the grown region; keep it.

    remapped = tuple(p - 2 * n if p >= 2 * n else m + p for p in v.basis)
    return Vertex(point=v.point, basis=remapped)


def solve_bounded(lp: NormalizedLP, boxed: NormalizedLP, cfg: WalkConfig,
                  start: Vertex, delta: float,
                  ) -> tuple[tuple[int, ...], np.ndarray, LevelStats]:
    """Walk the boxed program to its optimum and strip the box again.

    The Las Vegas walk runs at the given delta, which the box rows keep; a
    1-D program is solved directly instead.  Returns the sorted basis
    positions in the original rows, the optimum x, and the walk's stats.
    x is solved from the factors of the walk's final basis, which the walk
    already holds.  The first box row that lies in the basis or is tight at
    x certifies unboundedness.  Contact is judged at the
    input's tolerance, as in phase1_vertex; degenerate contact counts too.
    No input row can hide a tight box row: a basis without box rows gives
    a basic point of the input, and certified_radius leaves every box row
    slack there by more than that tolerance.
    """
    # Lazy: reduction imports phase1; perfbench's patch points pin the split.
    from .reduction import LevelStats, _las_vegas_walk, _solve_direct_1d

    if boxed.n == 1:
        basis = _solve_direct_1d(boxed)
        x = solve_square(boxed.A[list(basis)], boxed.b[list(basis)])
        stats = LevelStats(n=1, stopped_with_c_in_cone=True)
    else:
        rec, stats = _las_vegas_walk(boxed, delta, cfg, start)
        basis = rec.basis
        x = lu_solve(rec.lu, boxed.b[list(basis)])
    ftol = lp.feas_tol()
    for p in range(lp.m, boxed.m):
        if p in basis or abs(float(boxed.A[p] @ x - boxed.b[p])) <= ftol:
            raise Unbounded(
                "optimum of the boxed system lies on the artificial box",
                box_row=p - lp.m)
    return basis, x, stats
