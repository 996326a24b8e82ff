"""Initial vertex, infeasibility certification, and the boundedness box.

solve (reduction.solve) calls these on the walked program, the input's
kept rows: the tightest row of each direction, in the order the directions
first occur (lp.tightest_rows).  The boxed program is 2n slab rows along n
linearly independent rows of it, then its rows, in one order every stage
reads.  It introduces no direction beyond negations, so the row-separation
property is preserved: the boxed program has the input's delta.  The box
radius follows in closed form from the solve's delta certificate
(lp.DeltaCertificate), so no basic system is ever solved to size it.
A vertex of the boxed program is grown one constraint at a time: Bland's
rule descends on the boxed program itself, bounded to its first 2n + i
rows, so no program is built per row and every basis is factored, and its
vertex solved, once in the boxed program's memo (lp.NormalizedLP.lu_memo).
The descents pass bases, not points.  They start at the box corner where
the negated directions are tight: when the directions are the walked
program's first n rows, as find_independent_rows picks them whenever those
are independent, descent i < n minimizes direction i, which that corner
already does, so the first n descents pivot nowhere.  solve finds the
boxed optimum itself; solve_bounded, the last step, reads x, its basis's
vertex, from that memo, or unboundedness from a box row of that basis
whose cone multiplier for c is positive.  Nothing here imports the walk or
the solver.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import (
    FaceReachesBox,
    Infeasible,
    RankDeficient,
    TooLarge,
    Unbounded,
)
from .geometry import lu_solve, residual
from .lp import DeltaCertificate, NormalizedLP, _derived
# Not called here: bound so that the span perfbench/tracing.py PATCH_POINTS
# names on this module keeps resolving; ROADMAP's stage records delete it.
from .lp import delta_bruteforce  # noqa: F401
from .simplex import Basis, basis_factors, bland_simplex
from .tolerances import CONE_TOL, SPAN_TOL


def find_independent_rows(lp: NormalizedLP) -> tuple[int, ...]:
    """Lexicographically first set of n linearly independent rows.

    A row is chosen when its distance to the span of the rows chosen before
    exceeds SPAN_TOL.  The orthonormal basis of that span grows by one row
    per row chosen, as dist_to_span grows its own: the residual tested is
    the vector it appends for the row, divided by its norm (math.hypot),
    so every distance is dist_to_span's, bit for bit, and no basis is
    rebuilt.  The rows are read once as Python floats.
    """
    chosen: list[int] = []
    onb: list[list[float]] = []
    for i, row in enumerate(lp.A.tolist()):
        w = residual(row, onb)
        norm = math.hypot(*w)
        if norm > SPAN_TOL:
            chosen.append(i)
            onb.append([x / norm for x in w])
            if len(chosen) == lp.n:
                return tuple(chosen)
    raise RankDeficient("fewer than n independent rows; invalid instance")


def bounding_box(lp: NormalizedLP, radius: float) -> NormalizedLP:
    """The boxed program: the 2n box rows, then lp's rows.

    The box is the slabs |a_i^T x| <= radius along n independent rows:
    their directions, then their negations; lp's row i follows at 2n + i.
    The directions are unit vectors, so the box contains the ball of the
    given radius; the caller guarantees that ball holds every basic point.
    Every row is one of lp's rows or its negation, so the boxed program
    inherits lp's validation.  Its memo of basis factors starts empty.
    """
    if not (math.isfinite(radius) and radius > 0.0):
        raise ValueError(f"radius must be finite and positive, got {radius!r}")
    dirs = lp.A[list(find_independent_rows(lp))]
    return _derived(np.concatenate([dirs, -dirs, lp.A]),
                    np.concatenate([np.full(2 * lp.n, float(radius)), lp.b]),
                    lp.c)


def certified_radius(lp: NormalizedLP, cert: DeltaCertificate) -> float:
    """A ball radius that strictly holds every basic point of the instance.

    Column j of A_B^{-1} has norm 1/dist(a_j, span(B minus j)) <= 1/delta,
    so every basic point satisfies ||x|| <= n * max|b| / delta.  The margin
    beyond that is 1, or twice the input's feasibility tolerance when that
    is larger, which rounding cannot erase at any max|b|: no box row meets
    a basic point of the input, so none joins the basis of one.  Only a
    certificate sizes the box: a delta above the true separation would
    shrink the box onto a vertex and turn a bounded program into an
    "unbounded" verdict.  A radius whose box-corner slacks, about
    2 * radius + max|b|, leave the float range raises TooLarge: phase 1
    could not subtract them.
    """
    b_max = float(abs(lp.b).max())
    radius = lp.n * b_max / cert.delta + max(1.0, 2.0 * lp.feas_tol())
    if not math.isfinite(2.0 * radius + b_max):
        raise TooLarge(f"box radius n * max|b| / delta leaves the box-corner "
                       f"slacks 2 * radius + max|b| past the float range: "
                       f"n={lp.n}, max|b|={b_max:.6g}, "
                       f"delta={cert.delta:.6g}")
    return radius


def infeasibility(row: int, value: float, rhs: float) -> Infeasible:
    """The certificate that 0-based row ``row`` cannot be satisfied: its
    minimum over the previous region is ``value`` > ``rhs``."""
    return Infeasible(
        f"constraint {row + 1} cannot be satisfied: its minimum over "
        f"the previous region is {value:.12g} > {rhs:.12g}",
        iteration=row + 1, value=value)


def phase1_vertex(lp: NormalizedLP, boxed: NormalizedLP) -> Basis:
    """The sorted basis of a vertex of P intersected with the box, grown
    one row at a time, or a certificate of infeasibility.

    ``boxed`` is ``bounding_box(lp, radius)``.  Starting from the box corner
    where the n box rows along the negated directions are tight (rows n to
    2n - 1, each direction at -radius), constraint i is brought in by
    minimizing a_i^T x over the region satisfying the box and the first i-1
    constraints: Bland's rule on boxed itself, bounded to its first 2n + i
    rows (bland_simplex's ``rows``).  The minimum is a_i^T x at the vertex x
    of the descent's final basis, as boxed's memo solved it.  A minimum
    above b_i certifies the whole program infeasible, with the iteration
    index and that minimum as witness.  solve passes its walked program, the
    tightest row of each direction: that region is still cut by input rows,
    so it holds every feasible point in the box, and the box holds every
    vertex.  solve reports row i's input position.

    The basis returned is boxed's.  No program is built per row: every
    descent reads and fills boxed's memo, so each basis is factored and its
    vertex solved once for phase 1 and the stages after it.  bounding_box
    took the box directions from find_independent_rows, so the corner's
    rows are independent, and the corner satisfies every box row.  Those
    directions are lp's first n rows whenever these are independent;
    descent i < n then minimizes direction i, which is already least at the
    corner, so its cone test passes and it pivots nowhere.  The test uses
    the input's tolerance: box corners are exact up to rounding of order
    radius * eps, and a tolerance growing with the radius would let real
    infeasibility through.
    """
    n = lp.n
    ftol = lp.feas_tol()
    basis = tuple(range(n, 2 * n))  # the corner
    for i, (a, minus_a, rhs) in enumerate(zip(lp.A, -lp.A, lp.b.tolist())):
        basis = bland_simplex(boxed, basis, minus_a, rows=2 * n + i)
        value = float(a @ basis_factors(boxed, basis)[1])
        if value > rhs + ftol:
            raise infeasibility(i, value, rhs)
        # The minimizer is already a vertex of the grown region; keep it.
    return basis


def solve_bounded(boxed: NormalizedLP, basis: Basis) -> np.ndarray:
    """The boxed optimum's point x, or the box's verdict of unboundedness.

    basis is an optimal basis of ``boxed`` (``bounding_box(lp, radius)``),
    sorted like every memo key, so its box rows (positions 0..2n-1) come
    first.  A basis of input rows proves its point optimal for the input,
    tight box rows or not, so no tolerance is read: x is the basis's vertex
    in boxed's memo, where solve's search left it beside its factors.
    Otherwise those factors give c's cone multipliers, A_B^T mu = c.  A
    box row whose multiplier exceeds CONE_TOL certifies unboundedness; the
    least box row, basis[0], is the error's box_row.  If none does, c lies
    in the cone of the basis's input rows, so the program is bounded and
    its optimal face reaches the box: FaceReachesBox, not a verdict.
    """
    lu, x = basis_factors(boxed, basis)
    box = 2 * boxed.n
    if basis[0] < box:
        mu = lu_solve(lu, boxed.c, trans=1).tolist()
        if any(m > CONE_TOL for p, m in zip(basis, mu) if p < box):
            raise Unbounded(
                "optimum of the boxed system lies on the artificial box",
                box_row=basis[0])
        raise FaceReachesBox(
            f"the program is bounded, but its optimal face reaches the box: "
            f"box rows {[p for p in basis if p < box]} of the optimal basis "
            f"have cone multiplier 0")
    return x
