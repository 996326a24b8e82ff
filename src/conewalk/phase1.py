"""Initial vertex, infeasibility certification, and the boundedness box.

solve (reduction.solve) calls these on the walked program, the input's
kept rows: the tightest row of each direction, in the order the directions
first occur (lp.tightest_rows).  The boxed program is 2n slab rows along n
linearly independent rows of it, then its rows, in one order every stage
reads.  It introduces no direction beyond negations, so the row-separation
property is preserved: the boxed program has the input's delta.  The box
radius follows in closed form from the solve's delta certificate
(lp.DeltaCertificate), so no basic system is ever solved to size it.  A
vertex of the boxed program is grown one constraint at a time, on its
prefixes, which share the boxed program's memo of basis factors
(lp.NormalizedLP.lu_memo).  solve finds the boxed optimum itself;
solve_bounded, the last step, reads x from its basis's factors in that
memo, and an optimum touching the box certifies unboundedness.  Nothing
here imports the walk or the solver.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import Infeasible, RankDeficient, TooLarge, Unbounded
from .geometry import lu_solve, residual
from .lp import DeltaCertificate, NormalizedLP, _derived
# Not called here: bound so that the span perfbench/tracing.py PATCH_POINTS
# names on this module keeps resolving; ROADMAP item 7(c) deletes it.
from .lp import delta_bruteforce  # noqa: F401
from .simplex import (
    Basis,
    Vertex,
    basis_factors,
    bland_simplex,
    vertex_of_basis,
)
from .tolerances import SPAN_TOL


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
    return _derived(np.vstack([dirs, -dirs, lp.A]),
                    np.concatenate([np.full(2 * lp.n, float(radius)), lp.b]),
                    lp.c)


def certified_radius(lp: NormalizedLP, cert: DeltaCertificate) -> float:
    """A ball radius that strictly holds every basic point of the instance.

    Column j of A_B^{-1} has norm 1/dist(a_j, span(B minus j)) <= 1/delta,
    so every basic point satisfies ||x|| <= n * max|b| / delta.  The margin
    beyond that is 1, or twice the input's feasibility tolerance when that
    is larger, so every box row is slack at every basic point by more than
    the tolerance at which solve_bounded judges contact.  Only a
    certificate sizes the box: a delta above the true separation would
    shrink the box onto a vertex and turn a bounded program into an
    "unbounded" verdict.  A radius whose box-corner slacks, about
    2 * radius + max|b|, leave the float range raises TooLarge: phase 1
    could not subtract them.
    """
    b_max = float(np.max(np.abs(lp.b)))
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


def phase1_vertex(lp: NormalizedLP, boxed: NormalizedLP) -> Vertex:
    """Grow a vertex of P intersected with the box, or certify infeasibility.

    ``boxed`` is ``bounding_box(lp, radius)``.  Starting from the box corner
    where the n box rows along the directions (not their negations) are
    tight, constraint i is brought in by minimizing a_i^T x over the region
    satisfying the box and the first i-1 constraints, the first 2n + i rows
    of boxed; a minimum above b_i certifies the whole program infeasible,
    with the iteration index as witness.  solve passes its walked program,
    the tightest row of each direction: that region is still cut by input
    rows, so it holds every feasible point in the box, and the box holds
    every vertex.  solve reports row i's input position.

    The vertex returned is boxed's.  A prefix has boxed's rows at its
    positions, so it shares boxed's memo of basis factors: each basis is
    factored once for every prefix and boxed.  The test uses the input's
    tolerance: box corners are exact up to rounding of order radius * eps,
    and a tolerance growing with the radius would let real infeasibility
    through.
    """
    n = lp.n
    ftol = lp.feas_tol()

    # bounding_box took the box directions from find_independent_rows, so
    # every prefix, the 2n box rows alone included, holds n independent
    # rows: it is derived from boxed's read-only slices, unvalidated.
    def prefix(k: int) -> NormalizedLP:
        return _derived(boxed.A[:k], boxed.b[:k], lp.c, prefix_of=boxed)

    v = vertex_of_basis(prefix(2 * n), tuple(range(n)))
    for i in range(lp.m):
        v = bland_simplex(prefix(2 * n + i), v, -lp.A[i])
        value = float(lp.A[i] @ v.point)
        if value > lp.b[i] + ftol:
            raise infeasibility(i, value, float(lp.b[i]))
        # The minimizer is already a vertex of the grown region; keep it.
    return v


def solve_bounded(lp: NormalizedLP, boxed: NormalizedLP,
                  basis: Basis) -> np.ndarray:
    """The boxed optimum's point x, or the box's verdict that lp is unbounded.

    basis is an optimal basis of ``boxed`` (``bounding_box(lp, radius)``),
    and x is solved with its factors in boxed's memo: solve's search left
    them there, so nothing is factored again.  The first box row (positions
    0..2n-1) that lies in the basis or is tight at x certifies
    unboundedness.  Contact is judged at the input's tolerance,
    as in phase1_vertex; degenerate contact counts too.  No input row can
    hide a tight box row: a basis without box rows gives a basic point of
    the input, and certified_radius leaves every box row slack there by
    more than that tolerance.
    """
    x = lu_solve(basis_factors(boxed, basis), boxed.b[list(basis)])
    ftol = lp.feas_tol()
    for p in range(2 * lp.n):
        if p in basis or abs(float(boxed.A[p] @ x - boxed.b[p])) <= ftol:
            raise Unbounded(
                "optimum of the boxed system lies on the artificial box",
                box_row=p)
    return x
