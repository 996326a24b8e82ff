"""Initial vertex, infeasibility certification, and the boundedness box.

The boxed program is the input's rows followed by 2n slab rows along n
linearly independent input rows.  It introduces no direction beyond
negations, so the row-separation property is preserved: the boxed program
has the input's delta.  The box radius follows in closed form from a
certified delta, so no basic system is ever solved to size it.  A vertex
of the boxed program is grown one constraint at a time; an optimum of the
boxed program touching the box certifies unboundedness.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import Infeasible, RankDeficient, Unbounded
from .geometry import dist_to_span, solve_square
from .lp import DeltaCertificate, NormalizedLP, _derived, delta_bruteforce
from .simplex import Vertex, bland_simplex, vertex_of_basis
from .tolerances import SPAN_TOL
from .walk import WalkConfig


def find_independent_rows(lp: NormalizedLP) -> tuple[int, ...]:
    """Lexicographically first set of n linearly independent rows."""
    chosen: list[int] = []
    for i in range(lp.m):
        if dist_to_span(lp.A[i], lp.A[chosen] if chosen else []) > SPAN_TOL:
            chosen.append(i)
            if len(chosen) == lp.n:
                return tuple(chosen)
    raise RankDeficient("fewer than n independent rows; invalid instance")


def bounding_box(lp: NormalizedLP, radius: float) -> NormalizedLP:
    """The boxed program: lp's rows, then the 2n box rows.

    The box is the slabs |a_i^T x| <= radius along n independent rows:
    their directions first, then their negations, with labels continuing
    after lp's.  The directions are unit vectors, so the box contains the
    ball of the given radius; the caller guarantees that ball holds every
    basic point.  Every row is one of lp's rows or its negation, so the
    boxed program inherits lp's validation.
    """
    if not (math.isfinite(radius) and radius > 0.0):
        raise ValueError(f"radius must be finite and positive, got {radius!r}")
    dirs = lp.A[list(find_independent_rows(lp))]
    next_label = max(lp.row_labels) + 1
    return _derived(
        lp,
        A=np.vstack([lp.A, dirs, -dirs]),
        b=np.concatenate([lp.b, np.full(2 * lp.n, float(radius))]),
        row_labels=lp.row_labels + tuple(range(next_label, next_label + 2 * lp.n)),
    )


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
    TooLarge).
    """
    if not isinstance(delta, DeltaCertificate):
        delta = delta_bruteforce(lp)
    margin = max(1.0, 2.0 * lp.feas_tol())
    return lp.n * float(np.max(np.abs(lp.b))) / delta.delta + margin


def phase1_vertex(lp: NormalizedLP, boxed: NormalizedLP) -> Vertex:
    """Grow a vertex of P intersected with the box, or certify infeasibility.

    ``boxed`` is ``bounding_box(lp, radius)``.  Starting from the box corner
    where the n box rows along the directions (not their negations) are
    tight, constraint i is brought in by minimizing a_i^T x over the region
    satisfying the box and the first i-1 constraints; a minimum above b_i
    certifies the whole program infeasible, with the iteration index as
    witness.

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
                       b=np.concatenate([boxed.b[m:], lp.b]),
                       row_labels=boxed.row_labels[m:] + lp.row_labels)

    def prefix(k: int) -> NormalizedLP:
        return _derived(ordered, A=ordered.A[:k], b=ordered.b[:k],
                        row_labels=ordered.row_labels[:k])

    v = vertex_of_basis(prefix(2 * n), tuple(range(n)))
    for i in range(m):
        v = bland_simplex(prefix(2 * n + i), v, -lp.A[i])
        value = float(lp.A[i] @ v.point)
        if value > lp.b[i] + ftol:
            raise Infeasible(
                f"constraint {i + 1} cannot be satisfied: its minimum over "
                f"the previous region is {value:.12g} > {lp.b[i]:.12g}",
                iteration=i + 1, value=value)
        # The minimizer is already a vertex of the grown region; keep it.

    remapped = tuple(p - 2 * n if p >= 2 * n else m + p for p in v.basis)
    return Vertex(point=v.point, basis=remapped)


def solve_bounded(lp: NormalizedLP, boxed: NormalizedLP, cfg: WalkConfig,
                  start: Vertex, delta: float, *, max_retries: int,
                  ) -> tuple[tuple[int, ...], np.ndarray, tuple]:
    """Run the recursion on the boxed program and strip the box again.

    The walk runs at the given delta, which the box rows keep.  Returns the
    sorted basis positions in the original rows, the optimum x solved from
    them, and the per-level stats.  The first box row that lies in the basis
    or is tight at x certifies unboundedness.  Contact is judged at the
    input's tolerance, as in phase1_vertex; degenerate contact counts too.
    No input row can hide a tight box row: a basis without box rows gives
    a basic point of the input, and certified_radius leaves every box row
    slack there by more than that tolerance.
    """
    # Lazy: reduction imports phase1; perfbench's patch points pin the split.
    from .reduction import _solve_level

    basis, levels = _solve_level(boxed, delta, cfg, start, base_seed=cfg.seed,
                                 level=0, max_retries=max_retries)
    basis = tuple(sorted(basis))
    x = solve_square(boxed.A[list(basis)], boxed.b[list(basis)])
    ftol = lp.feas_tol()
    for p in range(lp.m, boxed.m):
        if p in basis or abs(float(boxed.A[p] @ x - boxed.b[p])) <= ftol:
            raise Unbounded(
                "optimum of the boxed system lies on the artificial box",
                box_row=p - lp.m)
    return basis, x, levels
