"""Initial vertex, infeasibility certification, and the boundedness box.

An enclosing box reuses n linearly independent rows of the constraint matrix
as slab directions, so augmenting with its 2n rows never introduces new
directions beyond negations and the row-separation property is preserved:
the boxed system has the input's delta.  Its radius follows in closed form
from a certified delta, so no basic system is ever solved to size it.
A vertex of the boxed system is grown one constraint at a time; an optimum
of the boxed program touching the box certifies unboundedness.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import Infeasible, RankDeficient, Unbounded
from .geometry import dist_to_span, solve_square
from .lp import DeltaCertificate, NormalizedLP, delta_bruteforce
from .simplex import Vertex, bland_simplex, vertex_of_basis
from .tolerances import SPAN_TOL
from .walk import WalkConfig


@dataclass(frozen=True)
class BoundingBox:
    """Slabs beta_i <= a_i^T x <= gamma_i along independent constraint rows."""

    direction_rows: tuple[int, ...]
    beta: np.ndarray
    gamma: np.ndarray


def find_independent_rows(lp: NormalizedLP) -> tuple[int, ...]:
    """Lexicographically first set of n linearly independent rows."""
    chosen: list[int] = []
    for i in range(lp.m):
        if dist_to_span(lp.A[i], lp.A[chosen] if chosen else []) > SPAN_TOL:
            chosen.append(i)
            if len(chosen) == lp.n:
                return tuple(chosen)
    raise RankDeficient("fewer than n independent rows; invalid instance")


def bounding_box(lp: NormalizedLP, radius: float) -> BoundingBox:
    """Box [-radius, radius] along each chosen direction.

    The directions are unit vectors, so the box contains the ball of the
    given radius; the caller guarantees that ball holds every basic point.
    """
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    rows = find_independent_rows(lp)
    n = lp.n
    return BoundingBox(direction_rows=rows,
                       beta=np.full(n, -float(radius)),
                       gamma=np.full(n, float(radius)))


def certified_radius(lp: NormalizedLP,
                     delta: float | DeltaCertificate) -> float:
    """A ball radius that strictly holds every basic point of the instance.

    Column j of A_B^{-1} has norm 1/dist(a_j, span(B minus j)) <= 1/delta,
    so every basic point satisfies ||x|| <= n * max|b| / delta; one more
    keeps them strictly inside.  Only a certificate may size the box: a
    bare float is a claim, and one that is too large would shrink the box
    onto a vertex and turn a bounded program into an "unbounded" verdict,
    so the input is certified by brute force instead (which may raise
    TooLarge).
    """
    if not isinstance(delta, DeltaCertificate):
        delta = delta_bruteforce(lp)
    return lp.n * float(np.max(np.abs(lp.b))) / delta.delta + 1.0


def box_constraint_rows(lp: NormalizedLP, box: BoundingBox,
                        ) -> tuple[np.ndarray, np.ndarray]:
    """The 2n box rows: gamma sides first, then negated beta sides."""
    dirs = lp.A[list(box.direction_rows)]
    return np.vstack([dirs, -dirs]), np.concatenate([box.gamma, -box.beta])


def augmented_lp(lp: NormalizedLP, box: BoundingBox) -> NormalizedLP:
    """Original rows followed by the 2n box rows, still unit-normalized."""
    A_box, b_box = box_constraint_rows(lp, box)
    next_label = max(lp.row_labels) + 1
    return NormalizedLP(
        A=np.vstack([lp.A, A_box]),
        b=np.concatenate([lp.b, b_box]),
        c=lp.c,
        row_labels=lp.row_labels + tuple(range(next_label, next_label + 2 * lp.n)),
    )


def phase1_vertex(lp: NormalizedLP, box: BoundingBox) -> Vertex:
    """Grow a vertex of P intersected with the box, or certify infeasibility.

    Starting from the box corner with all gamma sides tight, constraint i is
    brought in by minimizing a_i^T x over the region satisfying the box and
    the first i-1 constraints; a minimum above b_i certifies the whole
    program infeasible, with the iteration index as witness.

    The returned vertex's basis indexes the augmented system (original rows
    first, then the box rows).  The test uses the input's tolerance: box
    corners are exact up to rounding of order radius * eps, and a tolerance
    that grew with the radius would let real infeasibility through.
    """
    m, n = lp.m, lp.n
    A_box, b_box = box_constraint_rows(lp, box)
    ftol = lp.feas_tol()

    # Box-first ordering keeps row positions stable while constraints append.
    v = vertex_of_basis(
        NormalizedLP(A=A_box, b=b_box, c=lp.c, row_labels=()),
        tuple(range(n)))
    for i in range(m):
        region = NormalizedLP(A=np.vstack([A_box, lp.A[:i]]),
                              b=np.concatenate([b_box, lp.b[:i]]),
                              c=lp.c, row_labels=())
        v = bland_simplex(region, v, -lp.A[i])
        value = float(lp.A[i] @ v.point)
        if value > lp.b[i] + ftol:
            raise Infeasible(
                f"constraint {i + 1} cannot be satisfied: its minimum over "
                f"the previous region is {value:.12g} > {lp.b[i]:.12g}",
                iteration=i + 1, value=value)
        # The minimizer is already a vertex of the grown region; keep it.

    remapped = tuple(p - 2 * n if p >= 2 * n else m + p for p in v.basis)
    return Vertex(point=v.point, basis=remapped)


def _box_row_implied(lp: NormalizedLP, direction: np.ndarray, rhs: float,
                     ftol: float) -> bool:
    """Is some original row at least as tight as this box row?"""
    same = np.max(np.abs(lp.A - direction), axis=1) <= 1e-9
    return bool(np.any(same & (lp.b <= rhs + ftol)))


def solve_bounded(lp: NormalizedLP, box: BoundingBox, cfg: WalkConfig,
                  start: Vertex, delta: float, *, max_retries: int,
                  ) -> tuple[tuple[int, ...], list]:
    """Run the recursion on the boxed system and strip the box again.

    The walk runs at the given delta, which the box rows keep.  Returns
    (basis positions in the original rows, per-level stats).  An optimum
    touching a box row that the original rows do not imply certifies
    unboundedness; degenerate contact is treated as unbounded as well.
    Contact is judged at the input's tolerance, as in phase1_vertex.
    """
    from .reduction import _solve_level

    aug = augmented_lp(lp, box)
    levels: list = []
    basis_aug = _solve_level(aug, delta, cfg, start,
                             base_seed=cfg.seed, level=0,
                             max_retries=max_retries, levels_out=levels)
    x = solve_square(aug.A[list(basis_aug)], aug.b[list(basis_aug)])

    ftol = lp.feas_tol()
    m = lp.m
    for p in range(m, aug.m):
        if abs(float(aug.A[p] @ x - aug.b[p])) <= ftol:
            if not _box_row_implied(lp, aug.A[p], float(aug.b[p]), ftol):
                raise Unbounded(
                    "optimum of the boxed system lies on the artificial box",
                    box_row=p - m)
    if any(p >= m for p in basis_aug):
        raise Unbounded("optimal basis uses an artificial box row",
                        box_row=next(p for p in basis_aug if p >= m) - m)
    return tuple(sorted(basis_aug)), levels
