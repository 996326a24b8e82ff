"""Bases, vertices, normal cones, and facet-crossing pivots.

A basis is a sorted tuple of n row positions whose rows are linearly
independent; the vertex it determines is the solution of the corresponding
tight system.  Pivoting moves to the unique neighboring vertex across a
chosen facet via the standard ratio test, ties broken lexicographically.

The simplex state is a basis: the pivot and Bland's rule take a sorted
basis and return one.  One LU factorization of A_B serves everything asked
of a basis: its vertex and a pivot's edge direction solve with A_B, its
cone coefficients with A_B^T.  basis_factors is the only code in the
package that factors a matrix: the program's lu_memo keeps the factors and
the vertex, so a program factors and solves each basis once whoever asks.
A_B is gathered with one take, and a sorted basis is not sorted again.

Bland's rule and the pivot act on a region: the program's first ``rows``
rows, all of them by default.  Phase 1 descends on the boxed program's
prefixes this way, reading the boxed program's own memo, with no program
built per prefix.  The ratio test runs over Python floats, read once from
the region's advances A d and slacks b - A x, x being the basis's vertex.
"""
from __future__ import annotations

import math
from functools import partial
from operator import le
from typing import NamedTuple

import numpy as np

from .errors import InfeasibleBasis, IterationLimit, UnboundedEdge, UnboundedLP
from .geometry import LU, lu_factor, lu_solve
from .lp import NormalizedLP
from .tolerances import CONE_TOL, RATIO_TOL

Basis = tuple[int, ...]


class Vertex(NamedTuple):
    point: np.ndarray  # float
    basis: Basis       # sorted


class ConeResult(NamedTuple):
    inside: bool
    coeffs: np.ndarray  # conic coefficients, aligned with the sorted basis


# The membership rule for one conic coefficient mu: -CONE_TOL <= mu, so a
# NaN coefficient is outside.
_in_cone = partial(le, -CONE_TOL)


def basis_matrix(lp: NormalizedLP, basis: Basis) -> np.ndarray:
    """A_B, a new array of the basis rows in the given order."""
    return lp.A.take(basis, axis=0)


def basis_factors(lp: NormalizedLP, basis: Basis) -> tuple[LU, np.ndarray]:
    """LU factors of A_B, rows in the (sorted) basis order, and the basis's
    vertex A_B^{-1} b_B solved with them: read from lp.lu_memo, or factored,
    solved and kept there.  The vertex is read-only: every caller shares it."""
    entry = lp.lu_memo.get(basis)
    if entry is None:
        lu = lu_factor(basis_matrix(lp, basis))
        x = lu_solve(lu, lp.b.take(basis))
        x.flags.writeable = False
        entry = lp.lu_memo[basis] = lu, x
    return entry


def vertex_of_basis(lp: NormalizedLP, basis: Basis) -> Vertex:
    """The vertex of a basis, from lp's memo, verified feasible."""
    basis = tuple(sorted(basis))
    x = basis_factors(lp, basis)[1]
    if not lp.is_feasible(x):
        worst = float(np.max(lp.A @ x - lp.b))
        raise InfeasibleBasis(f"basis {basis} violates a constraint by {worst:g}")
    return Vertex(x, basis)


def cone_membership(lp: NormalizedLP, basis: Basis, w: np.ndarray,
                    ) -> ConeResult:
    """Does w lie in the cone spanned by the basis rows?

    Solves A_B^T mu = w with the factors of A_B, rows in sorted basis
    order; membership allows coefficients down to -CONE_TOL, and a NaN
    coefficient is outside.
    """
    mu = lu_solve(basis_factors(lp, tuple(sorted(basis)))[0], w, trans=1)
    return ConeResult(all(map(_in_cone, mu.tolist())), mu)


def pivot_across_facet(lp: NormalizedLP, basis: Basis, leaving: int, *,
                       rows: int | None = None) -> Basis:
    """The sorted basis across the facet of the leaving row: the unique
    neighboring vertex's.

    The region is lp's first ``rows`` rows (all of lp's by default); the
    sorted basis is one of its vertices.  The edge direction d satisfies
    a_j^T d = 0 for the staying rows and a_leaving^T d = -1; it is solved
    with the basis's factors, and the slacks b - A x are read at the
    basis's vertex x, both from lp's memo (basis_factors).  The candidates
    are the region's non-basis rows j with a_j^T d > RATIO_TOL, each with
    the ratio t_j = slack_j / a_j^T d; the least ratio's candidate enters.
    Off ties the rule reads only the set of (row, ratio) pairs, so it does
    not depend on the order of the rows.

    A tie, candidates within RATIO_TOL of the least ratio, is broken by the
    lexicographic rule (Charnes 1952; Dantzig, Orden & Wolfe 1955): with
    b_i perturbed by eps^i, tied row j's ratio gains the key
    (e_j - a_j^T A_B^{-1} on B) / a_j^T d over the row indices, and the
    least key enters, compared row by row within RATIO_TOL (the first row
    left).  One transposed solve with the basis's factors gives every
    a_j^T A_B^{-1}.  Row j alone is nonzero at its own index, so keys never
    tie and the pivot never raises on one; at a tie the choice depends on
    the row order.  Whether phase 1 keeps every basis lexicographically
    feasible when a row joins its region at slack 0 is not proven.

    The advances A d and slacks b - A x are read once each as Python
    floats, and one pass keeps the least ratio and the least of the others:
    the divisions and comparisons of the vectorized rule, bit for bit.
    """
    if leaving not in basis:
        raise ValueError(f"row {leaving} is not in basis {basis}")
    if rows is None:
        A, b = lp.A, lp.b
    elif basis[-1] < rows:
        A, b = lp.A[:rows], lp.b[:rows]
    else:
        raise ValueError(f"basis {basis} is not in the first {rows} rows")
    local = basis.index(leaving)
    rhs = np.zeros(lp.n)
    rhs[local] = -1.0
    lu, x = basis_factors(lp, basis)
    d = lu_solve(lu, rhs)

    advance = (A @ d).tolist()
    slack = (b - A @ x).tolist()
    for p in basis:
        advance[p] = 0.0  # a basis row never enters
    entering, t_min, t_next = -1, math.inf, math.inf
    for j, a in enumerate(advance):
        if a > RATIO_TOL:
            t = slack[j] / a
            if t < t_min:
                entering, t_min, t_next = j, t, t_min
            elif t < t_next:
                t_next = t
    if entering < 0:
        raise UnboundedEdge(f"no blocking row leaving facet {leaving}")
    if t_next <= t_min + RATIO_TOL:
        tied = [j for j, a in enumerate(advance)
                if a > RATIO_TOL and slack[j] / a <= t_min + RATIO_TOL]
        keys = np.zeros((len(tied), len(advance)))
        keys[:, basis] = -lu_solve(lu, A[tied].T, trans=1).T
        keys[range(len(tied)), tied] = 1.0
        keys /= np.array([advance[j] for j in tied])[:, None]
        alive = list(range(len(tied)))
        for key in keys.T.tolist():
            least = min(key[q] for q in alive)
            alive = [q for q in alive if key[q] <= least + RATIO_TOL]
        entering = tied[alive[0]]

    return tuple(sorted((*basis[:local], *basis[local + 1:], entering)))


def bland_simplex(lp: NormalizedLP, basis: Basis, objective: np.ndarray, *,
                  rows: int | None = None) -> Basis:
    """Deterministic reference simplex: the sorted basis maximizing
    objective^T x, reached from the sorted basis given.

    The region is lp's first ``rows`` rows (all of lp's by default), and
    the basis given is one of its vertices.  Always leaves the facet of the
    smallest-index row whose conic coefficient fails cone_membership's
    rule; optimality is certified by cone membership of the objective.
    Gives up after 10 * C(rows, n) pivots.  Each basis is factored once, in
    lp's memo, and its factors serve both its cone test and its pivot.
    """
    max_pivots = 10 * math.comb(lp.m if rows is None else rows, lp.n)
    for _ in range(max_pivots + 1):
        res = cone_membership(lp, basis, objective)
        if res.inside:
            return basis
        leaving = next(row for row, inside in zip(
            basis, map(_in_cone, res.coeffs.tolist())) if not inside)
        try:
            basis = pivot_across_facet(lp, basis, leaving, rows=rows)
        except UnboundedEdge as exc:
            raise UnboundedLP("objective improves along an unbounded edge") from exc
    raise IterationLimit(f"exceeded {max_pivots} pivots")
