"""Bases, vertices, normal cones, and facet-crossing pivots.

A basis is a sorted tuple of n row positions whose rows are linearly
independent; the vertex it determines is the solution of the corresponding
tight system.  Pivoting moves to the unique neighboring vertex across a
chosen facet via the standard ratio test.

One LU factorization of A_B serves everything asked of a basis: its vertex
and a pivot's edge direction solve with A_B, its cone coefficients with
A_B^T.  basis_factors is the one place the solver factors a basis: it keeps
the factors in the program's lu_memo, so a program factors each basis once
whoever asks, and phase 1's prefixes share the boxed program's memo.
A_B is gathered with one take, and a sorted basis is not sorted again.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import (
    DegeneratePivot,
    InfeasibleBasis,
    IterationLimit,
    UnboundedEdge,
    UnboundedLP,
)
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


def basis_matrix(lp: NormalizedLP, basis: Basis) -> np.ndarray:
    """A_B, a new array of the basis rows in the given order."""
    return lp.A.take(basis, axis=0)


def basis_factors(lp: NormalizedLP, basis: Basis) -> LU:
    """LU factors of A_B, rows in the (sorted) basis order: read from
    lp.lu_memo, or factored and kept there."""
    lu = lp.lu_memo.get(basis)
    if lu is None:
        lu = lp.lu_memo[basis] = lu_factor(basis_matrix(lp, basis))
    return lu


def vertex_of_basis(lp: NormalizedLP, basis: Basis) -> Vertex:
    """Solve the tight system of a basis and verify it is feasible."""
    basis = tuple(sorted(basis))
    x = lu_solve(basis_factors(lp, basis), lp.b.take(basis))
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
    mu = lu_solve(basis_factors(lp, tuple(sorted(basis))), w, trans=1)
    return ConeResult(inside=all(m >= -CONE_TOL for m in mu.tolist()),
                      coeffs=mu)


def pivot_across_facet(lp: NormalizedLP, v: Vertex, leaving: int) -> Vertex:
    """Cross the facet of the leaving row to the unique neighboring vertex.

    The edge direction d satisfies a_j^T d = 0 for the staying rows and
    a_leaving^T d = -1; it is solved with the factors of v's basis.  The
    candidates are the non-basis rows j with
    a_j^T d > RATIO_TOL, each with the ratio t_j = slack_j / a_j^T d; the
    entering row is the candidate of least ratio.  If any other candidate's
    ratio is within RATIO_TOL of that least one, the pivot is degenerate and
    raises rather than picks.  The rule reads only the set of (row, ratio)
    pairs, so it does not depend on the order of the rows.
    """
    basis = v.basis
    if leaving not in basis:
        raise ValueError(f"row {leaving} is not in basis {basis}")
    local = basis.index(leaving)
    rhs = np.zeros(lp.n)
    rhs[local] = -1.0
    d = lu_solve(basis_factors(lp, basis), rhs)

    advance = lp.A @ d
    slack = lp.b - lp.A @ v.point
    candidate = advance > RATIO_TOL
    candidate.put(basis, False)
    rows = candidate.nonzero()[0]
    if rows.size == 0:
        raise UnboundedEdge(f"no blocking row leaving facet {leaving}")
    t = slack[rows] / advance[rows]
    k = int(t.argmin())
    t_min = t[k]
    if np.count_nonzero(t <= t_min + RATIO_TOL) > 1:
        raise DegeneratePivot(f"ratio-test tie leaving facet {leaving}")
    entering = int(rows[k])

    new_basis = tuple(sorted((*basis[:local], *basis[local + 1:], entering)))
    return Vertex(v.point + t_min * d, new_basis)


def bland_simplex(lp: NormalizedLP, start: Vertex,
                  objective: np.ndarray) -> Vertex:
    """Deterministic reference simplex: maximize objective^T x from start.

    Always leaves the facet of the smallest-index row with a negative conic
    coefficient; optimality is certified by cone membership of the objective.
    Gives up after 10 * C(m, n) pivots.  Each basis is factored once, and
    its factors serve both its cone test and its pivot.
    """
    max_pivots = 10 * math.comb(lp.m, lp.n)
    v = start
    for _ in range(max_pivots + 1):
        res = cone_membership(lp, v.basis, objective)
        if res.inside:
            return v
        leaving = next(row for row, coeff in zip(v.basis, res.coeffs.tolist())
                       if coeff < -CONE_TOL)
        try:
            v = pivot_across_facet(lp, v, leaving)
        except UnboundedEdge as exc:
            raise UnboundedLP("objective improves along an unbounded edge") from exc
    raise IterationLimit(f"exceeded {max_pivots} pivots")
