"""Bases, vertices, normal cones, and facet-crossing pivots.

A basis is a sorted tuple of n row positions whose rows are linearly
independent; the vertex it determines is the solution of the corresponding
tight system.  Pivoting moves to the unique neighboring vertex across a
chosen facet via the standard ratio test.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DegeneratePivot,
    InfeasibleBasis,
    IterationLimit,
    UnboundedEdge,
    UnboundedLP,
)
from .geometry import solve_square
from .lp import NormalizedLP
from .tolerances import CONE_TOL, RATIO_TOL

Basis = tuple[int, ...]


@dataclass(frozen=True, eq=False)
class Vertex:
    point: np.ndarray
    basis: Basis

    def __post_init__(self) -> None:
        object.__setattr__(self, "point", np.asarray(self.point, dtype=float))
        object.__setattr__(self, "basis", tuple(sorted(self.basis)))


class ConeResult(NamedTuple):
    inside: bool
    coeffs: np.ndarray  # conic coefficients, aligned with the sorted basis


def basis_matrix(lp: NormalizedLP, basis: Basis) -> np.ndarray:
    return lp.A[list(basis)]


def vertex_of_basis(lp: NormalizedLP, basis: Basis) -> Vertex:
    """Solve the tight system of a basis and verify it is feasible."""
    basis = tuple(sorted(basis))
    x = solve_square(basis_matrix(lp, basis), lp.b[list(basis)])
    if not lp.is_feasible(x):
        worst = float(np.max(lp.A @ x - lp.b))
        raise InfeasibleBasis(f"basis {basis} violates a constraint by {worst:g}")
    return Vertex(point=x, basis=basis)


def cone_membership(lp: NormalizedLP, basis: Basis, w: np.ndarray) -> ConeResult:
    """Does w lie in the cone spanned by the basis rows?

    Solves A_B^T mu = w; membership allows coefficients down to -CONE_TOL.
    """
    basis = tuple(sorted(basis))
    mu = solve_square(basis_matrix(lp, basis).T, np.asarray(w, dtype=float))
    return ConeResult(inside=bool(np.all(mu >= -CONE_TOL)), coeffs=mu)


def pivot_across_facet(lp: NormalizedLP, v: Vertex, leaving: int) -> Vertex:
    """Cross the facet of the leaving row to the unique neighboring vertex.

    The edge direction d satisfies a_j^T d = 0 for the staying rows and
    a_leaving^T d = -1; the entering row wins the ratio test.  Ties within
    RATIO_TOL are rejected as degeneracy rather than broken silently.
    """
    basis = v.basis
    if leaving not in basis:
        raise ValueError(f"row {leaving} is not in basis {basis}")
    local = basis.index(leaving)
    rhs = np.zeros(lp.n)
    rhs[local] = -1.0
    d = solve_square(basis_matrix(lp, basis), rhs)

    advance = lp.A @ d
    slack = lp.b - lp.A @ v.point
    entering = -1
    t_min = math.inf
    tie = False
    for j in range(lp.m):
        if j in basis or advance[j] <= RATIO_TOL:
            continue
        t = slack[j] / advance[j]
        if t < t_min - RATIO_TOL:
            t_min = t
            entering = j
            tie = False
        elif t <= t_min + RATIO_TOL:
            tie = True
    if entering < 0:
        raise UnboundedEdge(f"no blocking row leaving facet {leaving}")
    if tie:
        raise DegeneratePivot(f"ratio-test tie leaving facet {leaving}")

    new_basis = tuple(sorted(set(basis) - {leaving} | {entering}))
    return Vertex(point=v.point + t_min * d, basis=new_basis)


def bland_simplex(lp: NormalizedLP, start: Vertex, objective: np.ndarray) -> Vertex:
    """Deterministic reference simplex: maximize objective^T x from start.

    Always leaves the facet of the smallest-index row with a negative conic
    coefficient; optimality is certified by cone membership of the objective.
    Gives up after 10 * C(m, n) pivots.
    """
    max_pivots = 10 * math.comb(lp.m, lp.n)
    v = start
    for _ in range(max_pivots + 1):
        res = cone_membership(lp, v.basis, objective)
        if res.inside:
            return v
        leaving = next(row for row, coeff in zip(v.basis, res.coeffs)
                       if coeff < -CONE_TOL)
        try:
            v = pivot_across_facet(lp, v, leaving)
        except UnboundedEdge as exc:
            raise UnboundedLP("objective improves along an unbounded edge") from exc
    raise IterationLimit(f"exceeded {max_pivots} pivots")
