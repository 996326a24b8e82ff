"""Dense linear-algebra primitives on small matrices.

Everything here is double precision and sized for desk-scale instances;
no sparsity.  One LU factorization (lu_factor) serves every solve with a
matrix and with its transpose (lu_solve) and its log-determinant
(log_abs_det), calling LAPACK directly.  One function calls lu_factor:
simplex.basis_factors, which factors each basis matrix A_B of a program
once and serves the vertex, the pivot's edge direction, the cone
coefficients and the cell volume from those factors.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs

from .errors import NotUnitVector, SingularMatrix
from .tolerances import NORM_TOL, SINGULAR_TOL


class LU(NamedTuple):
    """LU factors with partial pivoting of a square matrix, as dgetrf gives them."""

    lu: np.ndarray
    piv: np.ndarray


def lu_factor(matrix: np.ndarray) -> LU:
    """Factor a square nonsingular matrix through LAPACK's dgetrf.

    Called directly: scipy.linalg.lu_factor makes the same call, with
    argument checks that cost more than the factorization itself at desk
    scale; dgetrf copies the matrix itself.  Raises SingularMatrix when a
    pivot has magnitude <= SINGULAR_TOL, unless one is NaN (as numpy's min).
    """
    lu, piv, info = dgetrf(matrix)
    if info < 0:
        raise ValueError(f"dgetrf: illegal value in argument {-info}")
    pivots = [abs(u) for u in lu.diagonal().tolist()]
    if min(pivots) <= SINGULAR_TOL and not any(map(math.isnan, pivots)):
        raise SingularMatrix(f"no acceptable pivot (tol={SINGULAR_TOL:g})")
    return LU(lu, piv)


def lu_solve(factors: LU, rhs: np.ndarray, trans: int = 0) -> np.ndarray:
    """Solve M x = rhs (trans=0) or M^T x = rhs (trans=1) from M's factors."""
    x, info = dgetrs(factors.lu, factors.piv, np.asarray(rhs, dtype=float),
                     trans=trans)
    if info < 0:
        raise ValueError(f"dgetrs: illegal value in argument {-info}")
    return x


def log_abs_det(factors: LU) -> float:
    """log |det M| from M's factors: the sum of log |u_ii| over U's diagonal."""
    return float(np.log(np.abs(factors.lu.diagonal())).sum())


def det_abs(matrix: np.ndarray) -> float:
    """Absolute determinant of a square matrix; 0 for singular input."""
    return abs(float(np.linalg.det(np.asarray(matrix, dtype=float))))


def residual(v, basis) -> np.ndarray:
    """v minus its projection on the span of orthonormal rows, as a new array.

    Modified Gram-Schmidt with one re-orthogonalization pass: the vector
    orthonormal_basis would append for v, before normalizing.
    """
    w = np.array(v, dtype=float)
    for _ in range(2):
        for q in basis:
            w -= (q @ w) * q
    return w


def orthonormal_basis(vectors) -> np.ndarray:
    """Orthonormal basis of the span of the given vectors, as matrix rows.

    Each vector's residual against the rows so far is appended, normalized,
    when its norm exceeds SINGULAR_TOL; the others do not grow the rank.
    """
    basis: list[np.ndarray] = []
    for v in vectors:
        w = residual(v, basis)
        norm = float(np.linalg.norm(w))
        if norm > SINGULAR_TOL:
            basis.append(w / norm)
    if not basis:
        return np.empty((0, len(np.atleast_1d(vectors[0])) if len(vectors) else 0))
    return np.array(basis)


def dist_to_span(v: np.ndarray, span_vectors) -> float:
    """Euclidean distance from v to the linear span of the given vectors.

    An empty collection spans {0}, so the distance is ``||v||``.
    """
    if len(span_vectors) == 0:
        return float(np.linalg.norm(np.asarray(v, dtype=float)))
    return float(np.linalg.norm(residual(v, orthonormal_basis(span_vectors))))


def _check_unit(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    norm = float(np.linalg.norm(a))
    if abs(norm - 1.0) > NORM_TOL:
        raise NotUnitVector(f"norm {norm!r} deviates from 1 beyond {NORM_TOL:g}")
    return a


def rotation_to_e1(a: np.ndarray) -> np.ndarray:
    """Orthonormal U with a^T U = e_1^T, for unit a.

    Built from a single Householder reflection; the reflector uses the
    sign-stable pivot a +/- e_1 so the construction never cancels.
    """
    a = _check_unit(a)
    n = a.shape[0]
    sign = 1.0 if a[0] >= 0.0 else -1.0
    v = a.copy()
    v[0] += sign
    u = np.eye(n) - (2.0 / (v @ v)) * np.outer(v, v)
    if sign > 0.0:
        # The reflection maps a to -e_1; flip the first output coordinate.
        u[:, 0] = -u[:, 0]
    return u
