"""Dense linear-algebra primitives on small matrices.

Everything here is double precision and sized for desk-scale instances;
no sparsity.  One LU factorization (lu_factor) serves every solve with a
matrix and with its transpose (lu_solve) and its log-determinant
(log_abs_det), calling LAPACK directly.  One function calls lu_factor:
simplex.basis_factors, which factors each basis matrix A_B of a program
once, solves its vertex once, and serves the pivot's edge direction, the
cone coefficients and the cell volume from those factors.  Gram-Schmidt
(residual) runs over Python floats: on vectors of a few entries a numpy
call costs more than the arithmetic.
"""
from __future__ import annotations

import math
from operator import mul
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


def residual(v, basis) -> list[float]:
    """v minus its projection on the span of orthonormal rows, as a float list.

    Modified Gram-Schmidt with one re-orthogonalization pass, over Python
    floats: each coefficient is math.fsum of the rounded products, so it
    does not depend on a BLAS kernel.  basis holds the rows as float lists.
    dist_to_span and find_independent_rows grow their orthonormal bases by
    it: each appends v's residual divided by its norm.
    """
    w = list(map(float, v))
    for _ in range(2):
        for q in basis:
            s = math.fsum(map(mul, q, w))
            if s:  # subtracting 0 * q would leave w as it is, up to signed zeros
                w = [wi - s * qi for wi, qi in zip(w, q)]
    return w


def dist_to_span(v: np.ndarray, span_vectors) -> float:
    """Euclidean distance from v to the linear span of the given vectors.

    The span's orthonormal basis grows by each vector's residual, divided
    by its norm (math.hypot), when that norm exceeds SINGULAR_TOL.  An
    empty collection spans {0}, so the distance is ``||v||``.
    """
    basis: list[list[float]] = []
    for u in span_vectors:
        w = residual(u, basis)
        norm = math.hypot(*w)
        if norm > SINGULAR_TOL:
            basis.append([x / norm for x in w])
    return math.hypot(*residual(v, basis))


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
