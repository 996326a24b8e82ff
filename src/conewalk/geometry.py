"""Dense linear-algebra primitives on small matrices.

Everything here is double precision and sized for desk-scale instances;
no sparsity, no factorization reuse.
"""
from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs

from .errors import NotUnitVector, SingularMatrix
from .tolerances import NORM_TOL, SINGULAR_TOL


def solve_square(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve M x = rhs for square nonsingular M.

    LU with partial pivoting through LAPACK's dgetrf/dgetrs, called directly:
    scipy.linalg.lu_factor/lu_solve make the same two calls, with argument
    checks that cost more than the solve itself at desk scale.  Raises
    SingularMatrix when the factorization produces a pivot of magnitude
    <= SINGULAR_TOL.
    """
    lu, piv, info = dgetrf(np.asarray(matrix, dtype=float))
    if info < 0:
        raise ValueError(f"dgetrf: illegal value in argument {-info}")
    if np.abs(lu.diagonal()).min() <= SINGULAR_TOL:
        raise SingularMatrix(f"no acceptable pivot (tol={SINGULAR_TOL:g})")
    x, info = dgetrs(lu, piv, np.asarray(rhs, dtype=float))
    if info < 0:
        raise ValueError(f"dgetrs: illegal value in argument {-info}")
    return x


def det_abs(matrix: np.ndarray) -> float:
    """Absolute determinant of a square matrix; 0 for singular input."""
    return abs(float(np.linalg.det(np.asarray(matrix, dtype=float))))


def orthonormal_basis(vectors) -> np.ndarray:
    """Orthonormal basis of the span of the given vectors, as matrix rows.

    Modified Gram-Schmidt with one re-orthogonalization pass; vectors that do
    not grow the rank (residual norm <= SINGULAR_TOL) are dropped.
    """
    basis: list[np.ndarray] = []
    for v in vectors:
        w = np.array(v, dtype=float)
        for _ in range(2):
            for q in basis:
                w -= (q @ w) * q
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
    v = np.asarray(v, dtype=float)
    if len(span_vectors) == 0:
        return float(np.linalg.norm(v))
    basis = orthonormal_basis(span_vectors)
    r = v.copy()
    for _ in range(2):
        for q in basis:
            r -= (q @ r) * q
    return float(np.linalg.norm(r))


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
