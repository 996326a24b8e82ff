"""LP instances, row normalization, and row-separation (delta) certification.

The central quantity is the minimum distance from any constraint row to the
span of up to n-1 other rows, restricted to rows outside that span.  All
walk parameters are derived from it.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import (
    NonIntegerEntries,
    NotUnitVector,
    RankDeficient,
    TooLarge,
    ZeroObjective,
    ZeroRow,
)
from .tolerances import NORM_TOL, SINGULAR_TOL, SPAN_TOL, feas_tol_for

BRUTE_FORCE_LIMIT = 10**7


def _frozen_array(obj, name, value, dtype=float):
    arr = np.array(value, dtype=dtype)
    arr.flags.writeable = False
    object.__setattr__(obj, name, arr)
    return arr


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """max c^T x subject to A x <= b, with m >= n and A of full column rank.

    ``row_labels`` carries the caller-facing (1-based) identity of each row
    through normalization, augmentation and dimension reduction.
    """

    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    row_labels: tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        A = _frozen_array(self, "A", self.A)
        b = _frozen_array(self, "b", self.b)
        c = _frozen_array(self, "c", self.c)
        if A.ndim != 2:
            raise ValueError("A must be a 2-d matrix")
        m, n = A.shape
        if not (m >= n >= 1):
            raise ValueError(f"need m >= n >= 1, got m={m}, n={n}")
        if b.shape != (m,) or c.shape != (n,):
            raise ValueError("b/c shapes inconsistent with A")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))
                and np.all(np.isfinite(c))):
            raise ValueError("non-finite entries")
        if np.any(np.linalg.norm(A, axis=1) <= SPAN_TOL):
            raise ZeroRow("constraint matrix has an all-zero row")
        if np.linalg.matrix_rank(A) < n:
            raise RankDeficient("A does not have full column rank")
        if not self.row_labels:
            object.__setattr__(self, "row_labels", tuple(range(1, m + 1)))
        elif len(self.row_labels) != m:
            raise ValueError("row_labels length mismatch")

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]

    def feas_tol(self) -> float:
        return feas_tol_for(self.b)

    def is_feasible(self, x: np.ndarray, *, tol: float | None = None) -> bool:
        tol = self.feas_tol() if tol is None else tol
        return bool(np.all(self.A @ x <= self.b + tol))


@dataclass(frozen=True, eq=False)
class NormalizedLP(LinearProgram):
    """A LinearProgram whose rows and objective all have unit Euclidean norm."""

    def __post_init__(self) -> None:
        super().__post_init__()
        row_norms = np.linalg.norm(self.A, axis=1)
        if np.any(np.abs(row_norms - 1.0) > NORM_TOL):
            raise NotUnitVector("rows must have unit norm")
        if abs(float(np.linalg.norm(self.c)) - 1.0) > NORM_TOL:
            raise NotUnitVector("objective must have unit norm")


class DeltaMethod(Enum):
    BRUTE_FORCE = "brute_force"
    INTEGER_BOUND = "integer_bound"


@dataclass(frozen=True)
class DeltaCertificate:
    """A certified lower bound on the row-to-span separation of an instance."""

    delta: float
    method: DeltaMethod
    witness: tuple[int, tuple[int, ...]] | None = None
    Delta: int | None = None

    def __post_init__(self) -> None:
        if not (0.0 < self.delta <= 1.0 + NORM_TOL):
            raise ValueError(f"delta must lie in (0, 1], got {self.delta!r}")


def delta_value_and_method(delta: float | DeltaCertificate) -> tuple[float, str]:
    """The separation value and its report label.

    A certificate is labelled with its method; a bare number, which the
    caller vouches for, is labelled "provided".
    """
    if isinstance(delta, DeltaCertificate):
        return delta.delta, delta.method.value
    return float(delta), "provided"


def normalize(lp: LinearProgram) -> NormalizedLP:
    """Scale every row (with its right-hand side) and the objective to unit norm.

    The feasible region and the optimal face are unchanged.
    """
    row_norms = np.linalg.norm(lp.A, axis=1)
    if np.any(row_norms <= SPAN_TOL):
        raise ZeroRow("cannot normalize an all-zero row")
    c_norm = float(np.linalg.norm(lp.c))
    if c_norm <= SPAN_TOL:
        raise ZeroObjective("objective vector is zero")
    return NormalizedLP(
        A=lp.A / row_norms[:, None],
        b=lp.b / row_norms,
        c=lp.c / c_norm,
        row_labels=lp.row_labels,
    )


def _subset_distances(A: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distances from every row of A to the spans of the given row subsets.

    ``idx`` has shape (K, k).  Returns (dists, full_rank) where dists is
    (K, m) and full_rank marks subsets whose rows are independent; distances
    for rank-deficient subsets are meaningless (their spans are duplicates of
    smaller subsets) and must be ignored by the caller.
    """
    S = A[idx]                                  # (K, k, n)
    q, r = np.linalg.qr(S.transpose(0, 2, 1))   # q: (K, n, k)
    diag = np.abs(np.diagonal(r, axis1=1, axis2=2))
    full_rank = np.min(diag, axis=1) > SINGULAR_TOL
    proj = np.einsum("mn,Knk->Kmk", A, q)
    resid = A[None, :, :] - proj @ q.transpose(0, 2, 1)
    return np.linalg.norm(resid, axis=2), full_rank


def delta_bruteforce(lp: NormalizedLP, *,
                     limit: int = BRUTE_FORCE_LIMIT) -> DeltaCertificate:
    """Exact row separation by subset enumeration.

    Minimizes the distance from each row to the span of every subset of at
    most n-1 other rows, skipping rows that lie inside the span (distance
    <= SPAN_TOL).  The returned witness (row, subset) re-evaluates to the
    reported value.
    """
    m, n = lp.m, lp.n
    if math.comb(m, n - 1) * m > limit:
        raise TooLarge(f"C({m},{n - 1})*{m} exceeds the enumeration budget")
    A = lp.A
    # Empty subset: the span is {0}, every unit row is at distance 1.
    best = 1.0
    best_witness = (0, ())
    for k in range(1, n):
        idx = np.array(list(itertools.combinations(range(m), k)), dtype=int)
        dists, full_rank = _subset_distances(A, idx)
        dists = dists[full_rank]
        keep = idx[full_rank]
        mask = dists > SPAN_TOL
        if not np.any(mask):
            continue
        masked = np.where(mask, dists, np.inf)
        flat = int(np.argmin(masked))
        k_i, j = divmod(flat, m)
        if masked[k_i, j] < best:
            best = float(masked[k_i, j])
            best_witness = (j, tuple(int(t) for t in keep[k_i]))
    return DeltaCertificate(delta=best, method=DeltaMethod.BRUTE_FORCE,
                            witness=best_witness)


def delta_integer_bound(A_int: np.ndarray, Delta: int) -> DeltaCertificate:
    """Separation bound 1/(n * Delta^2) for an integral constraint matrix.

    ``Delta`` must be at least the maximum absolute sub-determinant of the
    matrix (caller-certified, or computed by the oracle module when small).
    """
    A_int = np.asarray(A_int)
    if not np.all(np.equal(np.mod(A_int, 1), 0)):
        raise NonIntegerEntries("matrix entries must be integral")
    if int(Delta) < 1:
        raise ValueError("Delta must be a positive integer")
    n = A_int.shape[1]
    return DeltaCertificate(delta=1.0 / (n * int(Delta) ** 2),
                            method=DeltaMethod.INTEGER_BOUND, Delta=int(Delta))
