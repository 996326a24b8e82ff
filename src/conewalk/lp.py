"""LP instances, row normalization, the parallel-row presolve, and
row-separation (delta) certification.

solve reads these in order: normalize; crossed_opposite_rows, which
certifies infeasible a row that exactly negates an earlier row, in input
order, when their bounds cross by more than the normalized program's
feasibility tolerance, before any later stage runs; tightest_rows, the
tightest row of each direction; then delta, by one of the three functions
below.

The central quantity, delta, is the minimum distance from any constraint row
to a hyperplane spanned by n-1 other rows, restricted to rows outside that
hyperplane (Brunsch and Roeglin's separation).  All walk parameters are
derived from it.  It is certified from the rows' structure when they are
scaled rows of a totally unimodular matrix (delta_from_structure), else by
enumeration (delta_bruteforce), or bounded from integral data with a known
sub-determinant bound (delta_integer_bound).
"""
from __future__ import annotations

import itertools
import math
import numbers
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import (
    NonIntegerEntries,
    NotUnitVector,
    RankDeficient,
    TooLarge,
    ZeroObjective,
    ZeroRow,
)
from .geometry import residual
from .tolerances import (
    DUPLICATE_TOL,
    NORM_TOL,
    SINGULAR_TOL,
    SPAN_TOL,
    feas_tol_for,
)

BRUTE_FORCE_LIMIT = 10**7

# The smallest norm normalize scales by: below it the squares of a row's
# entries underflow and its norm loses precision, down to 0 for a nonzero
# row.  A row or objective counts as zero only when every entry is 0.
MIN_NORM = math.sqrt(np.finfo(float).tiny)


def _frozen_array(obj, name, value, dtype=float):
    arr = np.array(value, dtype=dtype)
    arr.flags.writeable = False
    object.__setattr__(obj, name, arr)
    return arr


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """max c^T x subject to A x <= b, with m >= n and A of full column rank.

    A row is identified by its position in A, 0-based.
    """

    A: np.ndarray
    b: np.ndarray
    c: np.ndarray

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
        if not (np.isfinite(A).all() and np.isfinite(b).all()
                and np.isfinite(c).all()):
            raise ValueError("non-finite entries")
        if not A.any(axis=1).all():
            raise ZeroRow("constraint matrix has an all-zero row")
        # the rank of normalize's unit rows, bit for bit, so scaling a row
        # cannot change it
        if len(find_independent_rows(self._unit_rows()[1])) < n:
            raise RankDeficient("A does not have full column rank")

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]

    def feas_tol(self) -> float:
        """feas_tol_for(b), computed once per program and kept."""
        tol = self.__dict__.get("_feas_tol")
        if tol is None:
            tol = self.__dict__["_feas_tol"] = feas_tol_for(self.b)
        return tol

    def _unit_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """The rows' Euclidean norms and the rows scaled by them, read-only,
        computed once per program and kept.  A norm that overflows (to inf)
        or lies below MIN_NORM is kept as computed, but its row is scaled
        by its largest entry instead, so every scaled row is finite and
        nonzero; normalize raises TooLarge for such a norm."""
        pair = self.__dict__.get("_unit_rows_pair")
        if pair is None:
            with np.errstate(over="ignore"):  # an overflowing norm is inf
                norms = np.linalg.norm(self.A, axis=1)
            scale = np.where(np.isfinite(norms) & (norms >= MIN_NORM),
                             norms, np.abs(self.A).max(axis=1))
            unit = self.A / scale[:, None]
            norms.flags.writeable = unit.flags.writeable = False
            pair = self.__dict__["_unit_rows_pair"] = (norms, unit)
        return pair

    def is_feasible(self, x: np.ndarray, *, tol: float | None = None) -> bool:
        tol = self.feas_tol() if tol is None else tol
        return bool((self.A @ x <= self.b + tol).all())


@dataclass(frozen=True, eq=False)
class NormalizedLP(LinearProgram):
    """A LinearProgram whose rows and objective all have unit Euclidean norm.

    lu_memo maps a sorted basis to the LU factors of A_B and the basis's
    vertex A_B^{-1} b_B, solved with them; only simplex.basis_factors reads
    and fills it.  walk_memo maps a sorted basis to the walk's record of
    it; only walk._record reads and fills it.  Every program starts with
    both empty: no program shares another's memo, and phase 1 bounds its
    descents to the boxed program's first rows instead of building programs
    of them.
    """

    lu_memo: dict = field(default_factory=dict, init=False, repr=False)
    walk_memo: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        super().__post_init__()
        if (abs(self._unit_rows()[0] - 1.0) > NORM_TOL).any():
            raise NotUnitVector("rows must have unit norm")
        if abs(float(np.linalg.norm(self.c)) - 1.0) > NORM_TOL:
            raise NotUnitVector("objective must have unit norm")


def _derived(A: np.ndarray, b: np.ndarray, c: np.ndarray) -> NormalizedLP:
    """A program built from validated data without re-running validation.

    The NormalizedLP constructor checks finiteness, unit rows and
    objective, shapes and full column rank.  A program derived
    from a validated parent keeps all of these when the caller guarantees
    that:

    - every row of ``A`` is a row of the parent or its exact negation,
      so it is finite, nonzero and of unit norm;
    - ``A`` holds n linearly independent rows, so m >= n and A has full
      column rank;
    - ``b`` is finite with one entry per row, and ``c`` is the parent's.

    normalize vouches for them itself.  The float arrays are made read-only
    in place and stored as they are, not copied: the caller hands over
    fresh arrays or slices of read-only ones.  Both memos start empty, and
    the rows' norms and unit rows (LinearProgram._unit_rows) are computed
    only if something reads them.
    """
    A.flags.writeable = b.flags.writeable = c.flags.writeable = False
    lp = object.__new__(NormalizedLP)
    lp.__dict__.update(A=A, b=b, c=c, lu_memo={}, walk_memo={})
    return lp


class DeltaMethod(Enum):
    BRUTE_FORCE = "brute_force"
    INTEGER_BOUND = "integer_bound"
    NETWORK_ROWS = "network_rows"
    INTERVAL_ROWS = "interval_rows"


@dataclass(frozen=True)
class DeltaCertificate:
    """A certified lower bound on the row-to-span separation of an instance.
    Each field is checked when it is built; a bool is no number."""

    delta: float
    method: DeltaMethod
    witness: tuple[int, tuple[int, ...]] | None = None
    Delta: int | None = None

    def __post_init__(self) -> None:
        if (isinstance(self.delta, (bool, np.bool_))
                or not isinstance(self.delta, numbers.Real)):
            raise TypeError(f"delta must lie in (0, 1] as a real number, "
                            f"got {self.delta!r}")
        if not (0.0 < self.delta <= 1.0):
            raise ValueError(f"delta must lie in (0, 1], got {self.delta!r}")
        if not isinstance(self.method, DeltaMethod):
            raise TypeError(f"DeltaCertificate.method must be a DeltaMethod, "
                            f"got {self.method!r}")
        if self.Delta is not None and (
                isinstance(self.Delta, bool)
                or not isinstance(self.Delta, numbers.Integral)
                or self.Delta < 1):
            raise ValueError(f"DeltaCertificate.Delta must be None or a "
                             f"positive integer, got {self.Delta!r}")


def normalize(lp: LinearProgram) -> NormalizedLP:
    """Scale every row (with its right-hand side) and the objective to unit norm.

    The feasible region and the optimal face are unchanged.  What
    LinearProgram validated survives the scaling (a positive row scaling
    keeps the rank), and finite norms of at least MIN_NORM scale to unit
    norms within a few ulps, so NormalizedLP's validation is not run
    again.  The unit rows are the ones LinearProgram judged rank by
    (LinearProgram._unit_rows), the same array.  LinearProgram rejects a
    zero row, so only the objective can be zero, when every entry is: then
    ZeroObjective.  A nonzero row or objective whose norm is below
    MIN_NORM, or a norm or a scaled right-hand side past the float range,
    raises TooLarge, without a warning.
    """
    row_norms, A = lp._unit_rows()
    with np.errstate(over="ignore"):
        c_norm = float(np.linalg.norm(lp.c))
        if not (row_norms.min() >= MIN_NORM and c_norm >= MIN_NORM):
            if not lp.c.any():
                raise ZeroObjective("objective vector is zero")
            raise TooLarge("scaling to unit norms leaves the float range: a "
                           f"norm is below {MIN_NORM:.3g}, where the "
                           "squares of its entries underflow")
        b, c = lp.b / row_norms, lp.c / c_norm
    if not (math.isfinite(c_norm) and np.isfinite(row_norms).all()
            and np.isfinite(b).all()):
        raise TooLarge("scaling to unit norms leaves the float range: a "
                       "norm or a scaled right-hand side overflows")
    return _derived(A, b, c)


def _subset_distances(A: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distances from every row of A to the spans of the given row subsets.

    ``idx`` has shape (K, k); delta_bruteforce passes every subset of k =
    n-1 rows, so the spans are hyperplanes.  Returns (dists, full_rank)
    where dists is (K, m) and full_rank marks subsets whose rows are
    independent; a rank-deficient subset spans less than a hyperplane, which
    a full-rank subset's hyperplane covers at no greater distance, so the
    caller ignores its distances.
    """
    S = A[idx]                                  # (K, k, n)
    q, r = np.linalg.qr(S.transpose(0, 2, 1))   # q: (K, n, k)
    diag = np.abs(np.diagonal(r, axis1=1, axis2=2))
    full_rank = np.min(diag, axis=1) > SINGULAR_TOL
    proj = np.einsum("mn,Knk->Kmk", A, q)
    resid = A[None, :, :] - proj @ q.transpose(0, 2, 1)
    return np.linalg.norm(resid, axis=2), full_rank


@lru_cache
def _key_weights(n: int) -> tuple[np.ndarray, float]:
    """tightest_rows' key weights w_k = cos(1.618 k) for rows of n entries,
    read-only, and the half-width 2 * DUPLICATE_TOL * ||w||_1 of its key
    window: computed once per n."""
    w = np.cos(1.618 * np.arange(n))
    w.flags.writeable = False
    return w, 2.0 * DUPLICATE_TOL * float(abs(w).sum())


def tightest_rows(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Position of the tightest row of each distinct direction of (A, b).

    Unit rows share a direction when all their entries agree within
    DUPLICATE_TOL; a row and its negation are two directions.  Of the rows
    of one direction only the one with the least right-hand side, the
    earliest of equals, can be tight at a feasible point, so keeping it
    alone leaves the region A x <= b unchanged, up to 2 * DUPLICATE_TOL *
    ||x||_1 for a copy merged within the tolerance: the parallel-row step
    of LP presolve (Andersen & Andersen 1995).  The directions come in the
    order of their first rows, and a row joins the first direction whose
    first row it is within the tolerance of.

    One pass over the rows applies that rule.  A row byte-equal to an
    earlier row takes its direction from a dict.  Any other row is compared
    entrywise only with the first rows whose key h.w, w_k = cos(1.618 k),
    lies within 2 * DUPLICATE_TOL * ||w||_1 of its own, found by bisection
    in the first rows sorted by key (parallel rows by sorting a generic
    projection: Bixby & Wagner 1987).  Rows within the tolerance differ in
    the exact key by at most DUPLICATE_TOL * ||w||_1, and rounding moves
    the key of a unit row by under n^1.5 * 2^-52, far less than the rest of
    the window, so the window holds every first row the rule can join.  A
    row thus costs a dict lookup, and a new row also a bisection and the
    comparisons in its window, which for distinct directions is empty and
    costs none.
    """
    rows = np.ascontiguousarray(A, dtype=float)
    rhs = b.tolist()
    w, reach = _key_weights(rows.shape[1])
    width = 8 * rows.shape[1]  # bytes per row
    raw = rows.tobytes()
    direction: dict[bytes, int] = {}  # row bytes -> its direction
    firsts: list[tuple[float, int, int]] = []  # (key, direction, first row)
    kept: list[int] = []  # the tightest row of each direction
    for i, key in enumerate((rows @ w).tolist()):
        row = raw[i * width:(i + 1) * width]
        d = direction.get(row)
        if d is None:
            lo = bisect_left(firsts, (key - reach,))
            hi = bisect_right(firsts, (key + reach, math.inf))
            d = direction[row] = len(kept) if lo == hi else min(
                (j for _, j, f in firsts[lo:hi]
                 if np.abs(rows[f] - rows[i]).max() <= DUPLICATE_TOL),
                default=len(kept))
            if d == len(kept):  # the first row of a new direction
                insort(firsts, (key, d, i))
                kept.append(i)
        if rhs[i] < rhs[kept[d]]:
            kept[d] = i
    return np.array(kept, dtype=int)


def crossed_opposite_rows(A: np.ndarray, b: np.ndarray,
                          tol: float) -> tuple[int, int] | None:
    """The pair (i, j), i < j, of rows that are exact negations of each
    other and whose bounds cross by more than tol, a_j = -a_i and
    -b_i > b_j + tol, with j the first such row in row order and i the
    tightest earlier row of a_i's bytes (least b, earliest of equals),
    else None.

    solve passes every normalized row, in input order, and the normalized
    program's feasibility tolerance, before the collapse.  This is the
    opposite-direction half of the parallel-row step that tightest_rows
    does for one direction (Andersen & Andersen 1995).  Row i gives
    a_j x = -a_i x >= -b_i > b_j, so no point satisfies both rows, and
    e_i + e_j is a Farkas vector: y^T A = 0 and y^T b < 0.  Of the earlier
    rows byte-equal to a_i, the tightest puts the greatest bound -b_i on
    row j, so row j crosses one of them exactly when it crosses that one.
    A dict maps each row's bytes, with -0.0 folded to 0.0 (``A + 0.0``
    and ``0.0 - A``) on both sides, to its tightest earlier row, and each
    row's negation is looked up in it, so the pass is O(m) and pivots
    nowhere.  Rows that are negations only within rounding, and bounds
    that do not cross, are left to phase 1.
    """
    void = np.dtype((np.void, 8 * A.shape[1]))  # one row's bytes
    rows = np.add(A, 0.0, order="C").view(void).ravel().tolist()
    negated = np.subtract(0.0, A, order="C").view(void).ravel().tolist()
    rhs = b.tolist()
    tightest: dict[bytes, int] = {}  # row bytes -> its tightest row so far
    for j, (row, negation, b_j) in enumerate(zip(rows, negated, rhs)):
        i = tightest.get(negation)
        if i is not None and -rhs[i] > b_j + tol:
            return i, j
        if b_j < rhs[tightest.setdefault(row, j)]:
            tightest[row] = j
    return None


def find_independent_rows(A: np.ndarray) -> tuple[int, ...]:
    """The rank rule: the lexicographically first independent unit rows of A,
    at most n.  LinearProgram and phase1.bounding_box both decide by it.

    A row is chosen when its distance to the span of the rows chosen before
    exceeds SPAN_TOL; that span's orthonormal basis grows as dist_to_span
    grows its own, so every distance is dist_to_span's, bit for bit.  Rows
    are read as Python floats one at a time: the rule stops after n rows.
    """
    chosen: list[int] = []
    onb: list[list[float]] = []
    for i, row in enumerate(A):
        w = residual(row.tolist(), onb)
        norm = math.hypot(*w)
        if norm > SPAN_TOL:
            chosen.append(i)
            onb.append([x / norm for x in w])
            if len(chosen) == A.shape[1]:
                break
    return tuple(chosen)


def _distinct_directions(A: np.ndarray) -> np.ndarray:
    """Positions of the first row of each distinct direction, ascending.

    The directions of tightest_rows, where in addition a row and its
    negation are one direction: each row is flipped so that its first
    nonzero entry is positive (negation is exact in floating point, so a
    row and its negation flip to the same values) and ``+ 0.0`` turns -0.0
    into 0.0.  With equal right-hand sides the tightest row of a direction
    is its first.
    """
    first_nonzero = A[np.arange(A.shape[0]), np.argmax(A != 0.0, axis=1)]
    canonical = A * np.where(first_nonzero < 0.0, -1.0, 1.0)[:, None] + 0.0
    return tightest_rows(canonical, np.zeros(A.shape[0]))


def delta_bruteforce(lp: NormalizedLP, *,
                     limit: int = BRUTE_FORCE_LIMIT) -> DeltaCertificate:
    """Exact row separation by enumerating hyperplanes over distinct directions.

    delta is the least distance from a row to a hyperplane spanned by n-1
    other rows, over the rows that lie outside it (distance > SPAN_TOL).
    Spans of fewer rows add nothing: if a span S misses row a, extend S and
    a with other rows to a basis of R^n; the hyperplane spanned by S and
    the added rows still misses a and, holding S, is no farther from it.
    Repeated rows and exact negations add neither a hyperplane nor a
    distance, so only the first occurrence of each of the d distinct
    directions is enumerated: C(d, n-1) subsets times d rows, whatever the
    padding.  With no hyperplane closer than 1, as always at n = 1, delta
    is 1 with witness (0, ()); otherwise the witness (row, subset) holds
    n-1 subset rows, in input row positions, and re-evaluates to the
    reported value.  A count past limit raises TooLarge, with budget=limit,
    before any distance is taken.
    """
    n = lp.n
    rows = _distinct_directions(lp.A)
    d = len(rows)
    if math.comb(d, n - 1) * d > limit:
        raise TooLarge(f"C({d},{n - 1})*{d} over {d} distinct row directions "
                       "exceeds the enumeration budget", budget=limit)
    best = 1.0
    best_witness = (0, ())
    if n > 1:
        idx = np.array(list(itertools.combinations(range(d), n - 1)), dtype=int)
        dists, full_rank = _subset_distances(lp.A[rows], idx)
        masked = np.where(full_rank[:, None] & (dists > SPAN_TOL), dists, np.inf)
        k, j = divmod(int(np.argmin(masked)), d)
        if masked[k, j] < best:
            best = float(masked[k, j])
            best_witness = (int(rows[j]), tuple(int(rows[t]) for t in idx[k]))
    return DeltaCertificate(delta=best, method=DeltaMethod.BRUTE_FORCE,
                            witness=best_witness)


def delta_integer_bound(A_int: np.ndarray, Delta: int) -> DeltaCertificate:
    """Separation bound 1/(n * Delta^2) for an integral constraint matrix.

    ``Delta`` must be at least the maximum absolute sub-determinant of the
    matrix (caller-certified, or computed by the oracle module when small).
    A bound too small to form as a float raises TooLarge, at any size of
    Delta: an int is integral without a float conversion.  A Delta that is
    no real number raises TypeError before any work; a bool, or a number
    below 1 or not integral, raises ValueError.
    """
    if not isinstance(Delta, (numbers.Real, np.bool_)):
        raise TypeError(f"Delta must be a positive integer as a number, "
                        f"got {Delta!r}")
    A_int = np.asarray(A_int)
    if not np.all(np.equal(np.mod(A_int, 1), 0)):
        raise NonIntegerEntries("matrix entries must be integral")
    if isinstance(Delta, (bool, np.bool_)) or not (
            (isinstance(Delta, int) or float(Delta).is_integer())
            and Delta >= 1):
        raise ValueError(f"Delta must be a positive integer, got {Delta!r}")
    n = A_int.shape[1]
    try:
        delta = 1.0 / (n * int(Delta) ** 2)
    except OverflowError:
        raise TooLarge(f"the bound 1/(n * Delta^2) is below the float range: "
                       f"n={n}, Delta of {len(str(Delta))} digits") from None
    return DeltaCertificate(delta=delta, method=DeltaMethod.INTEGER_BOUND,
                            Delta=int(Delta))


def delta_from_structure(lp: NormalizedLP) -> DeltaCertificate | None:
    """The bound 1/n for rows that are scaled rows of a totally unimodular matrix.

    A row qualifies when its nonzero entries share one absolute value,
    compared exactly: a scaled {0, +1, -1} row does, bit for bit.  The sign
    patterns are totally unimodular when every row has at most one positive
    and at most one negative entry (NETWORK_ROWS: the transpose of a
    directed incidence matrix), or when every row's nonzeros have one sign
    and sit in consecutive columns (INTERVAL_ROWS: an interval matrix with
    some rows negated), by Heller & Tompkins (1956) and Fulkerson & Gross
    (1965).  One rule must hold for every row: the rules do not mix.
    Sub-determinants are then bounded by Delta = 1, and
    delta_integer_bound's 1/(n * Delta^2) holds.  Any other matrix gives
    None.
    """
    network = interval = True
    for row in lp.A.tolist():  # a Python loop beats numpy at these sizes
        nonzeros = [v for v in row if v]
        k = len(nonzeros)
        size = abs(nonzeros[0])
        pos = nonzeros.count(size)
        if pos + nonzeros.count(-size) != k:
            return None
        network = network and pos <= 1 and k - pos <= 1
        if interval:
            first = row.index(nonzeros[0])
            interval = pos in (0, k) and all(row[first:first + k])
        if not (network or interval):
            return None
    return DeltaCertificate(
        delta=1.0 / lp.n, Delta=1,
        method=DeltaMethod.NETWORK_ROWS if network else DeltaMethod.INTERVAL_ROWS)
