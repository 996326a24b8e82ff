"""Independent brute-force ground truth for desk-scale instances.

Everything here is deliberately naive: exhaustive basis enumeration, exact
integer sub-determinants, inverse-CDF Monte Carlo.  These routines validate
the solver and generate test instances; they never feed the solver's own
computations.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import TooLarge
from .geometry import det_abs, solve_square
from .lp import LinearProgram, NormalizedLP
from .simplex import Basis, Vertex, basis_matrix
from .tolerances import SINGULAR_TOL

ENUMERATION_LIMIT = 10**6
SUBDET_LIMIT = 10**7
DEDUPE_TOL = 1e-7


@dataclass(frozen=True)
class EnumerationResult:
    vertices: tuple[Vertex, ...]
    optimal_basis: Basis
    optimal_value: float
    optimal_point: np.ndarray


def _all_basic_points(lp: NormalizedLP, limit: int) -> list[tuple[Basis, np.ndarray]]:
    """Solve every nonsingular n-row subsystem (feasible or not)."""
    m, n = lp.m, lp.n
    if math.comb(m, n) > limit:
        raise TooLarge(f"C({m},{n}) exceeds the enumeration budget")
    combos = np.array(list(itertools.combinations(range(m), n)), dtype=int)
    subs = lp.A[combos]                      # (K, n, n)
    dets = np.abs(np.linalg.det(subs))
    keep = dets > SINGULAR_TOL
    points = np.linalg.solve(subs[keep], lp.b[combos[keep]][..., None])[..., 0]
    return [(tuple(int(r) for r in rows), x)
            for rows, x in zip(combos[keep], points)]


def enumerate_vertices(lp: NormalizedLP, *,
                       limit: int = ENUMERATION_LIMIT) -> EnumerationResult:
    """Every vertex of {Ax <= b} by trying all n-row bases.

    Points closer than DEDUPE_TOL collapse onto the first basis found
    (lexicographic order), and the optimum maximizes c over the list.
    """
    tol = lp.feas_tol()
    vertices: list[Vertex] = []
    for basis, x in _all_basic_points(lp, limit):
        if not lp.is_feasible(x, tol=tol):
            continue
        if any(np.max(np.abs(v.point - x)) <= DEDUPE_TOL for v in vertices):
            continue
        vertices.append(Vertex(point=x, basis=basis))
    if not vertices:
        raise ValueError("the region has no vertices")
    values = [float(lp.c @ v.point) for v in vertices]
    best = int(np.argmax(values))
    return EnumerationResult(vertices=tuple(vertices),
                             optimal_basis=vertices[best].basis,
                             optimal_value=values[best],
                             optimal_point=vertices[best].point)


def check_nondegenerate(lp: NormalizedLP, *,
                        limit: int = ENUMERATION_LIMIT) -> bool:
    """True iff every vertex of {Ax <= b} has exactly n tight rows."""
    m, n = lp.m, lp.n
    if math.comb(m, n) > limit:
        raise TooLarge(f"C({m},{n}) exceeds the enumeration budget")
    tol = lp.feas_tol()
    for rows in itertools.combinations(range(m), n):
        sub = lp.A[list(rows)]
        if det_abs(sub) <= SINGULAR_TOL:
            continue
        x = np.linalg.solve(sub, lp.b[list(rows)])
        if not lp.is_feasible(x, tol=tol):
            continue
        tight = int(np.sum(np.abs(lp.A @ x - lp.b) <= tol))
        if tight != n:
            return False
    return True


def _int_det(rows: list[list[int]]) -> int:
    """Exact integer determinant (fraction-free Gaussian elimination)."""
    a = [row[:] for row in rows]
    k = len(a)
    sign = 1
    prev = 1
    for i in range(k - 1):
        if a[i][i] == 0:
            for r in range(i + 1, k):
                if a[r][i] != 0:
                    a[i], a[r] = a[r], a[i]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(i + 1, k):
            for col in range(i + 1, k):
                a[r][col] = (a[r][col] * a[i][i] - a[r][i] * a[i][col]) // prev
            a[r][i] = 0
        prev = a[i][i]
    return sign * a[-1][-1]


def max_subdeterminant(A_int: np.ndarray, *, limit: int = SUBDET_LIMIT) -> int:
    """Maximum |det| over all square sub-matrices, in exact integer arithmetic."""
    A_int = np.asarray(A_int)
    if not np.all(np.equal(np.mod(A_int, 1), 0)):
        raise ValueError("matrix entries must be integral")
    A = A_int.astype(object).tolist()
    A = [[int(x) for x in row] for row in A]
    m, n = len(A), len(A[0])
    total = sum(math.comb(m, k) * math.comb(n, k) for k in range(1, min(m, n) + 1))
    if total > limit:
        raise TooLarge(f"{total} sub-matrices exceed the enumeration budget")
    best = 0
    for k in range(1, min(m, n) + 1):
        for rows in itertools.combinations(range(m), k):
            picked = [A[r] for r in rows]
            for cols in itertools.combinations(range(n), k):
                sub = [[row[c] for c in cols] for row in picked]
                best = max(best, abs(_int_det(sub)))
    return best


class TailCheckResult(NamedTuple):
    empirical: float
    bound: float
    ok: bool


def laplace_tail_check(n: int, alpha: float, delta: float,
                       samples: int = 10**6, seed: int = 0) -> TailCheckResult:
    """Monte Carlo check of the union-bound tail estimate.

    Draws vectors with independent coordinates of density exp(-|t|)/2 via
    the inverse CDF and compares the frequency of ||y||_1 >= alpha*delta/(2n)
    against n * exp(-alpha*delta/(2n^2)), allowing three binomial standard
    deviations of slack.
    """
    threshold = alpha * delta / (2.0 * n)
    bound = n * math.exp(-alpha * delta / (2.0 * n**2)) \
        if alpha * delta > 0 else float(n)
    if threshold <= 0.0:
        return TailCheckResult(empirical=1.0, bound=max(bound, 1.0), ok=True)
    rng = np.random.default_rng(seed)
    u = rng.random((samples, n))
    with np.errstate(divide="ignore"):
        y = np.where(u < 0.5, np.log(2.0 * u), -np.log(2.0 - 2.0 * u))
    empirical = float(np.mean(np.sum(np.abs(y), axis=1) >= threshold))
    sigma = math.sqrt(max(bound * (1.0 - bound), 0.0) / samples)
    ok = bound >= 1.0 or empirical <= bound + 3.0 * sigma
    return TailCheckResult(empirical=empirical, bound=bound, ok=ok)


def _generic_rationals(rng: np.random.Generator, count: int,
                       low: int, high: int, denom: int) -> np.ndarray:
    """Distinct nonzero rationals numerator/denom with numerator in [low, high]."""
    numerators = rng.choice(np.arange(low, high + 1), size=count, replace=False)
    return numerators.astype(float) / denom


def tu_instance_generator(kind: str, n: int, m: int, seed: int) -> LinearProgram:
    """Integer-row instances with all sub-determinants in {-1, 0, 1}.

    Each instance contains the 2n rows of a generic axis-aligned box (so the
    region is bounded and has the origin in its interior) plus, depending on
    the kind, redundant box duplicates ("box"), consecutive-ones rows
    ("interval"), or one +1/-1 difference rows ("network").  Right-hand
    sides mix denominators 64 (box) and 97 (cuts) to keep vertices generic.
    """
    if kind not in ("box", "interval", "network"):
        raise ValueError(f"unknown kind {kind!r}")
    if not (1 <= n <= 5 and 2 * n <= m <= 30):
        raise ValueError("need 1 <= n <= 5 and 2n <= m <= 30")
    rng = np.random.default_rng(seed)

    rows = [np.eye(n)[i] for i in range(n)] + [-np.eye(n)[i] for i in range(n)]
    rhs = list(1.0 + rng.integers(0, 32, size=n) / 64.0) \
        + list((1.0 + rng.integers(0, 31, size=n)) / 64.0)

    extra = m - 2 * n
    if kind == "box":
        for j in range(extra):
            base = j % (2 * n)
            rows.append(rows[base].copy())
            rhs.append(rhs[base] + 1.0 + float(rng.integers(0, 32)) / 64.0)
    elif kind == "interval":
        cut_rhs = _generic_rationals(rng, extra, 1, 48, 97) if extra else []
        for j in range(extra):
            s = int(rng.integers(0, n))
            t = int(rng.integers(s, n))
            row = np.zeros(n)
            row[s:t + 1] = 1.0
            rows.append(row)
            rhs.append(float(cut_rhs[j]) * (t - s + 1))
    else:  # network
        if n == 1:
            raise ValueError("network rows need n >= 2")
        cut_rhs = _generic_rationals(rng, extra, 1, 48, 97) if extra else []
        for j in range(extra):
            u = int(rng.integers(0, n))
            w = int(rng.integers(0, n - 1))
            w += w >= u
            row = np.zeros(n)
            row[u], row[w] = 1.0, -1.0
            rows.append(row)
            rhs.append(float(cut_rhs[j]))

    signs = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    c = signs * (1.0 + rng.integers(0, 64, size=n)) / 64.0
    return LinearProgram(A=np.array(rows), b=np.array(rhs), c=c)


def pad_redundant(lp: LinearProgram, target_m: int, seed: int) -> LinearProgram:
    """Append slack duplicates of existing rows until m reaches target_m.

    Every appended row repeats an existing direction with a strictly larger
    right-hand side, so the feasible region and its vertices are unchanged.
    """
    if target_m < lp.m:
        raise ValueError("target_m must be at least the current row count")
    rng = np.random.default_rng(seed)
    rows = [lp.A[i].copy() for i in range(lp.m)]
    rhs = list(lp.b)
    norms = np.linalg.norm(lp.A, axis=1)
    for j in range(target_m - lp.m):
        base = j % lp.m
        rows.append(rows[base].copy())
        rhs.append(rhs[base] + float(norms[base]) *
                   (1.0 + float(rng.integers(0, 32)) / 64.0))
    return LinearProgram(A=np.array(rows), b=np.array(rhs), c=lp.c.copy())


def default_radius(lp: NormalizedLP, *, limit: int = ENUMERATION_LIMIT) -> float:
    """A ball radius certified to contain every basic point of the instance.

    Twice the largest basic-point norm plus one; every vertex of the region
    (and of any row-subset region) is a basic point, so the box built from
    this radius strictly encloses them all.  Ground truth for tests; solve
    uses the closed-form ``phase1.certified_radius``.
    """
    worst = 1.0
    for _, x in _all_basic_points(lp, limit):
        worst = max(worst, float(np.linalg.norm(x)))
    return 2.0 * worst + 1.0


def check_lemma4(lp: NormalizedLP, basis: Basis, basis_prime: Basis,
                 c: np.ndarray, c_prime: np.ndarray, delta: float, *,
                 slack: float = 1e-9) -> bool:
    """Numeric check that the gap dominates delta times every foreign coefficient.

    For bases optimal for c and c' respectively, every row of basis_prime
    outside basis with positive coefficient mu_k must satisfy
    ||c - c'|| >= delta * mu_k - slack.
    """
    basis_prime = tuple(sorted(basis_prime))
    mu = solve_square(basis_matrix(lp, basis_prime).T,
                      np.asarray(c_prime, dtype=float))
    gap = float(np.linalg.norm(np.asarray(c, float) - np.asarray(c_prime, float)))
    foreign = set(basis_prime) - set(basis)
    for row, m in zip(basis_prime, mu):
        if row in foreign and m > 0.0 and gap < delta * m - slack:
            return False
    return True
