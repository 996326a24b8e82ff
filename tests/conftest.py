from collections import Counter
from fractions import Fraction
from itertools import count

import numpy as np
import pytest

import conewalk.geometry as geometry_module
import conewalk.phase1 as phase1_module
import conewalk.reduction as reduction_module
import conewalk.simplex as simplex_module
import conewalk.walk as walk_module
from conewalk.errors import ConewalkError, UnboundedEdge
from conewalk.geometry import lu_factor, lu_solve
from conewalk.lp import LinearProgram, NormalizedLP, normalize
from conewalk.oracle import tu_instance_generator
from conewalk.simplex import basis_matrix, vertex_of_basis
from conewalk.tolerances import RATIO_TOL
from conewalk.walk import WalkConfig

SQRT2 = float(np.sqrt(2.0))
# unit rows with (1, 1, 1) and (1, 1, 0), interval rows, and (-1, 0, 1), a
# network row: brute-force delta 0.2887 < 1/3, so the TU rules must not mix
MIXED_ROWS = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, 0, 0], [0, -1, 0],
              [0, 0, -1], [1, 1, 1], [1, 1, 0], [-1, 0, 1]]
# the modules of the solve path: a spy hooks the names each one imports
PACKAGE_MODULES = (geometry_module, simplex_module, phase1_module,
                   walk_module, reduction_module)


def make_square() -> NormalizedLP:
    """The unit square [0,1]^2 with objective pointing at (1,1)."""
    return NormalizedLP(
        A=[[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
        b=[1.0, 1.0, 0.0, 0.0],
        c=[1.0 / SQRT2, 1.0 / SQRT2],
    )


def make_triangle() -> NormalizedLP:
    """x >= 0, y >= 0, (x+y)/sqrt(2) <= 1/sqrt(2); objective e2."""
    return NormalizedLP(
        A=[[-1.0, 0.0], [0.0, -1.0], [1.0 / SQRT2, 1.0 / SQRT2]],
        b=[0.0, 0.0, 1.0 / SQRT2],
        c=[0.0, 1.0],
    )


def random_rotation(n: int, rng: np.random.Generator) -> np.ndarray:
    """A generic orthonormal matrix (QR of a Gaussian block)."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def rotate_instance(lp: LinearProgram, seed: int) -> LinearProgram:
    """Rotate the coordinate system; the row geometry is preserved."""
    rng = np.random.default_rng(seed)
    q = random_rotation(lp.n, rng)
    return LinearProgram(A=lp.A @ q, b=lp.b.copy(), c=q.T @ lp.c)


def random_lp(m: int, n: int, seed: int) -> NormalizedLP:
    """A random full-rank normalized instance (feasibility not guaranteed)."""
    rng = np.random.default_rng(seed)
    while True:
        A = rng.standard_normal((m, n))
        c = rng.standard_normal(n)
        if np.linalg.matrix_rank(A) == n and np.linalg.norm(c) > 1e-3:
            break
    return normalize(LinearProgram(A=A, b=rng.standard_normal(m), c=c))


def bounded_random_lp(n: int, extra_rows: int, seed: int) -> NormalizedLP:
    """Box rows plus random cuts: bounded, with the origin in the interior."""
    rng = np.random.default_rng(seed)
    rows = list(np.eye(n)) + list(-np.eye(n))
    rhs = list(1.0 + 0.2 * rng.random(2 * n))
    for _ in range(extra_rows):
        a = rng.standard_normal(n)
        a /= np.linalg.norm(a)
        rows.append(a)
        rhs.append(0.6 + 0.8 * rng.random())
    c = rng.standard_normal(n)
    while np.linalg.norm(c) < 1e-3:
        c = rng.standard_normal(n)
    return normalize(LinearProgram(A=np.array(rows), b=np.array(rhs), c=c))


def factor_instances() -> list[tuple[LinearProgram, int]]:
    """(program, solve seed): 21 generator instances at n = 3, 4 and 5."""
    return [(tu_instance_generator(kind, n, m, seed), seed)
            for n, m, seeds in ((3, 10, 2), (4, 14, 2), (5, 14, 3))
            for kind in ("box", "interval", "network")
            for seed in range(seeds)]


class SolveSpy:
    """What one solve asks of its bases, recorded as it runs.

    - factorizations: (scope, basis) -> how often lu_factor factored the
      basis, scope being ("phase1", k) inside the k-th phase1_vertex call,
      ("walk", k) inside the k-th Las Vegas walk, ("bland", k) inside the
      k-th bland_simplex call solve makes at n = 1, and None elsewhere (the
      certificate against the input).  Every module's lu_factor is
      counted, each call charged to the basis whose basis_factors call is
      running;
    - stray_factorizations: how often lu_factor ran outside basis_factors;
    - solve_factorizations: a basis as its set of constraints (a_p, b_p)
      -> how often the solve factored it in any scope but None.  Phase 1,
      Bland's rule and the walk all factor bases of the boxed program, and
      this key names a basis alike in every program that holds its rows; a
      box row repeats an input row or its negation, but with the box
      radius as its right-hand side;
    - det_calls: how often np.linalg.det ran;
    - pivots: (caller, program, basis, leaving, rows, result) for each
      pivot_across_facet call phase 1 ("simplex", through bland_simplex)
      and the walk ("walk") make, rows being the region's row count (None
      for all of the program's rows) and result the basis returned or the
      type of the error raised;
    - cone_tests: (program, basis, w, inside) for each cone_membership call
      bland_simplex makes (phase 1's cone tests);
    - walked: every program a Las Vegas walk walked, its walk memo
      (NormalizedLP.walk_memo) as the solve left it.
    """

    def __init__(self, lp: LinearProgram, seed: int):
        self.factorizations: Counter = Counter()
        self.solve_factorizations: Counter = Counter()
        self.det_calls = 0
        self.pivots: list[tuple] = []
        self.cone_tests: list[tuple] = []
        self.walked: list = []
        self.stray_factorizations = 0
        scope, serial = [None], count()
        factoring = [None]  # (program, basis) of the running basis_factors

        def scoped(name, fn):
            def run(*args, **kwargs):
                outer, scope[0] = scope[0], (name, next(serial))
                try:
                    return fn(*args, **kwargs)
                finally:
                    scope[0] = outer
            return run

        def det(*args, real=np.linalg.det):
            self.det_calls += 1
            return real(*args)

        def cone(prog, basis, w, real=simplex_module.cone_membership):
            res = real(prog, basis, w)
            self.cone_tests.append((prog, basis, np.array(w), res.inside))
            return res

        def walk(prog, *args, real=scoped(
                "walk", reduction_module._las_vegas_walk)):
            self.walked.append(prog)
            return real(prog, *args)

        def counted(prog, basis):
            self.factorizations[scope[0], basis] += 1
            if scope[0] is not None:
                self.solve_factorizations[frozenset(
                    (prog.A[p].tobytes(), float(prog.b[p])) for p in basis)] += 1

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(phase1_module, "phase1_vertex",
                       scoped("phase1", phase1_module.phase1_vertex))
            mp.setattr(reduction_module, "_las_vegas_walk", walk)
            mp.setattr(reduction_module, "bland_simplex",
                       scoped("bland", reduction_module.bland_simplex))
            mp.setattr(np.linalg, "det", det)
            mp.setattr(simplex_module, "cone_membership", cone)
            for module in PACKAGE_MODULES:
                if hasattr(module, "basis_factors"):
                    def factors(prog, basis, real=module.basis_factors):
                        outer, factoring[0] = factoring[0], (prog, basis)
                        try:
                            return real(prog, basis)
                        finally:
                            factoring[0] = outer
                    mp.setattr(module, "basis_factors", factors)
                if hasattr(module, "lu_factor"):
                    def factor(matrix, real=module.lu_factor):
                        if factoring[0] is None:
                            self.stray_factorizations += 1
                        else:
                            counted(*factoring[0])
                        return real(matrix)
                    mp.setattr(module, "lu_factor", factor)
            for module in (simplex_module, walk_module):
                def pivot(prog, basis, leaving, *, rows=None,
                          real=module.pivot_across_facet,
                          caller=module.__name__.rsplit(".", 1)[1]):
                    try:
                        out = real(prog, basis, leaving, rows=rows)
                    except ConewalkError as exc:
                        self.pivots.append((caller, prog, basis, leaving, rows,
                                            type(exc)))
                        raise
                    self.pivots.append((caller, prog, basis, leaving, rows,
                                        out))
                    return out
                mp.setattr(module, "pivot_across_facet", pivot)
            try:
                reduction_module.solve(lp, WalkConfig(seed=seed))
            except ConewalkError:
                pass


def exact_solve(M: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """M x = rhs for square nonsingular M, by Gaussian elimination in
    fractions: no rounding anywhere."""
    k = len(M)
    rows = [[*row, r] for row, r in zip(M, rhs)]
    for col in range(k):
        pivot = next(i for i in range(col, k) if rows[i][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for i in range(k):
            if i != col and rows[i][col] != 0:
                f = rows[i][col] / rows[col][col]
                rows[i] = [a - f * p for a, p in zip(rows[i], rows[col])]
    return [rows[i][k] / rows[i][i] for i in range(k)]


def assert_exact_optimum(lp: LinearProgram, basis) -> None:
    """The basis certifies lp's optimum in exact arithmetic on the input's
    own floats: its vertex x_B satisfies every input row, and the objective
    lies in the cone of its rows (mu >= 0)."""
    A = [[Fraction(a) for a in row] for row in lp.A.tolist()]
    b = [Fraction(v) for v in lp.b.tolist()]
    c = [Fraction(v) for v in lp.c.tolist()]
    x = exact_solve([A[r] for r in basis], [b[r] for r in basis])
    assert all(sum(a * t for a, t in zip(row, x)) <= rhs
               for row, rhs in zip(A, b))
    A_B_T = [[A[r][j] for r in basis] for j in range(lp.n)]
    assert all(mu >= 0 for mu in exact_solve(A_B_T, c))


def afresh(prog: NormalizedLP) -> NormalizedLP:
    """A copy of prog with an empty memo of basis factors: what the copy
    answers is factored afresh."""
    return NormalizedLP(A=prog.A, b=prog.b, c=prog.c)


def prefix(prog: NormalizedLP, rows) -> NormalizedLP:
    """The program of prog's first ``rows`` rows (prog itself for None),
    built and validated by the public constructor."""
    if rows is None:
        return prog
    return NormalizedLP(A=prog.A[:rows], b=prog.b[:rows], c=prog.c)


def vectorized_pivot(lp: NormalizedLP, basis, leaving: int) -> tuple:
    """The ratio test, vectorized in numpy, kept as the reference: the
    basis across the facet of the leaving row.

    The slacks are read at the basis's vertex.  The candidates are the
    non-basis rows j with a_j^T d > RATIO_TOL, and the least ratio's row
    enters.  The tied rows are the candidates whose ratio is within
    RATIO_TOL of it: one row without a tie.  Each tied row's lexicographic
    key (e_j - a_j^T A_B^{-1} on B) / a_j^T d is a row of one matrix, and
    its columns, in row order, drop the rows whose key exceeds the least by
    more than RATIO_TOL; the first row left enters.  It factors A_B and
    solves the vertex afresh.
    """
    local = basis.index(leaving)
    rhs = np.zeros(lp.n)
    rhs[local] = -1.0
    lu = lu_factor(basis_matrix(lp, basis))
    d = lu_solve(lu, rhs)

    advance = lp.A @ d
    slack = lp.b - lp.A @ lu_solve(lu, lp.b.take(basis))
    candidate = advance > RATIO_TOL
    candidate.put(basis, False)
    rows = candidate.nonzero()[0]
    if rows.size == 0:
        raise UnboundedEdge(f"no blocking row leaving facet {leaving}")
    t = slack[rows] / advance[rows]
    t_min = t.min()
    tied = rows[t <= t_min + RATIO_TOL]
    keys = np.zeros((tied.size, lp.m))
    keys[:, basis] = -lu_solve(lu, lp.A[tied].T, trans=1).T
    keys[np.arange(tied.size), tied] = 1.0
    keys /= advance[tied, None]
    alive = np.arange(tied.size)
    for key in keys.T:
        alive = alive[key[alive] <= key[alive].min() + RATIO_TOL]
    entering = int(tied[alive[0]])

    return tuple(sorted((*basis[:local], *basis[local + 1:], entering)))


def memo_vertex_is_afresh(prog: NormalizedLP, basis, rows=None) -> bool:
    """Is the vertex prog's memo keeps beside the basis's factors the one
    vertex_of_basis solves, bit for bit, on a copy of the region of prog's
    first ``rows`` rows (all for None) that factors afresh?"""
    return prog.lu_memo[basis][1].tobytes() == vertex_of_basis(
        afresh(prefix(prog, rows)), basis).point.tobytes()


def pivot_outcome(pivot, *args, **kwargs):
    """The basis a pivot returns, or the class it raised."""
    try:
        return pivot(*args, **kwargs)
    except ConewalkError as exc:
        return type(exc)


def same_pivot(prog, basis, leaving, rows, result):
    """Does the standalone pivot over the region of prog's first ``rows``
    rows (all for None), on a copy of prog that factors afresh, give
    result: the same basis, or the same error type?"""
    return pivot_outcome(simplex_module.pivot_across_facet, afresh(prog),
                         basis, leaving, rows=rows) == result


@pytest.fixture(scope="session")
def solve_spies() -> list[SolveSpy]:
    return [SolveSpy(lp, seed) for lp, seed in factor_instances()]


@pytest.fixture
def unit_square() -> NormalizedLP:
    return make_square()


@pytest.fixture
def triangle() -> NormalizedLP:
    return make_triangle()
