from collections import Counter
from itertools import count

import numpy as np
import pytest

import conewalk.phase1 as phase1_module
import conewalk.reduction as reduction_module
import conewalk.simplex as simplex_module
import conewalk.walk as walk_module
from conewalk.errors import ConewalkError
from conewalk.lp import LinearProgram, NormalizedLP, normalize
from conewalk.oracle import tu_instance_generator
from conewalk.walk import WalkConfig

SQRT2 = float(np.sqrt(2.0))


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

    - factorizations: (scope, basis) -> how often factor_basis ran, scope
      being ("phase1", k) inside the k-th phase1_vertex call, ("walk", k)
      inside the k-th Las Vegas walk, and None elsewhere;
    - det_calls: how often np.linalg.det ran;
    - pivots: (caller, program, vertex, leaving, result) for each
      pivot_across_facet call phase 1 ("simplex", through bland_simplex)
      and the walk ("walk") make, result being the Vertex or the type of
      the error raised;
    - cone_tests: (program, basis, w, inside) for each cone_membership call
      made with the factors of a memo (phase 1's cone tests);
    - caches: every _WalkCache the solve built.
    """

    def __init__(self, lp: LinearProgram, seed: int):
        self.factorizations: Counter = Counter()
        self.det_calls = 0
        self.pivots: list[tuple] = []
        self.cone_tests: list[tuple] = []
        self.caches: list = []
        scope, serial = [None], count()

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

        def cone(prog, basis, w, real=simplex_module.cone_membership, **kw):
            res = real(prog, basis, w, **kw)
            if kw:
                self.cone_tests.append((prog, basis, np.array(w), res.inside))
            return res

        def cache(prog, real=reduction_module._WalkCache):
            self.caches.append(real(prog))
            return self.caches[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(phase1_module, "phase1_vertex",
                       scoped("phase1", phase1_module.phase1_vertex))
            mp.setattr(reduction_module, "_las_vegas_walk",
                       scoped("walk", reduction_module._las_vegas_walk))
            mp.setattr(np.linalg, "det", det)
            mp.setattr(simplex_module, "cone_membership", cone)
            mp.setattr(reduction_module, "_WalkCache", cache)
            for module in (simplex_module, walk_module):
                def factor(prog, basis, real=module.factor_basis):
                    self.factorizations[scope[0], tuple(basis)] += 1
                    return real(prog, basis)

                def pivot(prog, v, leaving, real=module.pivot_across_facet,
                          caller=module.__name__.rsplit(".", 1)[1], **kw):
                    try:
                        out = real(prog, v, leaving, **kw)
                    except ConewalkError as exc:
                        self.pivots.append((caller, prog, v, leaving,
                                            type(exc)))
                        raise
                    self.pivots.append((caller, prog, v, leaving, out))
                    return out
                mp.setattr(module, "factor_basis", factor)
                mp.setattr(module, "pivot_across_facet", pivot)
            try:
                reduction_module.solve(lp, WalkConfig(seed=seed))
            except ConewalkError:
                pass


def same_pivot(prog, v, leaving, result):
    """Does the standalone pivot give result: the same Vertex, bit for bit,
    or the same error type?"""
    if isinstance(result, type):
        with pytest.raises(result):
            simplex_module.pivot_across_facet(prog, v, leaving)
        return True
    ref = simplex_module.pivot_across_facet(prog, v, leaving)
    return (ref.basis == result.basis
            and ref.point.tobytes() == result.point.tobytes())


@pytest.fixture(scope="session")
def solve_spies() -> list[SolveSpy]:
    return [SolveSpy(lp, seed) for lp, seed in factor_instances()]


@pytest.fixture
def unit_square() -> NormalizedLP:
    return make_square()


@pytest.fixture
def triangle() -> NormalizedLP:
    return make_triangle()
