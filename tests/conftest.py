import numpy as np
import pytest

from conewalk.lp import LinearProgram, NormalizedLP, normalize

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


@pytest.fixture
def unit_square() -> NormalizedLP:
    return make_square()


@pytest.fixture
def triangle() -> NormalizedLP:
    return make_triangle()
