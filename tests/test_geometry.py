import numpy as np
import pytest

from conewalk.errors import NotUnitVector, SingularMatrix
from conewalk.geometry import (
    det_abs,
    dist_to_span,
    rotation_to_e1,
    solve_square,
)


class TestSolveSquare:
    def test_identity(self):
        x = solve_square(np.eye(2), [3.0, 5.0])
        np.testing.assert_allclose(x, [3.0, 5.0])

    def test_diagonal(self):
        x = solve_square([[2.0, 0.0], [0.0, 4.0]], [2.0, 4.0])
        np.testing.assert_allclose(x, [1.0, 1.0])

    def test_round_trip_4x4(self):
        # rhs constructed from a known solution
        rng = np.random.default_rng(7)
        M = np.eye(4) + 0.3 * rng.standard_normal((4, 4))
        x_true = rng.standard_normal(4)
        x = solve_square(M, M @ x_true)
        np.testing.assert_allclose(x, x_true, rtol=1e-9, atol=1e-12)

    def test_residual_contract(self):
        rng = np.random.default_rng(11)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            M = np.eye(3) + 0.5 * rng.standard_normal((3, 3))
            if abs(np.linalg.det(M)) < 1e-3:
                continue
            rhs = rng.standard_normal(3)
            x = solve_square(M, rhs)
            resid = np.max(np.abs(M @ x - rhs))
            assert resid <= 1e-9 * (1.0 + np.max(np.abs(rhs)))

    def test_singular_raises(self):
        with pytest.raises(SingularMatrix):
            solve_square([[1.0, 1.0], [1.0, 1.0]], [1.0, 2.0])

    def test_round_trip_property(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(1, 6))
            M = np.eye(n) + 0.4 * rng.standard_normal((n, n))
            if abs(np.linalg.det(M)) < 1e-4:
                continue
            x_true = rng.standard_normal(n)
            x = solve_square(M, M @ x_true)
            assert np.linalg.norm(x - x_true) <= 1e-7 * (1 + np.linalg.norm(x_true))


class TestDetAbs:
    def test_identity(self):
        assert det_abs(np.eye(3)) == pytest.approx(1.0)

    def test_permutation(self):
        assert det_abs([[0.0, 1.0], [1.0, 0.0]]) == pytest.approx(1.0)

    def test_upper_triangular(self):
        # cofactor expansion by hand: 2*3 - 3*0 = 6
        assert det_abs([[2.0, 3.0], [0.0, 3.0]]) == pytest.approx(6.0, rel=1e-9)

    def test_singular_gives_zero(self):
        assert det_abs([[1.0, 1.0], [1.0, 1.0]]) == pytest.approx(0.0, abs=1e-12)


class TestDistToSpan:
    def test_orthogonal(self):
        assert dist_to_span([0.0, 1.0], [np.array([1.0, 0.0])]) == pytest.approx(1.0)

    def test_45_degrees(self):
        v = np.array([1.0, 1.0]) / np.sqrt(2.0)
        assert dist_to_span(v, [np.array([1.0, 0.0])]) == pytest.approx(
            1.0 / np.sqrt(2.0))

    def test_empty_span(self):
        assert dist_to_span([1.0, 0.0], []) == pytest.approx(1.0)

    def test_bounds_and_monotonicity(self):
        # 0 <= d <= ||v||, and adding span vectors never increases d
        for seed in range(30):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 6))
            v = rng.standard_normal(n)
            vectors = [rng.standard_normal(n) for _ in range(n)]
            prev = np.linalg.norm(v)
            for k in range(len(vectors) + 1):
                d = dist_to_span(v, vectors[:k])
                assert -1e-12 <= d <= np.linalg.norm(v) + 1e-12
                assert d <= prev + 1e-9
                prev = d

    def test_member_of_span(self):
        assert dist_to_span([2.0, 0.0], [np.array([1.0, 0.0])]) <= 1e-12


class TestRotationToE1:
    def check_contract(self, a):
        a = np.asarray(a, dtype=float)
        u = rotation_to_e1(a)
        n = a.shape[0]
        assert np.max(np.abs(u.T @ u - np.eye(n))) <= 1e-9
        e1 = np.zeros(n)
        e1[0] = 1.0
        assert np.max(np.abs(a @ u - e1)) <= 1e-9
        assert abs(det_abs(u) - 1.0) <= 1e-9

    def test_e1_fixed(self):
        self.check_contract([1.0, 0.0])

    def test_e2(self):
        self.check_contract([0.0, 1.0, 0.0])

    def test_diagonal_direction(self):
        self.check_contract(np.ones(3) / np.sqrt(3.0))

    def test_random_unit_vectors(self):
        for seed in range(40):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(1, 7))
            a = rng.standard_normal(n)
            self.check_contract(a / np.linalg.norm(a))

    def test_near_e1_stays_accurate(self):
        a = np.array([1.0, 1e-10, 0.0])
        self.check_contract(a / np.linalg.norm(a))

    def test_not_unit_raises(self):
        with pytest.raises(NotUnitVector):
            rotation_to_e1([2.0, 0.0])
