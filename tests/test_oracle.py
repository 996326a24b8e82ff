import numpy as np
import pytest

from conewalk.errors import TooLarge
from conewalk.lp import LinearProgram, delta_bruteforce, normalize
from conewalk.oracle import (
    _int_det,
    default_radius,
    enumerate_vertices,
    laplace_tail_check,
    max_subdeterminant,
    pad_redundant,
    tu_instance_generator,
)
from conewalk.simplex import bland_simplex, vertex_of_basis

class TestEnumerateVertices:
    def test_square_has_four(self, unit_square):
        res = enumerate_vertices(unit_square)
        assert len(res.vertices) == 4
        assert res.optimal_basis == (0, 1)
        assert res.optimal_value == pytest.approx(np.sqrt(2.0))

    def test_triangle_has_three(self, triangle):
        res = enumerate_vertices(triangle)
        assert len(res.vertices) == 3
        np.testing.assert_allclose(res.optimal_point, [0.0, 1.0], atol=1e-12)

    def test_cube_has_eight(self):
        nlp = normalize(LinearProgram(
            A=np.vstack([np.eye(3), -np.eye(3)]),
            b=[1.0, 1.1, 1.2, 0.1, 0.2, 0.3],
            c=[1.0, 2.0, 3.0]))
        assert len(enumerate_vertices(nlp).vertices) == 8

    def test_budget(self, unit_square):
        with pytest.raises(TooLarge):
            enumerate_vertices(unit_square, limit=1)

    def test_matches_bland(self):
        for kind in ("box", "interval", "network"):
            for seed in range(5):
                lp = tu_instance_generator(kind, 3, 10, seed)
                nlp = normalize(lp)
                res = enumerate_vertices(nlp)
                basis = bland_simplex(nlp, res.vertices[0].basis, nlp.c)
                v = vertex_of_basis(nlp, basis)
                assert float(nlp.c @ v.point) == pytest.approx(
                    res.optimal_value, abs=1e-7)


class TestIntDet:
    def test_known_values(self):
        assert _int_det([[2]]) == 2
        assert _int_det([[1, 1], [-1, 1]]) == 2
        assert _int_det([[0, 1], [1, 0]]) == -1
        assert _int_det([[1, 2], [2, 4]]) == 0

    def test_matches_numpy_on_random(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            k = int(rng.integers(1, 6))
            M = rng.integers(-5, 6, size=(k, k))
            expected = int(round(np.linalg.det(M.astype(float))))
            assert _int_det(M.tolist()) == expected


class TestMaxSubdeterminant:
    def test_unit_rows(self):
        A = np.array([[1, 0], [0, 1], [-1, 0], [0, -1]])
        assert max_subdeterminant(A) == 1

    def test_triangular(self):
        assert max_subdeterminant(np.array([[1, 1], [0, 1]])) == 1

    def test_rotation_like(self):
        # minors: all 1x1 are 1; the 2x2 is 1*1 - 1*(-1) = 2
        assert max_subdeterminant(np.array([[1, 1], [-1, 1]])) == 2

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError):
            max_subdeterminant(np.array([[0.5]]))

    def test_budget(self):
        with pytest.raises(TooLarge):
            max_subdeterminant(np.eye(4, dtype=int), limit=3)


class TestLaplaceTailCheck:
    def test_degenerate_threshold(self):
        res = laplace_tail_check(2, 0.0, 1.0, samples=10)
        assert res.empirical == 1.0
        assert res.bound >= 1.0
        assert res.ok

    def test_n2_default_alpha(self):
        # alpha = 4n^3/delta = 32; threshold 8; bound 2*exp(-4)
        res = laplace_tail_check(2, 32.0, 1.0, samples=10**5, seed=1)
        assert res.bound == pytest.approx(2.0 * np.exp(-4.0))
        assert res.ok
        assert res.empirical <= res.bound

    def test_n3_default_alpha(self):
        res = laplace_tail_check(3, 108.0, 1.0, samples=10**5, seed=2)
        assert res.bound == pytest.approx(3.0 * np.exp(-6.0))
        assert res.ok

    def test_empirical_matches_gamma_tail(self):
        # ||y||_1 for n=2 is Gamma(2,1): P(G >= t) = (1+t) exp(-t)
        res = laplace_tail_check(2, 8.0, 1.0, samples=2 * 10**5, seed=3)
        t = 8.0 * 1.0 / 4.0
        exact = (1.0 + t) * np.exp(-t)
        assert res.empirical == pytest.approx(exact, rel=0.15)

    def test_deterministic(self):
        a = laplace_tail_check(2, 32.0, 1.0, samples=10**4, seed=9)
        b = laplace_tail_check(2, 32.0, 1.0, samples=10**4, seed=9)
        assert a == b


class TestTuInstanceGenerator:
    @pytest.mark.parametrize("kind", ["box", "interval", "network"])
    def test_unimodular_and_bounded(self, kind):
        for seed in range(4):
            lp = tu_instance_generator(kind, 3, 11, seed)
            assert max_subdeterminant(lp.A) == 1
            assert np.all(lp.A == np.round(lp.A))
            # origin strictly inside
            assert np.all(lp.b > 0)
            res = enumerate_vertices(normalize(lp))
            assert len(res.vertices) >= 2

    def test_box_minimal_is_a_square(self):
        lp = tu_instance_generator("box", 2, 4, 0)
        assert lp.m == 4
        res = enumerate_vertices(normalize(lp))
        assert len(res.vertices) == 4

    def test_deterministic(self):
        a = tu_instance_generator("interval", 3, 9, 5)
        b = tu_instance_generator("interval", 3, 9, 5)
        np.testing.assert_array_equal(a.A, b.A)
        np.testing.assert_array_equal(a.b, b.b)
        np.testing.assert_array_equal(a.c, b.c)

    def test_interval_rows_are_consecutive_ones(self):
        lp = tu_instance_generator("interval", 3, 9, 7)
        for row in lp.A[6:]:
            ones = np.flatnonzero(row)
            assert np.all(row[ones] == 1.0)
            assert np.all(np.diff(ones) == 1)

    def test_separation_chain(self):
        # brute-force separation dominates the integral bound on every kind
        for kind in ("box", "interval", "network"):
            lp = tu_instance_generator(kind, 3, 10, 2)
            delta = delta_bruteforce(normalize(lp)).delta
            bound = 1.0 / (lp.n * max_subdeterminant(lp.A) ** 2)
            assert delta >= bound - 1e-9

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            tu_instance_generator("box", 2, 3, 0)  # m < 2n
        with pytest.raises(ValueError):
            tu_instance_generator("mesh", 2, 4, 0)


class TestPadRedundant:
    def test_vertices_unchanged(self):
        lp = tu_instance_generator("box", 2, 4, 3)
        fat = pad_redundant(lp, 12, seed=1)
        assert fat.m == 12
        a = enumerate_vertices(normalize(lp))
        b = enumerate_vertices(normalize(fat))
        pts_a = sorted(tuple(np.round(v.point, 9)) for v in a.vertices)
        pts_b = sorted(tuple(np.round(v.point, 9)) for v in b.vertices)
        assert pts_a == pts_b


class TestDefaultRadius:
    def test_covers_square_vertices(self, unit_square):
        r = default_radius(unit_square)
        res = enumerate_vertices(unit_square)
        assert all(np.linalg.norm(v.point) < r for v in res.vertices)
        assert r == pytest.approx(2.0 * np.sqrt(2.0) + 1.0)

    def test_covers_triangle(self, triangle):
        r = default_radius(triangle)
        for v in enumerate_vertices(triangle).vertices:
            assert np.linalg.norm(v.point) < r
