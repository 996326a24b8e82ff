import numpy as np
import pytest

import conewalk.geometry as geometry_module
import conewalk.simplex as simplex_module
from conewalk.errors import NoLargeCoefficient
from conewalk.identify import (
    coefficient_threshold,
    extract_element,
    scaled_center,
    verify_problem1,
)
from conewalk.lp import LinearProgram, delta_bruteforce, normalize
from conewalk.oracle import check_lemma4, enumerate_vertices
from conewalk.reduction import reduce_lp
from conewalk.simplex import bland_simplex, cone_membership, vertex_of_basis
from conewalk.walk import Parallelepiped, WalkConfig, run_walk

from conftest import SQRT2, bounded_random_lp


class TestVerifyProblem1:
    def test_exact_objective(self, unit_square):
        assert verify_problem1(unit_square, (0, 1), unit_square.c, 1.0)

    def test_negated_objective(self, unit_square):
        assert not verify_problem1(unit_square, (2, 3), -unit_square.c, 1.0)

    def test_gap_just_inside(self, unit_square):
        c_prime = unit_square.c + np.array([0.2, 0.0])  # gap 0.2 < 1/4
        assert verify_problem1(unit_square, (0, 1), c_prime, 1.0)

    def test_gap_too_wide(self, unit_square):
        c_prime = unit_square.c + np.array([0.3, 0.0])  # gap 0.3 >= 1/4
        assert not verify_problem1(unit_square, (0, 1), c_prime, 1.0)

    def test_walk_output_most_seeds(self, unit_square):
        # a stopped walk solves the target problem with c' = c itself;
        # otherwise the scaled final center must verify
        start = (2, 3)
        good = 0
        for seed in range(100):
            cfg = WalkConfig(seed=seed, steps=363).resolved(2, 1.0)
            out = run_walk(unit_square, cfg, start)
            c_prime = unit_square.c if out.stopped_with_c_in_cone \
                else scaled_center(unit_square, out.final, cfg.alpha)
            if verify_problem1(unit_square, out.final.basis, c_prime, 1.0):
                good += 1
        assert good >= 95


class TestExtractElement:
    def test_square_tie_goes_to_smallest_row(self, unit_square):
        elem = extract_element(unit_square, (0, 1), unit_square.c, 1.0)
        assert elem.row == 0
        assert elem.qualifying == (0, 1)
        np.testing.assert_allclose(elem.mu, [1 / SQRT2, 1 / SQRT2])
        # threshold for n=2, delta=1 is (1/2)(1 - 1/4) = 0.375
        assert coefficient_threshold(2, 1.0) == pytest.approx(0.375)

    def test_one_dimensional(self):
        lp = normalize(LinearProgram(A=[[1.0]], b=[1.0], c=[1.0]))
        elem = extract_element(lp, (0,), lp.c, 1.0)
        assert elem.row == 0
        assert elem.mu[0] == pytest.approx(1.0)

    def test_perturbed_objective_same_row(self, unit_square):
        c_prime = unit_square.c + 0.001 * np.array([1.0, 0.0])
        elem = extract_element(unit_square, (0, 1), c_prime, 1.0)
        assert elem.row == 0
        assert elem.gap < 1.0 / 4.0

    def test_coefficients_are_the_cone_tests(self, unit_square,
                                              monkeypatch):
        # the cone test's coefficients, bit for bit, from the factors
        # verify_problem1 left in the program's memo: nothing is factored
        c_prime = unit_square.c + np.array([0.01, -0.02])
        assert verify_problem1(unit_square, (1, 0), c_prime, 1.0)
        factored = []
        for module in (geometry_module, simplex_module):
            monkeypatch.setattr(module, "lu_factor",
                                lambda m, real=module.lu_factor:
                                factored.append(m) or real(m))
        elem = extract_element(unit_square, (1, 0), c_prime, 1.0)
        coeffs = cone_membership(unit_square, (0, 1), c_prime).coeffs
        assert elem.mu.tobytes() == coeffs.tobytes()
        assert factored == []

    def test_no_large_coefficient(self, unit_square):
        with pytest.raises(NoLargeCoefficient):
            extract_element(unit_square, (0, 1), 0.1 * unit_square.c, 1.0)

    def test_norm_lower_bound_when_verified(self, unit_square):
        # ||c'|| > 1 - delta/(2n) whenever the verification passes
        rng = np.random.default_rng(3)
        for _ in range(200):
            c_prime = unit_square.c + 0.12 * rng.standard_normal(2)
            if verify_problem1(unit_square, (0, 1), c_prime, 1.0):
                assert np.linalg.norm(c_prime) > 1.0 - 1.0 / 4.0

    def test_extraction_soundness(self):
        # whenever verification passes, the extracted row is in the true
        # optimal basis (oracle-certified)
        rng = np.random.default_rng(31)
        checked = 0
        for seed in range(8):
            nlp = bounded_random_lp(3, 3, seed + 900)
            delta = delta_bruteforce(nlp).delta
            res = enumerate_vertices(nlp)
            points = np.array([v.point for v in res.vertices])
            true_basis = set(res.optimal_basis)
            for _ in range(60):
                c_prime = nlp.c + (delta / (3 * nlp.n)) * \
                    rng.standard_normal(nlp.n)
                basis_prime = res.vertices[
                    int(np.argmax(points @ c_prime))].basis
                if not verify_problem1(nlp, basis_prime, c_prime, delta):
                    continue
                elem = extract_element(nlp, basis_prime, c_prime, delta)
                assert elem.row in true_basis
                assert set(elem.qualifying) <= true_basis
                checked += 1
        assert checked >= 100


class TestIdentifyThenReduce:
    """The paper's identification step run by hand on a synthetic walk
    outcome: verify, extract one row, fix it, and solve the 1-D rest.
    solve runs none of it; these are library entry points."""

    def test_synthetic_cell_completes_the_optimal_basis(self):
        eps = 0.05
        c = np.array([1.0, eps]) / np.hypot(1.0, eps)
        lp = normalize(LinearProgram(
            A=[[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
            b=[1.0, 1.0, 0.0, 0.0], c=c))
        start = vertex_of_basis(lp, (0, 3))  # the corner (1, 0)

        # cell (127, 0) of the cone of rows {e1, -e2}: its center over
        # alpha = 32 is 0.054 away from c, inside the delta/(2n) = 1/4 ball,
        # while c itself lies in the adjacent cone of rows {e1, e2}
        cell = Parallelepiped(basis=(0, 3), index=(127, 0))
        c_prime = scaled_center(lp, cell, 32.0)
        assert verify_problem1(lp, cell.basis, c_prime, 1.0)
        elem = extract_element(lp, cell.basis, c_prime, 1.0)
        assert elem.row == 0

        reduced, reduced_start, index_map = reduce_lp(lp, elem.row, start)
        assert reduced.n == 1
        (p,) = bland_simplex(reduced, reduced_start, reduced.c).basis
        basis = tuple(sorted([elem.row, index_map[p]]))
        assert basis == (0, 1)  # the true optimal basis for c
        assert cone_membership(lp, basis, lp.c).inside


class TestCheckLemma4:
    def test_same_basis_vacuous(self, unit_square):
        assert check_lemma4(unit_square, (0, 1), (0, 1), unit_square.c,
                            unit_square.c, 1.0)

    def test_square_cross_cone_pair(self, unit_square):
        # c' = (-0.6, 0.8) is optimal on the cone of rows {1, 2}
        c = unit_square.c
        c_prime = np.array([-0.6, 0.8])
        assert check_lemma4(unit_square, (0, 1), (1, 2), c, c_prime, 1.0)
        # sanity on the hand numbers: gap ~ 1.31, mu for row 2 is 0.6
        assert np.linalg.norm(c - c_prime) == pytest.approx(1.3104035, abs=1e-6)

    def test_random_objective_pairs(self):
        # oracle-certified optimal bases on random bounded instances
        rng = np.random.default_rng(12)
        checked = 0
        for seed in range(6):
            nlp = bounded_random_lp(3, 3, seed + 50)
            delta = delta_bruteforce(nlp).delta
            for _ in range(40):
                c1 = rng.standard_normal(3)
                c1 /= np.linalg.norm(c1)
                c2 = rng.standard_normal(3)
                c2 /= np.linalg.norm(c2)
                lp1 = normalize(LinearProgram(A=nlp.A, b=nlp.b, c=c1))
                res1 = enumerate_vertices(lp1)
                lp2 = normalize(LinearProgram(A=nlp.A, b=nlp.b, c=c2))
                res2 = enumerate_vertices(lp2)
                assert check_lemma4(lp1, res1.optimal_basis, res2.optimal_basis,
                                    c1, c2, delta)
                checked += 1
        assert checked >= 100
