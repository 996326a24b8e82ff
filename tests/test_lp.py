import itertools

import numpy as np
import pytest

from conewalk.errors import (
    NonIntegerEntries,
    RankDeficient,
    TooLarge,
    ZeroObjective,
    ZeroRow,
)
from conewalk.geometry import dist_to_span
from conewalk.lp import (
    DeltaMethod,
    LinearProgram,
    delta_bruteforce,
    delta_integer_bound,
    normalize,
)
from conewalk.oracle import check_nondegenerate

from conftest import SQRT2, make_square, make_triangle, random_lp, rotate_instance


class TestLinearProgram:
    def test_default_labels_are_one_based(self):
        lp = LinearProgram(A=[[1.0, 0.0], [0.0, 1.0]], b=[1.0, 1.0], c=[1.0, 0.0])
        assert lp.row_labels == (1, 2)

    def test_zero_row_rejected(self):
        with pytest.raises(ZeroRow):
            LinearProgram(A=[[1.0, 0.0], [0.0, 0.0]], b=[1.0, 1.0], c=[1.0, 0.0])

    def test_rank_deficient_rejected(self):
        with pytest.raises(RankDeficient):
            LinearProgram(A=[[1.0, 0.0], [2.0, 0.0]], b=[1.0, 1.0], c=[1.0, 0.0])

    def test_arrays_are_immutable(self):
        lp = LinearProgram(A=[[1.0, 0.0], [0.0, 1.0]], b=[1.0, 1.0], c=[1.0, 0.0])
        with pytest.raises(ValueError):
            lp.A[0, 0] = 5.0


class TestNormalize:
    def test_scales_row_and_rhs(self):
        lp = LinearProgram(A=[[2.0, 0.0], [0.0, 1.0]], b=[4.0, 1.0], c=[1.0, 0.0])
        nlp = normalize(lp)
        np.testing.assert_allclose(nlp.A[0], [1.0, 0.0])
        assert nlp.b[0] == pytest.approx(2.0)

    def test_idempotent(self):
        nlp = make_square()
        again = normalize(nlp)
        np.testing.assert_allclose(again.A, nlp.A)
        np.testing.assert_allclose(again.b, nlp.b)
        np.testing.assert_allclose(again.c, nlp.c)

    def test_three_four_five(self):
        lp = LinearProgram(A=[[3.0, 4.0], [0.0, -1.0]], b=[10.0, 0.0],
                           c=[0.0, 1.0])
        nlp = normalize(lp)
        np.testing.assert_allclose(nlp.A[0], [0.6, 0.8])
        assert nlp.b[0] == pytest.approx(2.0)

    def test_zero_objective_rejected(self):
        lp = LinearProgram(A=[[1.0, 0.0], [0.0, 1.0]], b=[1.0, 1.0],
                           c=[1.0, 1.0])
        object.__setattr__(lp, "c", np.zeros(2))
        with pytest.raises(ZeroObjective):
            normalize(lp)

    def test_feasible_set_preserved(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            A = rng.standard_normal((6, 3))
            while np.linalg.matrix_rank(A) < 3:
                A = rng.standard_normal((6, 3))
            lp = LinearProgram(A=A, b=rng.standard_normal(6),
                               c=rng.standard_normal(3) + 0.1)
            nlp = normalize(lp)
            for _ in range(50):
                x = rng.standard_normal(3) * 2.0
                before = lp.is_feasible(x)
                after = nlp.is_feasible(x)
                # disagreement is only allowed within tolerance of a facet
                if before != after:
                    slack = np.min(np.abs(lp.b - lp.A @ x) /
                                   np.linalg.norm(lp.A, axis=1))
                    assert slack <= 1e-6


def brute_delta_reference(nlp) -> float:
    """Literal double loop over (row, subset) pairs via dist_to_span."""
    best = 1.0
    m, n = nlp.m, nlp.n
    for j in range(m):
        others = [i for i in range(m) if i != j]
        for k in range(0, n):
            for subset in itertools.combinations(others, k):
                d = dist_to_span(nlp.A[j], [nlp.A[i] for i in subset])
                if d > 1e-9:
                    best = min(best, d)
    return best


class TestDeltaBruteforce:
    def test_unit_square(self):
        cert = delta_bruteforce(make_square())
        assert cert.delta == pytest.approx(1.0)
        assert cert.method is DeltaMethod.BRUTE_FORCE

    def test_three_rows_45_degrees(self):
        nlp = LinearProgram(
            A=[[1.0, 0.0], [0.0, 1.0], [-1.0 / SQRT2, -1.0 / SQRT2]],
            b=[1.0, 1.0, 0.0], c=[1.0, 0.0])
        cert = delta_bruteforce(normalize(nlp))
        assert cert.delta == pytest.approx(1.0 / SQRT2, abs=1e-12)

    def test_single_row(self):
        nlp = normalize(LinearProgram(A=[[1.0]], b=[1.0], c=[1.0]))
        cert = delta_bruteforce(nlp)
        assert cert.delta == pytest.approx(1.0)
        assert cert.witness == (0, ())

    def test_budget(self):
        with pytest.raises(TooLarge):
            delta_bruteforce(make_square(), limit=1)

    def test_witness_reevaluates(self):
        for seed in range(15):
            nlp = random_lp(8, 3, seed)
            cert = delta_bruteforce(nlp)
            j, subset = cert.witness
            d = dist_to_span(nlp.A[j], [nlp.A[i] for i in subset])
            assert d == pytest.approx(cert.delta, abs=1e-9)

    def test_matches_reference_loop(self):
        for seed in range(10):
            nlp = random_lp(6, 3, seed)
            cert = delta_bruteforce(nlp)
            assert cert.delta == pytest.approx(brute_delta_reference(nlp),
                                               abs=1e-9)

    def test_duplicate_directions_are_excluded(self):
        # negated/duplicated rows must not pollute the minimum with noise
        square = make_square()
        doubled = normalize(LinearProgram(
            A=np.vstack([square.A, square.A[:2]]),
            b=np.concatenate([square.b, square.b[:2] + 1.0]),
            c=square.c))
        assert delta_bruteforce(doubled).delta == pytest.approx(1.0)

    def test_rotation_invariance(self):
        for seed in range(8):
            nlp = random_lp(7, 3, seed)
            rotated = normalize(rotate_instance(nlp, seed + 100))
            assert delta_bruteforce(rotated).delta == pytest.approx(
                delta_bruteforce(nlp).delta, abs=1e-7)

    def test_never_exceeds_basis_minimum(self):
        for seed in range(10):
            nlp = random_lp(7, 3, seed)
            cert = delta_bruteforce(nlp)
            for basis in itertools.combinations(range(nlp.m), nlp.n):
                rows = nlp.A[list(basis)]
                if abs(np.linalg.det(rows)) < 1e-8:
                    continue
                for i in range(nlp.n):
                    others = [rows[k] for k in range(nlp.n) if k != i]
                    assert cert.delta <= dist_to_span(rows[i], others) + 1e-9


class TestDeltaIntegerBound:
    def test_n2_delta1(self):
        cert = delta_integer_bound(np.array([[1, 0], [0, 1]]), 1)
        assert cert.delta == pytest.approx(0.5)
        assert cert.method is DeltaMethod.INTEGER_BOUND

    def test_n3_delta2(self):
        A = np.eye(3, dtype=int)
        assert delta_integer_bound(A, 2).delta == pytest.approx(1.0 / 12.0)

    def test_n1(self):
        assert delta_integer_bound(np.array([[1]]), 1).delta == pytest.approx(1.0)

    def test_non_integer_rejected(self):
        with pytest.raises(NonIntegerEntries):
            delta_integer_bound(np.array([[0.5, 1.0]]), 1)

    def test_bound_never_beats_bruteforce(self):
        # the exact separation dominates the sub-determinant bound
        square = make_square()
        assert delta_bruteforce(square).delta >= \
            delta_integer_bound(np.array([[1, 0], [0, 1], [-1, 0], [0, -1]]),
                                1).delta - 1e-9


class TestCheckNondegenerate:
    def test_unit_square(self):
        assert check_nondegenerate(make_square()) is True

    def test_duplicate_row_degenerate(self):
        t = make_triangle()
        dup = normalize(LinearProgram(
            A=np.vstack([t.A, t.A[2:]]), b=np.concatenate([t.b, t.b[2:]]),
            c=t.c))
        assert check_nondegenerate(dup) is False

    def test_generic_simplex(self):
        nlp = normalize(LinearProgram(
            A=[[-1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0],
               [1.0, 1.0, 1.0]],
            b=[0.11, 0.22, 0.33, 1.07], c=[1.0, 2.0, 3.0]))
        assert check_nondegenerate(nlp) is True

    def test_budget(self):
        with pytest.raises(TooLarge):
            check_nondegenerate(make_square(), limit=1)
