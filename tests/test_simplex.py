import math

import numpy as np
import pytest

import conewalk.phase1 as phase1_module
import conewalk.reduction as reduction_module
import conewalk.simplex as simplex_module
import conewalk.walk as walk_module
from conewalk.errors import (
    ConewalkError,
    InfeasibleBasis,
    UnboundedEdge,
    UnboundedLP,
)
from conewalk.geometry import lu_factor, lu_solve
from conewalk.lp import LinearProgram, NormalizedLP, delta_bruteforce, normalize
from conewalk.oracle import pad_redundant, tu_instance_generator
from conewalk.phase1 import bounding_box, certified_radius, phase1_vertex
from conewalk.reduction import reduce_lp, solve
from conewalk.simplex import (
    basis_factors,
    basis_matrix,
    bland_simplex,
    cone_membership,
    pivot_across_facet,
    vertex_of_basis,
)
from conewalk.tolerances import CONE_TOL, RATIO_TOL
from conewalk.walk import WalkConfig

from conftest import (
    SQRT2,
    afresh,
    bounded_random_lp,
    memo_vertex_is_afresh,
    pivot_outcome,
    prefix,
    same_pivot,
    vectorized_pivot,
)


def running_min_pivot(lp, basis, leaving):
    """The former ratio test: a running minimum over rows in index order.

    Kept as a reference off ties: it returns None for a near-tie it sees.
    Whether it sees one depends on the order of the rows; when it sees
    none, its entering row is the unique least ratio.  It factors A_B and
    solves the vertex afresh.
    """
    local = basis.index(leaving)
    rhs = np.zeros(lp.n)
    rhs[local] = -1.0
    lu = lu_factor(basis_matrix(lp, basis))
    d = lu_solve(lu, rhs)

    advance = lp.A @ d
    slack = lp.b - lp.A @ lu_solve(lu, lp.b.take(basis))
    entering = -1
    t_min = math.inf
    tie = False
    for j in range(lp.m):
        if j in basis or advance[j] <= RATIO_TOL:
            continue
        t = slack[j] / advance[j]
        if t < t_min - RATIO_TOL:
            t_min = t
            entering = j
            tie = False
        elif t <= t_min + RATIO_TOL:
            tie = True
    if entering < 0:
        raise UnboundedEdge(f"no blocking row leaving facet {leaving}")
    if tie:
        return None

    return tuple(sorted(set(basis) - {leaving} | {entering}))


def near_tie_square(cuts):
    """The unit square plus the cuts x <= 1 - eps, in the given order."""
    rows = [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]
    return NormalizedLP(A=rows + [[1.0, 0.0]] * len(cuts),
                        b=[1.0, 1.0, 0.0, 0.0] + [1.0 - eps for eps in cuts],
                        c=[1.0 / SQRT2, 1.0 / SQRT2])


def pivoted_bases(lp, seed):
    """(program, basis, source) for each basis a short solve pivots from,
    the program being the region the pivot was bounded to.

    Records the calls phase 1 makes through the simplex module and those
    the walk makes through its own import, before they run.
    """
    seen = {}
    with pytest.MonkeyPatch.context() as mp:
        for module, source in ((simplex_module, "phase1"),
                               (walk_module, "walk")):
            def recording(prog, basis, leaving, *, rows=None,
                          inner=module.pivot_across_facet, source=source):
                key = (id(prog), rows, basis)
                if key not in seen:
                    seen[key] = (prefix(prog, rows), basis, source)
                return inner(prog, basis, leaving, rows=rows)
            mp.setattr(module, "pivot_across_facet", recording)
        mp.setattr(reduction_module, "MAX_RETRIES", 0)
        try:
            solve(lp, WalkConfig(seed=seed, steps=300))
        except ConewalkError:
            pass
    return list(seen.values())


def pivot_instances():
    for seed in range(3):
        yield bounded_random_lp(3, 6, seed), seed
    for seed in range(3):
        # solve walks the base's rows; at m=12 seed 1 starts at the optimum
        base = tu_instance_generator("network", 4, 14, seed)
        yield pad_redundant(base, 42, seed), seed


class TestVertexOfBasis:
    def test_square_top_corner(self, unit_square):
        v = vertex_of_basis(unit_square, (0, 1))
        np.testing.assert_allclose(v.point, [1.0, 1.0])

    def test_square_origin(self, unit_square):
        v = vertex_of_basis(unit_square, (2, 3))
        np.testing.assert_allclose(v.point, [0.0, 0.0], atol=1e-12)

    def test_triangle_apex(self, triangle):
        # solve -x = 0, (x+y)/sqrt(2) = 1/sqrt(2) by hand: (0, 1)
        v = vertex_of_basis(triangle, (0, 2))
        np.testing.assert_allclose(v.point, [0.0, 1.0], atol=1e-12)

    def test_infeasible_basis_raises(self):
        lp = normalize(LinearProgram(
            A=[[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0],
               [1.0, 0.0]],
            b=[1.0, 1.0, 0.0, 0.0, 0.5], c=[1.0, 1.0]))
        with pytest.raises(InfeasibleBasis):
            vertex_of_basis(lp, (0, 1))  # (1,1) violates x <= 0.5

    def test_every_vertex_has_exactly_n_tight_rows(self, unit_square):
        for basis in [(0, 1), (1, 2), (2, 3), (0, 3)]:
            v = vertex_of_basis(unit_square, basis)
            tol = unit_square.feas_tol()
            tight = np.sum(np.abs(unit_square.A @ v.point - unit_square.b) <= tol)
            assert tight == unit_square.n


class TestConeMembership:
    def test_first_quadrant_inside(self, unit_square):
        res = cone_membership(unit_square, (0, 1), np.array([1.0, 1.0]) / SQRT2)
        assert res.inside
        np.testing.assert_allclose(res.coeffs, [1 / SQRT2, 1 / SQRT2])

    def test_first_quadrant_outside(self, unit_square):
        res = cone_membership(unit_square, (0, 1), [-1.0, 0.0])
        assert not res.inside
        np.testing.assert_allclose(res.coeffs, [-1.0, 0.0], atol=1e-12)

    def test_rotated_cone(self, unit_square):
        # basis rows e2 (pos 1) and -e1 (pos 2); w = (-1,2)/sqrt(5)
        w = np.array([-1.0, 2.0]) / np.sqrt(5.0)
        res = cone_membership(unit_square, (1, 2), w)
        assert res.inside
        np.testing.assert_allclose(res.coeffs,
                                   [2.0 / np.sqrt(5.0), 1.0 / np.sqrt(5.0)])

    def test_basis_row_gives_unit_coefficients(self, unit_square):
        for basis in [(0, 1), (1, 2), (2, 3)]:
            for pos, row in enumerate(basis):
                res = cone_membership(unit_square, basis, unit_square.A[row])
                assert res.inside
                expected = np.zeros(2)
                expected[pos] = 1.0
                np.testing.assert_allclose(res.coeffs, expected, atol=1e-12)

    @pytest.mark.parametrize("w", [[math.nan, 1.0], [1.0, math.nan],
                                   [-1.0, math.nan], [-1e-10, 1.0],
                                   [-1e-8, 1.0]])
    def test_inside_is_numpys_all_coefficients_test(self, unit_square, w):
        # (mu >= -CONE_TOL).all(): a NaN coefficient is outside; the given
        # basis is used unsorted only to factor afresh
        res = cone_membership(unit_square, (1, 0), w)
        assert res.inside == bool((res.coeffs >= -CONE_TOL).all())
        assert res.inside == (w == [-1e-10, 1.0])


class TestPivotAcrossFacet:
    def test_square_top_to_left(self, unit_square):
        w = pivot_across_facet(unit_square, (0, 1), 0)
        assert w == (1, 2)
        np.testing.assert_allclose(vertex_of_basis(unit_square, w).point,
                                   [0.0, 1.0], atol=1e-12)

    def test_square_origin_to_right(self, unit_square):
        w = pivot_across_facet(unit_square, (2, 3), 2)
        assert w == (0, 3)
        np.testing.assert_allclose(vertex_of_basis(unit_square, w).point,
                                   [1.0, 0.0], atol=1e-12)

    def test_triangle_leaves_hypotenuse(self, triangle):
        w = pivot_across_facet(triangle, (1, 2), 2)  # from the corner (1, 0)
        assert w == (0, 1)  # entering row is x >= 0
        np.testing.assert_allclose(vertex_of_basis(triangle, w).point,
                                   [0.0, 0.0], atol=1e-12)

    def test_involution(self, unit_square, triangle):
        for lp in (unit_square, triangle):
            for basis in [(0, 1), (1, 2)] if lp is unit_square else [(0, 1)]:
                for leaving in basis:
                    w = pivot_across_facet(lp, basis, leaving)
                    entering = next(iter(set(w) - set(basis)))
                    assert pivot_across_facet(lp, w, entering) == basis

    def test_degenerate_tie_enters_the_lexicographic_row(self):
        # two parallel-cut corners meet the moving edge at the same step
        lp = normalize(LinearProgram(
            A=[[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0],
               [1.0 / SQRT2, 1.0 / SQRT2]],
            b=[1.0, 1.0, 0.0, 0.0, 2.0 / SQRT2], c=[1.0, 1.0]))
        # moving along +x from (0,1): row 0 at t=1 and row 4 at t=1; their
        # keys over rows 0..4 are (1, 0, 1, 0, 0) and (0, -1, 1, 0, sqrt 2),
        # so row 4 is least at row 0 and enters
        w = pivot_across_facet(lp, (1, 2), 2)
        assert w == (1, 4)
        np.testing.assert_allclose(vertex_of_basis(lp, w).point, [1.0, 1.0],
                                   atol=1e-12)
        assert pivot_across_facet(lp, w, 4) == (1, 2)


class TestBlandSimplex:
    def test_square_to_top_corner(self, unit_square):
        basis = bland_simplex(unit_square, (2, 3), unit_square.c)
        assert basis == (0, 1)
        np.testing.assert_allclose(vertex_of_basis(unit_square, basis).point,
                                   [1.0, 1.0])

    def test_square_degenerate_objective_face(self, unit_square):
        basis = bland_simplex(unit_square, (0, 1), np.array([-1.0, 0.0]))
        assert vertex_of_basis(unit_square, basis).point[0] \
            == pytest.approx(0.0, abs=1e-12)

    def test_triangle(self, triangle):
        basis = bland_simplex(triangle, (1, 2), np.array([0.0, 1.0]))
        np.testing.assert_allclose(vertex_of_basis(triangle, basis).point,
                                   [0.0, 1.0], atol=1e-12)

    def test_unbounded(self):
        lp = normalize(LinearProgram(
            A=[[-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
            b=[0.0, 1.0, 0.0], c=[1.0, 0.0]))
        with pytest.raises(UnboundedLP):
            bland_simplex(lp, (0, 1), np.array([1.0, 0.0]))

    def test_optimality_certified_by_cone(self, unit_square, triangle):
        for lp, basis, obj in [(unit_square, (2, 3), [0.3, 0.9]),
                               (triangle, (0, 1), [0.8, -0.1])]:
            obj = np.asarray(obj)
            assert cone_membership(lp, bland_simplex(lp, basis, obj),
                                   obj).inside


class TestRatioTestRule:
    @pytest.mark.parametrize("cuts", [(6e-10, 1.2e-9), (1.2e-9, 6e-10)])
    def test_near_tie_enters_the_same_row_in_either_row_order(self, cuts):
        # from (0, 1) along +x the two cuts block at t = 1 - 1.2e-9 and
        # 1 - 6e-10, closer together than RATIO_TOL; both are x <= b, so
        # their keys differ only at their own rows, and the cut in row 5
        # is 0 at row 4 where the other is 1: row 5 enters in either order,
        # and the vertex is row 5's, read from the memo
        lp = near_tie_square(cuts)
        w = pivot_across_facet(lp, (1, 2), 2)
        assert w == (1, 5)
        assert basis_factors(lp, w)[1].tolist() == [1.0 - cuts[1], 1.0]

    @pytest.mark.parametrize("lp,seed", list(pivot_instances()))
    def test_row_order_does_not_change_the_pivot(self, lp, seed):
        rng = np.random.default_rng(seed)
        pairs = pivoted_bases(lp, seed)
        assert pairs
        for prog, basis, _ in pairs:
            others = np.array([j for j in range(prog.m) if j not in basis])
            perm = np.arange(prog.m)
            perm[others] = rng.permutation(others)
            permuted = NormalizedLP(A=prog.A[perm], b=prog.b[perm], c=prog.c)
            for leaving in basis:
                # off ties the rule reads only the (row, ratio) pairs, and
                # these pivots have none
                try:
                    w = pivot_across_facet(prog, basis, leaving)
                except UnboundedEdge:
                    with pytest.raises(UnboundedEdge):
                        pivot_across_facet(permuted, basis, leaving)
                    continue
                wp = pivot_across_facet(permuted, basis, leaving)
                assert sorted(perm[list(wp)]) == list(w)
                np.testing.assert_allclose(basis_factors(permuted, wp)[1],
                                           basis_factors(prog, w)[1], rtol=0,
                                           atol=1e-12)

    @pytest.mark.parametrize("lp,seed", list(pivot_instances()))
    def test_agrees_bitwise_with_running_minimum_without_ties(self, lp, seed):
        pairs = pivoted_bases(lp, seed)
        assert {source for _, _, source in pairs} == {"phase1", "walk"}
        for prog, basis, _ in pairs:
            for leaving in basis:
                try:
                    ref = running_min_pivot(prog, basis, leaving)
                except UnboundedEdge:
                    with pytest.raises(UnboundedEdge):
                        pivot_across_facet(prog, basis, leaving)
                    continue
                if ref is None:
                    continue  # a tie: the vectorized rule is its reference
                assert pivot_across_facet(prog, basis, leaving) == ref
                assert memo_vertex_is_afresh(prog, basis)

    @pytest.mark.parametrize("lp,seed", list(pivot_instances()))
    def test_agrees_bitwise_with_the_vectorized_rule(self, lp, seed):
        # ties and unbounded edges included: the same choice, or the same
        # class raised
        checked = 0
        for prog, basis, _ in pivoted_bases(lp, seed):
            for leaving in basis:
                assert pivot_outcome(pivot_across_facet, prog, basis,
                                     leaving) \
                    == pivot_outcome(vectorized_pivot, prog, basis, leaving)
                checked += 1
        assert checked

    @pytest.mark.parametrize("cuts", [(6e-10, 1.2e-9), (1.2e-9, 6e-10),
                                      (6e-10, 1.7e-9), (1e-3, 1e-3)])
    def test_near_ties_agree_with_the_vectorized_rule(self, cuts):
        lp = near_tie_square(cuts)
        for rows in (None, 4, 5, 6):
            assert pivot_outcome(pivot_across_facet, lp, (1, 2), 2,
                                 rows=rows) \
                == pivot_outcome(vectorized_pivot, prefix(lp, rows), (1, 2), 2)

    def test_a_region_must_hold_the_basis(self, unit_square):
        with pytest.raises(ValueError, match="first 1 rows"):
            pivot_across_facet(unit_square, (0, 1), 0, rows=1)

    def test_running_minimum_misses_a_chained_tie(self):
        # the reference enters the 1.2e-9 cut silently in this row order,
        # although the other cut is 6e-10 away
        lp = near_tie_square((6e-10, 1.2e-9))
        assert running_min_pivot(lp, (1, 2), 2) == (1, 5)
        assert running_min_pivot(near_tie_square((1.2e-9, 6e-10)), (1, 2),
                                 2) is None


class TestMemoScope:
    """A program owns its memo of basis factors: phase 1's descents run on
    the boxed program itself and read its memo, and every other program
    starts with its own, empty one."""

    def test_phase1_descents_read_the_boxed_programs_memo(self, monkeypatch):
        descents, lookups = [], []
        real_bland = phase1_module.bland_simplex

        def recording(prog, start, objective, *, rows=None):
            descents.append((prog, rows))
            return real_bland(prog, start, objective, rows=rows)

        monkeypatch.setattr(phase1_module, "bland_simplex", recording)
        for module in (simplex_module, phase1_module):
            def factors(prog, basis, real=module.basis_factors):
                lookups.append((prog, basis, basis in prog.lu_memo))
                return real(prog, basis)
            monkeypatch.setattr(module, "basis_factors", factors)
        nlp = normalize(tu_instance_generator("network", 4, 14, 0))
        boxed = bounding_box(nlp, certified_radius(nlp, delta_bruteforce(nlp)))
        phase1_vertex(nlp, boxed)
        n = nlp.n
        assert descents == [(boxed, 2 * n + i) for i in range(nlp.m)]
        assert all(prog is boxed for prog, _, _ in lookups)
        assert set(boxed.lu_memo) == {basis for _, basis, _ in lookups}
        # every descent starts at a basis factored before it, and each
        # pivot reads the factors its cone test left
        assert sum(hit for _, _, hit in lookups) > nlp.m

    def test_new_programs_start_with_an_empty_memo(self, unit_square):
        v = vertex_of_basis(unit_square, (0, 1))
        assert set(unit_square.lu_memo) == {(0, 1)}
        nlp = normalize(LinearProgram(A=unit_square.A, b=unit_square.b,
                                      c=unit_square.c))
        boxed = bounding_box(unit_square, 2.0)
        reduced, start, _ = reduce_lp(unit_square, 0, v)
        assert nlp.lu_memo == {} and boxed.lu_memo == {}
        # reduce_lp solved its start vertex on the reduced program, and
        # nothing else
        assert set(reduced.lu_memo) == {start.basis}
        assert set(unit_square.lu_memo) == {(0, 1)}


class TestFactorMemo:
    """phase1_vertex factors each basis once, and what bland_simplex reads
    from the memo is what the standalone functions compute on a copy of the
    program that factors afresh."""

    def test_each_basis_is_factored_once_per_phase1_vertex(self, solve_spies):
        bases = 0
        for spy in solve_spies:
            for (scope, basis), times in spy.factorizations.items():
                if scope is not None and scope[0] == "phase1":
                    assert times == 1, (scope, basis, times)
                    bases += 1
        assert bases > 2 * len(solve_spies)  # phase 1 pivoted

    def test_memo_answers_equal_the_standalone_functions(self, solve_spies):
        pivots = cone_tests = 0
        for spy in solve_spies:
            for caller, prog, basis, leaving, rows, result in spy.pivots:
                if caller == "simplex":
                    assert same_pivot(prog, basis, leaving, rows, result)
                    assert memo_vertex_is_afresh(prog, basis, rows)
                    pivots += 1
            for prog, basis, w, inside in spy.cone_tests:
                assert cone_membership(afresh(prog), basis, w).inside == inside
                cone_tests += 1
        assert pivots > 0 and cone_tests > pivots
