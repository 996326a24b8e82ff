import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import conewalk
from conewalk.errors import Infeasible, ObjectiveVanishes, TooLarge, Unbounded
from conewalk.lp import (
    LinearProgram,
    delta_bruteforce,
    delta_integer_bound,
    normalize,
)
from conewalk.oracle import enumerate_vertices, pad_redundant, tu_instance_generator
from conewalk.reduction import reduce_lp, solve
from conewalk.simplex import bland_simplex, cone_membership, vertex_of_basis
from conewalk.walk import WalkConfig

from conftest import SQRT2, bounded_random_lp


class TestReduceLp:
    def test_square_fix_right_edge(self, unit_square):
        v = vertex_of_basis(unit_square, (0, 1))
        reduced, start, step = reduce_lp(unit_square, 0, v)
        # one dimension, rows from e2 and -e2; -e1 drops as parallel
        assert reduced.n == 1
        assert step.dropped == (2,)
        assert step.index_map == (1, 3)
        np.testing.assert_allclose(reduced.A, [[1.0], [-1.0]])
        np.testing.assert_allclose(reduced.b, [1.0, 0.0])
        np.testing.assert_allclose(start.point, [1.0])
        assert start.basis == (0,)

    def test_square_fix_top_edge(self, unit_square):
        # fixed row is e2: the rotation swaps coordinates up to sign
        v = vertex_of_basis(unit_square, (0, 1))
        reduced, start, step = reduce_lp(unit_square, 1, v)
        assert reduced.n == 1
        assert step.dropped == (3,)
        # remaining coordinate runs along -x: interval [-1, 0]
        feasible = [reduced.is_feasible(np.array([t]))
                    for t in (-1.5, -0.5, 0.5)]
        assert feasible == [False, True, False]
        np.testing.assert_allclose(start.point, [-1.0], atol=1e-12)

    def test_scale_factors_at_least_one(self, triangle):
        v = vertex_of_basis(triangle, (0, 2))
        reduced, _, step = reduce_lp(triangle, 2, v)
        assert np.all(step.scale_factors >= 1.0 - 1e-12)
        np.testing.assert_allclose(np.linalg.norm(reduced.A, axis=1), 1.0)

    def test_triangle_separation_preserved(self, triangle):
        # one dimension down, the row separation can only grow
        before = delta_bruteforce(triangle).delta
        v = vertex_of_basis(triangle, (0, 2))
        reduced, _, _ = reduce_lp(triangle, 2, v)
        after = delta_bruteforce(reduced).delta
        assert after >= before - 1e-7

    def test_separation_preserved_randomized(self):
        violations = 0
        for seed in range(25):
            nlp = bounded_random_lp(3, 3, seed + 300)
            before = delta_bruteforce(nlp).delta
            res = enumerate_vertices(nlp)
            v = res.vertices[seed % len(res.vertices)]
            fixed = v.basis[seed % len(v.basis)]
            try:
                reduced, _, _ = reduce_lp(nlp, fixed, v)
            except ObjectiveVanishes:
                continue
            after = delta_bruteforce(reduced).delta
            if after < before - 1e-7:
                violations += 1
        assert violations == 0

    def test_round_trip_lift(self):
        for seed in range(15):
            nlp = bounded_random_lp(3, 2, seed + 600)
            res = enumerate_vertices(nlp)
            opt = res.optimal_basis
            v = vertex_of_basis(nlp, opt)
            fixed = opt[0]
            try:
                reduced, _, step = reduce_lp(nlp, fixed, v)
            except ObjectiveVanishes:
                continue
            sub = enumerate_vertices(reduced)
            lifted = step.lift(sub.optimal_point)
            np.testing.assert_allclose(lifted, res.optimal_point, atol=1e-7)

    def test_objective_vanishes(self):
        lp = normalize(LinearProgram(
            A=[[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
            b=[1.0, 1.0, 0.0, 0.0], c=[1.0, 0.0]))
        v = vertex_of_basis(lp, (0, 1))
        with pytest.raises(ObjectiveVanishes):
            reduce_lp(lp, 0, v)

    def test_requires_basis_membership(self, unit_square):
        v = vertex_of_basis(unit_square, (0, 1))
        with pytest.raises(ValueError):
            reduce_lp(unit_square, 2, v)

    def test_labels_follow_rows(self, unit_square):
        v = vertex_of_basis(unit_square, (0, 1))
        reduced, _, step = reduce_lp(unit_square, 0, v)
        assert reduced.row_labels == (2, 4)
        assert step.fixed_label == 1

    def test_duplicate_rows_merge_keeping_tighter(self):
        # two rows that project to the same direction; the tighter one wins
        lp = normalize(LinearProgram(
            A=[[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0],
               [1.0 / SQRT2, 1.0 / SQRT2]],
            b=[1.0, 1.0, 0.0, 0.0, 2.1 / SQRT2],
            c=[1.0 / SQRT2, 1.0 / SQRT2]))
        v = vertex_of_basis(lp, (0, 1))
        # fixing x=1: row 4 becomes y <= 1.1, dominated by row 1's y <= 1
        reduced, _, step = reduce_lp(lp, 0, v)
        assert step.merged == (4,)
        pos = step.index_map.index(1)
        assert reduced.b[pos] == pytest.approx(1.0)
        assert 4 not in step.index_map


class TestSolve:
    def test_unit_square(self, unit_square):
        rep = solve(unit_square, WalkConfig(seed=0))
        assert rep.basis == (0, 1)
        np.testing.assert_allclose(rep.x, [1.0, 1.0], atol=1e-9)
        assert rep.value == pytest.approx(np.sqrt(2.0), abs=1e-7)

    def test_triangle(self, triangle):
        rep = solve(triangle, WalkConfig(seed=1))
        assert rep.basis == (0, 2)
        np.testing.assert_allclose(rep.x, [0.0, 1.0], atol=1e-9)

    def test_unnormalized_input(self):
        lp = LinearProgram(A=[[2.0, 0.0], [0.0, 3.0], [-1.0, 0.0],
                              [0.0, -5.0]],
                           b=[2.0, 3.0, 0.0, 0.0], c=[2.0, 2.0])
        rep = solve(lp, WalkConfig(seed=2))
        np.testing.assert_allclose(rep.x, [1.0, 1.0], atol=1e-9)
        assert rep.value == pytest.approx(4.0, abs=1e-7)

    def test_infeasible(self):
        lp = LinearProgram(
            A=[[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
            b=[0.0, -1.0, 1.0, 0.0], c=[1.0, 1.0])
        with pytest.raises(Infeasible) as exc_info:
            solve(lp, WalkConfig(seed=0))
        assert exc_info.value.iteration == 2

    def test_unbounded(self):
        lp = LinearProgram(A=[[-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                           b=[0.0, 1.0, 0.0], c=[1.0, 0.0])
        with pytest.raises(Unbounded):
            solve(lp, WalkConfig(seed=0))

    def test_matches_oracles_on_tu_instances(self):
        for kind in ("box", "interval", "network"):
            for seed in range(4):
                lp = tu_instance_generator(kind, 3, 10, seed + 20)
                nlp = normalize(lp)
                res = enumerate_vertices(nlp)
                vals = sorted((float(nlp.c @ v.point) for v in res.vertices),
                              reverse=True)
                if len(vals) >= 2 and vals[0] - vals[1] < 1e-6:
                    continue  # optimum not unique; basis comparison undefined
                rep = solve(lp, WalkConfig(seed=seed))
                assert rep.basis == res.optimal_basis
                start = vertex_of_basis(nlp, res.vertices[0].basis)
                ref = bland_simplex(nlp, start, nlp.c)
                assert float(lp.c @ rep.x) == pytest.approx(
                    float(lp.c @ ref.point), abs=1e-7)

    def test_report_is_self_certifying(self, unit_square):
        rep = solve(unit_square, WalkConfig(seed=7))
        assert unit_square.is_feasible(rep.x)
        assert cone_membership(unit_square, rep.basis, unit_square.c).inside
        sub = unit_square.A[list(rep.basis)]
        np.testing.assert_allclose(sub @ rep.x,
                                   unit_square.b[list(rep.basis)], atol=1e-9)

    def test_pivot_counter_sums_levels(self, triangle):
        rep = solve(triangle, WalkConfig(seed=3))
        assert rep.pivots == sum(s.pivots for s in rep.levels)
        assert rep.steps_per_level == tuple(s.steps_taken for s in rep.levels)

    def test_deterministic_given_seed(self, unit_square):
        a = solve(unit_square, WalkConfig(seed=11))
        b = solve(unit_square, WalkConfig(seed=11))
        assert a.basis == b.basis
        assert a.pivots == b.pivots
        np.testing.assert_array_equal(a.x, b.x)

    def test_trace_does_not_change_the_solve(self):
        # a lazy step's proposal here would pivot into a degenerate tie;
        # tracing used to evaluate it and raise DegeneratePivot
        lp = tu_instance_generator("network", 4, 20, 522376955)
        plain = solve(lp, WalkConfig(seed=2))
        traced = solve(lp, WalkConfig(seed=2, trace=io.StringIO()))
        assert traced.basis == plain.basis
        assert traced.x.tobytes() == plain.x.tobytes()
        assert (traced.pivots, traced.retries, traced.steps_per_level) == \
            (plain.pivots, plain.retries, plain.steps_per_level)

    def test_trace_does_not_change_a_verdict(self):
        # unbounded along x_0: the rows bounding it from above are dropped
        base = tu_instance_generator("network", 4, 14, 769354564)
        keep = base.A[:, 0] <= 0.0
        c = base.c.copy()
        c[0] = abs(c[0])
        lp = LinearProgram(A=base.A[keep], b=base.b[keep], c=c)
        with pytest.raises(Unbounded):
            solve(lp, WalkConfig(seed=1))
        with pytest.raises(Unbounded):
            solve(lp, WalkConfig(seed=1, trace=io.StringIO()))

    def test_provided_delta_drives_the_walk(self, monkeypatch):
        # the boxed system used to be re-certified by brute force, and the
        # walk ran at that value while the report claimed the caller's
        import conewalk.reduction as reduction_module
        seen = []
        real_run_walk = reduction_module.run_walk

        def spy(nlp, cfg, start, delta=None):
            seen.append(delta)
            return real_run_walk(nlp, cfg, start, delta=delta)

        monkeypatch.setattr(reduction_module, "run_walk", spy)
        lp = tu_instance_generator("network", 3, 8, 5)
        rep = solve(lp, WalkConfig(seed=0), delta=0.3)
        assert seen and all(d == 0.3 for d in seen)
        assert rep.delta == 0.3
        assert rep.alpha == 4.0 * lp.n**3 / 0.3

    @pytest.mark.parametrize("m", [112, 1000])
    def test_many_padded_rows(self, m):
        # padding repeats directions, so neither the box nor the brute-force
        # certificate, which enumerates distinct directions only, grows with m
        base = tu_instance_generator("network", 4, 16, 7)
        lp = pad_redundant(base, m, 7)
        optimum = enumerate_vertices(normalize(base)).optimal_point
        for delta in (delta_integer_bound(lp.A, 1), None):
            rep = solve(lp, WalkConfig(seed=0), delta=delta)
            assert lp.is_feasible(rep.x, tol=1e-9)
            assert rep.value == pytest.approx(float(lp.c @ optimum), abs=1e-9)
        assert rep.delta == delta_bruteforce(normalize(base)).delta
        assert rep.delta_method == "brute_force"

    def test_many_distinct_directions_too_large(self):
        # 4 box directions and 108 random ones at n=4: C(112, 3) * 112 > 10^7
        lp = bounded_random_lp(4, 108, 3)
        with pytest.raises(TooLarge):
            solve(lp, WalkConfig(seed=0))

    def test_negative_max_retries_rejected_before_any_work(self, monkeypatch):
        import conewalk.reduction as reduction_module

        def forbidden(*args, **kwargs):
            raise AssertionError("solve did work before checking max_retries")

        monkeypatch.setattr(reduction_module, "normalize", forbidden)
        lp = LinearProgram(A=[[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
                           b=[1.0, 1.0, 0.0, 0.0], c=[1.0, 1.0])
        with pytest.raises(ValueError, match="max_retries"):
            solve(lp, WalkConfig(seed=0), max_retries=-1)

    def test_n1_instance(self):
        lp = LinearProgram(A=[[1.0], [-1.0]], b=[3.0, 0.0], c=[2.0])
        rep = solve(lp, WalkConfig(seed=0))
        assert rep.basis == (0,)
        np.testing.assert_allclose(rep.x, [3.0])
        assert rep.value == pytest.approx(6.0)


class TestIdentifyAndRecurse:
    """The walk-timeout path: verify, extract one row, recurse one level down.

    Generic instances stop with the objective inside the current cone, so
    this branch is driven with a synthetic walk outcome: a cell deep in a
    neighboring cone whose scaled center lands within the verification ball.
    """

    def test_extraction_recursion_finds_optimum(self, monkeypatch):
        import conewalk.reduction as reduction_module
        from conewalk.walk import Parallelepiped, WalkOutcome, center

        eps = 0.05
        c = np.array([1.0, eps]) / np.hypot(1.0, eps)
        lp = normalize(LinearProgram(
            A=[[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
            b=[1.0, 1.0, 0.0, 0.0], c=c))
        start = vertex_of_basis(lp, (0, 3))  # the corner (1, 0)
        alpha = 32.0

        # cell (127, 0) of the cone of rows {e1, -e2}: its center over alpha
        # is 0.054 away from c, inside the delta/(2n) = 1/4 ball, while c
        # itself lies in the adjacent cone of rows {e1, e2}
        cell = Parallelepiped(basis=(0, 3), index=(127, 0))
        fake = WalkOutcome(final=cell, c_prime=center(lp, cell) / alpha,
                           current_vertex=start, stopped_with_c_in_cone=False,
                           steps_taken=46, pivots=0, accepted_moves=20,
                           rejected_moves=16, lazy_stays=10)
        calls = []

        def fake_run_walk(nlp, cfg, start_vertex, delta=None):
            calls.append(nlp.n)
            return fake

        monkeypatch.setattr(reduction_module, "run_walk", fake_run_walk)
        basis, levels = reduction_module._solve_level(
            lp, 1.0, WalkConfig(alpha=alpha, steps=46), start,
            base_seed=0, level=0, max_retries=2)
        assert basis == (0, 1)  # the true optimal basis for c
        assert calls == [2]     # one walk; the 1-d tail is solved directly
        assert len(levels) == 2
        assert levels[0].fixed_label == 1
        assert levels[0].stopped_with_c_in_cone is False
        assert levels[1].n == 1

    def test_retries_exhaust_on_persistent_failure(self, monkeypatch,
                                                   unit_square):
        import conewalk.reduction as reduction_module
        from conewalk.errors import RetriesExhausted
        from conewalk.walk import Parallelepiped, WalkOutcome, center

        start = vertex_of_basis(unit_square, (2, 3))
        cell = Parallelepiped(basis=(2, 3), index=(0, 0))  # far from alpha*c
        fake = WalkOutcome(final=cell, c_prime=center(unit_square, cell) / 32,
                           current_vertex=start, stopped_with_c_in_cone=False,
                           steps_taken=46)
        attempts = []
        monkeypatch.setattr(
            reduction_module, "run_walk",
            lambda nlp, cfg, s, delta=None: attempts.append(1) or fake)
        with pytest.raises(RetriesExhausted):
            reduction_module._solve_level(
                unit_square, 1.0, WalkConfig(alpha=32.0, steps=46), start,
                base_seed=0, level=0, max_retries=3)
        assert len(attempts) == 4  # the first try plus three retries


@pytest.mark.parametrize("module", ["conewalk.phase1", "conewalk.reduction"])
def test_module_imports_first_in_a_fresh_interpreter(module):
    # reduction imports phase1 at module top; phase1 reaches back into
    # reduction only inside solve_bounded, so either may be imported first.
    src = str(Path(conewalk.__file__).resolve().parent.parent)
    subprocess.run([sys.executable, "-c", f"import {module}"], check=True,
                   env={**os.environ, "PYTHONPATH": src})
