import ast
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import conewalk
import conewalk.geometry as geometry
import conewalk.phase1 as phase1_module
import conewalk.reduction as reduction_module
from conewalk.errors import (
    ConewalkError,
    FaceReachesBox,
    Infeasible,
    ObjectiveVanishes,
    RankDeficient,
    TooLarge,
    Unbounded,
)
from conewalk.lp import (
    BRUTE_FORCE_LIMIT,
    LinearProgram,
    crossed_opposite_rows,
    delta_bruteforce,
    delta_integer_bound,
    find_independent_rows,
    normalize,
    tightest_rows,
)
from conewalk.oracle import (
    _generic_rationals,
    enumerate_vertices,
    pad_redundant,
    tu_instance_generator,
)
from conewalk.reduction import reduce_lp, solve, walked_program
from conewalk.simplex import bland_simplex, cone_membership, vertex_of_basis
from conewalk.walk import WalkConfig

from conftest import (
    MIXED_ROWS,
    SQRT2,
    SolveSpy,
    assert_exact_optimum,
    bounded_random_lp,
)


def identifying_walk(alpha, outcomes):
    """A fake run_walk whose every walk ends outside the cone, in a cell of
    the start basis's cone whose center over alpha is the objective up to
    rounding: an outcome verify_problem1 would pass.  Each (walked
    program, outcome) is appended to ``outcomes``.
    """
    from conewalk.geometry import lu_factor, lu_solve
    from conewalk.simplex import basis_matrix
    from conewalk.walk import Parallelepiped, WalkOutcome

    def fake_run_walk(nlp, basis, *, steps, **term):
        mu = lu_solve(lu_factor(basis_matrix(nlp, basis).T), nlp.c)
        index = [max(0, round(m * alpha * nlp.n**2 - 0.5)) for m in mu]
        cell = Parallelepiped(basis=basis, index=tuple(index))
        outcome = WalkOutcome(final=cell, stopped_with_c_in_cone=False,
                              steps_taken=steps)
        outcomes.append((nlp, outcome))
        return outcome

    return fake_run_walk


class TestReduceLp:
    def test_square_fix_right_edge(self, unit_square):
        v = vertex_of_basis(unit_square, (0, 1))
        reduced, start, index_map = reduce_lp(unit_square, 0, v)
        # one dimension, rows from e2 and -e2; -e1 drops as parallel
        assert reduced.n == 1
        assert index_map == (1, 3)
        np.testing.assert_allclose(reduced.A, [[1.0], [-1.0]])
        np.testing.assert_allclose(reduced.b, [1.0, 0.0])
        np.testing.assert_allclose(start.point, [1.0])
        assert start.basis == (0,)

    def test_square_fix_top_edge(self, unit_square):
        # fixed row is e2: the rotation swaps coordinates up to sign
        v = vertex_of_basis(unit_square, (0, 1))
        reduced, start, index_map = reduce_lp(unit_square, 1, v)
        assert reduced.n == 1
        assert index_map == (0, 2)  # -e2 drops as parallel
        # remaining coordinate runs along -x: interval [-1, 0]
        feasible = [reduced.is_feasible(np.array([t]))
                    for t in (-1.5, -0.5, 0.5)]
        assert feasible == [False, True, False]
        np.testing.assert_allclose(start.point, [-1.0], atol=1e-12)

    def test_scale_factors_at_least_one(self, triangle):
        v = vertex_of_basis(triangle, (0, 2))
        reduced, _, _ = reduce_lp(triangle, 2, v)
        # each kept row is a projection, of norm <= 1, scaled back to unit
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
        # the reduced optimum's basis, mapped up and joined with the fixed
        # row, is the parent's optimal basis, as the level loop lifts it
        for seed in range(15):
            nlp = bounded_random_lp(3, 2, seed + 600)
            res = enumerate_vertices(nlp)
            opt = res.optimal_basis
            v = vertex_of_basis(nlp, opt)
            fixed = opt[0]
            try:
                reduced, _, index_map = reduce_lp(nlp, fixed, v)
            except ObjectiveVanishes:
                continue
            sub = enumerate_vertices(reduced)
            mapped = {index_map[p] for p in sub.optimal_basis} | {fixed}
            assert tuple(sorted(mapped)) == tuple(sorted(opt))

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

    def test_index_map_follows_rows(self, unit_square):
        v = vertex_of_basis(unit_square, (0, 1))
        _, _, index_map = reduce_lp(unit_square, 0, v)
        assert index_map == (1, 3)
        assert 0 not in index_map  # the fixed row

    def test_duplicate_rows_merge_keeping_tighter(self):
        # two rows that project to the same direction; the tighter one wins
        lp = normalize(LinearProgram(
            A=[[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0],
               [1.0 / SQRT2, 1.0 / SQRT2]],
            b=[1.0, 1.0, 0.0, 0.0, 2.1 / SQRT2],
            c=[1.0 / SQRT2, 1.0 / SQRT2]))
        v = vertex_of_basis(lp, (0, 1))
        # fixing x=1: row 4 becomes y <= 1.1, dominated by row 1's y <= 1
        reduced, _, index_map = reduce_lp(lp, 0, v)
        assert index_map == (1, 3)  # row 2 dropped, row 4 merged into row 1
        pos = index_map.index(1)
        assert reduced.b[pos] == pytest.approx(1.0)
        assert 4 not in index_map


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

    @pytest.mark.parametrize("lp, error", [
        (LinearProgram(A=[[-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                       b=[0.0, 1.0, 0.0], c=[1.0, 0.0]), Unbounded),
        # row 4 is an ulp from the negation of row 1: no crossed pair, so
        # phase 1 certifies the crossing in the box
        (LinearProgram(A=[[0.6, 0.8], [0.0, 1.0], [-1.0, 0.0],
                          [-0.6, np.nextafter(-0.8, 0.0)]],
                       b=[0.0, 1.0, 1.0, -1.0], c=[1.0, 0.0]), Infeasible),
        # no verdict: the box radius n * 1e308 / delta leaves the float range
        (LinearProgram(A=[[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0],
                          [0.6, 0.8]],
                       b=[1e308, 1.0, 0.0, 0.0, 1.0], c=[1.0, 1.0]), TooLarge),
    ], ids=["unbounded", "infeasible", "box-radius"])
    def test_errors_after_delta_carry_its_certificate(self, lp, error):
        _, walked = walked_program(normalize(lp))
        given = delta_bruteforce(walked)
        with pytest.raises(error) as info:
            solve(lp, WalkConfig(seed=0), delta=given)
        assert info.value.certificate is given
        with pytest.raises(error) as info:
            solve(lp, WalkConfig(seed=0))
        assert info.value.certificate == \
            reduction_module.certify_delta(walked)

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
                ref = vertex_of_basis(nlp, bland_simplex(
                    nlp, res.vertices[0].basis, nlp.c))
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
        # a lazy step's proposal here would pivot through a ratio-test tie;
        # tracing used to evaluate it, and a tie then raised
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

    def test_a_bare_number_delta_is_a_type_error(self):
        # a number would size the box and set the walk unchecked: the error
        # names the way to tune the walk and the certificates to pass
        lp = tu_instance_generator("network", 3, 8, 5)
        for delta in (0.3, 1):
            with pytest.raises(TypeError,
                               match="WalkConfig.alpha and steps") as info:
                solve(lp, WalkConfig(seed=0), delta=delta)
            for name in ("delta_bruteforce", "delta_from_structure",
                         "delta_integer_bound"):
                assert name in str(info.value)

    # (kind, generator seed, solve seed) -> the outcome of
    # solve(lp, WalkConfig(seed=...), delta=0.3) when solve took a number:
    # basis, x bytes, steps, pivots.  The walk starts optimal on the first
    # and pivots 3 times on the second.
    BARE_DELTA_OUTCOMES = {
        ("network", 5, 0): ((2, 3, 4), "000000000000dabf000000000000cebf"
                            "000000000000f03f", 0, 0),
        ("box", 3, 3): ((3, 4, 5), "000000000000c0bf000000000000b8bf"
                        "000000000000d9bf", 17, 3),
    }

    @pytest.mark.parametrize("program", sorted(BARE_DELTA_OUTCOMES))
    def test_a_certificate_and_walk_fields_reproduce_a_bare_delta(
            self, program):
        # what delta=d used to run: the brute-force certificate sizes the
        # box, as it did then, and alpha = 4 n^3 / d and the step budget
        # ceil(n^5.5 / d^3) set the walk
        kind, gen_seed, seed = program
        basis, x_hex, steps, pivots = self.BARE_DELTA_OUTCOMES[program]
        lp = tu_instance_generator(kind, 3, 8, gen_seed)
        cfg = WalkConfig(seed=seed, alpha=4 * 27 / 0.3,
                         steps=math.ceil(3**5.5 / 0.3**3))
        rep = solve(lp, cfg, delta=delta_bruteforce(normalize(lp)))
        assert (rep.basis, rep.x.tobytes().hex()) == (basis, x_hex)
        assert (rep.steps_per_level, rep.pivots, rep.retries) == \
            ((steps,), pivots, 0)
        assert rep.alpha == 360.0
        assert rep.delta_method == "brute_force"

    @pytest.mark.parametrize("m", [112, 1000])
    def test_many_padded_rows(self, m, monkeypatch):
        # padding repeats directions, and solve keeps the tightest row of
        # each, so neither the box nor the structural certificate grows with m
        import conewalk.phase1 as phase1_module

        radii = []
        real = phase1_module.bounding_box

        def recording(walked, radius):
            radii.append(radius)
            return real(walked, radius)

        monkeypatch.setattr(phase1_module, "bounding_box", recording)
        base = tu_instance_generator("network", 4, 16, 7)
        lp = pad_redundant(base, m, 7)
        optimum = enumerate_vertices(normalize(base)).optimal_point
        for delta in (delta_integer_bound(lp.A, 1), None):
            rep = solve(lp, WalkConfig(seed=0), delta=delta)
            assert lp.is_feasible(rep.x, tol=1e-9)
            assert rep.value == pytest.approx(float(lp.c @ optimum), abs=1e-9)
        assert rep.delta == 1 / 4
        assert rep.delta_method == "network_rows"
        unpadded = solve(base, WalkConfig(seed=0))
        assert unpadded.delta == rep.delta
        assert radii[1] == radii[2]

    def test_mixed_rules_are_certified_by_brute_force(self):
        lp = LinearProgram(A=MIXED_ROWS, b=[1.0] * 9, c=[1.0, 2.0, 3.0])
        rep = solve(lp, WalkConfig(seed=0))
        assert rep.delta_method == "brute_force"
        assert rep.delta == delta_bruteforce(normalize(lp)).delta < 1 / 3

    def test_many_distinct_directions_too_large(self):
        # 4 box directions and 108 random ones at n=4: C(112, 3) * 112 > 10^7
        lp = bounded_random_lp(4, 108, 3)
        with pytest.raises(TooLarge):
            solve(lp, WalkConfig(seed=0))

    def test_box_radius_past_the_float_range_is_too_large(self):
        # n * max|b| / delta = 2e308 overflows to inf
        lp = LinearProgram(A=np.vstack([np.eye(2), -np.eye(2)]),
                           b=[1e308, 1.0, 0.0, 0.0], c=[1.0, 1.0])
        with pytest.raises(TooLarge, match="radius"):
            solve(lp, WalkConfig(seed=0))

    def test_out_of_range_delta_rejected_before_any_work(self, monkeypatch):
        # (0, 1] is checked where a certificate is made
        # (DeltaCertificate); a bare number, in range or not, is refused
        import conewalk.reduction as reduction_module

        def forbidden(*args, **kwargs):
            raise AssertionError("solve did work before checking delta")

        monkeypatch.setattr(reduction_module, "normalize", forbidden)
        lp = LinearProgram(A=[[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
                           b=[1.0, 1.0, 0.0, 0.0], c=[1.0, 1.0])
        for delta in (1.0 + 5e-10, 0.0, -0.5, float("nan")):
            with pytest.raises(TypeError, match="DeltaCertificate"):
                solve(lp, WalkConfig(seed=0), delta=delta)

    @pytest.mark.parametrize("seed, error", [
        (np.random.SeedSequence(5), TypeError), (1.5, TypeError),
        ("1", TypeError), (None, TypeError), (-1, ValueError),
        (np.int64(-3), ValueError)])
    def test_bad_seed_rejected_before_any_work(self, monkeypatch, seed, error):
        # each once failed only at the first walk term, after normalize,
        # the collapse, delta, the box and phase 1, with numpy's message;
        # building the WalkConfig raises now, so no solve starts
        import conewalk.reduction as reduction_module

        def forbidden(*args, **kwargs):
            raise AssertionError("solve did work before checking the seed")

        monkeypatch.setattr(reduction_module, "normalize", forbidden)
        lp = tu_instance_generator("network", 4, 14, 3)
        with pytest.raises(error, match=r"^WalkConfig\.seed must be a "
                                        r"non-negative integer, got "):
            solve(lp, WalkConfig(seed=seed))

    @pytest.mark.parametrize("call, name", [
        (lambda lp: solve(np.eye(2)), "lp"),
        (lambda lp: solve(lp, {"seed": 3}), "cfg"),
        (lambda lp: solve(lp, 0), "cfg")],
        ids=["array-lp", "dict-cfg", "zero-cfg"])
    def test_wrong_typed_argument_rejected_before_any_work(self, monkeypatch,
                                                           call, name):
        # a dict once failed only after phase 1, on cfg.resolved; a falsy
        # cfg solved with the defaults; an array failed on lp.A
        import conewalk.reduction as reduction_module

        def forbidden(*args, **kwargs):
            raise AssertionError("solve did work before checking its "
                                 "arguments")

        monkeypatch.setattr(reduction_module, "normalize", forbidden)
        lp = LinearProgram(A=[[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
                           b=[1.0, 1.0, 0.0, 0.0], c=[1.0, 1.0])
        with pytest.raises(TypeError, match=rf"^{name} must be a "):
            call(lp)

    @pytest.mark.parametrize("b", [[1.0, 1.0, 0.0, 0.0], [1.0, 1.0, -2.0, 0.0]],
                             ids=["square", "infeasible"])
    @pytest.mark.parametrize("fields, error", [
        ({"alpha": -1.0}, ValueError), ({"alpha": 0.0}, ValueError),
        ({"alpha": math.nan}, ValueError), ({"alpha": "3"}, TypeError),
        ({"steps": -1}, ValueError), ({"steps": 2.5}, TypeError),
        ({"steps": "3"}, TypeError)])
    def test_bad_alpha_or_steps_rejected_before_any_work(
            self, monkeypatch, b, fields, error):
        # each once raised only after phase 1, or never: the infeasible
        # twin's verdict hid it, and steps=2.5 walked a budget of 2
        import conewalk.reduction as reduction_module

        def forbidden(*args, **kwargs):
            raise AssertionError("solve did work before checking the config")

        monkeypatch.setattr(reduction_module, "normalize", forbidden)
        lp = LinearProgram(A=[[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
                           b=b, c=[1.0, 1.0])
        (field,) = fields
        with pytest.raises(error, match=rf"^WalkConfig\.{field} must be "):
            solve(lp, WalkConfig(seed=0, **fields))

    @pytest.mark.parametrize("trace", [
        5, "trace.jsonl", Path("trace.jsonl"), SimpleNamespace(write=None)],
        ids=["int", "str", "path", "write-not-callable"])
    def test_bad_trace_rejected_before_any_work(self, monkeypatch, trace):
        # an int once failed only mid-walk, after normalize, delta, the
        # box and phase 1, with 'int' object has no attribute 'write'
        import conewalk.reduction as reduction_module

        def forbidden(*args, **kwargs):
            raise AssertionError("solve did work before checking the trace")

        monkeypatch.setattr(reduction_module, "normalize", forbidden)
        lp = tu_instance_generator("network", 3, 10, 3)
        with pytest.raises(TypeError, match=r"^WalkConfig\.trace must be "
                                            r"None or a text stream"):
            solve(lp, WalkConfig(seed=2, trace=trace))

    @pytest.mark.parametrize("seed", [np.int64(2), np.uint8(2)])
    def test_numpy_integer_seed_solves_as_its_int(self, seed):
        lp = tu_instance_generator("network", 4, 14, 3)
        rep = solve(lp, WalkConfig(seed=seed))
        want = solve(lp, WalkConfig(seed=2))
        assert (rep.basis, rep.x.tobytes(), rep.steps_per_level) == \
            (want.basis, want.x.tobytes(), want.steps_per_level)

    def test_numpy_integer_seed_gives_the_report_of_its_int(self):
        # every field, the walk's counters and the seed among them; x is
        # written as its tolist(), and the seed is the int, which json
        # writes (an np.int64 raises TypeError)
        lp = tu_instance_generator("network", 4, 14, 3)
        rep, want = (solve(lp, WalkConfig(seed=s)) for s in (np.int64(3), 3))
        assert type(rep.seed) is int
        assert json.dumps(asdict(rep), default=np.ndarray.tolist) == \
            json.dumps(asdict(want), default=np.ndarray.tolist)

    def test_omitted_cfg_is_the_default_walk_config(self):
        lp = tu_instance_generator("network", 4, 14, 3)
        rep, want = solve(lp), solve(lp, WalkConfig())
        assert json.dumps(asdict(rep), default=np.ndarray.tolist) == \
            json.dumps(asdict(want), default=np.ndarray.tolist)

    def test_n1_instance(self):
        lp = LinearProgram(A=[[1.0], [-1.0]], b=[3.0, 0.0], c=[2.0])
        rep = solve(lp, WalkConfig(seed=0))
        assert rep.basis == (0,)
        np.testing.assert_allclose(rep.x, [3.0])
        assert rep.value == pytest.approx(6.0)


def _arc_network(n: int, m: int, seed: int) -> LinearProgram:
    """2n unit rows boxing the origin, then m - 2n arcs e_u - e_w with
    generic right-hand sides: network rows past tu_instance_generator's
    size cap."""
    rng = np.random.default_rng(seed)
    eye = np.eye(n)
    rows = [*eye, *-eye]
    rhs = [*(1.0 + rng.integers(0, 32, n) / 64.0),
           *((1.0 + rng.integers(0, 31, n)) / 64.0)]
    for _ in range(m - 2 * n):
        u, w = rng.choice(n, 2, replace=False)
        rows.append(eye[u] - eye[w])
        rhs.append(float(rng.uniform(0.1, 0.6)))
    c = rng.choice([-1.0, 1.0], n) * (1.0 + rng.integers(0, 64, n)) / 64.0
    return LinearProgram(A=np.array(rows), b=np.array(rhs), c=c)


class TestStructuralReach:
    """Network rows are certified from their structure, so solve reaches
    sizes where the brute-force enumeration is over its budget."""

    # generator and solve seeds of walks that take 0.01-0.03 s; over
    # generator seeds 0-29 at n = 10 a solve took 0.02-20 s
    @pytest.mark.parametrize("n, m, seed", [(8, 48, 6), (8, 48, 7),
                                            (10, 60, 19), (10, 60, 24)])
    def test_solves_past_the_enumeration_budget(self, n, m, seed):
        from scipy.optimize import linprog

        lp = _arc_network(n, m, seed)
        with pytest.raises(TooLarge):
            delta_bruteforce(normalize(lp))
        rep = solve(lp, WalkConfig(seed=0))
        assert (rep.delta, rep.delta_method) == (1 / n, "network_rows")
        assert lp.is_feasible(rep.x, tol=1e-9)
        ref = linprog(-lp.c, A_ub=lp.A, b_ub=lp.b, bounds=[(None, None)] * n,
                      method="highs")
        assert ref.status == 0
        assert rep.value == pytest.approx(-ref.fun, abs=1e-9)


def _network(n, m, gen_seed):
    return tu_instance_generator("network", n, m, gen_seed)


# Solves that a ratio-test tie ended before the lexicographic rule:
# (program, its region for the oracle, solve seed).  The first tie was in a
# walk term, the other three in phase 1.
DEGENERATE_SOLVES = [
    pytest.param(_network(4, 16, 145401439), None, 1710842164,
                 id="network-n4-m16-gen145401439-solve1710842164"),
    pytest.param(_network(4, 18, 1692237961), None, 786869279,
                 id="network-n4-m18-gen1692237961-solve786869279"),
    pytest.param(_network(4, 20, 750225238), None, 272275497,
                 id="network-n4-m20-gen750225238-solve272275497"),
    pytest.param(pad_redundant(_network(3, 12, 174693283), 42, 174693283),
                 _network(3, 12, 174693283), 668160086,
                 id="padded-network-n3-m12-gen174693283-solve668160086"),
]


def _ladder(n: int, m: int, gen_seed: int) -> LinearProgram:
    """An n-ladder program: tu_instance_generator's network branch without
    its n <= 5, m <= 30 cap, with cut right-hand sides from 1/193..96/193."""
    rng = np.random.default_rng(gen_seed)
    eye = np.eye(n)
    rows = [*eye, *-eye]
    rhs = [*(1.0 + rng.integers(0, 32, size=n) / 64.0),
           *((1.0 + rng.integers(0, 31, size=n)) / 64.0)]
    cut_rhs = _generic_rationals(rng, m - 2 * n, 1, 96, 193)
    for j in range(m - 2 * n):
        u = int(rng.integers(0, n))
        w = int(rng.integers(0, n - 1))
        w += w >= u
        rows.append(eye[u] - eye[w])
        rhs.append(float(cut_rhs[j]))
    signs = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    c = signs * (1.0 + rng.integers(0, 64, size=n)) / 64.0
    return LinearProgram(A=np.array(rows), b=np.array(rhs), c=c)


# The n-ladder's phase-1 ties: (program, solve seed s), generator seed
# 1000n + s.
LADDER_TIES = [
    pytest.param(_ladder(n, m, 1000 * n + s), s, id=f"ladder-n{n}-m{m}-s{s}")
    for n, m, s in ((4, 24, 1), (7, 42, 1), (8, 48, 2))
]


class TestRatioTestTies:
    @pytest.mark.parametrize("lp, region, seed", DEGENERATE_SOLVES)
    def test_solves_to_the_oracle_optimum(self, lp, region, seed):
        # at the brute-force delta, the one these ties were found at
        rep = solve(lp, WalkConfig(seed=seed),
                    delta=delta_bruteforce(normalize(lp)))
        best = enumerate_vertices(normalize(region or lp)).optimal_point
        assert rep.value == pytest.approx(float(lp.c @ best), abs=1e-6)

    @pytest.mark.parametrize("lp, region, seed", DEGENERATE_SOLVES)
    def test_solves_to_the_highs_optimum_at_the_default_delta(self, lp, region,
                                                              seed):
        # delta=None, as `conewalk solve` runs by default: network rows
        # certify delta 1/n, below the brute-force delta, so the box and
        # alpha differ from the test above
        from scipy.optimize import linprog

        rep = solve(lp, WalkConfig(seed=seed))
        ref = linprog(-lp.c, A_ub=lp.A, b_ub=lp.b,
                      bounds=[(None, None)] * lp.n, method="highs")
        assert rep.delta_method == "network_rows"
        assert ref.status == 0
        assert rep.value == pytest.approx(-ref.fun, abs=1e-9)

    @pytest.mark.parametrize("lp, seed", LADDER_TIES)
    def test_ladder_solves_to_the_highs_optimum(self, lp, seed):
        # delta=None: brute force is TooLarge at n = 8, and enumerating
        # the C(48, 8) bases is out of reach, so HiGHS is the reference
        from scipy.optimize import linprog

        rep = solve(lp, WalkConfig(seed=seed))
        ref = linprog(-lp.c, A_ub=lp.A, b_ub=lp.b,
                      bounds=[(None, None)] * lp.n, method="highs")
        assert ref.status == 0
        assert rep.value == pytest.approx(-ref.fun, abs=1e-9)


# Bounded programs whose c is orthogonal to a recession direction, so the
# optimal face reaches the box: the walk may stop at a box vertex's basis
# whose cone holds c.  Its box rows have cone multiplier 0, so
# solve_bounded raises FaceReachesBox there, not Unbounded.
# The half-strip x1 <= 1, 0 <= x2 <= 1, max x2: optimum 1 at (1, 1)
# (HiGHS); FaceReachesBox (box row 2) at every seed 0..19.
HALF_STRIP = LinearProgram(A=[[1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                           b=[1.0, 1.0, 0.0], c=[0.0, 1.0])
# A cone with its optimum -8/49 at the apex: FaceReachesBox (box row 5) at
# seeds 0, 1, 4, 5, 6 and 9, the optimum at seeds 2, 3, 7 and 8.
APEX_CONE = LinearProgram(A=[[2.0, -2.0, 0.0], [0.0, 0.0, -14.0],
                             [2.0, 0.0, 1.0]],
                          b=[-2 / 7, -1 / 7, 5 / 7], c=[1.0, -1.0, -2.0])
FACE_ON_BOX = [pytest.param(HALF_STRIP, seed, id=f"half-strip-seed{seed}")
               for seed in range(3)] + [
    pytest.param(APEX_CONE, 0, id="cone-seed0")]


class TestKnownWrongVerdicts:
    @pytest.mark.xfail(strict=True, raises=FaceReachesBox,
                       reason="the optimal face reaches the box, and no "
                              "pivot moves the final basis's box rows out")
    @pytest.mark.parametrize("lp, seed", FACE_ON_BOX)
    def test_bounded_program_solves_to_its_optimum(self, lp, seed):
        rep = solve(lp, WalkConfig(seed=seed))
        assert_exact_optimum(lp, rep.basis)

    @pytest.mark.parametrize("lp, seeds", [(HALF_STRIP, range(20)),
                                           (APEX_CONE, range(10))],
                             ids=["half-strip", "cone"])
    def test_a_bounded_program_is_never_unbounded(self, lp, seeds):
        # box rows of multiplier 0 are no verdict: the solve ends in the
        # optimum or in FaceReachesBox, at every seed
        for seed in seeds:
            try:
                rep = solve(lp, WalkConfig(seed=seed))
            except FaceReachesBox:
                continue
            assert_exact_optimum(lp, rep.basis)


class TestKnownCertificateRejections:
    # Rows spanning eleven orders of magnitude: HiGHS calls the program
    # infeasible, yet a point lies within 3.7e-8 of every normalized row.
    # The phase-1 start vertex violates the sixth row, normalized, by
    # 1.76e-7, past the normalized program's feasibility tolerance of
    # 1.18e-7, so at seeds 0-4 solve's certificate rejects the optimum it
    # reconstructs.
    DRIFT = LinearProgram(
        A=[[-1e4, 1e4], [2e-4, 0], [1e7, 2e7], [0, -2e6], [-1e-8, -1e-8],
           [-1e5, 1e5]],
        b=[2.5e-7, 9.999999999999999e-6, -2.5, 1e-3, 2.5e-9, 5e-9],
        c=[0, -1])

    @pytest.mark.xfail(strict=True, raises=ConewalkError,
                       reason="phase 1's start vertex drifts past the "
                              "feasibility tolerance: the certificate "
                              "raises 'reconstructed optimum is infeasible'")
    @pytest.mark.parametrize("seed", range(5))
    def test_phase1_start_within_the_feasibility_tolerance(self, seed):
        try:
            rep = solve(self.DRIFT, WalkConfig(seed=seed))
        except Infeasible:
            return  # a certified verdict, as HiGHS gives
        assert self.DRIFT.is_feasible(rep.x)


class TestRestarts:
    """Each attempt walks on Luby's schedule, capped at the budget."""

    def test_luby_sequence(self):
        from conewalk.reduction import luby
        assert [luby(t) for t in range(1, 16)] == \
            [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]

    @staticmethod
    def recording_walk(monkeypatch, lp, start, *, in_cone_at=None):
        """Fake run_walk on lp: records (steps, seed) per call and returns
        an outcome of that many steps, far from alpha*c, that stops in the
        cone on call number in_cone_at."""
        import conewalk.reduction as reduction_module
        from conewalk.walk import Parallelepiped, WalkOutcome

        cell = Parallelepiped(basis=start, index=(0,) * lp.n)
        calls = []

        def fake_run_walk(nlp, s, *, steps, seed, **term):
            calls.append((steps, seed))
            return WalkOutcome(final=cell,
                               stopped_with_c_in_cone=len(calls) == in_cone_at,
                               steps_taken=steps, pivots=1,
                               accepted_moves=steps)

        monkeypatch.setattr(reduction_module, "run_walk", fake_run_walk)
        return calls

    def walk(self, monkeypatch, lp, start, steps, max_retries):
        import conewalk.reduction as reduction_module
        monkeypatch.setattr(reduction_module, "MAX_RETRIES", max_retries)
        return reduction_module._las_vegas_walk(
            lp, WalkConfig(alpha=32.0, steps=steps, seed=7), start)

    def test_terms_follow_the_schedule_capped_at_the_budget(
            self, monkeypatch, unit_square):
        import conewalk.reduction as reduction_module
        from conewalk.errors import RetriesExhausted
        from conewalk.reduction import RESTART_UNIT, luby

        start = (2, 3)
        calls = self.recording_walk(monkeypatch, unit_square, start)
        verified = []
        real_verify = reduction_module.verify_problem1

        def spy_verify(*args):
            verified.append(calls[-1][0])
            return real_verify(*args)

        monkeypatch.setattr(reduction_module, "verify_problem1", spy_verify)
        budget, max_retries = 300, 2
        with pytest.raises(RetriesExhausted):
            self.walk(monkeypatch, unit_square, start, budget, max_retries)

        # 64, 64, 128, 64, 64, 128, 256, 64, 64, 128, 64, 64, 128, 256, 300
        series = [min(RESTART_UNIT * luby(t), budget) for t in range(1, 16)]
        assert series[-1] == budget and budget not in series[:-1]
        assert RESTART_UNIT == 64
        assert [steps for steps, _ in calls] == series * (max_retries + 1)
        # only the full-budget terms are paper attempts: max_retries + 1 of
        # them that end outside the cone exhaust the walk, unverified
        assert verified == []
        entropies = [tuple(seed.entropy) for _, seed in calls]
        assert entropies == [(7, retry, t) for retry in range(max_retries + 1)
                             for t in range(1, 16)]
        assert len(set(entropies)) == len(calls)

    def test_counters_sum_over_terms_and_attempts(self, monkeypatch,
                                                  unit_square):
        start = (2, 3)
        # budget 100: terms of 64 and 64 steps, then the full budget; the
        # first attempt fails, the second stops in the cone in its 2nd term
        calls = self.recording_walk(monkeypatch, unit_square, start,
                                    in_cone_at=5)
        basis, stats = self.walk(monkeypatch, unit_square, start, 100, 3)
        assert basis == start  # the in-cone term's final basis
        assert [steps for steps, _ in calls] == [64, 64, 100, 64, 64]
        assert (stats.retries, stats.terms) == (1, 5)
        assert stats.steps_taken == stats.accepted_moves == 356
        assert stats.pivots == 5

    def test_retries_exhaust_on_persistent_failure(self, monkeypatch,
                                                   unit_square):
        import conewalk.reduction as reduction_module
        from conewalk.errors import RetriesExhausted
        from conewalk.walk import Parallelepiped, WalkOutcome

        start = (2, 3)
        cell = Parallelepiped(basis=(2, 3), index=(0, 0))  # far from alpha*c
        fake = WalkOutcome(final=cell, stopped_with_c_in_cone=False,
                           steps_taken=46)
        attempts = []
        monkeypatch.setattr(
            reduction_module, "run_walk",
            lambda *args, **kwargs: attempts.append(1) or fake)
        with pytest.raises(RetriesExhausted):
            self.walk(monkeypatch, unit_square, start, 46, 3)
        assert len(attempts) == 4  # the first try plus three retries

    def test_a_verifiable_full_budget_term_is_a_failed_attempt(
            self, monkeypatch):
        # every walk ends in a cell whose scaled center verification would
        # pass; solve verifies nothing and reduces nothing, so each
        # full-budget term is a failed attempt
        import conewalk.reduction as reduction_module
        from conewalk.errors import RetriesExhausted
        from conewalk.reduction import scaled_center, verify_problem1

        lp = LinearProgram(A=np.vstack([np.eye(3), -np.eye(3)]),
                           b=[1, 1, 1, 0, 0, 0], c=[1.0, 0.5, 0.25])
        outcomes, called = [], []
        monkeypatch.setattr(reduction_module, "run_walk",
                            identifying_walk(64.0, outcomes))
        for name in ("verify_problem1", "extract_element", "reduce_lp"):
            def spy(*args, name=name, real=getattr(reduction_module, name)):
                called.append(name)
                return real(*args)
            monkeypatch.setattr(reduction_module, name, spy)
        monkeypatch.setattr(reduction_module, "MAX_RETRIES", 2)
        with pytest.raises(RetriesExhausted, match="^3 full-budget walk "):
            solve(lp, WalkConfig(alpha=64.0, steps=46, seed=0),
                  delta=delta_bruteforce(normalize(lp)))
        assert called == []
        assert [o.steps_taken for _, o in outcomes] == [46] * 3
        assert all(verify_problem1(nlp, o.final.basis,
                                   scaled_center(nlp, o.final, 64.0), 1.0)
                   for nlp, o in outcomes)

    def test_low_alpha_warns_once_per_solve(self):
        import warnings

        # no row of this instance repeats a direction, so all 10 are walked
        lp = tu_instance_generator("network", 3, 10, 4)
        delta = delta_bruteforce(normalize(lp)).delta
        cfg = WalkConfig(seed=0, alpha=1.5 * lp.n**3 / delta)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rep = solve(lp, cfg)
        assert [s.terms for s in rep.levels] == [2]
        assert [str(w.message).split(" ")[0] for w in caught] == \
            [f"alpha={cfg.alpha:g}"]

    def test_trace_holds_every_counted_step(self, monkeypatch):
        # a budget of 100 steps fails some attempts at this seed: retried
        # and restarted walks are all traced and all counted
        import conewalk.reduction as reduction_module
        monkeypatch.setattr(reduction_module, "MAX_RETRIES", 30)
        lp = tu_instance_generator("network", 3, 10, 3)
        buf = io.StringIO()
        rep = solve(lp, WalkConfig(seed=7, steps=100, trace=buf))
        records = [ln for ln in buf.getvalue().splitlines() if ln]
        assert rep.retries > 0 and rep.levels[0].terms > rep.retries + 1
        assert len(records) == sum(rep.steps_per_level)
        assert sum('"step": 1,' in ln for ln in records) == \
            sum(s.terms for s in rep.levels)

    @staticmethod
    def spy_terms_and_tie_breaks(monkeypatch):
        """Spy on the solve's walk terms and on simplex's tie-break, the one
        solve there with a matrix right-hand side: returns the outcomes of
        the terms, and for each tie broken, how many terms had started."""
        import conewalk.reduction as reduction_module
        import conewalk.simplex as simplex_module
        outcomes, breaks, started = [], [], []
        real_run_walk = reduction_module.run_walk
        real_lu_solve = simplex_module.lu_solve

        def spy_walk(*args, **kwargs):
            started.append(None)
            outcomes.append(real_run_walk(*args, **kwargs))
            return outcomes[-1]

        def spy_lu_solve(lu, rhs, trans=0):
            if np.ndim(rhs) == 2:
                breaks.append(len(started))
            return real_lu_solve(lu, rhs, trans)

        monkeypatch.setattr(reduction_module, "run_walk", spy_walk)
        monkeypatch.setattr(simplex_module, "lu_solve", spy_lu_solve)
        return outcomes, breaks

    def test_trace_holds_the_steps_of_degenerate_terms(self, monkeypatch):
        # the first two of this solve's 4 terms pivot through ratio-test
        # ties; every term's steps are traced and counted.  No row of the
        # instance repeats a direction, so all 15 are walked.
        _, breaks = self.spy_terms_and_tie_breaks(monkeypatch)
        lp = tu_instance_generator("network", 4, 15, 766077746)
        buf = io.StringIO()
        rep = solve(lp, WalkConfig(seed=2, trace=buf))
        records = [ln for ln in buf.getvalue().splitlines() if ln]
        (stats,) = rep.levels
        assert breaks == [1, 2]
        assert stats.terms == 4
        assert sum('"step": 1,' in ln for ln in records) == stats.terms
        assert len(records) == sum(rep.steps_per_level) == 311
        assert stats.accepted_moves + stats.rejected_moves + \
            stats.lazy_stays == stats.steps_taken
        assert stats.pivots == sum('"pivoted": true' in ln for ln in records)

    def test_a_term_that_breaks_a_tie_runs_on(self, monkeypatch):
        # the solve above: the terms that pivot through a ratio-test tie
        # run on, and every term's steps are reported
        outcomes, breaks = self.spy_terms_and_tie_breaks(monkeypatch)
        lp = tu_instance_generator("network", 4, 15, 766077746)
        rep = solve(lp, WalkConfig(seed=2))
        assert breaks == [1, 2]
        assert [(o.steps_taken, o.stopped_with_c_in_cone)
                for o in outcomes] == [(64, False), (64, False), (128, False),
                                       (55, True)]
        for o in outcomes:
            assert o.accepted_moves + o.rejected_moves + o.lazy_stays == \
                o.steps_taken
        assert sum(o.steps_taken for o in outcomes) == sum(rep.steps_per_level)


class TestOneDimension:
    """A 1-D program is not walked: Bland's rule from the phase-1 vertex
    takes its optimum, the tightest bound along c."""

    def test_solved_without_a_walk(self, monkeypatch):
        # walked at the paper's budget, one step at n = 1 and delta = 1,
        # 7 of these 200 seeds would exhaust their retries
        import conewalk.reduction as reduction_module

        def no_walk(*args, **kwargs):
            raise AssertionError("a 1-D program ran the walk")

        monkeypatch.setattr(reduction_module, "run_walk", no_walk)
        lp = LinearProgram(A=[[1.0], [-1.0]], b=[2.0, -1.0], c=[-1.0])
        for seed in range(200):
            rep = solve(lp, WalkConfig(seed=seed))
            assert (rep.basis, rep.x.tolist(), rep.value) == ((1,), [1.0], -1.0)
            assert [s.terms for s in rep.levels] == [0]

    # (A, b, c) and the outcome recorded when a 1-D program was solved by
    # picking its tightest bound along c: basis and x bytes, or the error
    # type with its box row or phase-1 iteration.  "min-one-pivot" is the
    # one whose phase-1 vertex is not optimal: Bland's rule pivots once.
    PINNED = {
        "max": (([[1.0], [-1.0]], [3.0, 0.0], [2.0]),
                ((0,), "0000000000000840")),
        "min-one-pivot": (([[2.0], [-1.0]], [4.0, -1.0], [-1.0]),
                          ((1,), "000000000000f03f")),
        "slack-copy": (([[1.0], [2.0], [-1.0], [-3.0]], [3.0, 5.0, 0.0, 3.0],
                        [1.0]),
                       ((1,), "0000000000000440")),
        "three-rows": (([[-1.0], [1.0], [-2.0]], [0.5, 0.25, 3.0], [-3.0]),
                       ((0,), "000000000000e0bf")),
        "unbounded": (([[-1.0], [-2.0]], [0.0, 1.0], [1.0]),
                      (Unbounded, 1)),
        "infeasible": (([[1.0], [-1.0], [1.0]], [1.0, -2.0, 4.0], [1.0]),
                       (Infeasible, 2)),
    }

    @pytest.mark.parametrize("name", PINNED)
    def test_pinned_outcomes(self, name):
        (A, b, c), (want, detail) = self.PINNED[name]
        lp = LinearProgram(A=A, b=b, c=c)
        if isinstance(want, type):
            with pytest.raises(want) as info:
                solve(lp, WalkConfig(seed=0))
            witness = getattr(info.value, "box_row", None)
            assert (witness if witness is not None
                    else info.value.iteration) == detail
            return
        rep = solve(lp, WalkConfig(seed=0))
        assert (rep.basis, rep.x.tobytes().hex()) == (want, detail)
        assert (rep.steps_per_level, rep.pivots, rep.alpha) == ((0,), 0, 4.0)

    def test_walk_parameters_past_the_float_range_are_too_large(self):
        # delta = 1e-308: the box radius 1e-10 * 1e308 + 1 is finite, but
        # the step budget n^5.5/delta^3 is not, so resolving the walk
        # parameters at n = 1 raises rather than report alpha = inf
        lp = LinearProgram(A=[[1.0], [-1.0]], b=[1e-10, 0.0], c=[1.0])
        delta = delta_integer_bound(lp.A, 10**154)
        with pytest.raises(TooLarge, match="^step budget"):
            solve(lp, WalkConfig(seed=0), delta=delta)
        # with the budget given, alpha = 4 n^3 / delta overflows instead
        with pytest.raises(TooLarge, match="^alpha"):
            solve(lp, WalkConfig(seed=0, steps=10), delta=delta)

    def test_low_alpha_warns(self):
        import warnings

        lp = LinearProgram(A=[[1.0], [-1.0]], b=[3.0, 0.0], c=[2.0])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rep = solve(lp, WalkConfig(seed=0, alpha=1.0))
        assert rep.alpha == 1.0
        assert [str(w.message).split(" ")[0] for w in caught] == ["alpha=1"]


class TestOneFactorMemo:
    """The boxed program keeps one memo of basis factors: phase 1's
    prefixes, Bland's rule at n = 1 and the walk read its rows at the same
    positions, so a solve factors each basis at most once, the start basis
    included, and never outside basis_factors."""

    def test_each_basis_is_factored_once_per_solve(self, solve_spies):
        for spy in solve_spies:
            assert spy.walked  # the solve walked
            assert max(spy.solve_factorizations.values()) == 1
            assert spy.stray_factorizations == 0

    @pytest.mark.parametrize("name", ["max", "min-one-pivot", "slack-copy",
                                      "three-rows"])
    def test_one_dimension_factors_each_basis_once(self, name):
        (A, b, c), _ = TestOneDimension.PINNED[name]
        spy = SolveSpy(LinearProgram(A=A, b=b, c=c), seed=0)
        assert not spy.walked  # Bland's rule, not the walk
        assert max(spy.solve_factorizations.values()) == 1
        assert spy.stray_factorizations == 0
        # the one-pivot program's second basis is factored by Bland's rule
        assert any(scope[0] == "bland" for scope, _ in spy.factorizations
                   if scope is not None) == (name == "min-one-pivot")


class TestShortTermPull:
    """Short Luby terms walk f_beta with beta = n^2; full-budget terms walk
    the paper's f (beta = 1)."""

    @staticmethod
    def spy_walk(monkeypatch, force_beta=None):
        """Wrap run_walk: records (walked program, the term's alpha, steps,
        seed and trace as attributes, start, _beta) per term and, with
        force_beta set, walks every term at that beta."""
        import conewalk.reduction as reduction_module
        real_run_walk = reduction_module.run_walk
        calls = []

        def spy(nlp, start, *, _beta=1.0, **term):
            calls.append((nlp, SimpleNamespace(**term), start, _beta))
            beta = _beta if force_beta is None else force_beta
            return real_run_walk(nlp, start, **term, _beta=beta)

        monkeypatch.setattr(reduction_module, "run_walk", spy)
        return calls

    def test_beta_is_n_squared_on_short_terms_only(self, monkeypatch):
        # a budget of 100 steps: terms of 64, 64, then the full budget;
        # at this seed two attempts fail, the third stops in a short term
        import conewalk.reduction as reduction_module
        from conewalk.walk import Parallelepiped, center, log_volume
        monkeypatch.setattr(reduction_module, "MAX_RETRIES", 30)
        calls = self.spy_walk(monkeypatch)
        lp = tu_instance_generator("network", 3, 10, 3)
        buf = io.StringIO()
        rep = solve(lp, WalkConfig(seed=7, steps=100, trace=buf))
        assert rep.retries == 2
        assert [(cfg.steps, beta) for _, cfg, _, beta in calls] == \
            [(64, 9.0), (64, 9.0), (100, 1.0)] * 2 + [(64, 9.0)]

        # the first term's trace holds f_beta's weights, taken from scratch
        nlp, cfg, start, _ = calls[0]
        records = [json.loads(ln) for ln in buf.getvalue().splitlines()]
        first = records[:next(i for i, r in enumerate(records[1:], 1)
                              if r["step"] == 1)]
        assert len(first) == 64
        cell = Parallelepiped(start, (0,) * nlp.n)
        for rec in first:
            l1 = float(np.sum(np.abs(center(nlp, cell) - cfg.alpha * nlp.c)))
            assert rec["log_weight"] == pytest.approx(
                -nlp.n**2 * l1 + log_volume(nlp, cell.basis),
                rel=1e-12, abs=1e-9)
            cell = Parallelepiped(tuple(rec["basis"]), tuple(rec["k"]))

    def test_pull_halves_the_walk_and_keeps_the_answers(self, monkeypatch):
        # 20 unimodular instances at n = 4, 5, solved as they are and with
        # every term forced to the paper's weight
        instances = [tu_instance_generator(kind, n, 3 * n, seed)
                     for kind in ("network", "interval") for n in (4, 5)
                     for seed in range(5)]
        steps = {}
        answers = {}
        for force_beta in (None, 1.0):
            calls = self.spy_walk(monkeypatch, force_beta)
            reports = [solve(lp, WalkConfig(seed=s % 5))
                       for s, lp in enumerate(instances)]
            steps[force_beta] = sum(sum(r.steps_per_level) for r in reports)
            answers[force_beta] = [(r.basis, r.x.tobytes(), r.value)
                                   for r in reports]
            assert calls
        assert answers[None] == answers[1.0]
        assert 2 * steps[None] <= steps[1.0]


class TestParallelRows:
    """solve keeps the tightest row of each direction and reports input
    positions."""

    SQUARE_A = [[1, 0], [0, 1], [-1, 0], [0, -1]]

    @pytest.mark.parametrize("c,basis", [((1, 1), (0, 1)), ((-1, 1), (1, 2)),
                                         ((1, -1), (0, 3))])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_exact_copy_of_an_edge(self, c, basis, seed):
        # x <= 1 twice: the two rows tie in every ratio test they enter
        lp = LinearProgram(A=self.SQUARE_A + [[1, 0]], b=[1, 1, 0, 0, 1], c=c)
        rep = solve(lp, WalkConfig(seed=seed))
        assert rep.basis == basis  # the earlier of the tied copies
        best = enumerate_vertices(normalize(lp)).optimal_point
        assert rep.value == pytest.approx(float(np.dot(c, best)), abs=1e-12)

    @pytest.mark.parametrize("c", [(1, -2), (2, -1), (1, -3), (3, -1),
                                   (1, -1.5), (1.5, -1), (1, -4), (4, -1)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_scaled_copy_within_the_tolerance(self, c, seed):
        # [3, -3] <= 1.5 is x - y <= 0.5 again, but normalizes an ulp away
        # from [1, -1], so only the tolerance pass merges the two
        lp = LinearProgram(A=self.SQUARE_A + [[1, -1], [3, -3]],
                           b=[1, 1, 0, 0, 0.5, 1.5], c=c)
        rep = solve(lp, WalkConfig(seed=seed))
        assert 4 in rep.basis and 5 not in rep.basis
        best = enumerate_vertices(normalize(lp)).optimal_point
        assert rep.value == pytest.approx(float(np.dot(c, best)), abs=1e-12)

    def test_padded_report_equals_the_base_report(self):
        # padding appends slack copies: the kept rows are the base's rows
        base = tu_instance_generator("network", 3, 8, 838355994)
        padded = pad_redundant(base, 42, 838355994)
        cfg = WalkConfig(seed=1731453872)
        reports = [json.dumps(asdict(solve(lp, cfg)),
                              default=np.ndarray.tolist)
                   for lp in (base, padded)]
        assert reports[0] == reports[1]

    def test_noisy_copies_solve_as_the_base(self):
        # 2,000 byte-distinct copies, each a base row with +-1e-12 noise per
        # entry and a right-hand side up to 1e-3 looser: every copy lies
        # within DUPLICATE_TOL of its row and is never tighter, so the
        # walked program is the base's 14 rows
        base = tu_instance_generator("network", 5, 14, 3)
        rng = np.random.default_rng(0)
        pick = rng.integers(0, base.m, size=2000)
        noisy = LinearProgram(
            A=np.vstack([base.A, base.A[pick]
                         + rng.uniform(-1e-12, 1e-12, size=(2000, base.n))]),
            b=np.concatenate([base.b, base.b[pick]
                              + rng.uniform(0.0, 1e-3, size=2000)]),
            c=base.c)
        assert walked_program(normalize(noisy))[0].tolist() == list(range(14))
        rep, want = (solve(lp, WalkConfig(seed=0)) for lp in (noisy, base))
        assert (rep.basis, rep.x.tobytes(), rep.value, rep.steps_per_level,
                rep.delta_method) == (want.basis, want.x.tobytes(), want.value,
                                      want.steps_per_level, want.delta_method)

    def test_walked_program_is_the_input_when_no_row_is_dropped(self):
        nlp = normalize(LinearProgram(A=self.SQUARE_A, b=[1, 1, 0, 0],
                                      c=[1, 1]))
        kept, walked = walked_program(nlp)
        assert kept.tolist() == [0, 1, 2, 3]
        assert walked is nlp
        # a copy of row 0 is dropped: a new program of the kept rows
        padded = normalize(LinearProgram(A=self.SQUARE_A + [[1, 0]],
                                         b=[1, 1, 0, 0, 2], c=[1, 1]))
        kept, walked = walked_program(padded)
        assert kept.tolist() == [0, 1, 2, 3]
        assert walked is not padded
        assert walked.A.tobytes() == padded.A[:4].tobytes()
        assert walked.b.tobytes() == padded.b[:4].tobytes()

    def test_dropped_copy_before_its_kept_twin(self):
        # row 0 is a slack copy of row 4 and row 5 an exact one
        lp = LinearProgram(A=[[1, 0]] + self.SQUARE_A[1:] + [[1, 0], [1, 0]],
                           b=[5, 1, 0, 0, 1, 1], c=[1, 1])
        assert solve(lp, WalkConfig(seed=0)).basis == (1, 4)

    def test_merge_below_full_rank_names_the_merge(self):
        # f and r lie 1.3e-9 apart at 45 degrees: r is 1.3e-9 > SPAN_TOL
        # from f's span, so the rank rule takes rows 0 and 1 and
        # LinearProgram accepts the program, but their entries agree within
        # DUPLICATE_TOL (9.19e-10 apart): the collapse keeps f and -f, and
        # the box finds no second independent row among them
        f = [math.cos(math.pi / 4), math.sin(math.pi / 4)]
        r = [math.cos(math.pi / 4 + 1.3e-9), math.sin(math.pi / 4 + 1.3e-9)]
        lp = LinearProgram(A=[f, r, [-v for v in f], [-v for v in r]],
                           b=[1, 1, 1, 1], c=[1, 0.5])
        assert find_independent_rows(normalize(lp).A) == (0, 1)
        assert walked_program(normalize(lp))[0].tolist() == [0, 2]
        with pytest.raises(RankDeficient) as info:
            solve(lp, WalkConfig(seed=0))
        assert str(info.value) == (
            "fewer than n rows lie more than SPAN_TOL from the span of the "
            "rows before them; a program of full rank ends here when rows "
            "that agree within DUPLICATE_TOL were merged")

    def test_infeasible_witness_is_an_input_position(self):
        # x >= 2 (row 3) against x <= 1 (row 4); row 3 is the tighter of
        # the two copies of -x <= b (rows 1 and 3), so row 4 crosses it, and
        # both are named by their input positions
        lp = LinearProgram(A=[[0, 1], [-1, 0], [0, -1], [-1, 0], [1, 0]],
                           b=[1, 0, 0, -2, 1], c=[1, 1])
        with pytest.raises(Infeasible, match="^constraint 5 ") as info:
            solve(lp, WalkConfig(seed=0))
        assert (info.value.iteration, info.value.value) == (5, 2.0)


class TestCrossedOppositeRows:
    """A row and the exact negation of an earlier row, with bounds that
    cross, end the solve right after normalize, before the collapse, delta,
    the box and phase 1 (lp.crossed_opposite_rows)."""

    SQUARE_A = [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]

    @staticmethod
    def stages_raise(monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("a stage after normalize ran")

        monkeypatch.setattr(reduction_module, "walked_program", unreachable)
        monkeypatch.setattr(reduction_module, "certify_delta", unreachable)
        monkeypatch.setattr(phase1_module, "bounding_box", unreachable)
        monkeypatch.setattr(phase1_module, "phase1_vertex", unreachable)

    @staticmethod
    def phase1_reached(monkeypatch):
        calls = []

        def vertex(*args, real=phase1_module.phase1_vertex):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(phase1_module, "phase1_vertex", vertex)
        return calls

    def test_no_stage_after_the_collapse_runs(self, monkeypatch):
        # x >= 1/2 (row 4, a tighter copy of x >= 0 at row 2 before it) and
        # x <= 1/4 (row 5, a tighter copy of x <= 1 at row 0), with the unit
        # square's other rows
        self.stages_raise(monkeypatch)
        lp = LinearProgram(A=self.SQUARE_A + [[-2.0, 0.0], [4.0, 0.0]],
                           b=[1.0, 1.0, 0.0, 0.0, -1.0, 1.0], c=[1.0, 1.0])
        with pytest.raises(Infeasible) as info:
            solve(lp, WalkConfig(seed=0))
        # rows 2 and 4 do not cross row 0; row 5 is the first row in input
        # order to cross an earlier negation, the tightest of which is row
        # 4, and the value is the bound row 4 puts on row 5
        assert str(info.value).startswith(
            "constraint 6 cannot be satisfied: it negates constraint 5, ")
        assert (info.value.iteration, info.value.value) == (6, 0.5)
        assert info.value.certificate is None

    def test_a_pair_the_collapse_would_merge_away_ends_the_solve(
            self, monkeypatch):
        # row 1 is a tighter near copy of row 0, an entry 1e-12 away, so the
        # collapse keeps it in row 0's place and no kept row negates
        # another; only the pass over every row finds that row 2 exactly
        # negates row 0, and x >= 2 crosses x <= 1
        self.stages_raise(monkeypatch)
        lp = LinearProgram(A=[[1.0, 0.0], [1.0, 1e-12], [-1.0, 0.0],
                              [0.0, 1.0], [0.0, -1.0]],
                           b=[1.0, 0.5, -2.0, 1.0, 0.0], c=[1.0, 1.0])
        nlp = normalize(lp)
        assert tightest_rows(nlp.A, nlp.b).tolist() == [1, 2, 3, 4]
        with pytest.raises(Infeasible, match="^constraint 3 .* constraint 1,"
                           ) as info:
            solve(lp, WalkConfig(seed=0))
        assert (info.value.iteration, info.value.value) == (3, -1.0)
        assert info.value.certificate is None

    def test_a_crossing_inside_the_input_tolerance_goes_to_phase_1(self):
        # x <= 1/4 and x >= 1/4 + 3e-7 cross by 3e-7: more than the walked
        # program's tolerance, 1e-7 * (1 + 1), but less than the normalized
        # program's, 1e-7 * (1 + 100), which the loose copy y <= 100 (row 4)
        # sets.  The pair certifies nothing at the input's tolerance, and
        # phase 1, on the walked rows, certifies the crossing
        lp = LinearProgram(A=[[1.0, 0.0], [0.0, 1.0], [0.0, -1.0],
                              [-1.0, 0.0], [0.0, 1.0]],
                           b=[0.25, 1.0, 1.0, -0.25 - 3e-7, 100.0],
                           c=[0.0, 1.0])
        nlp = normalize(lp)
        kept, walked = walked_program(nlp)
        assert kept.tolist() == [0, 1, 2, 3]
        assert walked.feas_tol() < 3e-7 < nlp.feas_tol()
        assert crossed_opposite_rows(walked.A, walked.b,
                                     walked.feas_tol()) == (0, 3)
        assert crossed_opposite_rows(nlp.A, nlp.b, nlp.feas_tol()) is None
        with pytest.raises(Infeasible, match="previous region") as info:
            solve(lp, WalkConfig(seed=0))
        assert info.value.iteration == 4
        assert info.value.certificate == reduction_module.certify_delta(walked)

    @pytest.mark.parametrize("zeros", [(0.0, 0.0), (0.0, -0.0), (-0.0, 0.0),
                                       (-0.0, -0.0)])
    def test_rows_with_signed_zeros_pair(self, monkeypatch, zeros):
        self.stages_raise(monkeypatch)
        lp = LinearProgram(A=[[1.0, zeros[0]], [0.0, 1.0], [-1.0, zeros[1]],
                              [0.0, -1.0]], b=[0.0, 1.0, -1.0, 0.0],
                           c=[1.0, 1.0])
        assert np.signbit(normalize(lp).A[[0, 2], 1]).tolist() == [
            np.signbit(z) for z in zeros]
        with pytest.raises(Infeasible, match="^constraint 3 .* constraint 1,"):
            solve(lp, WalkConfig(seed=0))

    def test_a_crossing_of_exactly_the_tolerance_goes_to_phase_1(
            self, monkeypatch):
        # x <= 1/4 and -x <= -1/4 - tol, tol the walked program's feasibility
        # tolerance, 1e-7 * (1 + 4): within it the region is the segment
        # x = 1/4, so the pair certifies nothing and phase 1 finds a vertex
        reached = self.phase1_reached(monkeypatch)
        tol = 5e-7
        lp = LinearProgram(A=[[1.0, 0.0], [0.0, 1.0], [0.0, -1.0],
                              [-1.0, 0.0]],
                           b=[0.25, 4.0, 4.0, -0.25 - tol], c=[0.0, 1.0])
        nlp = normalize(lp)
        assert nlp.feas_tol() == tol and nlp.b[3] + tol == -0.25
        rep = solve(lp, WalkConfig(seed=0))
        assert len(reached) == 1
        assert 1 in rep.basis and lp.is_feasible(rep.x)

    def test_a_negation_one_ulp_off_goes_to_phase_1(self, monkeypatch):
        # row 3 normalizes to (-0.6000000000000001, -0.8), an ulp from the
        # negation of row 0, so only phase 1 certifies the crossing
        reached = self.phase1_reached(monkeypatch)
        lp = LinearProgram(A=[[0.6, 0.8], [0.0, 1.0], [-1.0, 0.0],
                              [-0.6, np.nextafter(-0.8, 0.0)]],
                           b=[0.0, 1.0, 1.0, -1.0], c=[1.0, 0.0])
        nlp = normalize(lp)
        assert nlp.A[3].tolist() == [np.nextafter(-0.6, -1.0), -0.8]
        with pytest.raises(Infeasible, match="previous region") as info:
            solve(lp, WalkConfig(seed=0))
        assert len(reached) == 1
        assert info.value.iteration == 4

    def test_gaussian_rows_past_the_delta_budget_are_certified(self):
        # 96 Gaussian rows at n = 5: brute-force delta would enumerate
        # C(96, 4) * 96 hyperplane distances and raises TooLarge, which
        # ended the solve before; a crossed copy of row 0 now ends it first
        rng = np.random.default_rng(7000 + 100 * 5)
        A = rng.standard_normal((96, 5))
        b = rng.uniform(0.5, 1.0, size=96)
        lp = LinearProgram(A=np.vstack([A, -A[0]]),
                           b=np.append(b, -(b[0] + 1.0 / 16.0)),
                           c=rng.standard_normal(5))
        _, walked = walked_program(normalize(lp))
        with pytest.raises(TooLarge) as over:
            reduction_module.certify_delta(walked)
        assert over.value.budget == BRUTE_FORCE_LIMIT
        with pytest.raises(Infeasible) as info:
            solve(lp, WalkConfig(seed=0))
        norm = float(np.linalg.norm(A[0]))
        assert info.value.iteration == 97
        assert info.value.certificate is None  # no box was sized
        assert info.value.value == pytest.approx(-b[0] / norm, rel=1e-15)


@pytest.mark.parametrize("module", ["conewalk.phase1", "conewalk.reduction"])
def test_module_imports_first_in_a_fresh_interpreter(module):
    # reduction imports phase1 at module top and phase1 imports neither
    # reduction nor walk, so either may be imported first.
    src = str(Path(conewalk.__file__).resolve().parent.parent)
    subprocess.run([sys.executable, "-c", f"import {module}"], check=True,
                   env={**os.environ, "PYTHONPATH": src})


def _package_imports(node, here):
    """The package modules an import statement names, as file stems."""
    if isinstance(node, ast.ImportFrom):
        if node.level == 0:
            if node.module is None or not node.module.startswith("conewalk"):
                return []
            parts = node.module.split(".")[1:]
        else:
            parts = node.module.split(".") if node.module else []
        if parts:
            return [parts[0]]
        # "from . import name": a module of the package, or the package
        return [a.name if a.name in here else "__init__" for a in node.names]
    if isinstance(node, ast.Import):
        return [a.name.split(".")[1] if "." in a.name else "__init__"
                for a in node.names if a.name.split(".")[0] == "conewalk"]
    return []


def test_one_function_factors_a_basis():
    # lu_factor is named only by simplex.basis_factors, which keeps every
    # program's factors in its memo; geometry has no one-off solve beside
    # it; and no function takes an LU or a memo of factors or walk records
    # through a private parameter: run_walk's _beta is the only one.  A
    # second factor path has to break one of these.  Likewise the program's
    # walk memo is read and filled only by walk._record (walk._pivot fills
    # a record, not the memo); lp only declares it and starts _derived's
    # empty.
    package = Path(conewalk.__file__).resolve().parent
    users, private, memo = set(), [], set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}  # id(node) -> the innermost function around it
        for fn in ast.walk(tree):  # breadth first: outer functions first
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((id(node), fn.name) for node in ast.walk(fn))
                args = fn.args
                private += [(path.stem, fn.name, a.arg) for a in (
                    *args.posonlyargs, *args.args, *args.kwonlyargs,
                    args.vararg, args.kwarg)
                    if a is not None and a.arg.startswith("_")]
        for node in ast.walk(tree):
            if (isinstance(node, ast.Name) and node.id == "lu_factor"
                    or isinstance(node, ast.Attribute)
                    and node.attr == "lu_factor"):
                users.add((path.stem, owner.get(id(node))))
            if (isinstance(node, ast.Attribute) and node.attr == "walk_memo"
                    or isinstance(node, ast.Name) and node.id == "walk_memo"
                    or isinstance(node, ast.keyword)
                    and node.arg == "walk_memo"):
                memo.add((path.stem, owner.get(id(node)),
                          type(node).__name__))
    assert users == {("simplex", "basis_factors")}
    assert private == [("walk", "run_walk", "_beta")]
    assert memo == {("walk", "_record", "Attribute"),
                    ("lp", None, "Name"),  # NormalizedLP's field
                    ("lp", "_derived", "keyword")}
    assert not hasattr(geometry, "solve_square")


def test_one_rule_decides_rank():
    # Rank is decided once, by lp.find_independent_rows: LinearProgram's
    # validation and the box are its only callers, and no SVD rank test
    # sits beside it.  HiGHS checks answers in tests and tools, never in
    # the package: no module imports scipy.optimize.
    package = Path(conewalk.__file__).resolve().parent
    users, optimize = set(), []

    def visit(node, scope, stem):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                visit(child, (*scope, child.name), stem)
                continue
            if (isinstance(child, ast.Name)
                    and child.id == "find_independent_rows"
                    or isinstance(child, ast.Attribute)
                    and child.attr == "find_independent_rows"):
                users.add((stem, ".".join(scope)))
            visit(child, scope, stem)

    for path in sorted(package.glob("*.py")):
        text = path.read_text()
        assert "matrix_rank" not in text, path.name
        tree = ast.parse(text)
        visit(tree, (), path.stem)
        for node in ast.walk(tree):
            names = ([a.name for a in node.names]
                     if isinstance(node, ast.Import) else
                     [f"{node.module}.{a.name}" for a in node.names]
                     if isinstance(node, ast.ImportFrom) and node.module
                     else [])
            optimize += [(path.stem, name) for name in names
                         if name.startswith("scipy.optimize")]
    assert users == {("lp", "LinearProgram.__post_init__"),
                     ("phase1", "bounding_box")}
    assert optimize == []


def test_oracle_checks_with_numpy_alone():
    # The ground truth the solver is checked against shares none of its
    # linear algebra: no LAPACK wrapper, no basis factors, no solver step,
    # and nothing from geometry.
    path = Path(conewalk.__file__).resolve().parent / "oracle.py"
    tree = ast.parse(path.read_text())
    solver = {"lu_factor", "lu_solve", "basis_factors", "cone_membership",
              "vertex_of_basis", "pivot_across_facet"}
    named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    named |= {node.attr for node in ast.walk(tree)
              if isinstance(node, ast.Attribute)}
    named |= {alias.name for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert named & solver == set()
    imported = {target for node in ast.walk(tree)
                for target in _package_imports(node, {})}
    assert "geometry" not in imported


def test_package_import_graph_is_acyclic():
    # Every package import sits at module level (TYPE_CHECKING blocks
    # count), and those imports form no cycle: no module needs another
    # that needs it back.
    package = Path(conewalk.__file__).resolve().parent
    trees = {f.stem: ast.parse(f.read_text()) for f in package.glob("*.py")}
    graph, nested = {}, []
    for name, tree in trees.items():
        in_function = {id(inner) for node in ast.walk(tree)
                       if isinstance(node, (ast.FunctionDef,
                                            ast.AsyncFunctionDef))
                       for inner in ast.walk(node)}
        graph[name] = set()
        for node in ast.walk(tree):
            targets = _package_imports(node, trees)
            if id(node) in in_function:
                nested += [(name, node.lineno, t) for t in targets]
            else:
                graph[name].update(targets)
    assert nested == []

    done, path = set(), []

    def visit(name):
        if name in path:
            raise AssertionError(f"import cycle: {path[path.index(name):]}")
        if name in done:
            return
        path.append(name)
        for target in sorted(graph[name]):
            visit(target)
        path.pop()
        done.add(name)

    for name in sorted(graph):
        visit(name)
