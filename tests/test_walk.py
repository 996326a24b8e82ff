import inspect
import io
import json
import math
from functools import partial

import numpy as np
import pytest

from conewalk.errors import TooLarge
from conewalk.lp import LinearProgram, delta_bruteforce, normalize
from conewalk.oracle import default_radius, tu_instance_generator
from conewalk.phase1 import bounding_box, certified_radius, phase1_vertex
from conewalk.simplex import cone_membership, vertex_of_basis
from conewalk.walk import (
    Parallelepiped,
    WalkConfig,
    WalkState,
    _WalkCache,
    _draws,
    _l1,
    _propose,
    center,
    default_alpha,
    default_steps,
    log_volume,
    log_weight,
    run_walk,
    step,
)

from conftest import SQRT2, bounded_random_lp, rotate_instance, same_pivot


class QueuedRng:
    """Deterministic stand-in for a Generator: pops pre-seeded draws."""

    def __init__(self, integer_draws, uniform_draws):
        self.integer_draws = list(integer_draws)
        self.uniform_draws = list(uniform_draws)

    def integers(self, low, high):
        return self.integer_draws.pop(0)

    def random(self):
        return self.uniform_draws.pop(0)


# A coin this small accepts every proposal whose log-weight ratio exceeds
# log(2e-300), i.e. every move on the small instances below.
ALWAYS = 1e-300


def move(lp, v, cell, direction, alpha=1.0):
    """Take the given direction with step(); returns (state, StepInfo)."""
    row, sign = direction
    choice = 2 * cell.basis.index(row) + (0 if sign > 0 else 1)
    cfg = WalkConfig(alpha=alpha, steps=1)
    state, info = step(lp, cfg, WalkState(v, cell),
                       QueuedRng([choice], [ALWAYS]))
    assert info.accepted and info.direction == direction
    return state, info


class TestParallelepiped:
    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            Parallelepiped(basis=(0, 1), index=(0, -1))

    def test_sorted_alignment(self):
        cell = Parallelepiped(basis=(1, 0), index=(5, 7))
        assert cell.basis == (0, 1)
        assert cell.coordinate(0) == 5


class TestCenter:
    def test_apex_cell(self, unit_square):
        cell = Parallelepiped(basis=(0, 1), index=(0, 0))
        np.testing.assert_allclose(center(unit_square, cell), [1 / 8, 1 / 8])

    def test_offset_cell(self, unit_square):
        cell = Parallelepiped(basis=(0, 1), index=(3, 0))
        np.testing.assert_allclose(center(unit_square, cell), [7 / 8, 1 / 8])

    def test_rotated_basis(self, unit_square):
        # rows e2 (pos 1) and -e1 (pos 2); k = 1 along e2, 2 along -e1
        cell = Parallelepiped(basis=(1, 2), index=(1, 2))
        np.testing.assert_allclose(center(unit_square, cell), [-5 / 8, 3 / 8])


class TestWeight:
    def test_zero_exponent(self, unit_square):
        # alpha*c equals the cell center, so only the volume factor remains
        cell = Parallelepiped(basis=(0, 1), index=(0, 0))
        alpha = SQRT2 / 8.0
        assert math.exp(log_weight(unit_square, alpha, cell)) == \
            pytest.approx(1.0 / 16.0)

    def test_volume_factor(self, unit_square):
        cell = Parallelepiped(basis=(0, 1), index=(0, 0))
        alpha = SQRT2 / 8.0
        assert log_weight(unit_square, alpha, cell) == pytest.approx(
            math.log(1.0 / 16.0))

    def test_log_weight_difference_is_l1_shift(self, unit_square):
        # same basis, cells one step apart along a c-aligned coordinate
        alpha = 32.0
        near = Parallelepiped(basis=(0, 1), index=(4, 4))
        far = Parallelepiped(basis=(0, 1), index=(3, 4))
        diff = log_weight(unit_square, alpha, near) - \
            log_weight(unit_square, alpha, far)
        z_near = center(unit_square, near)
        z_far = center(unit_square, far)
        ac = alpha * unit_square.c
        expected = np.sum(np.abs(z_far - ac)) - np.sum(np.abs(z_near - ac))
        assert diff == pytest.approx(expected, abs=1e-12)

    def test_log_weight_never_underflows(self, unit_square):
        # f itself underflows to 0 this far from alpha*c; the step still
        # compares finite log weights
        v = vertex_of_basis(unit_square, (0, 1))
        cell = Parallelepiped(basis=(0, 1), index=(0, 0))
        _, info = move(unit_square, v, cell, (0, +1), alpha=1e6)
        for lw, c in ((info.log_weight, cell),
                      (info.log_weight_proposal, info.proposal)):
            assert math.isfinite(lw)
            assert math.exp(lw) == 0.0
            assert lw == pytest.approx(log_weight(unit_square, 1e6, c),
                                       abs=1e-9)


class TestNeighbor:
    def test_outward_same_cone(self, unit_square):
        v = vertex_of_basis(unit_square, (0, 1))
        cell = Parallelepiped(basis=(0, 1), index=(0, 0))
        (new_v, new_cell), info = move(unit_square, v, cell, (0, +1))
        assert not info.pivoted
        assert new_cell.basis == (0, 1)
        assert new_cell.index == (1, 0)
        assert new_v is v

    def test_inward_within_cone(self, unit_square):
        v = vertex_of_basis(unit_square, (0, 1))
        cell = Parallelepiped(basis=(0, 1), index=(2, 0))
        (_, new_cell), info = move(unit_square, v, cell, (0, -1))
        assert not info.pivoted
        assert new_cell.index == (1, 0)

    def test_cross_cone_pivot(self, unit_square):
        v = vertex_of_basis(unit_square, (0, 1))
        cell = Parallelepiped(basis=(0, 1), index=(0, 5))
        (new_v, new_cell), info = move(unit_square, v, cell, (0, -1))
        assert info.pivoted
        assert new_v.basis == (1, 2)
        np.testing.assert_allclose(new_v.point, [0.0, 1.0], atol=1e-12)
        # shared row 1 keeps its coordinate, entering row 2 starts at 0
        assert new_cell.basis == (1, 2)
        assert new_cell.coordinate(1) == 5
        assert new_cell.coordinate(2) == 0

    def test_pivot_reversible(self, unit_square):
        v = vertex_of_basis(unit_square, (0, 1))
        cell = Parallelepiped(basis=(0, 1), index=(0, 3))
        (new_v, new_cell), _ = move(unit_square, v, cell, (0, -1))
        entering = next(iter(set(new_cell.basis) - set(cell.basis)))
        (back_v, back_cell), info = move(unit_square, new_v, new_cell,
                                         (entering, -1))
        assert info.pivoted
        assert back_cell == cell
        assert back_v.basis == v.basis
        np.testing.assert_allclose(back_v.point, v.point, atol=1e-12)

    def test_facet_grid_consistency(self, unit_square):
        # the shared facet has identical corner sets seen from both cells
        v = vertex_of_basis(unit_square, (0, 1))
        cell = Parallelepiped(basis=(0, 1), index=(0, 4))
        (_, new_cell), _ = move(unit_square, v, cell, (0, -1))
        n = unit_square.n
        scale = 1.0 / n**2

        def facet_corners(lp, c, facet_row):
            rows = [r for r in c.basis if r != facet_row]
            base = sum((c.coordinate(r) * scale) * lp.A[r] for r in c.basis)
            corners = []
            for bits in range(2 ** len(rows)):
                p = base.copy()
                for t, r in enumerate(rows):
                    if bits >> t & 1:
                        p = p + scale * lp.A[r]
                corners.append(p)
            return sorted(corners, key=lambda p: tuple(np.round(p, 12)))

        entering = next(iter(set(new_cell.basis) - set(cell.basis)))
        ours = facet_corners(unit_square, cell, 0)
        theirs = facet_corners(unit_square, new_cell, entering)
        for a, b in zip(ours, theirs):
            np.testing.assert_allclose(a, b, atol=1e-9)


class TestStep:
    def make_state(self, lp, basis=(0, 1), index=(4, 4)):
        return WalkState(vertex_of_basis(lp, basis),
                         Parallelepiped(basis=basis, index=index))

    def test_equal_weights_accept_at_half(self, unit_square):
        # alpha*c = (1,1) sits midway between the centers of cells (3,3)
        # and (4,3), so f(P') = f(P) and the move happens iff the coin
        # lands below 1/2
        alpha = 1.0 / float(unit_square.c[0])
        cfg = WalkConfig(alpha=alpha, steps=1)
        state = self.make_state(unit_square, index=(3, 3))
        lw_here = log_weight(unit_square, alpha, state.cell)
        prop = Parallelepiped(basis=(0, 1), index=(4, 3))
        lw_prop = log_weight(unit_square, alpha, prop)
        assert lw_here == pytest.approx(lw_prop, abs=1e-12)
        _, info = step(unit_square, cfg, state,
                       QueuedRng([0], [0.499999]))
        assert info.accepted
        _, info = step(unit_square, cfg, state,
                       QueuedRng([0], [0.5]))
        assert not info.accepted and info.lazy

    def test_counters_split(self, unit_square):
        cfg = WalkConfig(alpha=32.0, steps=1)
        state = self.make_state(unit_square, index=(0, 0))
        # direction choice 1 is (row 0, -1): pivots away from the optimum,
        # so the ratio is tiny and a mid-range coin rejects (not lazy)
        _, info = step(unit_square, cfg, state, QueuedRng([1], [0.4]))
        assert not info.accepted and not info.lazy

    def test_seeded_replay(self, unit_square):
        cfg = WalkConfig(alpha=32.0, steps=25, seed=123)
        start = vertex_of_basis(unit_square, (2, 3))
        a = run_walk(unit_square, cfg.resolved(2, 1.0), start)
        b = run_walk(unit_square, cfg.resolved(2, 1.0), start)
        assert a.final == b.final
        assert (a.steps_taken, a.pivots, a.accepted_moves, a.rejected_moves,
                a.lazy_stays) == (b.steps_taken, b.pivots, b.accepted_moves,
                                  b.rejected_moves, b.lazy_stays)


class TestBlockDraws:
    """run_walk's _draws must give rng.integers(0, 2n), then rng.random()."""

    # k = 2n for n = 1..8, and k = 3 * 2^30, where Lemire's rule rejects a
    # quarter of the 32-bit halves (2^32 mod k = 2^30)
    @pytest.mark.parametrize("n", [*range(1, 9), 3 * 2**29])
    def test_values_match_the_generator(self, n):
        seed = np.random.SeedSequence([20260, n % 7, n % 3])  # as _las_vegas_walk
        rng = np.random.default_rng(seed)
        draws = _draws(np.random.PCG64(seed), n)
        steps = 50_001  # over 10^5 values, across about 73 blocks of words
        for _ in range(steps):
            choice, u = int(rng.integers(0, 2 * n)), float(rng.random())
            pos, sign, v = next(draws)
            assert (2 * pos + (0 if sign > 0 else 1), v) == (choice, u)


class TestInConeMove:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_scalar_move_has_the_numpy_bits(self, n):
        # _propose's float-list move against the numpy z + sign*row, and the
        # l1 of both of its branches (a move in the cone, a pivot) against
        # _l1 of the numpy center, bit for bit
        rng = np.random.default_rng(n)
        box = LinearProgram(A=np.vstack([np.eye(n), -np.eye(n)]),
                            b=1.0 + rng.random(2 * n), c=rng.standard_normal(n))
        lp = normalize(rotate_instance(box, seed=n))
        cache = _WalkCache(lp)
        basis = tuple(range(n))  # a corner of the rotated box
        vertex = vertex_of_basis(lp, basis)
        rec = cache.record(basis)
        for _ in range(2000):
            scale = 10.0 ** rng.integers(-3, 4, size=n)
            z = rng.standard_normal(n) * scale
            ac = (rng.standard_normal(n) * 100.0).tolist()
            pos, sign = int(rng.integers(0, n)), int(rng.choice((-1, 1)))
            *_, index, z_new, l1_new, _ = _propose(
                cache, ac, vertex, rec, [1] * n, z.tolist(), 0.0, pos, sign)
            ref = z + sign * rec.rows[pos]
            assert index is None
            assert np.array(z_new).tobytes() == ref.tobytes()
            assert l1_new == _l1(ref.tolist(), ac)

            index = rng.integers(0, 5, size=n).tolist()
            index[pos] = 0
            _, new_rec, new_index, z_new, l1_new, _ = _propose(
                cache, ac, vertex, rec, index, z.tolist(), 0.0, pos, -1)
            ref = new_rec.rows.T @ (np.array(new_index, dtype=float) + 0.5)
            assert new_rec.basis != basis
            assert np.array(z_new).tobytes() == ref.tobytes()
            assert l1_new == _l1(ref.tolist(), ac)


class TestRunWalk:
    def test_stops_immediately_when_optimal(self, unit_square):
        start = vertex_of_basis(unit_square, (0, 1))
        out = run_walk(unit_square, WalkConfig(seed=1).resolved(2, 1.0), start)
        assert out.stopped_with_c_in_cone
        assert out.steps_taken == 0
        assert out.pivots == 0

    @pytest.mark.parametrize("cfg", [WalkConfig(seed=1),
                                     WalkConfig(alpha=32.0, seed=1),
                                     WalkConfig(steps=10, seed=1)])
    def test_unresolved_config_rejected(self, unit_square, cfg):
        start = vertex_of_basis(unit_square, (2, 3))
        with pytest.raises(ValueError, match="resolved"):
            run_walk(unit_square, cfg, start)

    def test_zero_steps_returns_start_cell(self, unit_square):
        start = vertex_of_basis(unit_square, (2, 3))
        cfg = WalkConfig(alpha=32.0, steps=0, seed=5)
        out = run_walk(unit_square, cfg, start)
        assert out.final == Parallelepiped(basis=(2, 3), index=(0, 0))
        np.testing.assert_allclose(
            out.c_prime, center(unit_square, out.final) / 32.0)

    def test_square_hits_optimum_for_most_seeds(self, unit_square):
        # brute-force optimum is (1,1); 100 seeds.  The single-walk success
        # rate saturates near 2/3 at the default ceil(2^5.5) = 46 steps
        # (measured), so the 95-percent claim is pinned at eight times that
        # budget, ceil(8 * 2^5.5) = 363 steps.
        start = vertex_of_basis(unit_square, (2, 3))
        hits = 0
        for seed in range(100):
            out = run_walk(unit_square,
                           WalkConfig(seed=seed, steps=363).resolved(2, 1.0),
                           start)
            if out.stopped_with_c_in_cone and out.final.basis == (0, 1):
                hits += 1
        assert hits >= 95

    def test_counters_consistent(self, unit_square):
        start = vertex_of_basis(unit_square, (2, 3))
        cfg = WalkConfig(alpha=32.0, steps=200, seed=9)
        out = run_walk(unit_square, cfg, start)
        assert out.counters_consistent()

    def test_trace_stream(self, unit_square):
        buf = io.StringIO()
        start = vertex_of_basis(unit_square, (2, 3))
        cfg = WalkConfig(alpha=32.0, steps=30, seed=3, trace=buf)
        out = run_walk(unit_square, cfg, start)
        lines = [ln for ln in buf.getvalue().splitlines() if ln]
        assert len(lines) == out.steps_taken
        record = json.loads(lines[0])
        assert set(record) == {"step", "basis", "k", "direction",
                               "log_weight", "log_weight_proposal",
                               "accepted", "pivoted"}
        for ln in lines:
            assert all(k >= 0 for k in json.loads(ln)["k"])
        # lazy steps never evaluate their proposal
        lazy = [r for r in map(json.loads, lines)
                if r["log_weight_proposal"] is None]
        assert len(lazy) == out.lazy_stays > 0
        assert not any(r["accepted"] or r["pivoted"] for r in lazy)

    def test_detailed_balance_on_sampled_pairs(self, unit_square):
        # Q(P) p(P,P') == Q(P') p(P',P) for every sampled neighbor pair
        alpha = 32.0
        n = unit_square.n
        rng = np.random.default_rng(77)
        v = vertex_of_basis(unit_square, (2, 3))
        cell = Parallelepiped(basis=(2, 3), index=(0, 0))
        for _ in range(400):
            row = cell.basis[int(rng.integers(0, n))]
            sign = +1 if rng.random() < 0.5 else -1
            (v2, prop), info = move(unit_square, v, cell, (row, sign), alpha)
            lw1, lw2 = info.log_weight, info.log_weight_proposal
            assert lw1 == pytest.approx(log_weight(unit_square, alpha, cell),
                                        abs=1e-9)
            assert lw2 == pytest.approx(log_weight(unit_square, alpha, prop),
                                        abs=1e-9)
            flow12 = lw1 + min(0.0, lw2 - lw1)
            flow21 = lw2 + min(0.0, lw1 - lw2)
            assert flow12 == pytest.approx(flow21, abs=1e-9)
            v, cell = v2, prop

    def test_volume_ratio_bound_on_pivots(self, unit_square):
        # vol(P')/vol(P) >= delta for facet-crossing neighbors
        delta = delta_bruteforce(unit_square).delta
        v = vertex_of_basis(unit_square, (2, 3))
        cell = Parallelepiped(basis=(2, 3), index=(0, 0))
        seen = 0
        rng = np.random.default_rng(5)
        for _ in range(300):
            row = cell.basis[int(rng.integers(0, unit_square.n))]
            (v2, prop), info = move(unit_square, v, cell, (row, -1))
            if info.pivoted:
                lv1 = info.log_weight \
                    + np.sum(np.abs(center(unit_square, cell) - unit_square.c))
                lv2 = info.log_weight_proposal \
                    + np.sum(np.abs(center(unit_square, prop) - unit_square.c))
                assert math.exp(lv2 - lv1) >= delta - 1e-9
                seen += 1
            v, cell = v2, prop
        assert seen > 10


def tu_boxed(kind, n, m, gen_seed):
    """A unimodular instance and its box of radius default_radius."""
    nlp = normalize(tu_instance_generator(kind, n, m, seed=gen_seed))
    return nlp, bounding_box(nlp, default_radius(nlp))


def random_boxed(n, extra_rows, gen_seed):
    """A bounded random instance and its box of radius certified_radius."""
    nlp = bounded_random_lp(n, extra_rows, gen_seed)
    return nlp, bounding_box(nlp, certified_radius(nlp, delta_bruteforce(nlp)))


class TestReplay:
    # (boxed instance, walk seed); each walk uses its whole budget, through
    # a resync at step 4096
    @pytest.mark.parametrize("boxed, seed", [
        pytest.param(partial(tu_boxed, "interval", 3, 10, 14), 0, id="n=3"),
        pytest.param(partial(tu_boxed, "interval", 4, 14, 77), 5, id="n=4"),
        pytest.param(partial(tu_boxed, "interval", 5, 12, 1), 0, id="n=5"),
        pytest.param(partial(random_boxed, 8, 6, 0), 0, id="n=8"),
    ])
    def test_traced_run_walk_replays_through_step(self, boxed, seed):
        # every non-lazy trace record, fed back through step() with the
        # walk's own draws, reproduces the record
        nlp, lp = boxed()
        start = phase1_vertex(nlp, lp)
        cfg = WalkConfig(steps=9000, seed=seed).resolved(
            lp.n, delta_bruteforce(lp).delta)
        buf = io.StringIO()
        out = run_walk(lp, WalkConfig(alpha=cfg.alpha, steps=cfg.steps,
                                      seed=seed, trace=buf), start)
        records = [json.loads(ln) for ln in buf.getvalue().splitlines()]
        assert len(records) == out.steps_taken

        draws = np.random.default_rng(seed)
        cache = _WalkCache(lp)
        state = WalkState(start, Parallelepiped(start.basis, (0,) * lp.n))
        # log_weight sums the n terms in numpy's order: allow n roundings,
        # which exceed 1e-9 at n=8, where |log f| reaches 3e7
        reference_tol = {"abs": 1e-9, "rel": lp.n * np.finfo(float).eps}
        replayed = 0
        for rec in records:
            choice, u = int(draws.integers(0, 2 * lp.n)), float(draws.random())
            if rec["log_weight_proposal"] is None:
                assert u >= 0.5
                assert (tuple(rec["basis"]), tuple(rec["k"])) == \
                    (state.cell.basis, state.cell.index)
                continue
            before = state.cell
            state, info = step(lp, cfg, state, QueuedRng([choice], [u]),
                               _cache=cache)
            assert list(info.direction) == rec["direction"]
            assert list(state.cell.basis) == rec["basis"]
            assert list(state.cell.index) == rec["k"]
            assert info.accepted == rec["accepted"]
            assert info.pivoted == rec["pivoted"]
            assert info.log_weight == pytest.approx(rec["log_weight"], abs=1e-9)
            assert info.log_weight_proposal == pytest.approx(
                rec["log_weight_proposal"], abs=1e-9)
            assert rec["log_weight"] == pytest.approx(
                log_weight(lp, cfg.alpha, before), **reference_tol)
            assert rec["log_weight_proposal"] == pytest.approx(
                log_weight(lp, cfg.alpha, info.proposal), **reference_tol)
            replayed += 1
        assert state.cell == out.final
        assert replayed > 4000 and out.pivots > 50


class TestPulledWeight:
    """run_walk's private _beta scales the l1 term of the weight: f_beta."""

    def test_step_walks_the_papers_weight(self, unit_square):
        assert "_beta" not in inspect.signature(step).parameters
        assert inspect.signature(run_walk).parameters["_beta"].default == 1.0
        # an outward move from the apex, away from alpha*c: f's ratio is
        # exp(-||a_2||_1 / n^2) = exp(-1/4), f_beta's with beta = n^2 would
        # be exp(-1); a coin between the two accepts only under f
        alpha = 32.0
        start = vertex_of_basis(unit_square, (2, 3))
        cell = Parallelepiped(basis=(2, 3), index=(0, 0))
        choice = 2 * cell.basis.index(2)  # row 2 outward
        u = 0.5 * math.exp(-0.5)
        state, info = step(unit_square, WalkConfig(alpha=alpha, steps=1),
                           WalkState(start, cell), QueuedRng([choice], [u]))
        assert info.log_weight_proposal - info.log_weight == \
            pytest.approx(-0.25)
        assert info.accepted and state.cell.index == (1, 0)

    @pytest.mark.parametrize("boxed, seed", [
        pytest.param(partial(tu_boxed, "interval", 3, 10, 14), 2, id="n=3"),
        pytest.param(partial(tu_boxed, "interval", 5, 12, 1), 0, id="n=5"),
    ])
    def test_trace_records_the_pulled_weight(self, boxed, seed):
        # every record's weights are f_beta's, -beta * l1 + log_vol with
        # the center taken from scratch, so exp of their difference is the
        # ratio the accept rule read
        nlp, lp = boxed()
        start = phase1_vertex(nlp, lp)
        alpha = default_alpha(lp.n, delta_bruteforce(lp).delta)
        beta = float(lp.n**2)
        buf = io.StringIO()
        out = run_walk(lp, WalkConfig(alpha=alpha, steps=400, seed=seed,
                                      trace=buf), start, _beta=beta)
        records = [json.loads(ln) for ln in buf.getvalue().splitlines()]
        assert len(records) == out.steps_taken > 100

        def pulled(cell):
            l1 = float(np.sum(np.abs(center(lp, cell) - alpha * lp.c)))
            return -beta * l1 + log_volume(lp, cell.basis)

        before = Parallelepiped(start.basis, (0,) * lp.n)
        checked = 0
        for rec in records:
            after = Parallelepiped(tuple(rec["basis"]), tuple(rec["k"]))
            assert rec["log_weight"] == pytest.approx(pulled(before),
                                                      rel=1e-12, abs=1e-9)
            if rec["accepted"]:
                assert rec["log_weight_proposal"] == pytest.approx(
                    pulled(after), rel=1e-12, abs=1e-9)
                checked += 1
            before = after
        assert checked > 20 and out.pivots > 0


class TestDefaults:
    def test_default_steps_small(self):
        assert default_steps(1, 1.0) == 1
        assert default_steps(2, 1.0) == 46  # ceil(2^5.5)

    def test_default_steps_n3(self):
        # ceil(3^5.5 * 27) = ceil(11363.98...) = 11364
        assert default_steps(3, 1.0 / 3.0) == 11364

    def test_default_alpha(self):
        assert default_alpha(2, 1.0) == pytest.approx(32.0)

    def test_nonpositive_alpha_rejected(self):
        for alpha in (0.0, -5.0, float("nan")):
            with pytest.raises(ValueError, match="alpha"):
                WalkConfig(alpha=alpha, steps=5).resolved(2, 1.0)

    def test_alpha_warning_below_threshold(self, unit_square):
        cfg = WalkConfig(alpha=1.0, steps=5)
        with pytest.warns(UserWarning, match="alpha"):
            cfg.resolved(2, 1.0)

    @pytest.mark.parametrize("delta", [1e-121, 1e-104])
    def test_step_budget_past_the_float_range(self, delta):
        # delta^3 underflows to 0, or to a subnormal that n^5.5 overflows
        with pytest.raises(TooLarge, match="step budget"):
            default_steps(2, delta)
        with pytest.raises(TooLarge, match="step budget"):
            WalkConfig(alpha=1.0).resolved(2, delta)

    def test_alpha_past_the_float_range(self):
        # 4 n^3 / delta overflows: no walk runs at alpha = inf
        with pytest.raises(TooLarge, match="alpha"):
            WalkConfig(steps=10).resolved(2, 5.6e-308)
        with pytest.raises(TooLarge, match="alpha"):
            WalkConfig(alpha=math.inf, steps=10).resolved(2, 1.0)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            default_steps(0, 1.0)
        with pytest.raises(ValueError):
            default_steps(2, 0.0)


class TestBasisRecords:
    """The Las Vegas walk factors each basis once, through its _BasisRecord, and
    the record's answers are the standalone functions'."""

    def test_each_basis_is_factored_once_per_level_without_det(
            self, solve_spies):
        bases = 0
        for spy in solve_spies:
            assert spy.det_calls == 0
            for (scope, basis), times in spy.factorizations.items():
                if scope is not None and scope[0] == "walk":
                    assert times == 1, (scope, basis, times)
                    bases += 1
        assert bases > len(solve_spies)  # the walks pivoted

    def test_records_equal_the_standalone_functions(self, solve_spies):
        records = pivots = 0
        for spy in solve_spies:
            for cache in spy.caches:
                lp = cache.lp
                for basis, rec in cache.records.items():
                    assert rec.in_cone == cone_membership(lp, basis, lp.c).inside
                    assert abs(rec.log_vol - log_volume(lp, basis)) <= 1e-12
                    records += 1
            for caller, prog, v, leaving, result in spy.pivots:
                if caller == "walk":
                    assert same_pivot(prog, v, leaving, result)
                    pivots += 1
        assert records > len(solve_spies) and pivots > 0
