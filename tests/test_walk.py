import inspect
import io
import json
import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from conewalk.errors import TooLarge
from conewalk.lp import LinearProgram, delta_bruteforce, normalize
from conewalk.oracle import default_radius, tu_instance_generator
from conewalk.phase1 import bounding_box, certified_radius, phase1_vertex
from conewalk.reduction import certify_delta, scaled_center
from conewalk.simplex import cone_membership, pivot_across_facet
from conewalk.walk import (
    Parallelepiped,
    WalkConfig,
    _BasisRecord,
    _draws,
    _l1,
    _propose,
    _record,
    center,
    default_alpha,
    default_steps,
    log_volume,
    log_weight,
    run_walk,
    step,
)

from conftest import (
    SQRT2,
    afresh,
    bounded_random_lp,
    factor_instances,
    memo_vertex_is_afresh,
    rotate_instance,
    same_pivot,
)


# A coin this small accepts every proposal whose log-weight ratio exceeds
# log(2e-300), i.e. every move on the small instances below.
ALWAYS = 1e-300


def move(lp, cell, direction, alpha=1.0):
    """Take the given direction with step(); returns (cell, StepInfo)."""
    row, sign = direction
    new_cell, info = step(lp, alpha, cell,
                          (cell.basis.index(row), sign, ALWAYS))
    assert info.accepted and info.direction == direction
    return new_cell, info


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
        cell = Parallelepiped(basis=(0, 1), index=(0, 0))
        _, info = move(unit_square, cell, (0, +1), alpha=1e6)
        for lw, c in ((info.log_weight, cell),
                      (info.log_weight_proposal, info.proposal)):
            assert math.isfinite(lw)
            assert math.exp(lw) == 0.0
            assert lw == pytest.approx(log_weight(unit_square, 1e6, c),
                                       abs=1e-9)


class TestNeighbor:
    def test_outward_same_cone(self, unit_square):
        cell = Parallelepiped(basis=(0, 1), index=(0, 0))
        new_cell, info = move(unit_square, cell, (0, +1))
        assert not info.pivoted
        assert new_cell.basis == (0, 1)
        assert new_cell.index == (1, 0)
        # a move in the cone keeps the basis, so it keeps the vertex
        assert _record(unit_square, new_cell.basis) is \
            _record(unit_square, cell.basis)

    def test_inward_within_cone(self, unit_square):
        cell = Parallelepiped(basis=(0, 1), index=(2, 0))
        new_cell, info = move(unit_square, cell, (0, -1))
        assert not info.pivoted
        assert new_cell.index == (1, 0)

    def test_cross_cone_pivot(self, unit_square):
        cell = Parallelepiped(basis=(0, 1), index=(0, 5))
        new_cell, info = move(unit_square, cell, (0, -1))
        assert info.pivoted
        np.testing.assert_allclose(unit_square.lu_memo[new_cell.basis][1],
                                   [0.0, 1.0], atol=1e-12)
        # shared row 1 keeps its coordinate, entering row 2 starts at 0
        assert new_cell.basis == (1, 2)
        assert new_cell.index == (5, 0)

    def test_pivot_reversible(self, unit_square):
        cell = Parallelepiped(basis=(0, 1), index=(0, 3))
        new_cell, _ = move(unit_square, cell, (0, -1))
        entering = next(iter(set(new_cell.basis) - set(cell.basis)))
        back_cell, info = move(unit_square, new_cell, (entering, -1))
        assert info.pivoted
        assert back_cell == cell
        assert memo_vertex_is_afresh(unit_square, back_cell.basis)

    def test_facet_grid_consistency(self, unit_square):
        # the shared facet has identical corner sets seen from both cells
        cell = Parallelepiped(basis=(0, 1), index=(0, 4))
        new_cell, _ = move(unit_square, cell, (0, -1))
        n = unit_square.n
        scale = 1.0 / n**2

        def facet_corners(lp, c, facet_row):
            rows = [r for r in c.basis if r != facet_row]
            base = sum((k * scale) * lp.A[r] for r, k in zip(*c))
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
    def test_step_takes_a_cell_and_a_draw(self):
        assert list(inspect.signature(step).parameters) == \
            ["lp", "alpha", "cell", "draw"]

    def test_equal_weights_accept_at_half(self, unit_square):
        # alpha*c = (1,1) sits midway between the centers of cells (3,3)
        # and (4,3), so f(P') = f(P) and the move happens iff the coin
        # lands below 1/2
        alpha = 1.0 / float(unit_square.c[0])
        cell = Parallelepiped(basis=(0, 1), index=(3, 3))
        lw_here = log_weight(unit_square, alpha, cell)
        prop = Parallelepiped(basis=(0, 1), index=(4, 3))
        lw_prop = log_weight(unit_square, alpha, prop)
        assert lw_here == pytest.approx(lw_prop, abs=1e-12)
        moved, info = step(unit_square, alpha, cell, (0, +1, 0.499999))
        assert info.accepted and moved == prop
        stayed, info = step(unit_square, alpha, cell, (0, +1, 0.5))
        assert not info.accepted and info.lazy and stayed == cell

    def test_counters_split(self, unit_square):
        cell = Parallelepiped(basis=(0, 1), index=(0, 0))
        # (row 0, -1) pivots away from the optimum, so the ratio is tiny
        # and a mid-range coin rejects (not lazy)
        _, info = step(unit_square, 32.0, cell, (0, -1, 0.4))
        assert not info.accepted and not info.lazy

    def test_a_zero_coin_accepts(self, unit_square):
        # u = 0 is a draw ((w >> 11) == 0): 2u = 0 lies below every
        # min(1, f'/f), so even the move the test above rejects happens
        cell = Parallelepiped(basis=(0, 1), index=(0, 0))
        moved, info = step(unit_square, 32.0, cell, (0, -1, 0.0))
        assert info.accepted and info.pivoted and not info.lazy
        assert moved == info.proposal != cell
        assert info.log_weight_proposal < info.log_weight

    def test_seeded_replay(self, unit_square):
        start = (2, 3)
        a = run_walk(unit_square, start, alpha=32.0, steps=25, seed=123)
        b = run_walk(unit_square, start, alpha=32.0, steps=25, seed=123)
        assert a.final == b.final
        assert (a.steps_taken, a.pivots, a.accepted_moves, a.rejected_moves,
                a.lazy_stays) == (b.steps_taken, b.pivots, b.accepted_moves,
                                  b.rejected_moves, b.lazy_stays)


def decoded(words, n):
    """The draws the walk reads from raw words, decoded in Python ints:
    (pos, sign, u) per pair, choice = w[2i] mod 2n, u = (w[2i + 1] >> 11)
    * 2^-53."""
    out = []
    for i in range(0, len(words) - 1, 2):
        choice = int(words[i]) % (2 * n)
        out.append((choice // 2, +1 if choice % 2 == 0 else -1,
                    (int(words[i + 1]) >> 11) * 2.0**-53))
    return out


class TestBlockDraws:
    """Draw i of _draws decodes raw words 2i and 2i + 1 of the bit
    generator, whatever the block size."""

    # 2n for n = 1..8, and a 2n of 32 bits that is no power of 2, 3 * 2^30
    @pytest.mark.parametrize("n", [*range(1, 9), 3 * 2**29])
    def test_values_match_the_generator(self, n):
        seed = np.random.SeedSequence([20260, n % 7, n % 3])  # as _las_vegas_walk
        steps = 50_001  # across about 780 blocks of draws
        want = decoded(np.random.PCG64(seed).random_raw(2 * steps).tolist(), n)
        draws = _draws(np.random.PCG64(seed), n)
        got = [next(draws) for _ in range(steps)]
        assert got == want
        assert all(type(pos) is int and type(sign) is int and 0 <= pos < n
                   for pos, sign, _ in got)

    # budgets around one 64-step restart unit, read in blocks of 1 to 1024
    # draws
    @pytest.mark.parametrize("block", [1, 7, 16, 64, 1024])
    @pytest.mark.parametrize("steps", [0, 1, 63, 64, 65, 5000])
    @pytest.mark.parametrize("n", [1, 5])
    def test_sized_blocks_give_the_generator_values(self, monkeypatch, n,
                                                    steps, block):
        import conewalk.walk as walk_module
        monkeypatch.setattr(walk_module, "_DRAW_BLOCK", block)
        seed = np.random.SeedSequence([20261, n, steps])
        bitgen = np.random.PCG64(seed)
        untouched = bitgen.state
        draws = _draws(bitgen, n)
        got = [next(draws) for _ in range(steps)]
        assert got == decoded(
            np.random.PCG64(seed).random_raw(2 * steps).tolist(), n)
        if steps == 0:
            assert bitgen.state == untouched  # a walk of no steps reads none


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
        basis = tuple(range(n))  # a corner of the rotated box
        rec = _record(lp, basis)
        for _ in range(2000):
            scale = 10.0 ** rng.integers(-3, 4, size=n)
            z = rng.standard_normal(n) * scale
            ac = (rng.standard_normal(n) * 100.0).tolist()
            pos, sign = int(rng.integers(0, n)), int(rng.choice((-1, 1)))
            same_rec, index, z_new, l1_new, _ = _propose(
                lp, ac, rec, [1] * n, z.tolist(), 0.0, pos, sign)
            ref = z + sign * rec.rows[pos]
            assert same_rec is rec
            assert index == [1 + sign if i == pos else 1 for i in range(n)]
            assert np.array(z_new).tobytes() == ref.tobytes()
            assert l1_new == _l1(ref.tolist(), ac)

            index = rng.integers(0, 5, size=n).tolist()
            index[pos] = 0
            new_rec, new_index, z_new, l1_new, _ = _propose(
                lp, ac, rec, index, z.tolist(), 0.0, pos, -1)
            ref = new_rec.rows.T @ (np.array(new_index, dtype=float) + 0.5)
            assert new_rec.basis != basis
            assert np.array(z_new).tobytes() == ref.tobytes()
            assert l1_new == _l1(ref.tolist(), ac)


class TestRunWalk:
    def test_stops_immediately_when_optimal(self, unit_square):
        start = (0, 1)
        # default_alpha(2, 1.0) and default_steps(2, 1.0)
        out = run_walk(unit_square, start, alpha=32.0, steps=46, seed=1)
        assert out.stopped_with_c_in_cone
        assert out.steps_taken == 0
        assert out.pivots == 0

    def test_zero_steps_returns_start_cell(self, unit_square):
        start = (2, 3)
        out = run_walk(unit_square, start, alpha=32.0, steps=0, seed=5)
        assert out.final == Parallelepiped(basis=(2, 3), index=(0, 0))
        # the apex cell of rows -e1, -e2 at n = 2: center -(1/2)/n^2 each
        np.testing.assert_allclose(
            scaled_center(unit_square, out.final, 32.0),
            np.array([-0.125, -0.125]) / 32.0)

    def test_square_hits_optimum_for_most_seeds(self, unit_square):
        # brute-force optimum is (1,1); 100 seeds.  The single-walk success
        # rate saturates near 2/3 at the default ceil(2^5.5) = 46 steps
        # (measured), so the 95-percent claim is pinned at eight times that
        # budget, ceil(8 * 2^5.5) = 363 steps.
        start = (2, 3)
        hits = 0
        for seed in range(100):
            out = run_walk(unit_square, start, alpha=32.0, steps=363,
                           seed=seed)
            if out.stopped_with_c_in_cone and out.final.basis == (0, 1):
                hits += 1
        assert hits >= 95

    def test_counters_consistent(self, unit_square):
        start = (2, 3)
        out = run_walk(unit_square, start, alpha=32.0, steps=200, seed=9)
        assert out.accepted_moves + out.rejected_moves + out.lazy_stays == \
            out.steps_taken

    def test_trace_stream(self, unit_square):
        buf = io.StringIO()
        start = (2, 3)
        out = run_walk(unit_square, start, alpha=32.0, steps=30, seed=3,
                       trace=buf)
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
        cell = Parallelepiped(basis=(2, 3), index=(0, 0))
        for _ in range(400):
            row = cell.basis[int(rng.integers(0, n))]
            sign = +1 if rng.random() < 0.5 else -1
            prop, info = move(unit_square, cell, (row, sign), alpha)
            lw1, lw2 = info.log_weight, info.log_weight_proposal
            assert lw1 == pytest.approx(log_weight(unit_square, alpha, cell),
                                        abs=1e-9)
            assert lw2 == pytest.approx(log_weight(unit_square, alpha, prop),
                                        abs=1e-9)
            flow12 = lw1 + min(0.0, lw2 - lw1)
            flow21 = lw2 + min(0.0, lw1 - lw2)
            assert flow12 == pytest.approx(flow21, abs=1e-9)
            cell = prop

    def test_volume_ratio_bound_on_pivots(self, unit_square):
        # vol(P')/vol(P) >= delta for facet-crossing neighbors
        delta = delta_bruteforce(unit_square).delta
        cell = Parallelepiped(basis=(2, 3), index=(0, 0))
        seen = 0
        rng = np.random.default_rng(5)
        for _ in range(300):
            row = cell.basis[int(rng.integers(0, unit_square.n))]
            prop, info = move(unit_square, cell, (row, -1))
            if info.pivoted:
                lv1 = info.log_weight \
                    + np.sum(np.abs(center(unit_square, cell) - unit_square.c))
                lv2 = info.log_weight_proposal \
                    + np.sum(np.abs(center(unit_square, prop) - unit_square.c))
                assert math.exp(lv2 - lv1) >= delta - 1e-9
                seen += 1
            cell = prop
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
        pytest.param(partial(tu_boxed, "interval", 3, 10, 14), 8, id="n=3"),
        pytest.param(partial(tu_boxed, "interval", 4, 14, 77), 2, id="n=4"),
        pytest.param(partial(tu_boxed, "interval", 5, 12, 1), 0, id="n=5"),
        pytest.param(partial(random_boxed, 8, 6, 0), 0, id="n=8"),
    ])
    def test_traced_run_walk_replays_through_step(self, boxed, seed):
        # every non-lazy trace record, fed back through step() with the
        # walk's own draws, reproduces the record
        nlp, lp = boxed()
        start = phase1_vertex(nlp, lp)
        alpha = default_alpha(lp.n, delta_bruteforce(lp).delta)
        buf = io.StringIO()
        out = run_walk(lp, start, alpha=alpha, steps=9000, seed=seed,
                       trace=buf)
        records = [json.loads(ln) for ln in buf.getvalue().splitlines()]
        assert len(records) == out.steps_taken == 9000

        draws = _draws(np.random.PCG64(seed), lp.n)
        cell = Parallelepiped(start, (0,) * lp.n)
        # log_weight sums the n terms in numpy's order: allow n roundings,
        # which exceed 1e-9 at n=8, where |log f| reaches 3e7
        reference_tol = {"abs": 1e-9, "rel": lp.n * np.finfo(float).eps}
        replayed = 0
        for rec in records:
            draw = next(draws)
            if rec["log_weight_proposal"] is None:
                assert draw[2] >= 0.5
                assert (tuple(rec["basis"]), tuple(rec["k"])) == \
                    (cell.basis, cell.index)
                continue
            before = cell
            cell, info = step(lp, alpha, cell, draw)
            assert list(info.direction) == rec["direction"]
            assert list(cell.basis) == rec["basis"]
            assert list(cell.index) == rec["k"]
            assert info.accepted == rec["accepted"]
            assert info.pivoted == rec["pivoted"]
            assert info.log_weight == pytest.approx(rec["log_weight"], abs=1e-9)
            assert info.log_weight_proposal == pytest.approx(
                rec["log_weight_proposal"], abs=1e-9)
            assert rec["log_weight"] == pytest.approx(
                log_weight(lp, alpha, before), **reference_tol)
            assert rec["log_weight_proposal"] == pytest.approx(
                log_weight(lp, alpha, info.proposal), **reference_tol)
            replayed += 1
        assert cell == out.final
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
        cell = Parallelepiped(basis=(2, 3), index=(0, 0))
        u = 0.5 * math.exp(-0.5)
        moved, info = step(unit_square, alpha, cell,
                           (cell.basis.index(2), +1, u))  # row 2 outward
        assert info.log_weight_proposal - info.log_weight == \
            pytest.approx(-0.25)
        assert info.accepted and moved.index == (1, 0)

    @pytest.mark.parametrize("boxed, seed", [
        pytest.param(partial(tu_boxed, "interval", 3, 10, 14), 1, id="n=3"),
        pytest.param(partial(tu_boxed, "interval", 5, 12, 1), 8, id="n=5"),
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
        out = run_walk(lp, start, alpha=alpha, steps=400, seed=seed,
                       trace=buf, _beta=beta)
        records = [json.loads(ln) for ln in buf.getvalue().splitlines()]
        assert len(records) == out.steps_taken > 100

        def pulled(cell):
            l1 = float(np.sum(np.abs(center(lp, cell) - alpha * lp.c)))
            return -beta * l1 + log_volume(lp, cell.basis)

        before = Parallelepiped(start, (0,) * lp.n)
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

    @pytest.mark.parametrize("fields, error", [
        ({"alpha": -1.0}, ValueError), ({"alpha": math.nan}, ValueError),
        ({"alpha": "3"}, TypeError), ({"steps": -1}, ValueError),
        ({"steps": 2.5}, TypeError), ({"steps": np.float64(3.0)}, TypeError)])
    def test_bad_field_rejected_when_built(self, fields, error):
        # a config made by replace, as resolved makes one, checks too
        (field,) = fields
        with pytest.raises(error, match=rf"^WalkConfig\.{field} must be "):
            WalkConfig(**fields)
        resolved = WalkConfig(alpha=32.0, steps=10)
        with pytest.raises(error, match=rf"^WalkConfig\.{field} must be "):
            replace(resolved, **fields)

    def test_numpy_numbers_resolve_to_python_numbers(self):
        cfg = WalkConfig(alpha=np.float64(40.0), steps=np.int64(7))
        resolved = cfg.resolved(2, 1.0)
        assert (type(resolved.alpha), type(resolved.steps)) == (float, int)
        assert (resolved.alpha, resolved.steps) == (40.0, 7)

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
    """The Las Vegas walk factors each basis once, through the program's
    memo, and its records' answers are the standalone functions' on a copy
    that factors afresh."""

    def test_each_basis_is_factored_once_per_walk_without_det(
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
        records = crossings = pivots = 0
        for spy in solve_spies:
            for prog in spy.walked:
                lp = afresh(prog)
                for basis, rec in prog.walk_memo.items():
                    assert isinstance(rec, _BasisRecord) and rec.basis == basis
                    assert memo_vertex_is_afresh(prog, basis)
                    assert rec.in_cone == cone_membership(lp, basis, lp.c).inside
                    assert abs(rec.log_vol - log_volume(lp, basis)) <= 1e-12
                    for leaving, across in rec.across.items():
                        assert pivot_across_facet(lp, basis, leaving) == across
                        crossings += 1
                    records += 1
            for caller, prog, basis, leaving, rows, result in spy.pivots:
                if caller == "walk":
                    assert rows is None  # the walk's region is the program
                    assert same_pivot(prog, basis, leaving, rows, result)
                    assert memo_vertex_is_afresh(prog, basis)
                    pivots += 1
        assert records > len(solve_spies) and pivots > 0
        assert crossings > 0

    def test_record_is_an_immutable_named_tuple(self, unit_square):
        rec = _record(unit_square, (0, 1))
        assert rec._fields == ("basis", "rows", "row_lists", "log_vol",
                               "in_cone", "across")
        with pytest.raises(AttributeError):
            rec.log_vol = 0.0

    def test_records_read_and_fill_the_given_memo(self, monkeypatch,
                                                  unit_square):
        # the memos are the program's: a basis factored before the walk is
        # not factored again, a new one is left in the memo, and a record
        # is made once and kept in the program's walk memo
        import conewalk.simplex as simplex_module

        entry = simplex_module.basis_factors(unit_square, (0, 1))
        calls = []

        def counted(a_b, real=simplex_module.lu_factor):
            calls.append(a_b.tobytes())
            return real(a_b)

        monkeypatch.setattr(simplex_module, "lu_factor", counted)
        assert unit_square.walk_memo == {}
        rec = _record(unit_square, (0, 1))
        assert unit_square.lu_memo[(0, 1)] is entry and calls == []
        assert unit_square.walk_memo == {(0, 1): rec}
        assert _record(unit_square, (0, 1)) is rec
        _record(unit_square, (1, 2))
        assert set(unit_square.lu_memo) == {(0, 1), (1, 2)}
        assert set(unit_square.walk_memo) == {(0, 1), (1, 2)}
        assert len(calls) == 1

    @pytest.mark.parametrize("lp, seed", factor_instances())
    def test_a_filled_memo_changes_no_walk(self, lp, seed):
        # the walk memo lives as long as the program: a walk over the
        # records and pivots an earlier walk left ends, counts and traces
        # as the same walk on a copy that starts with empty memos
        nlp = normalize(lp)
        cert = certify_delta(nlp)
        boxed = bounding_box(nlp, certified_radius(nlp, cert))
        start = phase1_vertex(nlp, boxed)
        fresh = afresh(boxed)

        def walk(prog):
            buf = io.StringIO()
            return run_walk(prog, start,
                            alpha=default_alpha(boxed.n, cert.delta),
                            steps=2000, seed=seed, trace=buf,
                            _beta=float(boxed.n**2)), buf.getvalue()

        walk(boxed)
        filled = dict(boxed.walk_memo)
        crossed = {basis: dict(rec.across) for basis, rec in filled.items()}
        assert filled and fresh.walk_memo == {}
        again, trace = walk(boxed)
        # every record and pivot it needed was read, none made again: no
        # basis joined the memo and no record's crossings grew
        assert boxed.walk_memo.keys() == filled.keys()
        assert all(boxed.walk_memo[key] is v for key, v in filled.items())
        assert {basis: rec.across for basis, rec in filled.items()} == crossed
        assert (again, trace) == walk(fresh)
