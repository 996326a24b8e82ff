import numpy as np
import pytest

from conewalk.errors import Infeasible, RankDeficient, TooLarge, Unbounded
from conewalk.geometry import det_abs, dist_to_span, lu_factor, lu_solve
from conewalk.lp import (
    DeltaCertificate,
    DeltaMethod,
    LinearProgram,
    NormalizedLP,
    delta_bruteforce,
    delta_from_structure,
    delta_integer_bound,
    normalize,
    tightest_rows,
)
from conewalk.oracle import (
    ENUMERATION_LIMIT,
    _all_basic_points,
    enumerate_vertices,
    pad_redundant,
    tu_instance_generator,
)
from conewalk.phase1 import (
    bounding_box,
    certified_radius,
    find_independent_rows,
    phase1_vertex,
    solve_bounded,
)
from conewalk.reduction import solve
from conewalk.simplex import bland_simplex, vertex_of_basis
from conewalk.tolerances import SPAN_TOL
from conewalk.walk import WalkConfig

from conftest import bounded_random_lp, random_rotation, rotate_instance

# A certificate far below the square's true separation of 1: the closed-form
# radius is then 2001, against a largest basic-point norm of sqrt(2).
LOOSE = DeltaCertificate(delta=1e-3, method=DeltaMethod.INTEGER_BOUND)


def _largest_basic_norm(nlp):
    return max(float(np.linalg.norm(x))
               for _, x in _all_basic_points(nlp, ENUMERATION_LIMIT))


def greedy_independent_rows(lp):
    """The former rule, kept as the reference: each row's dist_to_span over
    the rows chosen so far, which rebuilds their orthonormal basis."""
    chosen = []
    for i in range(lp.m):
        if dist_to_span(lp.A[i], lp.A[chosen] if chosen else []) > SPAN_TOL:
            chosen.append(i)
            if len(chosen) == lp.n:
                return tuple(chosen)
    raise RankDeficient("fewer than n independent rows")


def near_span_lp(n, seed):
    """Rows whose residual to the span of the rows before lies within a
    factor of 2 of SPAN_TOL, on both sides of it, then n generic rows.

    Returns the program, the position of the first such row and its
    residual.
    """
    rng = np.random.default_rng(seed)
    q = random_rotation(n, rng)  # rows: an orthonormal basis of R^n
    k = int(rng.integers(1, n))  # the first k rows of q span S
    rows = list(q[:k])
    eps = SPAN_TOL * 2.0 ** rng.uniform(-1.0, 1.0, size=3)
    for e in eps:
        # a unit vector of S plus e times a unit normal to S: its norm is
        # 1 within an ulp, and its distance to S is e
        s = rng.standard_normal(k) @ q[:k]
        rows.append(s / np.linalg.norm(s) + e * q[k])
    rows += list(q[rng.permutation(n)])
    A = np.array(rows)
    return NormalizedLP(A=A, b=np.ones(len(A)), c=q[0]), k, eps[0]


class TestFindIndependentRows:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_the_greedy_reference_near_the_span_tolerance(self, n):
        taken = skipped = 0
        for seed in range(40):
            lp, first, eps = near_span_lp(n, seed)
            rows = find_independent_rows(lp)
            assert rows == greedy_independent_rows(lp)
            # the first near row is decided by the residual built in
            assert (first in rows) == (eps > SPAN_TOL)
            taken += first in rows
            skipped += first not in rows
        assert taken and skipped

    @pytest.mark.parametrize("kind", ["box", "interval", "network"])
    def test_matches_the_greedy_reference_with_parallel_rows(self, kind):
        for seed in range(8):
            base = tu_instance_generator(kind, 4, 12, seed)
            # box rows negate each other; padding repeats directions
            for lp in (base, pad_redundant(base, 30, seed)):
                A = np.vstack([-lp.A[::-1], lp.A])
                for prog in (normalize(lp), normalize(LinearProgram(
                        A=A, b=np.ones(len(A)), c=lp.c))):
                    assert find_independent_rows(prog) == \
                        greedy_independent_rows(prog)

    def test_square(self, unit_square):
        assert find_independent_rows(unit_square) == (0, 1)

    def test_skips_duplicates(self):
        lp = normalize(LinearProgram(
            A=[[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
            b=[1.0, 2.0, 1.0], c=[1.0, 1.0]))
        assert find_independent_rows(lp) == (0, 2)

    def test_chosen_rows_are_independent(self):
        for seed in range(10):
            nlp = bounded_random_lp(3, 4, seed)
            rows = find_independent_rows(nlp)
            assert det_abs(nlp.A[list(rows)]) > 1e-10


class TestBoundingBox:
    def test_square_slabs(self, unit_square):
        boxed = bounding_box(unit_square, 1.0)
        n = unit_square.n
        dirs = unit_square.A[[0, 1]]
        assert np.array_equal(boxed.A[:2 * n], np.vstack([dirs, -dirs]))
        assert np.array_equal(boxed.b[:2 * n], np.full(2 * n, 1.0))

    def test_contains_the_ball(self, unit_square):
        # |a.x| <= ||x|| for unit a, so the R-slabs contain the R-ball
        boxed = bounding_box(unit_square, 2.0)
        n = unit_square.n
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = rng.standard_normal(2)
            x *= 2.0 * rng.random() / np.linalg.norm(x)
            assert np.all(boxed.A[:2 * n] @ x <= boxed.b[:2 * n] + 1e-12)

    def test_contains_square_corners(self, unit_square):
        boxed = bounding_box(unit_square, 2.0)
        n = unit_square.n
        for corner in ([0, 0], [0, 1], [1, 0], [1, 1]):
            x = np.array(corner, float)
            assert np.all(boxed.A[:2 * n] @ x <= boxed.b[:2 * n] + 1e-12)

    @pytest.mark.parametrize("kind", ["box", "interval", "network"])
    def test_box_rows_come_first(self, kind):
        # position p < 2n is box row p, position 2n + i is lp's row i
        for seed in range(4):
            nlp = normalize(pad_redundant(
                tu_instance_generator(kind, 4, 12, seed), 30, seed))
            boxed = bounding_box(nlp, 6.5)
            n = nlp.n
            dirs = nlp.A[list(find_independent_rows(nlp))]
            assert np.array_equal(boxed.A[:n], dirs)
            assert np.array_equal(boxed.A[n:2 * n], -dirs)
            assert np.array_equal(boxed.b[:2 * n], np.full(2 * n, 6.5))
            assert np.array_equal(boxed.A[2 * n:], nlp.A)
            assert np.array_equal(boxed.b[2 * n:], nlp.b)

    def test_rejects_nonpositive_radius(self, unit_square):
        with pytest.raises(ValueError):
            bounding_box(unit_square, 0.0)

    @pytest.mark.parametrize("radius", [float("nan"), float("inf"), -1.0])
    def test_rejects_nonfinite_or_negative_radius(self, unit_square, radius):
        with pytest.raises(ValueError, match="radius"):
            bounding_box(unit_square, radius)

    def test_passes_public_validation(self):
        # built without re-validation, it must still be a valid program
        for lp in (tu_instance_generator("network", 4, 16, 3),
                   pad_redundant(tu_instance_generator("box", 3, 8, 5), 30, 5)):
            nlp = normalize(lp)
            boxed = bounding_box(nlp, 9.0)
            NormalizedLP(A=boxed.A, b=boxed.b, c=boxed.c)
            assert not boxed.A.flags.writeable and not boxed.b.flags.writeable


class TestCertifiedRadius:
    """The closed-form radius holds every basic point the oracle finds."""

    # n=5 pads to 30 rows: C(42, 5) basic systems would need ~0.7 GB.
    @pytest.mark.parametrize("kind", ["box", "interval", "network"])
    @pytest.mark.parametrize("n,padded_m", [(2, 42), (3, 42), (4, 42), (5, 30)])
    def test_dominates_basic_points(self, kind, n, padded_m):
        base = tu_instance_generator(kind, n, 2 * n + 4, 10 * n)
        for lp in (base, pad_redundant(base, padded_m, n)):
            nlp = normalize(lp)
            radius = certified_radius(nlp, delta_bruteforce(nlp))
            assert radius > _largest_basic_norm(nlp)

    def test_dominates_under_rotation_and_row_scaling(self):
        rng = np.random.default_rng(5)
        for seed in range(6):
            lp = rotate_instance(
                tu_instance_generator("network", 3, 10, seed), 70 + seed)
            scale = np.exp(rng.uniform(-3.0, 3.0, size=lp.m))
            nlp = normalize(LinearProgram(A=lp.A * scale[:, None],
                                          b=lp.b * scale, c=lp.c))
            radius = certified_radius(nlp, delta_bruteforce(nlp))
            assert radius > _largest_basic_norm(nlp)

    def test_closed_form(self, unit_square):
        cert = delta_bruteforce(unit_square)
        assert certified_radius(unit_square, cert) == pytest.approx(
            2 * 1.0 / cert.delta + 1.0)
        assert certified_radius(unit_square, LOOSE) == pytest.approx(2001.0)

    @pytest.mark.parametrize("scale", [1.0, 1e7, 1e12])
    def test_margin_exceeds_the_contact_tolerance(self, scale):
        # at n=1 the bound n*max|b|/delta is met by the optimum itself, so
        # only the margin keeps the box row slack there
        nlp = normalize(LinearProgram(A=[[1.0], [-1.0]], b=[scale, 0.0],
                                      c=[1.0]))
        margin = certified_radius(nlp, delta_bruteforce(nlp)) - scale
        assert margin >= 1.0
        assert margin > nlp.feas_tol()

    def test_corner_slacks_past_the_float_range_are_too_large(self):
        # delta = 1/Delta^2 at n = 1: a radius of 1e308 is finite, but the
        # box-corner slacks, about 2 * radius, are not; at 1e306 they are
        nlp = normalize(LinearProgram(A=[[1.0], [-1.0]], b=[1.0, 0.0],
                                      c=[1.0]))
        with pytest.raises(TooLarge, match="box radius"):
            certified_radius(nlp, delta_integer_bound(nlp.A, 10**154))
        radius = certified_radius(nlp, delta_integer_bound(nlp.A, 10**153))
        assert radius == pytest.approx(1e306)


class TestAugmentedLp:
    """The boxed program: the directions, then their negations, then the
    input's rows."""

    def test_shape_and_rows(self):
        nlp = normalize(tu_instance_generator("network", 3, 10, 4))
        boxed = bounding_box(nlp, 2.5)
        m, n = nlp.m, nlp.n
        assert (boxed.m, boxed.n) == (m + 2 * n, n)
        assert np.array_equal(boxed.A[2 * n:], nlp.A)
        assert np.array_equal(boxed.b[2 * n:], nlp.b)
        assert np.array_equal(boxed.c, nlp.c)
        dirs = nlp.A[list(find_independent_rows(nlp))]
        assert np.array_equal(boxed.A[:2 * n], np.vstack([dirs, -dirs]))
        assert np.array_equal(boxed.b[:2 * n], np.full(2 * n, 2.5))

    def test_separation_survives_augmentation(self, unit_square):
        # box rows only negate existing directions
        boxed = bounding_box(unit_square, 2.0)
        assert delta_bruteforce(boxed).delta == pytest.approx(
            delta_bruteforce(unit_square).delta, abs=1e-9)
        nlp = normalize(tu_instance_generator("interval", 3, 10, 6))
        assert delta_bruteforce(bounding_box(nlp, 7.0)).delta == pytest.approx(
            delta_bruteforce(nlp).delta, abs=1e-9)


class TestPhase1Vertex:
    def test_regions_are_valid_prefixes_of_the_box_first_program(
            self, monkeypatch):
        import conewalk.phase1 as phase1_module

        regions = []
        real = phase1_module.bland_simplex

        def checked(region, start, objective):
            # the public constructor re-runs every check the region skipped
            NormalizedLP(A=region.A, b=region.b, c=region.c)
            regions.append(region)
            return real(region, start, objective)

        monkeypatch.setattr(phase1_module, "bland_simplex", checked)
        lp = pad_redundant(tu_instance_generator("network", 4, 14, 11), 30, 11)
        rep = solve(lp, WalkConfig(seed=0))
        # phase 1 walks the kept rows: the tightest of each direction
        nlp = normalize(lp)
        kept = tightest_rows(nlp.A, nlp.b)
        walked = NormalizedLP(A=nlp.A[kept], b=nlp.b[kept], c=nlp.c)
        m, n = walked.m, walked.n
        assert (m, len(regions)) == (13, 13)
        boxed = bounding_box(walked, certified_radius(
            walked, delta_from_structure(walked)))
        for i, region in enumerate(regions):
            assert np.array_equal(region.A, boxed.A[:2 * n + i])
            assert np.array_equal(region.b, boxed.b[:2 * n + i])
            assert np.array_equal(region.c, nlp.c)
        assert lp.is_feasible(rep.x, tol=1e-9)

    def test_square_returns_a_vertex_of_the_region(self, unit_square):
        boxed = bounding_box(unit_square, 2.0)
        v = phase1_vertex(unit_square, boxed)
        assert boxed.is_feasible(v.point)
        # exactly n rows of the boxed program are tight
        tight = np.sum(np.abs(boxed.A @ v.point - boxed.b) <= boxed.feas_tol())
        assert tight == unit_square.n
        corners = [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert any(np.allclose(v.point, c, atol=1e-9) for c in corners)

    def test_returns_a_vertex_of_the_boxed_program(self, unit_square):
        # the basis indexes boxed as it is: its tight system there gives the
        # point, bit for bit on the square, whose pivots are exact
        boxed = bounding_box(unit_square, 2.0)
        v = phase1_vertex(unit_square, boxed)
        assert v.point.tobytes() == \
            vertex_of_basis(boxed, v.basis).point.tobytes()
        # elsewhere the point sums pivot steps, so rounding may part them
        for kind in ("box", "interval", "network"):
            for seed in range(6):
                nlp = normalize(tu_instance_generator(kind, 4, 14, seed))
                radius = certified_radius(nlp, delta_bruteforce(nlp))
                boxed = bounding_box(nlp, radius)
                v = phase1_vertex(nlp, boxed)
                assert boxed.is_feasible(v.point)
                np.testing.assert_allclose(
                    v.point, vertex_of_basis(boxed, v.basis).point,
                    rtol=0.0, atol=1e-12 * radius)

    @pytest.mark.parametrize("kind", ["box", "interval", "network"])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_start_point_stays_within_rounding_of_its_basis_solve(
            self, kind, n):
        # the walk starts from the point phase 1's pivots summed, not from
        # the solve of its basis: on the programs solve boxes they part by
        # at most about 1e-16 * (1 + radius) (15 of these 54 differ at all),
        # and solving the basis afresh moved no tie and no solve outcome
        for seed in range(6):
            nlp = normalize(tu_instance_generator(kind, n, 2 * n + 6, seed))
            kept = tightest_rows(nlp.A, nlp.b)
            walked = NormalizedLP(A=nlp.A[kept], b=nlp.b[kept], c=nlp.c)
            radius = certified_radius(walked, delta_from_structure(walked))
            boxed = bounding_box(walked, radius)
            v = phase1_vertex(walked, boxed)
            drift = np.max(np.abs(v.point - vertex_of_basis(boxed, v.basis).point))
            assert drift <= 1e-13 * (1.0 + radius), (seed, drift, radius)

    def test_infeasible_with_witness(self):
        # x <= 0 and -x <= -1 cannot both hold; y is boxed to keep rank
        lp = normalize(LinearProgram(
            A=[[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
            b=[0.0, -1.0, 1.0, 0.0], c=[1.0, 1.0]))
        boxed = bounding_box(lp, 2.0)
        with pytest.raises(Infeasible) as exc_info:
            phase1_vertex(lp, boxed)
        assert exc_info.value.iteration == 2
        # the witness value is the certified minimum of row 2 over the
        # previous region: min(-x) for x in [-2, 0] is 0 > -1
        assert exc_info.value.value == pytest.approx(0.0, abs=1e-9)

    def test_witness_recheckable_by_enumeration(self):
        lp = normalize(LinearProgram(
            A=[[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
            b=[0.0, -1.0, 1.0, 0.0], c=[1.0, 1.0]))
        boxed = bounding_box(lp, 2.0)
        with pytest.raises(Infeasible) as exc_info:
            phase1_vertex(lp, boxed)
        i = exc_info.value.iteration - 1
        # the region before row i: the box rows and lp's first i rows
        region = normalize(LinearProgram(A=boxed.A[:2 * lp.n + i],
                                         b=boxed.b[:2 * lp.n + i], c=lp.c))
        assert np.array_equal(region.A[2 * lp.n:], lp.A[:i])
        res = enumerate_vertices(region)
        best = min(float(lp.A[i] @ v.point) for v in res.vertices)
        assert best == pytest.approx(exc_info.value.value, abs=1e-9)
        assert best > lp.b[i]

    def test_slack_constraints_keep_box_corner(self):
        # every original row is slack on the whole box: the result is a
        # box vertex and all m sequential programs are trivial
        lp = normalize(LinearProgram(
            A=[[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
            b=[5.0, 5.0, 5.0, 5.0], c=[1.0, 1.0]))
        v = phase1_vertex(lp, bounding_box(lp, 1.0))
        np.testing.assert_allclose(np.abs(v.point), [1.0, 1.0], atol=1e-9)
        assert lp.is_feasible(v.point)

    def test_feasible_random_instances(self):
        for seed in range(10):
            nlp = bounded_random_lp(3, 3, seed + 40)
            v = phase1_vertex(nlp, bounding_box(nlp, 4.0))
            assert nlp.is_feasible(v.point)
            assert np.all(np.abs(v.point) <= 4.0 + 1e-7)


class TestSolveBoundedViaSolve:
    def test_unbounded_half_plane(self):
        lp = LinearProgram(A=[[-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                           b=[0.0, 1.0, 0.0], c=[1.0, 0.0])
        with pytest.raises(Unbounded):
            solve(lp, WalkConfig(seed=0))

    def test_degenerate_box_contact_is_unbounded(self):
        # a box of radius 1 cuts the square [0, 2]^2 below its optimum
        # (2, 2): the boxed optimum (1, 1) lies on box rows that no input
        # row implies, so a box too small reports a bounded program
        # unbounded.  solve's certified radius never builds such a box.
        nlp = normalize(LinearProgram(
            A=[[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
            b=[2.0, 2.0, 0.0, 0.0], c=[3.0, 4.0]))
        boxed = bounding_box(nlp, 1.0)
        basis = bland_simplex(boxed, phase1_vertex(nlp, boxed), boxed.c).basis
        with pytest.raises(Unbounded) as info:
            solve_bounded(nlp, boxed, basis)
        assert info.value.box_row == 0  # x_1 <= 1, the first box row

    @pytest.mark.parametrize("scale", [1e7, 1e12])
    def test_large_rhs_optimum_is_not_box_contact(self, scale):
        # the feasibility tolerance 1e-7 * (1 + max|b|) exceeds 1 here; a
        # margin of 1 would leave the box row within it of the optimum
        lp = LinearProgram(A=[[1.0], [-1.0]], b=[scale, 0.0], c=[1.0])
        rep = solve(lp, WalkConfig(seed=0))
        assert rep.basis == (0,)
        assert rep.x.tolist() == [scale]
        assert rep.value == scale

    @pytest.mark.parametrize("gap", [1e-4, 1e-5])
    def test_small_infeasibility_survives_a_large_box(self, gap):
        # with LOOSE the box is 1000 times wider than the square; a
        # tolerance scaled by it would swallow the gap and fail later
        lp = LinearProgram(
            A=[[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [-1.0, 0.0]],
            b=[1.0, 1.0, 0.0, 0.0, -(1.0 + gap)], c=[1.0, 1.0])
        with pytest.raises(Infeasible) as exc_info:
            solve(lp, WalkConfig(seed=0), delta=LOOSE)
        assert exc_info.value.iteration == 5

    def test_unbounded_with_a_large_box(self):
        lp = LinearProgram(A=[[-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                           b=[0.0, 1.0, 0.0], c=[1.0, 0.0])
        with pytest.raises(Unbounded):
            solve(lp, WalkConfig(seed=0), delta=LOOSE)

    @pytest.mark.parametrize("kind", ["box", "interval", "network"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_x_is_solved_from_the_given_factors(self, kind, seed):
        # from the factors Bland's rule left in boxed's memo, bit for bit
        # the solve of the tight system A_B x = b_B
        nlp = normalize(tu_instance_generator(kind, 3, 9, seed))
        boxed = bounding_box(nlp, certified_radius(nlp, delta_bruteforce(nlp)))
        basis = bland_simplex(boxed, phase1_vertex(nlp, boxed), boxed.c).basis
        assert basis in boxed.lu_memo
        x = solve_bounded(nlp, boxed, basis)
        rows = list(basis)
        ref = lu_solve(lu_factor(boxed.A[rows]), boxed.b[rows])
        assert x.tobytes() == ref.tobytes()

    @staticmethod
    def factorizations_outside_the_walk(monkeypatch, lp):
        """Solve lp; return how often lu_factor ran after phase 1 and
        before solve_bounded returned, outside run_walk, how many walks
        ran, and whether the walk had left the factors of its final basis
        in the memo of the program solve_bounded got."""
        import conewalk.geometry as geometry_module
        import conewalk.phase1 as phase1_module
        import conewalk.reduction as reduction_module
        import conewalk.simplex as simplex_module
        import conewalk.walk as walk_module

        state = {"after_phase1": False, "walking": False}
        outside, walks, caches, records, memoized = [], [], [], [], []

        def vertex(*args, real=phase1_module.phase1_vertex, **kwargs):
            out = real(*args, **kwargs)
            state["after_phase1"] = True
            return out

        def walk(*args, real=reduction_module.run_walk, **kwargs):
            state["walking"] = True
            walks.append(1)
            try:
                return real(*args, **kwargs)
            finally:
                state["walking"] = False

        def cache(*args, real=reduction_module._WalkCache):
            caches.append(real(*args))
            return caches[-1]

        def las_vegas(*args, real=reduction_module._las_vegas_walk):
            basis, stats = real(*args)
            records.append(caches[-1].records[basis])
            return basis, stats

        def bounded(lp, boxed, basis, real=phase1_module.solve_bounded):
            memoized.append(basis in boxed.lu_memo)
            try:
                return real(lp, boxed, basis)
            finally:
                state["after_phase1"] = False

        for module in (geometry_module, simplex_module, walk_module,
                       phase1_module, reduction_module):
            if not hasattr(module, "lu_factor"):
                continue

            def factor(matrix, real=module.lu_factor):
                if state["after_phase1"] and not state["walking"]:
                    outside.append(1)
                return real(matrix)
            monkeypatch.setattr(module, "lu_factor", factor)
        monkeypatch.setattr(phase1_module, "phase1_vertex", vertex)
        monkeypatch.setattr(phase1_module, "solve_bounded", bounded)
        monkeypatch.setattr(reduction_module, "run_walk", walk)
        monkeypatch.setattr(reduction_module, "_las_vegas_walk", las_vegas)
        monkeypatch.setattr(reduction_module, "_WalkCache", cache)
        solve(lp, WalkConfig(seed=0))
        (_,), (same,) = records, memoized  # one Las Vegas walk
        return len(outside), len(walks), same

    @pytest.mark.parametrize("kind", ["box", "interval", "network"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_x_comes_from_the_walks_factors(self, monkeypatch, kind, seed):
        # the walk factored its final basis; x is solved with those factors
        lp = tu_instance_generator(kind, 3, 9, seed)
        outside, walks, same = self.factorizations_outside_the_walk(
            monkeypatch, lp)
        assert walks > 0
        assert outside == 0
        assert same
