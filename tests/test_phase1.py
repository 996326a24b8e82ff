import math
from fractions import Fraction

import numpy as np
import pytest

import conewalk.phase1 as phase1_module
import conewalk.simplex as simplex_module
from conewalk.errors import (
    FaceReachesBox,
    Infeasible,
    RankDeficient,
    TooLarge,
    Unbounded,
)
from conewalk.geometry import det_abs, dist_to_span, lu_factor, lu_solve
from conewalk.lp import (
    DeltaCertificate,
    DeltaMethod,
    LinearProgram,
    NormalizedLP,
    delta_bruteforce,
    delta_from_structure,
    delta_integer_bound,
    find_independent_rows,
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
    infeasibility,
    phase1_vertex,
    solve_bounded,
)
from conewalk.reduction import certify_delta, solve, walked_program
from conewalk.simplex import (
    basis_factors,
    basis_matrix,
    bland_simplex,
    cone_membership,
)
from conewalk.tolerances import SPAN_TOL
from conewalk.walk import WalkConfig

from conftest import (
    bounded_random_lp,
    exact_solve,
    memo_vertex_is_afresh,
    random_rotation,
    rotate_instance,
)

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


def plus_corner_phase1(lp, boxed):
    """The former start, kept as the reference: phase 1's descents from the
    box corner where the directions, not their negations, are tight."""
    n = lp.n
    ftol = lp.feas_tol()
    basis = tuple(range(n))
    for i, (a, minus_a, rhs) in enumerate(zip(lp.A, -lp.A, lp.b.tolist())):
        basis = bland_simplex(boxed, basis, minus_a, rows=2 * n + i)
        value = float(a @ basis_factors(boxed, basis)[1])
        if value > rhs + ftol:
            raise infeasibility(i, value, rhs)
    return basis


def counted_phase1(monkeypatch, run, lp, radius):
    """run(lp, boxed), boxed being bounding_box(lp, radius): the raised
    Infeasible or the returned basis, the simplex.pivot_across_facet calls
    it made, and boxed."""
    calls = []

    def pivot(*args, real=simplex_module.pivot_across_facet, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    boxed = bounding_box(lp, radius)
    with monkeypatch.context() as patch:
        patch.setattr(simplex_module, "pivot_across_facet", pivot)
        try:
            result = run(lp, boxed)
        except Infeasible as exc:
            result = exc
    return result, len(calls), boxed


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
            rows = find_independent_rows(lp.A)
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
                    assert find_independent_rows(prog.A) == \
                        greedy_independent_rows(prog)

    def test_square(self, unit_square):
        assert find_independent_rows(unit_square.A) == (0, 1)

    def test_skips_duplicates(self):
        lp = normalize(LinearProgram(
            A=[[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
            b=[1.0, 2.0, 1.0], c=[1.0, 1.0]))
        assert find_independent_rows(lp.A) == (0, 2)

    def test_chosen_rows_are_independent(self):
        for seed in range(10):
            nlp = bounded_random_lp(3, 4, seed)
            rows = find_independent_rows(nlp.A)
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
            dirs = nlp.A[list(find_independent_rows(nlp.A))]
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
        dirs = nlp.A[list(find_independent_rows(nlp.A))]
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

        def checked(prog, start, objective, *, rows=None):
            # the public constructor runs every check on the region, the
            # first rows of the program the descent runs on
            NormalizedLP(A=prog.A[:rows], b=prog.b[:rows], c=prog.c)
            regions.append((prog, rows))
            return real(prog, start, objective, rows=rows)

        def vertex(walked, boxed, real=phase1_module.phase1_vertex):
            given.append(boxed)
            return real(walked, boxed)

        given = []
        monkeypatch.setattr(phase1_module, "bland_simplex", checked)
        monkeypatch.setattr(phase1_module, "phase1_vertex", vertex)
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
        # every descent runs on the boxed program phase 1 was given, itself
        assert [(prog is given[0], rows) for prog, rows in regions] == \
            [(True, 2 * n + i) for i in range(m)]
        for prog, _ in regions:
            assert np.array_equal(prog.A, boxed.A)
            assert np.array_equal(prog.b, boxed.b)
            assert np.array_equal(prog.c, nlp.c)
        assert lp.is_feasible(rep.x, tol=1e-9)

    def test_builds_no_program_per_row(self, monkeypatch):
        # each descent bounds Bland's rule to boxed's first rows, so phase 1
        # neither derives nor constructs a program: no prefix per row
        import conewalk.phase1 as phase1_module

        nlp = normalize(tu_instance_generator("network", 4, 14, 3))
        boxed = bounding_box(nlp, certified_radius(
            nlp, delta_from_structure(nlp)))
        expected = phase1_vertex(nlp, boxed)
        built = []

        def derived(*args, real=phase1_module._derived, **kwargs):
            built.append("derived")
            return real(*args, **kwargs)

        def post_init(self, real=NormalizedLP.__post_init__):
            built.append("constructed")
            real(self)

        monkeypatch.setattr(phase1_module, "_derived", derived)
        monkeypatch.setattr(NormalizedLP, "__post_init__", post_init)
        basis = phase1_vertex(nlp, boxed)
        assert built == []
        assert basis == expected
        assert memo_vertex_is_afresh(boxed, basis)

    def test_square_returns_a_vertex_of_the_region(self, unit_square):
        boxed = bounding_box(unit_square, 2.0)
        x = basis_factors(boxed, phase1_vertex(unit_square, boxed))[1]
        assert boxed.is_feasible(x)
        # exactly n rows of the boxed program are tight
        tight = np.sum(np.abs(boxed.A @ x - boxed.b) <= boxed.feas_tol())
        assert tight == unit_square.n
        corners = [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert any(np.allclose(x, c, atol=1e-9) for c in corners)

    def test_returns_a_vertex_of_the_boxed_program(self, unit_square):
        # the basis indexes boxed as it is: the vertex boxed's memo keeps
        # for it is its tight system's solve there, bit for bit
        boxed = bounding_box(unit_square, 2.0)
        assert memo_vertex_is_afresh(boxed, phase1_vertex(unit_square, boxed))
        for kind in ("box", "interval", "network"):
            for seed in range(6):
                nlp = normalize(tu_instance_generator(kind, 4, 14, seed))
                radius = certified_radius(nlp, delta_bruteforce(nlp))
                boxed = bounding_box(nlp, radius)
                basis = phase1_vertex(nlp, boxed)
                assert boxed.is_feasible(boxed.lu_memo[basis][1])
                assert memo_vertex_is_afresh(boxed, basis)

    @pytest.mark.parametrize("kind", ["box", "interval", "network"])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_start_point_stays_within_rounding_of_its_basis_solve(
            self, kind, n):
        # the walk starts from the vertex of phase 1's basis, kept in the
        # boxed program's memo: bit for bit its solve afresh, with no drift
        for seed in range(6):
            nlp = normalize(tu_instance_generator(kind, n, 2 * n + 6, seed))
            kept = tightest_rows(nlp.A, nlp.b)
            walked = NormalizedLP(A=nlp.A[kept], b=nlp.b[kept], c=nlp.c)
            radius = certified_radius(walked, delta_from_structure(walked))
            boxed = bounding_box(walked, radius)
            assert memo_vertex_is_afresh(boxed, phase1_vertex(walked, boxed))

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
        boxed = bounding_box(lp, 1.0)
        x = basis_factors(boxed, phase1_vertex(lp, boxed))[1]
        np.testing.assert_allclose(np.abs(x), [1.0, 1.0], atol=1e-9)
        assert lp.is_feasible(x)

    def test_feasible_random_instances(self):
        for seed in range(10):
            nlp = bounded_random_lp(3, 3, seed + 40)
            boxed = bounding_box(nlp, 4.0)
            x = basis_factors(boxed, phase1_vertex(nlp, boxed))[1]
            assert nlp.is_feasible(x)
            assert np.all(np.abs(x) <= 4.0 + 1e-7)


class TestNegatedCornerStart:
    """Phase 1 starts where the former start's first n descents ended."""

    @pytest.mark.parametrize("kind", ["box", "interval", "network"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_saves_exactly_n_pivots_and_changes_nothing_else(
            self, monkeypatch, kind, n):
        # the generator's first n rows are the axis directions, so they are
        # the box directions, and the former start's first n descents each
        # crossed the box, by an exact flip of +radius to -radius
        for seed in range(10):
            lp = tu_instance_generator(kind, n, min(3 * n + 2, 30), seed)
            _, walked = walked_program(normalize(lp))
            assert find_independent_rows(walked.A) == tuple(range(n))
            radius = certified_radius(walked, delta_from_structure(walked))
            basis, pivots, boxed = counted_phase1(monkeypatch, phase1_vertex,
                                                  walked, radius)
            ref, ref_pivots, _ = counted_phase1(
                monkeypatch, plus_corner_phase1, walked, radius)
            assert basis == ref, seed
            assert memo_vertex_is_afresh(boxed, basis), seed
            assert pivots == ref_pivots - n, (seed, pivots, ref_pivots)

    @pytest.mark.parametrize("K", [8, 16, 24])
    def test_k_gon_keeps_the_basis_and_the_infeasible_row(
            self, monkeypatch, K):
        # general rows: the box directions are the K-gon's rows 0 and 1, and
        # the flips are no longer exact, so only the basis (or the
        # certified row, its value within rounding of radius) is the same;
        # an odd seed sets one row 0.1 past its opposite row, infeasible
        theta = 2.0 * np.pi * (np.arange(K) + 0.3) / K
        A = np.column_stack([np.cos(theta), np.sin(theta)])
        for seed in range(12):
            rng = np.random.default_rng(seed)
            b = rng.uniform(0.5, 1.5, size=K)
            if seed % 2:
                k = int(rng.integers(K))
                b[k] = -b[(k + K // 2) % K] - 0.1
            lp = NormalizedLP(A=A, b=b, c=[1.0, 0.0])
            radius = certified_radius(lp, delta_bruteforce(lp))
            v, pivots, boxed = counted_phase1(monkeypatch, phase1_vertex, lp,
                                              radius)
            ref, ref_pivots, _ = counted_phase1(
                monkeypatch, plus_corner_phase1, lp, radius)
            assert type(v) is type(ref), seed
            assert isinstance(v, Infeasible) == bool(seed % 2), seed
            if isinstance(ref, Infeasible):
                assert v.iteration == ref.iteration, seed
                assert v.value == pytest.approx(ref.value, abs=1e-12 * radius)
            else:
                assert v == ref, seed
                assert memo_vertex_is_afresh(boxed, v), seed
            assert pivots == ref_pivots - 2, (seed, pivots, ref_pivots)


class TestBoxDirectionsNotTheFirstRows:
    """Rows 0 and 2 are the box directions: the start changes phase 1's
    path, not its verdicts."""

    A = [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [1.0, 1.0]]

    @staticmethod
    def highs_first_infeasible_row(lp):
        """The least i with rows 0..i infeasible by HiGHS, else None."""
        from scipy.optimize import linprog

        for i in range(lp.m):
            res = linprog(np.zeros(lp.n), A_ub=lp.A[:i + 1], b_ub=lp.b[:i + 1],
                          bounds=[(None, None)] * lp.n, method="highs")
            assert res.status in (0, 2), res.message
            if res.status == 2:
                return i
        return None

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_highs(self, seed):
        from scipy.optimize import linprog

        rng = np.random.default_rng(seed)
        lp = LinearProgram(A=self.A, b=rng.uniform(-0.5, 1.0, size=5),
                           c=rng.standard_normal(2))
        nlp = normalize(lp)
        assert find_independent_rows(nlp.A) == (0, 2)
        boxed = bounding_box(nlp, certified_radius(nlp, delta_bruteforce(nlp)))
        first = self.highs_first_infeasible_row(nlp)
        if first is not None:
            with pytest.raises(Infeasible) as info:
                solve(lp, WalkConfig(seed=seed))
            assert info.value.iteration == first + 1
            return
        x = basis_factors(boxed, phase1_vertex(nlp, boxed))[1]
        assert (boxed.A @ x <= boxed.b + nlp.feas_tol()).all()
        rep = solve(lp, WalkConfig(seed=seed))
        ref = linprog(-lp.c, A_ub=lp.A, b_ub=lp.b,
                      bounds=[(None, None)] * 2, method="highs")
        assert ref.status == 0
        assert rep.value == pytest.approx(-ref.fun, abs=1e-9)
        np.testing.assert_allclose(rep.x, ref.x, rtol=0.0, atol=1e-9)

    def test_infeasible_twin_fails_at_the_last_row(self):
        # the box of rows 0-3 holds x + y >= -1, so x + y <= -1.5 (row 4)
        # is the first row HiGHS cannot add
        lp = LinearProgram(A=self.A, b=[1.0, 0.5, 1.0, 0.5, -1.5],
                           c=[1.0, 1.0])
        assert self.highs_first_infeasible_row(normalize(lp)) == 4
        with pytest.raises(Infeasible) as info:
            solve(lp, WalkConfig(seed=0))
        assert info.value.iteration == 5


def crossed_bound_program(kind, n, m, seed):
    """tu_instance_generator's program with the row -x_axis <= -(u + 1/16)
    appended against its upper bound x_axis <= u (axis = seed % n), as
    perfbench's verdicts build an infeasible instance."""
    base = tu_instance_generator(kind, n, m, seed)
    axis = seed % n
    row = np.zeros(n)
    row[axis] = -1.0
    return LinearProgram(A=np.vstack([base.A, row]),
                         b=np.append(base.b, -(base.b[axis] + 1.0 / 16.0)),
                         c=base.c)


def walked_and_boxed(lp):
    """The input positions of the walked rows, the walked program and the
    boxed one, built as solve builds them."""
    kept, walked = walked_program(normalize(lp))
    radius = certified_radius(walked, certify_delta(walked))
    return kept, walked, bounding_box(walked, radius)


class TestInfeasibleWitness:
    """Infeasible's value is row i's minimum at the vertex of the last
    descent's basis, as that basis's solve gives it: rounded once from the
    exact value, not summed over the descent's pivots.  solve certifies
    these crossed bounds from the pair of rows before phase 1 runs
    (lp.crossed_opposite_rows), so phase 1 is driven directly on the
    programs solve would build."""

    @pytest.mark.parametrize("kind", ["box", "interval", "network"])
    @pytest.mark.parametrize("n, m", [(3, 10), (4, 14), (5, 14)])
    def test_value_is_the_final_basis_solve(self, monkeypatch, kind, n, m):
        descents = []

        def recording(prog, basis, objective, *, rows=None,
                      real=phase1_module.bland_simplex):
            out = real(prog, basis, objective, rows=rows)
            descents.append((prog, rows, out))
            return out

        monkeypatch.setattr(phase1_module, "bland_simplex", recording)
        for seed in range(20):
            # the upper bound x_axis <= u is row axis; the appended row asks
            # x_axis >= u + 1/16, so phase 1 certifies it infeasible
            _, walked, boxed = walked_and_boxed(
                crossed_bound_program(kind, n, m, seed))
            descents.clear()
            with pytest.raises(Infeasible) as info:
                phase1_vertex(walked, boxed)
            prog, rows, basis = descents[-1]
            assert prog is boxed, seed
            a = boxed.A[rows]  # the row the last descent minimized
            x = lu_solve(lu_factor(basis_matrix(boxed, basis)),
                         boxed.b.take(basis))
            value = info.value.value
            assert value.hex() == float(a @ x).hex(), seed
            A = [[Fraction(t) for t in boxed.A[p].tolist()] for p in basis]
            exact = sum(Fraction(t) * xi for t, xi in zip(
                a.tolist(), exact_solve(A, [Fraction(boxed.b[p])
                                            for p in basis])))
            assert abs(Fraction(value) - exact) \
                <= Fraction(math.ulp(float(exact))), (seed, value, exact)

    @pytest.mark.parametrize("kind", ["box", "interval", "network"])
    @pytest.mark.parametrize("n, m", [(3, 10), (4, 14), (5, 14)])
    def test_solve_gives_phase_1s_witness(self, monkeypatch, kind, n, m):
        # the pair's witness on these programs is the one phase 1 gives:
        # the same input row and the same value, bit for bit
        reached = []

        def vertex(*args, real=phase1_module.phase1_vertex):
            reached.append(args)
            return real(*args)

        monkeypatch.setattr(phase1_module, "phase1_vertex", vertex)
        for seed in range(20):
            lp = crossed_bound_program(kind, n, m, seed)
            kept, walked, boxed = walked_and_boxed(lp)
            with pytest.raises(Infeasible) as ref:
                phase1_vertex(walked, boxed)
            reached.clear()
            with pytest.raises(Infeasible) as info:
                solve(lp, WalkConfig(seed=seed))
            assert reached == [], seed
            assert info.value.iteration == kept[ref.value.iteration - 1] + 1
            assert info.value.value.hex() == ref.value.value.hex(), seed


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
        basis = bland_simplex(boxed, phase1_vertex(nlp, boxed), boxed.c)
        with pytest.raises(Unbounded) as info:
            solve_bounded(boxed, basis)
        assert info.value.box_row == 0  # x_1 <= 1, the first box row

    def test_a_box_row_of_multiplier_zero_is_no_verdict(self):
        # the half-strip's optimal face x2 = 1 runs to the box: at the box
        # vertex of rows 2 (-x1 <= radius) and 5 (x2 <= 1), c = e2 has
        # cone multiplier 0 on the box row, so the program is bounded
        nlp = normalize(LinearProgram(A=[[1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                                      b=[1.0, 1.0, 0.0], c=[0.0, 1.0]))
        boxed = bounding_box(nlp, certified_radius(nlp, delta_bruteforce(nlp)))
        assert cone_membership(boxed, (2, 5), boxed.c).inside
        with pytest.raises(FaceReachesBox, match=r"box rows \[2\] of the "):
            solve_bounded(boxed, (2, 5))

    def test_a_tight_box_row_outside_the_basis_is_not_contact(self):
        # a box of radius 1 passes through the unit square's optimum (1, 1):
        # box rows 0 and 1 are tight there, but the basis (4, 5) holds the
        # input rows x <= 1 and y <= 1 alone, which prove (1, 1) optimal
        nlp = normalize(LinearProgram(
            A=[[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
            b=[1.0, 1.0, 0.0, 0.0], c=[1.0, 1.0]))
        boxed = bounding_box(nlp, 1.0)
        x = solve_bounded(boxed, (4, 5))
        assert x.tolist() == [1.0, 1.0]
        assert (boxed.A[:2] @ x).tolist() == boxed.b[:2].tolist()

    @pytest.mark.parametrize("scale", [1e7, 1e12, 1e16])
    def test_large_rhs_optimum_is_not_box_contact(self, scale):
        # the feasibility tolerance 1e-7 * (1 + max|b|) exceeds 1 here; at
        # 1e16 a margin of 1 rounds away, the box row meets the optimum and
        # the ratio test ties, while twice the tolerance keeps them apart
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
        basis = bland_simplex(boxed, phase1_vertex(nlp, boxed), boxed.c)
        assert basis in boxed.lu_memo
        x = solve_bounded(boxed, basis)
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
        outside, walks, records, memoized = [], [], [], []

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

        def las_vegas(prog, *args, real=reduction_module._las_vegas_walk):
            basis, stats = real(prog, *args)
            records.append(prog.walk_memo[basis])
            return basis, stats

        def bounded(boxed, basis, real=phase1_module.solve_bounded):
            memoized.append(basis in boxed.lu_memo)
            try:
                return real(boxed, basis)
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
