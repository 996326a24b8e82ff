import numpy as np
import pytest

from conewalk.errors import Infeasible, Unbounded
from conewalk.geometry import det_abs
from conewalk.lp import (
    DeltaCertificate,
    DeltaMethod,
    LinearProgram,
    NormalizedLP,
    delta_bruteforce,
    normalize,
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
from conewalk.reduction import DEFAULT_MAX_RETRIES, solve
from conewalk.walk import WalkConfig

from conftest import bounded_random_lp, rotate_instance

# A certificate far below the square's true separation of 1: the closed-form
# radius is then 2001, against a largest basic-point norm of sqrt(2).
LOOSE = DeltaCertificate(delta=1e-3, method=DeltaMethod.INTEGER_BOUND)


def _largest_basic_norm(nlp):
    return max(float(np.linalg.norm(x))
               for _, x in _all_basic_points(nlp, ENUMERATION_LIMIT))


class TestFindIndependentRows:
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
        m, n = unit_square.m, unit_square.n
        dirs = unit_square.A[[0, 1]]
        assert np.array_equal(boxed.A[m:], np.vstack([dirs, -dirs]))
        assert np.array_equal(boxed.b[m:], np.full(2 * n, 1.0))

    def test_contains_the_ball(self, unit_square):
        # |a.x| <= ||x|| for unit a, so the R-slabs contain the R-ball
        boxed = bounding_box(unit_square, 2.0)
        m = unit_square.m
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = rng.standard_normal(2)
            x *= 2.0 * rng.random() / np.linalg.norm(x)
            assert np.all(boxed.A[m:] @ x <= boxed.b[m:] + 1e-12)

    def test_contains_square_corners(self, unit_square):
        boxed = bounding_box(unit_square, 2.0)
        m = unit_square.m
        for corner in ([0, 0], [0, 1], [1, 0], [1, 1]):
            x = np.array(corner, float)
            assert np.all(boxed.A[m:] @ x <= boxed.b[m:] + 1e-12)

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
            NormalizedLP(A=boxed.A, b=boxed.b, c=boxed.c,
                         row_labels=boxed.row_labels)
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

    def test_bare_float_is_certified_first(self, triangle):
        # a claimed separation above the true one would shrink the box
        cert = delta_bruteforce(triangle)
        assert certified_radius(triangle, 1.0) == certified_radius(triangle, cert)
        assert certified_radius(triangle, 1e-3) == certified_radius(triangle, cert)


class TestAugmentedLp:
    """The boxed program: the input's rows, then the directions, then
    their negations."""

    def test_shape_and_labels(self):
        nlp = normalize(tu_instance_generator("network", 3, 10, 4))
        boxed = bounding_box(nlp, 2.5)
        m, n = nlp.m, nlp.n
        assert (boxed.m, boxed.n) == (m + 2 * n, n)
        assert boxed.row_labels == tuple(range(1, m + 2 * n + 1))
        assert np.array_equal(boxed.A[:m], nlp.A)
        assert np.array_equal(boxed.b[:m], nlp.b)
        assert np.array_equal(boxed.c, nlp.c)
        dirs = nlp.A[list(find_independent_rows(nlp))]
        assert np.array_equal(boxed.A[m:], np.vstack([dirs, -dirs]))
        assert np.array_equal(boxed.b[m:], np.full(2 * n, 2.5))

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
            NormalizedLP(A=region.A, b=region.b, c=region.c,
                         row_labels=region.row_labels)
            regions.append(region)
            return real(region, start, objective)

        monkeypatch.setattr(phase1_module, "bland_simplex", checked)
        lp = pad_redundant(tu_instance_generator("network", 4, 14, 11), 30, 11)
        rep = solve(lp, WalkConfig(seed=0))
        nlp = normalize(lp)
        m, n = nlp.m, nlp.n
        assert len(regions) == m
        boxed = bounding_box(nlp, certified_radius(nlp, delta_bruteforce(nlp)))
        box_first_A = np.vstack([boxed.A[m:], nlp.A])
        box_first_b = np.concatenate([boxed.b[m:], nlp.b])
        for i, region in enumerate(regions):
            assert np.array_equal(region.A, box_first_A[:2 * n + i])
            assert np.array_equal(region.b, box_first_b[:2 * n + i])
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
        region = normalize(LinearProgram(
            A=np.vstack([boxed.A[lp.m:], lp.A[:i]]),
            b=np.concatenate([boxed.b[lp.m:], lp.b[:i]]),
            c=lp.c))
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
        start = phase1_vertex(nlp, boxed)
        with pytest.raises(Unbounded):
            solve_bounded(nlp, boxed, WalkConfig(seed=0), start,
                          delta_bruteforce(nlp).delta,
                          max_retries=DEFAULT_MAX_RETRIES)

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
