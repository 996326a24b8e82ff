import numpy as np
import pytest

from conewalk.errors import Infeasible, Unbounded
from conewalk.geometry import det_abs
from conewalk.lp import (
    ENUMERATION_LIMIT,
    DeltaCertificate,
    DeltaMethod,
    LinearProgram,
    delta_bruteforce,
    normalize,
)
from conewalk.oracle import (
    _all_basic_points,
    enumerate_vertices,
    pad_redundant,
    tu_instance_generator,
)
from conewalk.phase1 import (
    augmented_lp,
    bounding_box,
    box_constraint_rows,
    certified_radius,
    find_independent_rows,
    phase1_vertex,
)
from conewalk.reduction import solve
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
        box = bounding_box(unit_square, 1.0)
        assert box.direction_rows == (0, 1)
        np.testing.assert_allclose(box.gamma, [1.0, 1.0])
        np.testing.assert_allclose(box.beta, [-1.0, -1.0])

    def test_contains_the_ball(self, unit_square):
        # |a.x| <= ||x|| for unit a, so the R-slabs contain the R-ball
        box = bounding_box(unit_square, 2.0)
        A_box, b_box = box_constraint_rows(unit_square, box)
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = rng.standard_normal(2)
            x *= 2.0 * rng.random() / np.linalg.norm(x)
            assert np.all(A_box @ x <= b_box + 1e-12)

    def test_contains_square_corners(self, unit_square):
        box = bounding_box(unit_square, 2.0)
        A_box, b_box = box_constraint_rows(unit_square, box)
        for corner in ([0, 0], [0, 1], [1, 0], [1, 1]):
            assert np.all(A_box @ np.array(corner, float) <= b_box + 1e-12)

    def test_rejects_nonpositive_radius(self, unit_square):
        with pytest.raises(ValueError):
            bounding_box(unit_square, 0.0)


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

    def test_bare_float_is_certified_first(self, triangle):
        # a claimed separation above the true one would shrink the box
        cert = delta_bruteforce(triangle)
        assert certified_radius(triangle, 1.0) == certified_radius(triangle, cert)
        assert certified_radius(triangle, 1e-3) == certified_radius(triangle, cert)


class TestAugmentedLp:
    def test_shape_and_labels(self, unit_square):
        box = bounding_box(unit_square, 2.0)
        aug = augmented_lp(unit_square, box)
        assert aug.m == unit_square.m + 4
        assert aug.row_labels == (1, 2, 3, 4, 5, 6, 7, 8)
        np.testing.assert_allclose(aug.A[:4], unit_square.A)

    def test_separation_survives_augmentation(self, unit_square):
        # box rows only negate existing directions
        box = bounding_box(unit_square, 2.0)
        aug = augmented_lp(unit_square, box)
        assert delta_bruteforce(aug).delta == pytest.approx(
            delta_bruteforce(unit_square).delta, abs=1e-9)


class TestPhase1Vertex:
    def test_square_returns_a_vertex_of_the_region(self, unit_square):
        box = bounding_box(unit_square, 2.0)
        v = phase1_vertex(unit_square, box)
        aug = augmented_lp(unit_square, box)
        assert aug.is_feasible(v.point)
        # exactly n rows of the augmented system are tight
        tight = np.sum(np.abs(aug.A @ v.point - aug.b) <= aug.feas_tol())
        assert tight == unit_square.n
        corners = [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert any(np.allclose(v.point, c, atol=1e-9) for c in corners)

    def test_infeasible_with_witness(self):
        # x <= 0 and -x <= -1 cannot both hold; y is boxed to keep rank
        lp = normalize(LinearProgram(
            A=[[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
            b=[0.0, -1.0, 1.0, 0.0], c=[1.0, 1.0]))
        box = bounding_box(lp, 2.0)
        with pytest.raises(Infeasible) as exc_info:
            phase1_vertex(lp, box)
        assert exc_info.value.iteration == 2
        # the witness value is the certified minimum of row 2 over the
        # previous region: min(-x) for x in [-2, 0] is 0 > -1
        assert exc_info.value.value == pytest.approx(0.0, abs=1e-9)

    def test_witness_recheckable_by_enumeration(self):
        lp = normalize(LinearProgram(
            A=[[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
            b=[0.0, -1.0, 1.0, 0.0], c=[1.0, 1.0]))
        box = bounding_box(lp, 2.0)
        with pytest.raises(Infeasible) as exc_info:
            phase1_vertex(lp, box)
        i = exc_info.value.iteration - 1
        A_box, b_box = box_constraint_rows(lp, box)
        region = normalize(LinearProgram(
            A=np.vstack([A_box, lp.A[:i]]),
            b=np.concatenate([b_box, lp.b[:i]]),
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
        box = bounding_box(lp, 1.0)
        v = phase1_vertex(lp, box)
        np.testing.assert_allclose(np.abs(v.point), [1.0, 1.0], atol=1e-9)
        assert lp.is_feasible(v.point)

    def test_feasible_random_instances(self):
        for seed in range(10):
            nlp = bounded_random_lp(3, 3, seed + 40)
            box = bounding_box(nlp, 4.0)
            v = phase1_vertex(nlp, box)
            assert nlp.is_feasible(v.point)
            assert np.all(np.abs(v.point) <= 4.0 + 1e-7)


class TestSolveBoundedViaSolve:
    def test_unbounded_half_plane(self):
        lp = LinearProgram(A=[[-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                           b=[0.0, 1.0, 0.0], c=[1.0, 0.0])
        with pytest.raises(Unbounded):
            solve(lp, WalkConfig(seed=0))

    def test_degenerate_box_contact_is_unbounded(self):
        # a bounded square, but the caller-supplied radius grazes the
        # optimal vertex: conservatively reported unbounded
        lp = LinearProgram(
            A=[[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
            b=[2.0, 2.0, 0.0, 0.0], c=[3.0, 4.0])
        with pytest.raises(Unbounded):
            solve(lp, WalkConfig(seed=0), radius=1.0)

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

    def test_explicit_radius_still_solves(self, unit_square):
        rep = solve(unit_square, WalkConfig(seed=0), radius=10.0)
        assert rep.basis == (0, 1)
