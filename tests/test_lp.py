import itertools
import math
import warnings

import numpy as np
import pytest

import conewalk.lp as lp_module
from conewalk.errors import (
    NonIntegerEntries,
    NotUnitVector,
    RankDeficient,
    TooLarge,
    ZeroObjective,
    ZeroRow,
)
from conewalk.geometry import det_abs, dist_to_span
from conewalk.lp import (
    DeltaCertificate,
    DeltaMethod,
    LinearProgram,
    NormalizedLP,
    crossed_opposite_rows,
    delta_bruteforce,
    delta_from_structure,
    delta_integer_bound,
    find_independent_rows,
    normalize,
    tightest_rows,
)
from conewalk.oracle import check_nondegenerate, pad_redundant, tu_instance_generator
from conewalk.phase1 import bounding_box
from conewalk.reduction import solve
from conewalk.tolerances import DUPLICATE_TOL, SINGULAR_TOL
from conewalk.walk import WalkConfig

from conftest import (
    MIXED_ROWS,
    SQRT2,
    bounded_random_lp,
    make_square,
    make_triangle,
    random_lp,
    rotate_instance,
)

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


@st.composite
def rank_edge_matrices(draw):
    """Matrices near the rank rule's edge: the rows [1, 0] and [+-1, eps]
    with eps log-uniform in [1e-14, 1e-6], or m in n..n+3 nonzero rows of
    integers in [-2, 2], n in 2..4, each row scaled by 10^U(-8, 8)."""
    if draw(st.booleans()):
        eps = 10.0 ** draw(st.floats(-14.0, -6.0))
        return np.array([[1.0, 0.0], [draw(st.sampled_from([1.0, -1.0])), eps]])
    n = draw(st.integers(2, 4))
    rows = draw(st.lists(st.lists(st.integers(-2, 2), min_size=n,
                                  max_size=n).filter(any),
                         min_size=n, max_size=n + 3))
    scale = draw(st.lists(st.floats(-8.0, 8.0), min_size=len(rows),
                          max_size=len(rows)))
    return np.array(rows, dtype=float) * 10.0 ** np.array(scale)[:, None]


@st.composite
def scaled_rows(draw):
    """Programs of m in n..n+6 Gaussian rows, n in 1..5, some entries 0,
    each row and its right-hand side scaled by 10^U(-100, 100)."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(n, n + 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.standard_normal((m, n))
    A[rng.random(A.shape) < 0.3] = 0.0
    A[~A.any(axis=1), 0] = 1.0
    A[:n][np.eye(n, dtype=bool)] = 1.0  # full column rank
    scale = 10.0 ** np.array(draw(st.lists(st.floats(-100.0, 100.0),
                                           min_size=m, max_size=m)))
    return LinearProgram(A=A * scale[:, None],
                         b=rng.uniform(-1.0, 1.0, m) * scale,
                         c=rng.standard_normal(n) + 0.1)


class TestLinearProgram:
    def test_zero_row_rejected(self):
        with pytest.raises(ZeroRow):
            LinearProgram(A=[[1.0, 0.0], [0.0, 0.0]], b=[1.0, 1.0], c=[1.0, 0.0])

    def test_rank_deficient_rejected(self):
        with pytest.raises(RankDeficient):
            LinearProgram(A=[[1.0, 0.0], [2.0, 0.0]], b=[1.0, 1.0], c=[1.0, 0.0])

    def test_rows_within_span_tol_are_rank_deficient(self):
        # opposite rows, not parallel ones, 1e-10 from each other's span:
        # an SVD's rank is 2, the rank rule's (SPAN_TOL = 1e-9) is 1
        with pytest.raises(RankDeficient) as info:
            LinearProgram(A=[[1, 0], [-1, 1e-10]], b=[1, 1], c=[1, 0.5])
        assert str(info.value) == "A does not have full column rank"

    @settings(max_examples=300, deadline=None)
    @given(rank_edge_matrices())
    def test_validation_and_the_box_apply_one_rule(self, A):
        m, n = A.shape
        unit = A / np.linalg.norm(A, axis=1)[:, None]  # normalize's rows
        full = len(find_independent_rows(unit)) == n
        try:
            lp = LinearProgram(A=A, b=np.ones(m), c=np.linspace(1.0, 0.5, n))
        except RankDeficient:
            assert not full
            return
        assert full
        nlp = normalize(lp)
        assert nlp.A.tobytes() == unit.tobytes()
        bounding_box(nlp, 1.0)  # never solve: at delta ~ 1e-9 it runs forever

    @pytest.mark.parametrize("s", [1e15, 1e16])
    def test_rank_is_judged_on_the_unit_rows(self, s):
        # normalize makes the same program at every s > 0: the cut
        # x + y <= 1.5 of the unit square, whose optimum is (0.5, 1)
        lp = LinearProgram(A=[[s, s], [1, 0], [0, 1], [-1, 0], [0, -1]],
                           b=[1.5 * s, 1, 1, 0, 0], c=[1, 2])
        assert solve(lp, WalkConfig(seed=0)).value == 2.5

    @pytest.mark.parametrize("A,b,c,message", [
        ([1.0, 0.0], [1.0, 1.0], [1.0, 0.0], "2-d"),
        ([[1.0, 0.0]], [1.0], [1.0, 0.0], "m >= n"),
        ([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0, 1.0], [1.0, 0.0], "shapes"),
        ([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0], [1.0], "shapes"),
        ([[1.0, math.nan], [0.0, 1.0]], [1.0, 1.0], [1.0, 0.0], "non-finite"),
        ([[1.0, 0.0], [0.0, 1.0]], [1.0, math.inf], [1.0, 0.0], "non-finite"),
        ([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0], [-math.inf, 0.0], "non-finite"),
    ], ids=["1-d-A", "m-below-n", "b-shape", "c-shape", "nan-in-A",
            "inf-in-b", "inf-in-c"])
    def test_malformed_arrays_are_value_errors(self, A, b, c, message):
        with pytest.raises(ValueError, match=message):
            LinearProgram(A=A, b=b, c=c)

    @pytest.mark.parametrize("A,c,message", [
        ([[2.0, 0.0], [0.0, 1.0]], [1.0, 0.0], "rows"),
        ([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0], "objective"),
    ])
    def test_normalized_program_needs_unit_vectors(self, A, c, message):
        with pytest.raises(NotUnitVector, match=message):
            NormalizedLP(A=A, b=[1.0, 1.0], c=c)

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

    @pytest.mark.parametrize("A, b, c", [
        # the scaled right-hand side 1e302 / 1e-8 overflows
        ([[1e-8, 0], [0, 1], [-1, 0], [0, -1]], [1e302, 1, 0, 0], [1, 1]),
        # the squares of the rows' entries overflow their norms
        ([[1e200, 0], [0, 1e200], [-1e200, 0], [0, -1e200]], [1, 1, 0, 0],
         [1, 1]),
        # and the objective's
        ([[1, 0], [0, 1], [-1, 0], [0, -1]], [1, 1, 0, 0], [1e200, 1]),
        # nonzero, but the squares of the entries underflow: the norm
        # cannot scale the row, or the objective
        ([[1, 0], [0, 1], [-1, 0], [0, -1], [1e-170, 1e-170]],
         [1, 1, 0, 0, 1], [1, 1]),
        ([[1, 0], [0, 1], [-1, 0], [0, -1]], [1, 1, 0, 0], [1e-170, 1e-170]),
    ], ids=["rhs", "row-norm", "objective-norm", "row-norm-underflow",
            "objective-norm-underflow"])
    def test_scaling_past_the_float_range_is_too_large(self, A, b, c):
        lp = LinearProgram(A=A, b=b, c=c)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TooLarge, match="float range") as info:
                normalize(lp)
        assert info.value.budget is None  # no other certificate helps

    @pytest.mark.parametrize("rows, objective", [
        (2.0**-40, 1.0), (1.0, 2.0**-40), (2.0**-40, 2.0**-40)],
        ids=["rows", "objective", "both"])
    def test_small_units_solve_as_the_unscaled_program(self, rows, objective):
        # a positive scaling of A and b, or of c, changes neither the region
        # nor the optimum; by a power of 2 it changes no normalized bit
        base = tu_instance_generator("network", 4, 14, 5)
        want = solve(base, WalkConfig(seed=0))
        lp = LinearProgram(A=base.A * rows, b=base.b * rows,
                           c=base.c * objective)
        got = solve(lp, WalkConfig(seed=0))
        assert got.basis == want.basis == (5, 7, 8, 9)
        assert got.x.tobytes() == want.x.tobytes()
        assert got.steps_per_level == want.steps_per_level
        assert got.pivots == want.pivots
        assert got.value == want.value * objective

    def test_same_arrays_as_the_validating_constructor(self):
        # normalize skips NormalizedLP's validation, not its arithmetic:
        # the arrays are the validated constructor's, bit for bit, and
        # read-only
        for seed in range(20):
            base = random_lp(8, 3 + seed % 3, seed)
            scale = 10.0 ** np.random.default_rng(seed).uniform(-3, 3, 8)
            lp = LinearProgram(A=base.A * scale[:, None], b=base.b * scale,
                               c=7.0 * base.c)
            nlp = normalize(lp)
            row_norms = np.linalg.norm(lp.A, axis=1)
            ref = lp_module.NormalizedLP(
                A=lp.A / row_norms[:, None], b=lp.b / row_norms,
                c=lp.c / np.linalg.norm(lp.c))
            for name in ("A", "b", "c"):
                got, want = getattr(nlp, name), getattr(ref, name)
                assert got.tobytes() == want.tobytes(), name
                assert got.shape == want.shape and not got.flags.writeable

    @settings(max_examples=150, deadline=None)
    @given(scaled_rows())
    def test_unit_rows_are_the_plain_division(self, lp):
        # normalize reads the unit rows LinearProgram judged rank by: the
        # plain division by np.linalg.norm, bit for bit, at any row scale
        nlp = normalize(lp)
        norms = np.linalg.norm(lp.A, axis=1)
        assert nlp.A.tobytes() == (lp.A / norms[:, None]).tobytes()
        assert nlp.b.tobytes() == (lp.b / norms).tobytes()

    def test_a_derived_program_normalizes(self):
        # normalize's program skips validation, so it computes its rows'
        # norms when normalize reads them: unit norms, each row and
        # right-hand side divided by its norm
        base = random_lp(8, 3, 5)
        scale = 10.0 ** np.random.default_rng(5).uniform(-3, 3, 8)
        nlp = normalize(LinearProgram(A=base.A * scale[:, None],
                                      b=base.b * scale, c=7.0 * base.c))
        again = normalize(nlp)
        norms = np.linalg.norm(nlp.A, axis=1)
        assert again.A.tobytes() == (nlp.A / norms[:, None]).tobytes()
        assert again.b.tobytes() == (nlp.b / norms).tobytes()
        assert again.c.tobytes() == (nlp.c / np.linalg.norm(nlp.c)).tobytes()

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


def hyperplane_cases():
    """Random programs at n = 2..6, then TU programs at n = 2..5, rotated
    and not."""
    for n in range(2, 7):
        for seed in range(2):
            yield random_lp(n + 2, n, seed)
    for n in range(2, 6):
        for seed, kind in enumerate(("box", "interval", "network")):
            base = tu_instance_generator(kind, n, 2 * n + 1, seed)
            yield normalize(base)
            yield normalize(rotate_instance(base, seed))


class TestHyperplanesOnly:
    """delta is taken over the hyperplanes spanned by n-1 rows alone."""

    def test_matches_every_subset_size(self):
        # brute_delta_reference also takes spans of 0..n-2 rows; it rounds
        # differently (dist_to_span), so the two agree to rounding, either way
        for nlp in hyperplane_cases():
            ref = brute_delta_reference(nlp)
            assert abs(delta_bruteforce(nlp).delta - ref) <= 1e-12 * ref

    def test_one_enumeration_of_n_minus_1_subsets(self, monkeypatch):
        shapes = []
        original = lp_module._subset_distances

        def spy(A, idx):
            shapes.append(idx.shape)
            return original(A, idx)

        monkeypatch.setattr(lp_module, "_subset_distances", spy)
        for nlp in hyperplane_cases():
            shapes.clear()
            delta_bruteforce(nlp)
            d = len(lp_module._distinct_directions(nlp.A))
            assert shapes == [(math.comb(d, nlp.n - 1), nlp.n - 1)]
        shapes.clear()
        cert = delta_bruteforce(normalize(LinearProgram(
            A=[[1.0], [-1.0], [2.0]], b=[1.0, 0.0, 3.0], c=[1.0])))
        assert shapes == []
        assert (cert.delta, cert.witness) == (1.0, (0, ()))

    def test_witness_is_a_hyperplane(self):
        # row 1 alone spans a line exactly as close to row 7 as the plane
        # of rows 0 and 1; the witness is the plane
        nlp = normalize(tu_instance_generator("interval", 3, 8, 0))
        cert = delta_bruteforce(nlp)
        assert cert.delta < 1.0
        assert cert.witness == (7, (0, 1))
        for nlp in hyperplane_cases():
            cert = delta_bruteforce(nlp)
            j, subset = cert.witness
            assert len(subset) == (nlp.n - 1 if cert.delta < 1.0 else 0)
            d = dist_to_span(nlp.A[j], [nlp.A[i] for i in subset])
            assert d == pytest.approx(cert.delta, abs=1e-9)


def first_occurrences(A) -> list[int]:
    """Rows equal, exactly, to no earlier row or to its negation."""
    return [i for i in range(len(A))
            if not any(np.array_equal(A[p], A[i]) or np.array_equal(A[p], -A[i])
                       for p in range(i))]


def with_repeated_rows(seed: int):
    """Random rows, then exact duplicates, negations and scaled copies."""
    rng = np.random.default_rng(seed)
    base = random_lp(5, 3, seed)
    picks = rng.integers(0, base.m, size=6)
    extra = [base.A[picks[0]], base.A[picks[1]], -base.A[picks[2]],
             -base.A[picks[3]], 3.7 * base.A[picks[4]], 0.25 * base.A[picks[5]]]
    order = rng.permutation(base.m + len(extra))
    A = np.vstack([base.A, extra])[order]
    return normalize(LinearProgram(A=A, b=rng.standard_normal(len(A)),
                                   c=base.c))


def repeated_direction_instances():
    for kind in ("box", "interval", "network"):
        base = tu_instance_generator(kind, 3, 8, 3)
        yield normalize(base)
        yield normalize(pad_redundant(base, 20, 3))
    yield normalize(pad_redundant(tu_instance_generator("network", 4, 10, 2),
                                  14, 2))
    for seed in range(6):
        yield with_repeated_rows(seed)


class TestDeltaOverDistinctDirections:
    """The enumeration runs over the first row of each distinct direction."""

    def test_matches_reference_loop(self):
        for nlp in repeated_direction_instances():
            cert = delta_bruteforce(nlp)
            assert abs(cert.delta - brute_delta_reference(nlp)) <= 1e-12

    def test_witness_reevaluates_at_first_occurrences(self):
        for nlp in repeated_direction_instances():
            cert = delta_bruteforce(nlp)
            j, subset = cert.witness
            first = first_occurrences(nlp.A)
            assert j in first and set(subset) <= set(first)
            d = dist_to_span(nlp.A[j], [nlp.A[i] for i in subset])
            assert d == pytest.approx(cert.delta, abs=1e-9)

    def test_padding_does_not_change_delta(self):
        base = tu_instance_generator("network", 4, 12, 9)
        padded = pad_redundant(base, 200, 9)
        assert delta_bruteforce(normalize(padded)).delta == \
            delta_bruteforce(normalize(base)).delta

    def test_budget_counts_distinct_directions(self):
        # the square has d = 2 directions: C(2, 1) * 2 = 4
        square = make_square()
        with pytest.raises(TooLarge):
            delta_bruteforce(square, limit=1)
        delta_bruteforce(square, limit=4)
        with pytest.raises(TooLarge):
            delta_bruteforce(square, limit=3)
        padded = normalize(pad_redundant(square, 100, 0))
        assert delta_bruteforce(padded, limit=4).delta == 1.0

    def test_many_distinct_directions_too_large(self):
        nlp = random_lp(30, 4, 0)
        budget = math.comb(30, 3) * 30
        delta_bruteforce(nlp, limit=budget)
        with pytest.raises(TooLarge):
            delta_bruteforce(nlp, limit=budget - 1)
        doubled = normalize(LinearProgram(
            A=np.vstack([nlp.A, -nlp.A]), b=np.concatenate([nlp.b, nlp.b]),
            c=nlp.c))
        with pytest.raises(TooLarge):
            delta_bruteforce(doubled, limit=budget - 1)

    def test_budget_counts_a_scaled_copy_once(self):
        # [3, -3] normalizes an ulp away from [1, -1]: one direction, so
        # d = 3 (the axes and the diagonal) and the budget is C(3, 1) * 3
        nlp = normalize(LinearProgram(
            A=[[1, 0], [0, 1], [-1, 0], [0, -1], [1, -1], [3, -3]],
            b=[1, 1, 0, 0, 0.5, 1.5], c=[1, 1]))
        assert not np.array_equal(nlp.A[4], nlp.A[5])
        cert = delta_bruteforce(nlp, limit=9)
        j, subset = cert.witness
        assert j in (0, 1, 4) and set(subset) <= {0, 1, 4}


def pairwise_merge(A, b):
    """Reference: the pairwise loop reduce_lp used to merge rows.  Each row
    joins the first earlier direction within DUPLICATE_TOL of that
    direction's first row, and replaces its kept row if strictly tighter."""
    slots = []  # [first row, least rhs, its position]
    for i, row in enumerate(A):
        for slot in slots:
            if np.max(np.abs(slot[0] - row)) <= DUPLICATE_TOL:
                if b[i] < slot[1]:
                    slot[1], slot[2] = b[i], i
                break
        else:
            slots.append([row, b[i], i])
    return [slot[2] for slot in slots]


@st.composite
def near_copies(draw):
    """Rows built from a few unit directions, each from a direction or an
    earlier row: exact copies; entries moved by DUPLICATE_TOL * {0.5, 1,
    1 +- 1e-7}; negations; zeros of the other sign; +-1e-12 noise; and
    r + t v with v orthogonal to tightest_rows' key weights w, which keeps
    the key, so that one key window holds several first rows.  The
    right-hand sides tie often."""
    n = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dirs = rng.standard_normal((draw(st.integers(1, 4)), n))
    dirs[rng.random(dirs.shape) < 0.3] = 0.0
    dirs[~dirs.any(axis=1), 0] = 1.0
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    w = np.array([math.cos(1.618 * k) for k in range(n)])
    rows = list(dirs)
    for _ in range(draw(st.integers(1, 30))):
        r = rows[draw(st.integers(0, len(rows) - 1))].copy()
        op = draw(st.sampled_from(
            ["copy", "move", "negate", "zeros", "noise", "same key"]))
        if op == "move":
            r += DUPLICATE_TOL * np.array(draw(st.lists(
                st.sampled_from([0.0, 0.5, -0.5, 1.0, -1.0, 1 - 1e-7,
                                 -(1 - 1e-7), 1 + 1e-7, -(1 + 1e-7)]),
                min_size=n, max_size=n)))
        elif op == "negate":
            r = -r
        elif op == "zeros":
            r[r == 0.0] *= -1.0
        elif op == "noise":
            r += rng.uniform(-1e-12, 1e-12, size=n)
        elif op == "same key" and n > 1:
            v = rng.standard_normal(n)
            v -= (v @ w) / (w @ w) * w
            r += draw(st.sampled_from([5e-10, 1e-9, 2e-9, 1e-3])) \
                * v / np.abs(v).max()
        rows.append(r)
    A = np.array(rows[len(dirs):])
    b = np.array(draw(st.lists(st.integers(0, 3), min_size=len(A),
                               max_size=len(A)))) / 4.0
    return A, b


class TestTightestRows:
    """The one rule for rows that repeat a direction."""

    @pytest.mark.parametrize("seed", range(20))
    def test_agrees_with_the_pairwise_loop(self, seed):
        # rows drawn from a few directions: exact copies, copies an ulp or
        # 1e-12 away, sign-flipped zeros and right-hand sides that tie
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        dirs = rng.standard_normal((int(rng.integers(1, 6)), n))
        dirs[:, 0] = np.where(rng.random(len(dirs)) < 0.3, 0.0, dirs[:, 0])
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        picks = rng.integers(0, len(dirs), size=int(rng.integers(1, 40)))
        A = dirs[picks] + rng.choice([0.0, 1e-16, 1e-12], size=(len(picks), 1))
        A[A == 0.0] *= rng.choice([1.0, -1.0], size=int(np.sum(A == 0.0)))
        b = rng.integers(0, 4, size=len(picks)) / 4.0
        assert tightest_rows(A, b).tolist() == pairwise_merge(A, b)

    def test_near_copies_among_400_rows_agree_with_the_pairwise_loop(self):
        # 400 byte-distinct rows at n = 8: each of the last 100 is a near
        # copy that must find its first row among the 300 before it
        rng = np.random.default_rng(3)
        dirs = rng.standard_normal((300, 8))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        A = np.vstack([dirs, dirs[rng.integers(0, 300, size=100)] + 1e-12])
        b = rng.integers(0, 4, size=len(A)) / 4.0
        assert tightest_rows(A, b).tolist() == pairwise_merge(A, b)

    @settings(max_examples=200, deadline=None)
    @given(near_copies())
    def test_one_pass_agrees_with_the_pairwise_loop(self, program):
        A, b = program
        assert tightest_rows(A, b).tolist() == pairwise_merge(A, b)

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_key_weights_are_cached_and_read_only(self, n):
        w, reach = lp_module._key_weights(n)
        assert lp_module._key_weights(n)[0] is w
        assert w.flags.writeable is False
        assert w.tobytes() == np.cos(1.618 * np.arange(n)).tobytes()
        assert reach == 2.0 * DUPLICATE_TOL * float(np.abs(w).sum())

    def test_keeps_the_least_rhs_in_first_occurrence_order(self):
        A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0],
                      [1.0, 0.0]])
        b = np.array([3.0, 1.0, 2.0, 5.0, 4.0])
        assert tightest_rows(A, b).tolist() == [2, 1]

    def test_equal_rhs_keep_the_earliest(self):
        A = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        assert tightest_rows(A, np.array([1.0, 2.0, 1.0, 2.0])).tolist() \
            == [0, 1]

    def test_negation_is_another_direction(self):
        A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        assert tightest_rows(A, np.zeros(3)).tolist() == [0, 1, 2]

    def test_merges_within_the_tolerance(self):
        u = np.array([0.6, 0.8])
        A = np.array([u, u + DUPLICATE_TOL / 2, u, u + 4 * DUPLICATE_TOL,
                      [-0.0, 1.0], [0.0, 1.0]])
        b = np.array([1.0, 0.5, 2.0, 0.1, 3.0, 2.0])
        # rows 0-2 are one direction, row 3 is too far; -0.0 equals 0.0
        assert tightest_rows(A, b).tolist() == [1, 3, 5]

    def test_region_is_unchanged(self):
        # the base repeats a network cut, so even it loses a row
        base = tu_instance_generator("network", 4, 14, 11)
        nlp = normalize(pad_redundant(base, 30, 11))
        kept = tightest_rows(nlp.A, nlp.b)
        assert len(kept) == 13
        walked = LinearProgram(A=nlp.A[kept], b=nlp.b[kept], c=nlp.c)
        points = np.random.default_rng(11).uniform(-1.5, 1.5, size=(4000, 4))
        inside = [walked.is_feasible(x, tol=0.0) for x in points]
        assert inside == [nlp.is_feasible(x, tol=0.0) for x in points]
        assert 0 < sum(inside) < len(points)


def pairwise_crossing(A, b, tol):
    """Reference: the first j, then the tightest i < j (least b[i], earliest
    of equals) with A[i] == -A[j] entry by entry (where -0.0 equals 0.0),
    when -b[i] > b[j] + tol."""
    for j in range(len(A)):
        negations = [i for i in range(j) if np.array_equal(A[i], -A[j])]
        if negations:
            i = min(negations, key=lambda i: (b[i], i))
            if -b[i] > b[j] + tol:
                return i, j
    return None


class TestCrossedOppositeRows:
    """The opposite-direction half of the parallel-row step: a row and its
    exact negation whose bounds cross."""

    def test_finds_the_first_crossing_pair(self):
        # rows 1 and 3 do not cross (x in [0, 2]); rows 0 and 4 do
        A = np.array([[0.0, 1.0], [1.0, 0.0], [0.6, 0.8], [-1.0, 0.0],
                      [0.0, -1.0], [-0.6, -0.8]])
        b = np.array([1.0, 2.0, 1.0, 0.0, -1.5, -2.0])
        assert crossed_opposite_rows(A, b, 1e-7) == (0, 4)
        assert crossed_opposite_rows(A[1:4], b[1:4], 1e-7) is None
        # a row's bytes are read in row order whatever A's memory layout
        assert crossed_opposite_rows(np.asfortranarray(A), b, 1e-7) == (0, 4)
        wide = np.hstack([A, np.ones((6, 1))])
        assert crossed_opposite_rows(wide[:, :2], b, 1e-7) == (0, 4)

    @pytest.mark.parametrize("first", [0.0, -0.0])
    @pytest.mark.parametrize("second", [0.0, -0.0])
    def test_signed_zeros_pair(self, first, second):
        # the bytes of -e_0 hold -0.0 where e_0 holds 0.0: both fold to 0.0
        A = np.array([[1.0, first], [-1.0, second]])
        assert crossed_opposite_rows(A, np.array([0.0, -1.0]), 1e-7) == (0, 1)

    def test_a_crossing_of_exactly_tol_is_not_certified(self):
        tol = 5e-7
        low = -0.25 - tol
        assert low + tol == -0.25  # the rows cross by tol, after rounding
        A = np.array([[1.0, 0.0], [-1.0, 0.0]])
        assert crossed_opposite_rows(A, np.array([0.25, low]), tol) is None
        assert crossed_opposite_rows(
            A, np.array([0.25, np.nextafter(low, -1.0)]), tol) == (0, 1)

    def test_a_negation_one_ulp_off_is_not_paired(self):
        A = np.array([[0.6, 0.8], [np.nextafter(-0.6, -1.0), -0.8]])
        assert crossed_opposite_rows(A, np.array([0.0, -1.0]), 1e-7) is None
        assert crossed_opposite_rows(
            np.array([[0.6, 0.8], [-0.6, -0.8]]), np.array([0.0, -1.0]),
            1e-7) == (0, 1)

    def test_a_looser_copy_before_the_row(self):
        # row 0 = row 1 at a looser bound: -x >= -3 does not cross x <= -2,
        # and -x >= -1 from row 1 does
        A = np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
        assert crossed_opposite_rows(A, np.array([3.0, 1.0, -2.0]),
                                     1e-7) == (1, 2)

    def test_a_looser_copy_after_the_row(self):
        # the looser copy at row 1 does not hide row 0's tighter bound
        A = np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
        assert crossed_opposite_rows(A, np.array([1.0, 3.0, -2.0]),
                                     1e-7) == (0, 2)

    def test_a_tighter_copy_after_the_row(self):
        # x <= 1 does not cross x >= 0.75, the tighter copy x <= 0.5 does
        A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [-1.0, 0.0]])
        assert crossed_opposite_rows(A, np.array([1.0, 0.0, 0.5, -0.75]),
                                     1e-7) == (2, 3)

    def test_byte_equal_copies_of_the_negation(self):
        # rows 1-3 are one negation of row 0, with signed zeros folded: the
        # first of them to cross x <= 1 is row 2, x >= 1.5
        A = np.array([[1.0, 0.0], [-1.0, 0.0], [-1.0, -0.0], [-1.0, 0.0]])
        assert crossed_opposite_rows(A, np.array([1.0, -0.5, -1.5, -2.0]),
                                     1e-7) == (0, 2)

    def test_equal_bounds_keep_the_earliest(self):
        A = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 1.0], [1.0, 0.0],
                      [-1.0, 0.0]])
        assert crossed_opposite_rows(A, np.array([1.0, 1.0, 1.0, 1.0, -2.0]),
                                     1e-7) == (1, 4)

    @settings(max_examples=200, deadline=None)
    @given(near_copies())
    def test_agrees_with_the_pairwise_loop_on_all_rows(self, program):
        # near_copies' programs before the collapse: exact copies of rows
        # and of their negations, whose tightest earlier copy decides
        A, b = program
        b = b - 0.5
        assert crossed_opposite_rows(A, b, 1e-7) == pairwise_crossing(
            A, b, 1e-7)

    @settings(max_examples=200, deadline=None)
    @given(near_copies())
    def test_agrees_with_the_pairwise_loop_on_kept_rows(self, program):
        # the kept rows of near_copies' programs: negations, sign-flipped
        # zeros and near copies, with right-hand sides of both signs
        A, b = program
        b = b - 0.5
        kept = tightest_rows(A, b)
        A, b = A[kept], b[kept]
        assert crossed_opposite_rows(A, b, 1e-7) == pairwise_crossing(
            A, b, 1e-7)


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

    @pytest.mark.parametrize("Delta", [1.5, 0, -3])
    def test_non_integral_or_small_Delta_rejected(self, Delta):
        with pytest.raises(ValueError, match="Delta"):
            delta_integer_bound(np.eye(2), Delta)

    @pytest.mark.parametrize("Delta", ["3", None, [2], 2 + 0j],
                             ids=["str", "None", "list", "complex"])
    def test_Delta_that_is_no_number_is_a_type_error(self, Delta):
        # "3" once raised the bare '>=' comparison error, None float()'s;
        # a non-integral matrix would raise first if any work ran
        with pytest.raises(TypeError, match=r"^Delta must be a positive "
                                            r"integer as a number, got "):
            delta_integer_bound(np.array([[0.5, 1.0]]), Delta)

    def test_integral_float_Delta_accepted(self):
        assert delta_integer_bound(np.eye(2), 2.0).Delta == 2

    def test_bound_past_the_float_range_is_too_large(self):
        # 1/(2 * 10^400) is no float; 10^150 still gives one
        with pytest.raises(TooLarge, match="float range"):
            delta_integer_bound(np.eye(2), 10**200)
        # 10^400 is past the float range itself, not only its square
        with pytest.raises(TooLarge, match="401 digits"):
            delta_integer_bound(np.eye(2), 10**400)
        assert delta_integer_bound(np.eye(2), 10**150).delta == 0.5e-300

    def test_bound_never_beats_bruteforce(self):
        # the exact separation dominates the sub-determinant bound
        square = make_square()
        assert delta_bruteforce(square).delta >= \
            delta_integer_bound(np.array([[1, 0], [0, 1], [-1, 0], [0, -1]]),
                                1).delta - 1e-9


def _rows(rows, b=None) -> LinearProgram:
    """A program on the given rows, objective all ones."""
    A = np.array(rows, dtype=float)
    return LinearProgram(A=A, b=np.ones(len(A)) if b is None else b,
                         c=np.ones(A.shape[1]))


class TestDeltaFromStructure:
    @pytest.mark.parametrize("kind, method", [
        ("network", DeltaMethod.NETWORK_ROWS),
        ("interval", DeltaMethod.INTERVAL_ROWS),
        ("box", DeltaMethod.NETWORK_ROWS),  # unit rows satisfy both rules
    ])
    def test_generator_instances(self, kind, method):
        for n in (2, 3, 4, 5):
            nlp = normalize(tu_instance_generator(kind, n, 4 * n, n))
            cert = delta_from_structure(nlp)
            assert cert == DeltaCertificate(delta=1.0 / n, method=method,
                                            Delta=1)
            assert cert.delta <= delta_bruteforce(nlp).delta

    def test_negated_and_scaled_rows_qualify(self):
        # (-3, -3, 0) is an interval row negated and scaled; (0, 2, -2) a
        # scaled network row, which is no interval row: one rule each
        eye = np.eye(3)
        interval = normalize(_rows([*eye, *-eye, [-3, -3, 0], [0, 5, 5]]))
        assert delta_from_structure(interval).method is DeltaMethod.INTERVAL_ROWS
        network = normalize(_rows([*eye, *-eye, [0, 2, -2], [7, 0, -7]]))
        assert delta_from_structure(network).method is DeltaMethod.NETWORK_ROWS

    def test_mixed_rules_are_not_certified(self):
        nlp = normalize(_rows(MIXED_ROWS))
        assert delta_bruteforce(nlp).delta == pytest.approx(0.2887, abs=1e-4)
        assert delta_bruteforce(nlp).delta < 1 / 3
        assert delta_from_structure(nlp) is None

    @pytest.mark.parametrize("lp", [
        pytest.param(_rows([[2, -1], [0, 1], [-1, 0], [0, -1]]), id="2,-1"),
        pytest.param(_rows([[math.cos(2 * math.pi * k / 7),
                             math.sin(2 * math.pi * k / 7)] for k in range(7)]),
                     id="7-gon"),
        pytest.param(bounded_random_lp(3, 4, 0), id="bounded_random_lp"),
    ])
    def test_other_rows_are_not_certified(self, lp):
        assert delta_from_structure(normalize(lp)) is None

    def test_bound_is_attained(self):
        # (1, 1, 1) lies 1/3 from the span of (1, 1, 0) and (0, 1, 1)
        nlp = normalize(_rows([[1, 1, 0], [1, 1, 1], [0, 1, 1]]))
        assert delta_from_structure(nlp).delta == 1 / 3
        assert delta_bruteforce(nlp).delta == pytest.approx(1 / 3, rel=1e-12)

    def test_n1(self):
        cert = delta_from_structure(normalize(_rows([[1], [-2], [3]])))
        assert cert.delta == 1.0


class TestDeltaCertificate:
    @pytest.mark.parametrize("delta", [1.0 + 5e-10, 0.0, -0.5, float("nan")])
    def test_out_of_range_rejected(self, delta):
        # (0, 1] exactly: the walk's step budget takes no larger value
        with pytest.raises(ValueError, match="delta"):
            DeltaCertificate(delta=delta, method=DeltaMethod.BRUTE_FORCE)

    @pytest.mark.parametrize("delta", ["0.5", None, 0.5 + 0j],
                             ids=["str", "None", "complex"])
    def test_delta_must_be_a_real_number(self, delta):
        # each once raised the comparison's own TypeError, naming no field
        with pytest.raises(TypeError, match=r"^delta must lie in \(0, 1\] as "
                                            r"a real number, got "):
            DeltaCertificate(delta=delta, method=DeltaMethod.BRUTE_FORCE)

    def test_one_accepted(self):
        assert DeltaCertificate(1.0, DeltaMethod.BRUTE_FORCE).delta == 1.0

    def test_method_must_be_a_delta_method(self):
        # a string once passed here and failed only after a whole solve,
        # when the report read cert.method.value
        with pytest.raises(TypeError, match=r"^DeltaCertificate\.method "):
            DeltaCertificate(1 / 3, method="network_rows")

    @pytest.mark.parametrize("Delta", [0, -3, 2.0, "1"])
    def test_Delta_must_be_a_positive_integer(self, Delta):
        with pytest.raises(ValueError, match=r"^DeltaCertificate\.Delta "):
            DeltaCertificate(0.5, DeltaMethod.INTEGER_BOUND, Delta=Delta)

    def test_integer_Delta_accepted(self):
        for Delta in (None, 1, np.int64(3), 10**400):
            cert = DeltaCertificate(0.5, DeltaMethod.INTEGER_BOUND, Delta=Delta)
            assert cert.Delta is Delta


@pytest.mark.parametrize("value", [True, False, np.True_],
                         ids=["True", "False", "np.True_"])
@pytest.mark.parametrize("build, error, message", [
    (lambda v: WalkConfig(alpha=v), TypeError, r"^WalkConfig\.alpha must be "),
    (lambda v: WalkConfig(steps=v), TypeError, r"^WalkConfig\.steps must be "),
    (lambda v: WalkConfig(seed=v), TypeError, r"^WalkConfig\.seed must be "),
    (lambda v: DeltaCertificate(delta=v, method=DeltaMethod.INTEGER_BOUND),
     TypeError, r"^delta must lie in \(0, 1\]"),
    (lambda v: delta_integer_bound(np.eye(2), v), ValueError,
     r"^Delta must be a positive integer"),
    (lambda v: DeltaCertificate(0.5, DeltaMethod.INTEGER_BOUND, Delta=v),
     ValueError, r"^DeltaCertificate\.Delta must be None or a positive "),
], ids=["alpha", "steps", "seed", "delta", "Delta", "certificate-Delta"])
def test_a_bool_is_not_a_number(build, error, message, value):
    # True == 1 in Python: unchecked, it would reach a report as true
    with pytest.raises(error, match=message):
        build(value)


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
        with pytest.raises(TooLarge,
                           match=r"^C\(4,2\) exceeds the enumeration budget$"):
            check_nondegenerate(make_square(), limit=1)

    @staticmethod
    def per_subset_rule(lp):
        """The former check: each n-row subset alone, in index order."""
        tol = lp.feas_tol()
        for rows in itertools.combinations(range(lp.m), lp.n):
            sub = lp.A[list(rows)]
            if det_abs(sub) <= SINGULAR_TOL:
                continue
            x = np.linalg.solve(sub, lp.b[list(rows)])
            if not lp.is_feasible(x, tol=tol):
                continue
            if int(np.sum(np.abs(lp.A @ x - lp.b) <= tol)) != lp.n:
                return False
        return True

    # kinds x n = 2..4 at m = 3n + 2, generator seeds 0-3 (odd seeds
    # rotated, as the acceptance screening rotates some), and the three
    # degenerate instances among that grid's first 40 seeds
    GRID = [(kind, n, seed, seed % 2 == 1)
            for kind in ("box", "interval", "network")
            for n in (2, 3, 4) for seed in range(4)]
    GRID += [("interval", 4, 20, False), ("network", 3, 13, False),
             ("network", 3, 16, False)]

    @pytest.mark.parametrize("kind, n, seed, rotated", GRID)
    def test_same_verdict_as_per_subset_rule(self, kind, n, seed, rotated):
        lp = tu_instance_generator(kind, n, 3 * n + 2, seed)
        if rotated:
            lp = rotate_instance(lp, seed + 99991)
        nlp = normalize(lp)
        assert check_nondegenerate(nlp) is self.per_subset_rule(nlp)

    def test_small_cases_same_verdict_as_per_subset_rule(self):
        t = make_triangle()
        dup = normalize(LinearProgram(
            A=np.vstack([t.A, t.A[2:]]), b=np.concatenate([t.b, t.b[2:]]),
            c=t.c))
        for lp in (make_square(), dup):
            assert check_nondegenerate(lp) is self.per_subset_rule(lp)
