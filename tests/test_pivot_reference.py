"""The ratio test and Bland's rule against their references, as hypothesis
properties.

simplex.pivot_across_facet reads the advances and slacks as Python floats;
conftest.vectorized_pivot is the numpy rule it replaced, with the same
lexicographic tie-break.  Over the region
of a program's first ``rows`` rows (all of them for None), the pivot must
equal the reference on the program of those rows, built by the public
constructor (conftest.prefix): the same basis, or the same error class,
and the vertex the program's memo keeps for the basis pivoted from must be
its solve on a copy that factors afresh, bit for bit.  Bland's rule
bounded to ``rows`` rows must equal Bland's rule on that program, and the
memo's vertex of the basis it returns its solve afresh.

The programs are boxed conftest.bounded_random_lp programs and generator
instances; rotated boxes with two cuts whose ratios lie within a few
RATIO_TOL of each other; and edges that no row of the region blocks.
"""
from functools import lru_cache

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conewalk.errors import ConewalkError, UnboundedEdge  # noqa: E402
from conewalk.lp import NormalizedLP, normalize  # noqa: E402
from conewalk.oracle import tu_instance_generator  # noqa: E402
from conewalk.phase1 import (  # noqa: E402
    bounding_box,
    certified_radius,
    phase1_vertex,
)
from conewalk.reduction import certify_delta  # noqa: E402
from conewalk.simplex import (  # noqa: E402
    basis_factors,
    bland_simplex,
    pivot_across_facet,
)
from conewalk.tolerances import RATIO_TOL  # noqa: E402

from conftest import (  # noqa: E402
    afresh,
    bounded_random_lp,
    memo_vertex_is_afresh,
    pivot_outcome,
    prefix,
    random_rotation,
    vectorized_pivot,
)


@lru_cache(maxsize=None)
def boxed(kind: str, n: int, seed: int):
    """(input program, boxed program, its box corner's basis, its phase-1
    basis)."""
    if kind == "random":
        nlp = bounded_random_lp(n, 2 * n, seed)
    else:
        nlp = normalize(tu_instance_generator(kind, n, 4 * n, seed))
    box = bounding_box(nlp, certified_radius(nlp, certify_delta(nlp)))
    return nlp, box, tuple(range(n)), phase1_vertex(nlp, box)


programs = st.one_of(
    st.tuples(st.just("random"), st.integers(2, 4), st.integers(0, 19)),
    st.tuples(st.sampled_from(["interval", "network"]), st.integers(2, 5),
              st.integers(0, 9)))


@st.composite
def region_bases(draw):
    """(boxed program, rows, a vertex's basis in its region, a leaving row).

    A bounded region starts at the box corner, a basis of every region
    holding the 2n box rows and a vertex of the box, though not always of
    the region; the whole program starts at its phase-1 basis.  Up to 8
    reference pivots at drawn positions follow, each that finds no
    blocking row passed over."""
    _, box, corner, start = boxed(*draw(programs))
    rows = draw(st.one_of(st.none(), st.integers(2 * box.n, box.m)))
    region = prefix(box, rows)
    basis = start if rows is None else corner
    for pos in draw(st.lists(st.integers(0, box.n - 1), max_size=8)):
        try:
            basis = vectorized_pivot(region, basis, basis[pos])
        except ConewalkError:
            pass
    return box, rows, basis, basis[draw(st.integers(0, box.n - 1))]


def same_memo_vertex(box, basis, rows):
    """Is the vertex box's memo keeps for the basis, bit for bit, its solve
    on a copy of the region that factors afresh?  A basis reached from the
    box corner need not be a feasible vertex of the region, so unlike
    conftest.memo_vertex_is_afresh this does not check feasibility."""
    return box.lu_memo[basis][1].tobytes() == basis_factors(
        afresh(prefix(box, rows)), basis)[1].tobytes()


@settings(max_examples=200, deadline=None)
@given(region_bases())
def test_pivot_equals_the_vectorized_rule_on_the_region(case):
    box, rows, basis, leaving = case
    assert pivot_outcome(pivot_across_facet, box, basis, leaving, rows=rows) \
        == pivot_outcome(vectorized_pivot, prefix(box, rows), basis, leaving)
    assert same_memo_vertex(box, basis, rows)


def cut_box(n: int, seed: int, offset: float, gap: float):
    """The box [0, 1]^n with the cuts x_0 <= 1 - offset and
    x_0 <= 1 - offset - gap, rotated, translated and with its rows
    shuffled; and the positions of its lower bounds -x_i <= 0, sorted, and
    of -x_0 <= 0.

    From the lower-bound corner, leaving -x_0's facet meets the cuts at
    ratios gap apart and the upper bound x_0 <= 1 offset beyond them.
    """
    rng = np.random.default_rng(seed)
    eye = np.eye(n)
    A = np.vstack([-eye, eye, eye[:1], eye[:1]])
    b = np.concatenate([np.zeros(n), np.ones(n), [1.0 - offset],
                        [1.0 - offset - gap]])
    q = random_rotation(n, rng)
    A = A @ q
    b = b + A @ rng.uniform(-1.0, 1.0, n)
    perm = rng.permutation(len(b))
    position = np.argsort(perm).tolist()  # of each row before the shuffle
    return (NormalizedLP(A=A[perm], b=b[perm], c=q[0]),
            tuple(sorted(position[:n])), position[0])


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 4), st.integers(0, 2**32 - 1),
       st.floats(1e-7, 1e-3), st.floats(0.0, 3.0), st.data())
def test_near_ties_agree_with_the_vectorized_rule(n, seed, offset, gaps,
                                                   data):
    lp, basis, toward_cuts = cut_box(n, seed, offset, gaps * RATIO_TOL)
    leaving = data.draw(st.one_of(st.just(toward_cuts),
                                  st.sampled_from(basis)))
    rows = data.draw(st.one_of(st.none(),
                               st.integers(basis[-1] + 1, lp.m)))
    assert pivot_outcome(pivot_across_facet, lp, basis, leaving, rows=rows) \
        == pivot_outcome(vectorized_pivot, prefix(lp, rows), basis, leaving)
    assert memo_vertex_is_afresh(lp, basis, rows)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 4), st.integers(0, 2**32 - 1))
def test_an_edge_no_region_row_blocks_raises_unbounded_edge(n, seed):
    # rows: the lower bounds, the upper bounds but x_0's, random rows that
    # do not block +x_0, then x_0 <= 1; leaving -x_0 <= 0 from the origin
    # only the last row blocks
    rng = np.random.default_rng(seed)
    eye = np.eye(n)
    others = rng.standard_normal((n, n))
    others[:, 0] = -np.abs(others[:, 0])
    others /= np.linalg.norm(others, axis=1)[:, None]
    A = np.vstack([-eye, eye[1:], others, eye[:1]])
    b = np.concatenate([np.zeros(n), np.ones(n - 1),
                        rng.uniform(0.5, 1.5, n), [1.0]])
    q = random_rotation(n, rng)
    lp = NormalizedLP(A=A @ q, b=b, c=q[0])
    basis = tuple(range(n))
    for rows in (lp.m - 1, None):
        ours = pivot_outcome(pivot_across_facet, lp, basis, 0, rows=rows)
        assert ours == pivot_outcome(vectorized_pivot, prefix(lp, rows),
                                     basis, 0)
        assert (ours is UnboundedEdge) == (rows is not None)
        assert memo_vertex_is_afresh(lp, basis, rows)


@settings(max_examples=150, deadline=None)
@given(programs, st.data())
def test_bounded_bland_equals_bland_on_the_prefix_program(program, data):
    nlp, box, corner, _ = boxed(*program)
    rows = data.draw(st.integers(2 * box.n, box.m))
    i = data.draw(st.integers(0, nlp.m - 1))
    objective = -nlp.A[i] if data.draw(st.booleans()) else nlp.c
    ours = pivot_outcome(bland_simplex, box, corner, objective, rows=rows)
    assert ours == pivot_outcome(bland_simplex, prefix(box, rows), corner,
                                 objective)
    if isinstance(ours, tuple):
        assert same_memo_vertex(box, ours, rows)
