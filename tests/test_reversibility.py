"""Pivot reversibility, as hypothesis properties.

A walk pivot across the facet of row r, from a vertex the walk can reach,
enters one row e.  Crossing back over e's facet must return the first
basis: through simplex.pivot_across_facet, each basis on the way a
feasible vertex (simplex.vertex_of_basis); and through walk.step, an
inward draw at an apex coordinate and then an inward draw at e's
coordinate return the first cell.
A pivot through a ratio-test tie is checked like any other: the
lexicographic rule must undo its own choice.

The programs are conftest.bounded_random_lp programs, and generator
instances, boxed by certified_radius; some generator instances have their
b drawn from {0, 1, 2}, so their vertices are often degenerate and their
pivots often tie.
"""
from functools import lru_cache

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conewalk.lp import LinearProgram, normalize  # noqa: E402
from conewalk.oracle import tu_instance_generator  # noqa: E402
from conewalk.phase1 import (  # noqa: E402
    bounding_box,
    certified_radius,
    phase1_vertex,
)
from conewalk.reduction import certify_delta  # noqa: E402
from conewalk.simplex import pivot_across_facet, vertex_of_basis  # noqa: E402
from conewalk.walk import Parallelepiped, step  # noqa: E402

from conftest import bounded_random_lp  # noqa: E402

ALWAYS = 1e-300  # a coin that accepts every move of these small programs


@lru_cache(maxsize=None)
def boxed(kind: str, n: int, seed: int, integer_b: bool = False):
    """(boxed program, its phase-1 basis).  integer_b replaces the
    generator instance's b by integers from {0, 1, 2}."""
    if kind == "random":
        nlp = bounded_random_lp(n, 2 * n, seed)
    else:
        lp = tu_instance_generator(kind, n, 4 * n, seed)
        if integer_b:
            b = np.random.default_rng(seed).integers(0, 3, size=lp.m)
            lp = LinearProgram(A=lp.A, b=b.astype(float), c=lp.c)
        nlp = normalize(lp)
    box = bounding_box(nlp, certified_radius(nlp, certify_delta(nlp)))
    return box, phase1_vertex(nlp, box)


programs = st.one_of(
    st.tuples(st.just("random"), st.sampled_from([2, 3, 4, 6]),
              st.integers(0, 39)),
    st.tuples(st.sampled_from(["interval", "network"]), st.integers(2, 5),
              st.integers(0, 9)),
    st.tuples(st.sampled_from(["box", "interval", "network"]),
              st.integers(2, 5), st.integers(0, 29), st.just(True)))


@st.composite
def reachable_pivots(draw):
    """(program, a basis the walk reaches, a basis position to pivot at).

    The basis is reached from the phase-1 basis by up to 8 pivots at
    drawn positions, each from a feasible vertex."""
    lp, basis = boxed(*draw(programs))
    for pos in draw(st.lists(st.integers(0, lp.n - 1), max_size=8)):
        vertex_of_basis(lp, basis)  # raises InfeasibleBasis if not a vertex
        basis = pivot_across_facet(lp, basis, basis[pos])
    return lp, basis, draw(st.integers(0, lp.n - 1))


@settings(max_examples=150, deadline=None)
@given(reachable_pivots())
def test_pivot_back_across_the_entering_row_returns(case):
    lp, basis, pos = case
    vertex_of_basis(lp, basis)
    there = pivot_across_facet(lp, basis, basis[pos])
    vertex_of_basis(lp, there)
    (entering,) = set(there) - set(basis)
    assert pivot_across_facet(lp, there, entering) == basis


@settings(max_examples=150, deadline=None)
@given(reachable_pivots(), st.data())
def test_step_back_across_the_entering_row_returns(case, data):
    lp, basis, pos = case
    index = data.draw(st.lists(st.integers(0, 3), min_size=lp.n,
                               max_size=lp.n))
    index[pos] = 0
    cell = Parallelepiped(basis, tuple(index))
    there, info = step(lp, 1.0, cell, (pos, -1, ALWAYS))
    assert info.accepted and info.pivoted
    (entering,) = set(there.basis) - set(basis)
    back, info = step(lp, 1.0, there, (there.basis.index(entering), -1, ALWAYS))
    assert info.accepted and info.pivoted
    assert back == cell
