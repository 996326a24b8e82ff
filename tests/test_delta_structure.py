"""delta_from_structure never claims more separation than there is.

On random network and interval matrices, with rows negated, scaled by
positive factors and repeated, the structural certificate exists and its
delta, 1/n, is at most the brute-force separation, up to the enumeration's
rounding.  Sizes stay small.
"""
import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conewalk.lp import (  # noqa: E402
    LinearProgram,
    delta_bruteforce,
    delta_from_structure,
    normalize,
)


@st.composite
def network_row(draw, n):
    """At most one +1 and at most one -1, not both absent."""
    cols = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=min(2, n),
                         unique=True))
    row = np.zeros(n)
    row[cols[0]] = 1.0
    if len(cols) == 2:
        row[cols[1]] = -1.0
    return row


@st.composite
def interval_row(draw, n):
    """Ones on consecutive columns."""
    s = draw(st.integers(0, n - 1))
    t = draw(st.integers(s, n - 1))
    row = np.zeros(n)
    row[s:t + 1] = 1.0
    return row


@st.composite
def structured(draw):
    """A full-rank network or interval matrix, its rows negated, scaled and
    repeated at random."""
    n = draw(st.integers(1, 4))
    make = network_row if draw(st.booleans()) else interval_row
    rows = draw(st.lists(make(n), min_size=n, max_size=3 * n))
    copies = draw(st.lists(st.integers(0, len(rows) - 1), max_size=3))
    rows += [rows[i] for i in copies]
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]),
                          min_size=len(rows), max_size=len(rows)))
    scales = draw(st.lists(st.floats(0.01, 100.0), min_size=len(rows),
                           max_size=len(rows)))
    A = np.array(rows) * (np.array(signs) * np.array(scales))[:, None]
    assume(np.linalg.matrix_rank(A) == n)
    return A


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(structured())
def test_bound_is_at_most_the_bruteforce_separation(A):
    nlp = normalize(LinearProgram(A=A, b=np.ones(len(A)), c=np.ones(A.shape[1])))
    cert = delta_from_structure(nlp)
    assert cert is not None
    # 1/n is attained, at (1, 1, 0), (1, 1, 1), (0, 1, 1) for one, where the
    # enumeration's distance rounds an ulp below it
    assert cert.delta <= delta_bruteforce(nlp).delta * (1.0 + 1e-12)
