"""An unscreened small-delta stratum beside the acceptance suite: the K-gon.

The program has the K rows (cos theta_k, sin theta_k), theta_k =
2 pi (k + 0.3) / K, with b = 1, so its row separation delta = sin(2 pi / K)
shrinks with K while n = 2 stays fixed.  Objective s points at angle
2 pi (s + 0.5) / 8 + 0.01, away from every row, and is solved with seed s.
No instance is screened: every solve must end in the oracle's optimum.
"""
import math

import numpy as np
import pytest

from conewalk.errors import RetriesExhausted
from conewalk.lp import LinearProgram, normalize
from conewalk.oracle import enumerate_vertices
from conewalk.reduction import solve
from conewalk.walk import WalkConfig


def k_gon(K: int, s: int) -> LinearProgram:
    theta = 2.0 * np.pi * (np.arange(K) + 0.3) / K
    phi = 2.0 * np.pi * (s + 0.5) / 8 + 0.01
    return LinearProgram(A=np.column_stack([np.cos(theta), np.sin(theta)]),
                         b=np.ones(K), c=[math.cos(phi), math.sin(phi)])


def assert_oracle_optimum(K: int, s: int) -> None:
    lp = k_gon(K, s)
    rep = solve(lp, WalkConfig(seed=s))
    oracle = enumerate_vertices(normalize(lp))
    assert rep.basis == oracle.optimal_basis
    np.testing.assert_allclose(rep.x, oracle.optimal_point, rtol=0, atol=1e-9)


@pytest.mark.parametrize("s", range(8))
@pytest.mark.parametrize("K", [8, 16])
def test_k_gon_solves_to_the_oracle_optimum(K, s):
    assert_oracle_optimum(K, s)


# At K = 24 (delta 0.26) the short terms drift toward sign(c)'s cone, not
# c's, and the full-budget term cannot make up for it (ROADMAP item 1).
@pytest.mark.xfail(strict=True, raises=RetriesExhausted,
                   reason="11 full-budget walk terms end outside c's cone")
def test_k_gon_24():
    assert_oracle_optimum(24, 0)
