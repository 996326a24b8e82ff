"""solve against HiGHS on four seeded families of random programs.

Each family draws its 100 programs from its own np.random.default_rng(11),
and program i is solved at seed i.  HiGHS (scipy.optimize.linprog) is the
reference: solve must reach its verdict, and at an optimum a value within
1e-6 * (1 + |optimum|).  In the first three families the reported basis
must also certify the optimum in exact arithmetic
(conftest.assert_exact_optimum).  A near-parallel pair leaves x up to
1.9e-9 past a row, inside solve's feasibility tolerance but not exact, so
the fourth family checks the value alone.  Any error other than the
Infeasible or Unbounded verdict fails the test, a typed one as well as a
bare one.  The test lists every program that disagrees; one found to fail
is pinned by a strict xfail of its own beside it, naming the error it
raises, as test_reduction.TestKnownWrongVerdicts does.

- gaussian: n in 2..4, m in [n + 1, 3n + 2], A and c standard normal, b
  uniform in [0.1, 1];
- shifted: the same with b uniform in [-0.5, 1], so some are infeasible;
- scaled-tu: tu_instance_generator's box, interval or network rows
  (n in 2..4, m in [2n, 2n + 8), generator seed below 2**30), each row
  with its b scaled by 10**U(-4, 4);
- near-parallel: a gaussian program plus a copy of one of its rows with
  noise eps * N(0, 1) per entry, eps = 10**U(-12, -6), and right-hand
  side b_i + eps.
"""
import numpy as np
import pytest
from scipy.optimize import linprog

from conewalk.errors import ConewalkError, Infeasible, Unbounded
from conewalk.lp import LinearProgram
from conewalk.oracle import tu_instance_generator
from conewalk.reduction import solve
from conewalk.walk import WalkConfig

from conftest import assert_exact_optimum

PROGRAMS_PER_FAMILY = 100
HIGHS_VERDICTS = {0: "optimal", 2: "infeasible", 3: "unbounded"}


def _gaussian(rng, b_low: float) -> LinearProgram:
    n = int(rng.integers(2, 5))
    m = int(rng.integers(n + 1, 3 * n + 3))
    return LinearProgram(A=rng.standard_normal((m, n)),
                         b=rng.uniform(b_low, 1.0, m),
                         c=rng.standard_normal(n))


def _scaled_tu(rng) -> LinearProgram:
    kind = ("box", "interval", "network")[int(rng.integers(0, 3))]
    n = int(rng.integers(2, 5))
    m = int(rng.integers(2 * n, 2 * n + 8))
    lp = tu_instance_generator(kind, n, m, int(rng.integers(0, 2**30)))
    scale = 10.0 ** rng.uniform(-4, 4, lp.m)
    return LinearProgram(A=lp.A * scale[:, None], b=lp.b * scale, c=lp.c)


def _near_parallel(rng) -> LinearProgram:
    lp = _gaussian(rng, 0.1)
    i = int(rng.integers(0, lp.m))
    eps = 10.0 ** rng.uniform(-12, -6)
    copy = lp.A[i] + eps * rng.standard_normal(lp.n)
    return LinearProgram(A=np.vstack([lp.A, copy]),
                         b=np.append(lp.b, lp.b[i] + eps), c=lp.c)


FAMILIES = {
    "gaussian": lambda rng: _gaussian(rng, 0.1),
    "shifted": lambda rng: _gaussian(rng, -0.5),
    "scaled-tu": _scaled_tu,
    "near-parallel": _near_parallel,
}


@pytest.mark.parametrize("family", FAMILIES)
def test_solve_agrees_with_highs(family):
    rng = np.random.default_rng(11)
    disagreements = []
    for seed in range(PROGRAMS_PER_FAMILY):
        lp = FAMILIES[family](rng)
        ref = linprog(-lp.c, A_ub=lp.A, b_ub=lp.b,
                      bounds=[(None, None)] * lp.n, method="highs")
        assert ref.status in HIGHS_VERDICTS, (seed, ref.message)
        want = HIGHS_VERDICTS[ref.status]
        try:
            rep = solve(lp, WalkConfig(seed=seed))
        except Infeasible:
            got = "infeasible"
        except Unbounded:
            got = "unbounded"
        except ConewalkError as exc:
            got = f"{type(exc).__name__}: {exc}"
        else:
            got = "optimal"
        if got != want:
            disagreements.append(f"program {seed}: HiGHS {want}, solve {got}")
        elif got == "optimal":
            if rep.value != pytest.approx(-ref.fun,
                                          abs=1e-6 * (1 + abs(ref.fun))):
                disagreements.append(f"program {seed}: value {rep.value!r}, "
                                     f"HiGHS {-ref.fun!r}")
            elif family != "near-parallel":
                try:
                    assert_exact_optimum(lp, rep.basis)
                except AssertionError:
                    disagreements.append(f"program {seed}: basis {rep.basis} "
                                         "certifies no exact optimum")
    assert disagreements == []
