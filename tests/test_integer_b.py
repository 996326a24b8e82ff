"""An integer right-hand-side stratum beside the acceptance suite.

tu_instance_generator's rows with b drawn from {0, 1, 2}: totally
unimodular rows with integer right-hand sides, the common form of the
paper's headline class, whose vertices are often degenerate, so ratio-test
ties are the normal case.  No program is screened: every solve must end in
HiGHS's optimum, and its basis must certify that optimum exactly on the
rows' own floats.

integer_b_programs is the census recipe; its first 60 programs are tested
here.  The whole census of 600:

    PYTHONPATH=src:tests python -c 'import test_integer_b as t; t.census(600)'
"""
import numpy as np
import pytest
from scipy.optimize import linprog

from conewalk.errors import ConewalkError
from conewalk.lp import LinearProgram
from conewalk.oracle import tu_instance_generator
from conewalk.reduction import solve
from conewalk.walk import WalkConfig

from conftest import assert_exact_optimum

KINDS = ("box", "interval", "network")


def integer_b_programs(count: int, seed: int = 5):
    """(name, program, solve seed) of the first count census programs.

    Each draws, in this order: a kind, n in 2..5, m in [2n, 2n + 8), a
    generator seed below 2**30, and the m entries of b from {0, 1, 2}; the
    solve seed is the program's index.  The origin is feasible and the
    generator's box rows bound the region, so every program has an optimum.
    """
    rng = np.random.default_rng(seed)
    for index in range(count):
        kind = KINDS[int(rng.integers(0, len(KINDS)))]
        n = int(rng.integers(2, 6))
        m = int(rng.integers(2 * n, 2 * n + 8))
        gen = int(rng.integers(0, 2**30))
        base = tu_instance_generator(kind, n, m, gen)
        b = rng.integers(0, 3, size=m).astype(float)
        yield (f"{kind}-n{n}-m{m}-gen{gen}",
               LinearProgram(A=base.A, b=b, c=base.c), index)


def assert_highs_optimum(lp: LinearProgram, seed: int) -> None:
    rep = solve(lp, WalkConfig(seed=seed))
    ref = linprog(-lp.c, A_ub=lp.A, b_ub=lp.b, bounds=[(None, None)] * lp.n,
                  method="highs")
    assert ref.status == 0
    assert rep.value == pytest.approx(-ref.fun, abs=1e-9)
    assert_exact_optimum(lp, rep.basis)


@pytest.mark.parametrize(
    "lp, seed", [pytest.param(lp, seed, id=f"{name}-solve{seed}")
                 for name, lp, seed in integer_b_programs(60)])
def test_solves_to_the_highs_optimum(lp, seed):
    assert_highs_optimum(lp, seed)


def census(count: int) -> None:
    """Solve the first count census programs; print each failure by name
    and its error, then the number that failed."""
    failed = 0
    for name, lp, seed in integer_b_programs(count):
        try:
            assert_highs_optimum(lp, seed)
        except (ConewalkError, AssertionError) as exc:
            failed += 1
            print(f"{name}-solve{seed}: {type(exc).__name__}: {exc}")
    print(f"{failed} of {count} failed")
