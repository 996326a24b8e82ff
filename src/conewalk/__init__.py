"""Randomized-walk simplex solver for linear programs max c^T x, Ax <= b.

The pivot sequence is driven by a lazy Metropolis walk over the grid of
parallelepipeds tiling the normal fan of the feasible polytope; instances
whose rows keep a positive distance to the spans of other rows are solved
with a pivot count independent of the number of constraints.

The top level exports the solve API; everything else is importable from its
submodule (``conewalk.phase1``, ``conewalk.walk``, ``conewalk.oracle``, ...).
"""

from . import errors
from .lp import (
    DeltaCertificate,
    LinearProgram,
    delta_bruteforce,
    delta_from_structure,
    delta_integer_bound,
    normalize,
)
from .reduction import SolveReport, solve
from .walk import WalkConfig

__all__ = [
    "DeltaCertificate",
    "LinearProgram",
    "SolveReport",
    "WalkConfig",
    "delta_bruteforce",
    "delta_from_structure",
    "delta_integer_bound",
    "errors",
    "normalize",
    "solve",
]

__version__ = "0.1.0"
