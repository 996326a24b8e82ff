"""Randomized-walk simplex solver for linear programs max c^T x, Ax <= b.

The pivot sequence is driven by a lazy Metropolis walk over the grid of
parallelepipeds tiling the normal fan of the feasible polytope; instances
whose rows keep a positive distance to the spans of other rows are solved
with a pivot count independent of the number of constraints.
"""

from . import errors
from .lp import (
    DeltaCertificate,
    DeltaMethod,
    LinearProgram,
    NormalizedLP,
    check_nondegenerate,
    delta_bruteforce,
    delta_integer_bound,
    normalize,
)
from .phase1 import BoundingBox, bounding_box, find_independent_rows, phase1_vertex
from .reduction import ReductionStep, SolveReport, reduce_lp, solve
from .simplex import (
    Basis,
    Vertex,
    bland_simplex,
    cone_membership,
    pivot_across_facet,
    vertex_of_basis,
)
from .walk import (
    Parallelepiped,
    WalkConfig,
    WalkOutcome,
    center,
    default_alpha,
    default_steps,
    log_weight,
    run_walk,
    step,
)

__all__ = [
    "BoundingBox",
    "Basis",
    "DeltaCertificate",
    "DeltaMethod",
    "LinearProgram",
    "NormalizedLP",
    "Parallelepiped",
    "ReductionStep",
    "SolveReport",
    "Vertex",
    "WalkConfig",
    "WalkOutcome",
    "bland_simplex",
    "bounding_box",
    "center",
    "check_nondegenerate",
    "cone_membership",
    "default_alpha",
    "default_steps",
    "delta_bruteforce",
    "delta_integer_bound",
    "errors",
    "find_independent_rows",
    "log_weight",
    "normalize",
    "phase1_vertex",
    "pivot_across_facet",
    "reduce_lp",
    "run_walk",
    "solve",
    "step",
    "vertex_of_basis",
]

__version__ = "0.1.0"
