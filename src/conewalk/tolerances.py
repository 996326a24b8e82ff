"""Numeric tolerances used across the package.

Each value is a module-level constant, read directly where it applies; no
function takes an override of one.  Only the feasibility tolerance varies
per program: it scales with the right-hand side (feas_tol_for).
"""

# Smallest acceptable pivot magnitude in an LU factorization; also the rank
# threshold for span growth.
SINGULAR_TOL = 1e-10

# Allowed deviation from unit Euclidean norm.
NORM_TOL = 1e-9

# Distances at or below this count as "in the span" and are excluded from
# the row-separation minimum.
SPAN_TOL = 1e-9

# Slack allowed on conic coefficients when testing cone membership.
CONE_TOL = 1e-9

# Base feasibility tolerance; scaled by (1 + ||b||_inf) at use sites.
FEAS_TOL = 1e-7

# Ratio-test tolerance: positivity threshold and tie detection.
RATIO_TOL = 1e-9

# Threshold below which a projected objective counts as vanished.
OBJ_TOL = 1e-9


def feas_tol_for(b) -> float:
    """Feasibility tolerance scaled to the magnitude of the right-hand side."""
    import numpy as np

    return FEAS_TOL * (1.0 + float(np.max(np.abs(b))))
