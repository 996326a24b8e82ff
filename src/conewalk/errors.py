"""Exception types shared across the package."""


class ConewalkError(Exception):
    """Base class for all errors raised by this package.

    certificate is the lp.DeltaCertificate that sized the box of the solve
    that raised the error: reduction.solve sets it on every error of the
    stages after it certified delta.  It is None for any other error,
    such as a crossed pair's Infeasible, which ends the solve before delta.
    """

    certificate = None


class SingularMatrix(ConewalkError):
    """Square system factorization found no acceptable pivot."""


class NotUnitVector(ConewalkError):
    """A vector that must have Euclidean norm one does not."""


class ZeroRow(ConewalkError):
    """Constraint matrix contains an all-zero row."""


class ZeroObjective(ConewalkError):
    """Objective vector is (numerically) zero."""


class NonIntegerEntries(ConewalkError):
    """Matrix expected to be integral has non-integer entries."""


class TooLarge(ConewalkError):
    """Not desk-scale: an enumeration over its budget, or a value past the
    float range.

    budget is the enumeration budget the work would exceed (raised by
    lp.delta_bruteforce and the oracle's enumerations), and None when a
    value leaves the float range.  Only the first kind can be met by
    another certificate: the command line's --delta auto falls back to the
    file's integral bound for it alone.
    """

    def __init__(self, message: str, budget: int | None = None) -> None:
        super().__init__(message)
        self.budget = budget


class RankDeficient(ConewalkError):
    """Constraint matrix does not have full column rank."""


class InfeasibleBasis(ConewalkError):
    """Basic solution violates some constraint."""


class UnboundedEdge(ConewalkError):
    """Ratio test found no blocking constraint along a pivot edge."""


class UnboundedLP(ConewalkError):
    """Objective is unbounded over the feasible region."""


class IterationLimit(ConewalkError):
    """Simplex safety cap on pivot count exceeded."""


class NoLargeCoefficient(ConewalkError):
    """No conic coefficient clears the identification threshold."""


class ObjectiveVanishes(ConewalkError):
    """Projected objective is numerically zero after a reduction step."""


class RetriesExhausted(ConewalkError):
    """Every full-budget walk attempt ended outside the optimal cone."""


class FaceReachesBox(ConewalkError):
    """Not a verdict: the program is bounded, but the boxed optimum's basis
    holds box rows, each with cone multiplier 0 for c, so the optimal face
    reaches the box and no basis of input rows was found to report."""


class Infeasible(ConewalkError):
    """Certified: the constraint system has no feasible point.

    Carries a witness: iteration, the 1-based index of a constraint that
    cannot be satisfied, and value, a certified lower bound on that row's
    minimum over the feasible points which exceeds its right-hand side.
    value is for the row scaled to unit length, as is the message (the
    command line rescales it to the file's row).  The witness comes from
    one of two places, which solve tries in this order.  A crossed pair:
    the row is the exact negation of an earlier kept row whose right-hand
    side is b, so value is -b, and y = 1 on the two rows is a Farkas
    vector, y^T A = 0 and y^T b < 0 (lp.crossed_opposite_rows).  Otherwise
    phase 1: value is the row's minimum over the box and the kept rows
    before it, and certificate (ConewalkError) sized that box; a crossed
    pair needs none.
    """

    def __init__(self, message: str, iteration: int | None = None,
                 value: float | None = None) -> None:
        super().__init__(message)
        self.iteration = iteration
        self.value = value


class Unbounded(ConewalkError):
    """Certified: the boxed optimum's basis holds a box row with a positive
    cone multiplier for c (box_row: the least box row of that basis);
    certificate (ConewalkError) sized that box."""

    def __init__(self, message: str, box_row: int | None = None) -> None:
        super().__init__(message)
        self.box_row = box_row
