"""Exception types shared across the package."""


class ConewalkError(Exception):
    """Base class for all errors raised by this package."""


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
    """Enumeration budget or float range exceeded: not desk-scale."""


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
    before it.
    """

    def __init__(self, message: str, iteration: int | None = None,
                 value: float | None = None) -> None:
        super().__init__(message)
        self.iteration = iteration
        self.value = value


class Unbounded(ConewalkError):
    """Certified: the boxed optimum's basis holds a box row with a positive
    cone multiplier for c (box_row: the least box row of that basis)."""

    def __init__(self, message: str, box_row: int | None = None) -> None:
        super().__init__(message)
        self.box_row = box_row
