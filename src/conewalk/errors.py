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


class DegeneratePivot(ConewalkError):
    """Two ratio-test candidates tie; the instance violates non-degeneracy.

    Out of run_walk it carries ``walked``, the WalkOutcome of the steps the
    walk completed before the tie; elsewhere ``walked`` is None.
    """

    def __init__(self, message: str, walked=None) -> None:
        super().__init__(message)
        self.walked = walked


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


class Infeasible(ConewalkError):
    """Certified: the constraint system has no feasible point.

    Carries the sequential-LP witness: the first constraint index whose
    minimum over the previously feasible region exceeds its right-hand side,
    and that minimum value.
    """

    def __init__(self, message: str, iteration: int | None = None,
                 value: float | None = None) -> None:
        super().__init__(message)
        self.iteration = iteration
        self.value = value


class Unbounded(ConewalkError):
    """Certified: the optimum of the boxed system lies on the artificial box."""

    def __init__(self, message: str, box_row: int | None = None) -> None:
        super().__init__(message)
        self.box_row = box_row
