"""Exception taxonomy for the toolkit.

Every failure mode named in an operation contract gets its own class so
callers can branch on them; all inherit from PLQError.
"""


class PLQError(Exception):
    """Base class for all toolkit errors."""


class DimensionMismatch(PLQError):
    pass


class EmptyPolyhedron(PLQError):
    pass


class PointNotInSet(PLQError):
    pass


class NotANormalVector(PLQError):
    pass


class TooManyRows(PLQError):
    pass


class PointOutsideDomain(PLQError):
    pass


class NotASubgradient(PLQError):
    pass


class PointNotInTheta(PLQError):
    pass


class NotAKKTPoint(PLQError):
    pass


class Infeasible(PLQError):
    pass


class Unbounded(PLQError):
    pass


class NoFeasiblePiece(PLQError):
    pass


class DegenerateStep(PLQError):
    pass


class TooShortTrace(PLQError):
    pass


class SubproblemFailure(PLQError):
    """Subproblem could not be solved; carries the partial trace when raised by the driver."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace if trace is not None else []


class MaxIterReached(PLQError):
    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace if trace is not None else []


class SolverFailure(PLQError):
    pass


class QPFailure(PLQError):
    """Active-set kernel exceeded its iteration safety cap."""


class ValidationError(PLQError):
    """A problem file violates a structural invariant."""


class ParseError(PLQError):
    """A problem file cannot be parsed; message names the offending field."""


class BadParams(ValidationError):
    """Generator parameters that admit no instance."""
