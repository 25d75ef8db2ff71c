"""Exception types shared across the package."""


class CVSimError(Exception):
    """Base class for all cvsim errors."""


class MalformedInputError(CVSimError):
    """Input arrays have the wrong shape or violate a structural invariant."""


class DegenerateInputError(CVSimError):
    """A covariance matrix is singular or not positive definite."""


class UnsupportedOrderingError(CVSimError):
    """The requested s-ordered quasiprobability does not exist as a regular
    function for this state (sigma - s*(hbar/2)*I is not positive definite)."""


class InversionError(CVSimError):
    """CDF inversion found no quantile within its reach, met a NaN CDF or
    ran out of steps."""


class SpecValidationError(CVSimError):
    """A network description violates the JSON schema.

    Attributes:
        pointer: JSON-pointer path to the offending element, e.g. "/gates/2/modes".
    """

    def __init__(self, pointer: str, message: str):
        self.pointer = pointer
        super().__init__(f"{pointer}: {message}")


class NetworkRuntimeError(CVSimError, ValueError):
    """A valid network description failed while it ran.

    Attributes:
        pointer: JSON-pointer path to the gate or analysis that failed,
            e.g. "/gates/1".
    """

    def __init__(self, pointer: str, message: str):
        self.pointer = pointer
        super().__init__(f"{pointer}: {message}")
