"""Exception types shared across the package."""


class StrataError(Exception):
    """Base class for all errors raised by this package."""


class InputError(StrataError, ValueError):
    """An input the library cannot use: wrong shape, mismatched rank,
    singular where an invertible matrix is needed.

    Also a ``ValueError``, so callers that catch that keep working.
    """


class DirectSumError(StrataError):
    """A required direct-sum decomposition does not hold numerically.

    Carries the condition number of the concatenated basis matrix so the
    caller can see how badly the decomposition failed.
    """

    def __init__(self, message, condition_number=None):
        if condition_number is not None:
            message = f"{message} (condition number {condition_number:.3e})"
        super().__init__(message)
        self.condition_number = condition_number


class DisconnectedComponentsError(StrataError):
    """The requested endpoints lie in different connected components."""


class WitnessError(StrataError):
    """A chain witness violates one of its splitting requirements."""


class InternalConsistencyError(StrataError):
    """Two independent computations of the same object disagree.

    Raised when a closed-form update and its direct recomputation differ
    beyond tolerance; this indicates a numerically hostile input rather
    than a user error.
    """
