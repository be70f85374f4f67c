"""Exception hierarchy shared by all gbv modules."""


class GbvError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(GbvError):
    """Input data or family definition fails a structural check."""


class HorizonError(GbvError):
    """An index exceeds the configured truncation horizon."""


class ResolutionError(GbvError):
    """A construction does not fit on the available uniform grid."""


class HypothesisError(GbvError):
    """A mathematical hypothesis required by an operation is violated."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class InfeasibleError(GbvError):
    """A requested construction has no solution under the given constants."""

    def __init__(self, message, level=None):
        super().__init__(message)
        self.level = level


class InternalConsistencyError(GbvError):
    """Two routes that must agree disagreed; indicates a bug, not bad input."""
