"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Operands have incompatible lengths or dimensions."""


class ParameterError(ValueError):
    """A parameter is outside its documented range."""


class ValidationError(ValueError):
    """A value violates a structural invariant (Hermiticity, PSD, ...)."""


class SearchExhaustedError(RuntimeError):
    """A randomized search ran out of budget; carries the best value found."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best
