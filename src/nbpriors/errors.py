"""Exception types shared across the package."""


class NbpError(Exception):
    """Base class for all package-specific errors."""


class DomainError(NbpError, ValueError):
    """An argument lies outside the documented domain of an operation."""


class NumericError(NbpError, ArithmeticError):
    """An iterative numerical routine failed to converge.

    Carries the best estimate reached so the caller can inspect how far
    the iteration got.
    """

    def __init__(self, message, best_estimate=None):
        super().__init__(message)
        self.best_estimate = best_estimate


class ResourceLimitError(NbpError, RuntimeError):
    """A request would exceed a hard memory or size bound."""


class CapabilityError(NbpError, RuntimeError):
    """An operation needs an optional capability the inputs do not provide."""


class DegenerateTruncationError(NbpError, ValueError):
    """A truncation policy retained fewer than two points."""


def as_number(name: str, value, kind=float):
    """``kind(value)`` for a parameter read from a caller or a config file; a value that does
    not convert, or a real with a fractional part where ``kind`` is int, raises DomainError."""
    try:
        number = kind(value)
        if kind is int and not isinstance(value, str) and number != value:
            raise ValueError("fractional part")
        return number
    except (TypeError, ValueError, OverflowError) as exc:
        expected = "an integer" if kind is int else "a real number"
        raise DomainError(f"{name} must be {expected}, got {value!r}") from exc
