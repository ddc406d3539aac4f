"""Exception types shared across the package, and the readers that raise them.

Three readers take a scalar from a caller or a config file: ``as_number`` a real (an integer with ``kind=int``),
``as_positive`` a positive finite real, and ``as_count`` a count, any size a request allocates or loops over
(an index bound, a hard cap, an order, a replication or draw count), held to the one bound ``MAX_ARRIVALS``.
``as_object``, ``as_list`` and ``read_field`` read JSON objects and lists.
"""

import math

MAX_ARRIVALS = 100_000_000  # ~800 MB of float64, hard memory bound


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


def as_count(name: str, value, minimum: int = 1) -> int:
    """The integer ``as_number(name, value, int)`` reads: below ``minimum`` a DomainError, above ``MAX_ARRIVALS``
    a ResourceLimitError, raised before anything of that size is allocated."""
    count = as_number(name, value, int)
    if count < minimum:
        raise DomainError(f"{name} must be at least {minimum}, got {count}")
    if count > MAX_ARRIVALS:
        raise ResourceLimitError(f"{name} {count} exceeds the hard bound {MAX_ARRIVALS}")
    return count


def as_positive(name: str, value) -> float:
    """The real ``as_number(name, value)`` reads, checked to be positive and finite; else a DomainError."""
    value = as_number(name, value)
    if not (math.isfinite(value) and value > 0):
        raise DomainError(f"{name} must be a positive finite real, got {value}")
    return value


def as_object(payload: str, data, fields=None) -> dict:
    """``data``, checked to be a JSON object, with no key outside ``fields`` where they are given; else a
    DomainError naming the payload.  A string or a list is named by its type, any other value by its repr."""
    if not isinstance(data, dict):
        got = type(data).__name__ if isinstance(data, (str, list)) else repr(data)
        raise DomainError(f"{payload} must be an object, got {got}")
    extra = fields is not None and set(data) - set(fields)
    if extra:
        raise DomainError(f"unknown {payload} fields: {sorted(extra)}")
    return data


def as_list(value, read=None) -> list:
    """``value``, checked to be a JSON list, each item passed through ``read`` where one is given."""
    if not isinstance(value, list):
        raise TypeError(f"expected a list, got {type(value).__name__}")
    return value if read is None else [read(item) for item in value]


def read_field(payload: str, data, key: str, read, *default):
    """``read(data[key])``, or ``read`` of the default where ``key`` is absent and one is given.  A
    payload that is not an object, a missing field or a value ``read`` rejects raises a DomainError
    naming the payload and the field."""
    if key not in as_object(payload, data) and not default:
        raise DomainError(f"{payload} lacks field {key!r}")
    try:
        return read(data.get(key, *default))
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{payload} field {key!r} does not read: {exc}") from exc
