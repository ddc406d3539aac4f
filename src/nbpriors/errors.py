"""Exception types shared across the package, and the readers that raise them.

Three readers take a scalar from a caller or a config file: ``as_number`` a real (an integer with ``kind=int``),
``as_positive`` a positive finite real, and ``as_count`` a count, any size a request allocates or loops over
(an index bound, a hard cap, an order, a replication or draw count), held to the one bound ``MAX_ARRIVALS``.
``as_object``, ``as_list`` and ``read_field`` read JSON objects and lists.  The two text formats are read and
written here only: ``as_json`` parses JSON text, ``table_text`` writes a CSV table and ``as_table`` reads one back.
"""

import json
import math
import numbers

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


def as_json(payload: str, text):
    """The value that the JSON ``text`` holds; text that does not parse raises a DomainError naming the payload."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"{payload} does not parse: {exc}") from exc


def table_text(header, rows) -> str:
    """A CSV table: the header line, then one line per row, an integer cell as written and any other cell as
    ``repr(float(v))``, every line ending in a newline."""
    lines = [",".join(str(v) if isinstance(v, numbers.Integral) else repr(float(v)) for v in row) for row in rows]
    return "\n".join([",".join(header), *lines]) + "\n"


def as_table(payload: str, text: str, header=None) -> list[dict]:
    """The rows of a CSV table as ``table_text`` writes it, each a dict keyed by the header's columns: an
    integer cell read as an int and any other cell as a float.  A first line other than ``header`` where
    one is given, a repeated column, a row of the wrong length or a cell that is not a number raises a
    DomainError naming the payload."""
    lines = [line for line in text.strip().splitlines() if line]
    if header is not None and lines[:1] != [",".join(header)]:
        raise DomainError(f"{payload} must start with an {','.join(header)!r} header")
    if not lines:
        raise DomainError(f"empty {payload} table")
    columns = lines[0].split(",")
    if len(set(columns)) < len(columns):
        raise DomainError(f"{payload} header repeats a column: {lines[0]!r}")
    rows = []
    for i, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if len(cells) != len(columns):
            raise DomainError(f"{payload} row has {len(cells)} cells, header has {len(columns)}")
        row = {}
        for key, cell in zip(columns, cells):
            try:
                row[key] = int(cell)
            except ValueError:
                try:
                    row[key] = float(cell)
                except ValueError as exc:
                    raise DomainError(f"{payload} row {i}, column {key!r}: {cell!r} is not a number") from exc
        rows.append(row)
    return rows
