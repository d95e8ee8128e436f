"""The one place that decides a JSON value's kind, for requests, config and data files,
and that words a fault of JSON decoding.

A fault raises ``FieldError``; each boundary turns it into its own error once.
"""

from __future__ import annotations

import json
import math
import sys
from enum import Enum
from functools import cache
from typing import Any, Mapping, Sequence

import numpy as np

from .errors import FieldError

REQUIRED: Any = object()  # the default of a field that must be present

_NUMBER_TYPES = frozenset((int, float))
_COUNT_WORDS = {3: "three ", 4: "four "}


def read_field(data: Mapping[str, Any], key: str, kind: Any, default: Any = REQUIRED) -> Any:
    """``data[key]`` of ``kind``: ``float`` (a number), an ``Enum`` (a name) or type(s).

    A number is a JSON int or float, finite as a float64; a boolean is never
    an int. An absent key gives ``default``, and so does a null one when
    ``default`` is None.
    """
    if key not in data or (default is None and data[key] is None):
        if default is REQUIRED:
            raise FieldError(f"missing field {key!r}")
        return default
    value = data[key]
    if kind is float:
        if type(value) in _NUMBER_TYPES and abs(value) <= sys.float_info.max:  # also not NaN
            return float(value)
        raise FieldError(f"field {key!r} must be a finite number")
    if isinstance(kind, type) and issubclass(kind, Enum):
        if isinstance(value, str) and value in _enum_values(kind):
            return kind(value)
        raise FieldError(f"unknown {key} {value!r}")
    kinds = kind if isinstance(kind, tuple) else (kind,)
    if not isinstance(value, kinds) or (isinstance(value, bool) and bool not in kinds):
        raise FieldError(f"field {key!r} must be {'/'.join(k.__name__ for k in kinds)}")
    return value


@cache
def _enum_values(kind: type[Enum]) -> frozenset[Any]:
    """The values of an ``Enum``'s members, built once per ``Enum``."""
    return frozenset(member.value for member in kind)


def _finite_floats(values: list) -> list[float] | None:
    """``values`` as floats when each is a number finite as a float64, else None.

    A number is a JSON int or float, never a bool. The one rule behind
    ``read_numbers`` and ``read_number_rows``.
    """
    types = set(map(type, values))
    if not types <= _NUMBER_TYPES:
        return None
    try:
        floats = list(map(float, values)) if int in types else values
    except OverflowError:  # an integer beyond float64
        return None
    if math.isfinite(sum(floats)) or all(map(math.isfinite, floats)):  # a finite sum has finite terms
        return floats
    return None


def read_numbers(
    data: Mapping[str, Any], key: str, length: int | None = None, default: Any = REQUIRED
) -> tuple[float, ...]:
    """``data[key]`` as an array of numbers (of ``length`` when given), as floats."""
    values = read_field(data, key, list, default)
    if values is default:
        return default
    floats = _finite_floats(values) if length is None or len(values) == length else None
    if floats is None:
        count = _COUNT_WORDS.get(length, "")
        raise FieldError(f"field {key!r} must be an array of {count}finite numbers")
    return tuple(floats)


def read_strings(data: Mapping[str, Any], key: str, default: Any = REQUIRED) -> tuple[str, ...]:
    """``data[key]`` as an array of strings."""
    values = read_field(data, key, list, default)
    if values is default:
        return default
    if set(map(type, values)) <= {str}:
        return tuple(values)
    raise FieldError(f"field {key!r} must be an array of strings")


def read_number_rows(rows: Sequence[Mapping[str, Any]], key: str, length: int) -> list[float] | None:
    """``read_numbers(row, key, length)`` of every row, joined in row order into one flat list.

    None when some row fails: a caller that must name it reads the rows
    again one by one. All rows are checked at once, by ``read_numbers``'
    own rule.
    """
    values = [row.get(key) for row in rows]
    flat = [v for value in values if isinstance(value, list) and len(value) == length for v in value]
    return _finite_floats(flat) if len(flat) == length * len(values) else None


def read_number_table(data: Mapping[str, Any], keys: Sequence[str]) -> np.ndarray | None:
    """``read_numbers(data, key)`` of every key, as the rows of one (len(keys), n) float64 array.

    None when some key fails or the arrays differ in length: a caller that
    must name the fault reads the keys again one by one. The arrays are
    converted by one ``np.array`` call and checked at once, by
    ``read_numbers``' own rule for the values JSON decoding gives: a float64
    result holds only numbers and booleans (a string, a null or an integer
    beyond float64 gives another dtype), and a boolean becomes 0.0 or 1.0,
    so only the elements equal to those are looked at. (A numpy scalar, no
    JSON value, is read here as its number.)
    """
    values = [data.get(key) for key in keys]
    if not all(isinstance(value, list) for value in values):
        return None
    try:
        table = np.array(values)
    except ValueError:  # arrays of unequal length, or nested ones
        return None
    if table.dtype != np.float64 or table.ndim != 2 or not np.isfinite(table).all():
        return None
    n = table.shape[1]
    for index in np.flatnonzero((table == 0) | (table == 1)).tolist():
        if type(values[index // n][index % n]) is bool:
            return None
    return table


def read_id(data: Mapping[str, Any], key: str) -> str:
    """An id field: a JSON string or integer, as a string."""
    value = read_field(data, key, (str, int))
    try:
        return str(value)
    except ValueError:  # an integer over the interpreter's digit limit
        raise FieldError(f"field {key!r} is an integer too long") from None


def json_fault(exc: Exception) -> str:
    """The text of a fault that ``json.loads`` raised: a ``ValueError`` or a ``RecursionError``."""
    if isinstance(exc, json.JSONDecodeError):
        return f"{exc.msg} at position {exc.pos}"
    if isinstance(exc, RecursionError):
        return "nesting too deep"
    return "number too long"  # an integer literal over the interpreter's digit limit
