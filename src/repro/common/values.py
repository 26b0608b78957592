"""Value types supported by the engine.

The engine is deliberately small: columns are typed as one of
``INT``, ``FLOAT``, ``STR`` or ``DATE``.  Dates are stored internally as the
number of days since 1970-01-01 (an ``int``), which keeps rows hashable and
comparable without pulling ``datetime`` objects through the executor hot path.
:func:`date_to_days` converts ISO date strings to day numbers.
"""

from __future__ import annotations

import datetime
import enum
from typing import Any

from repro.common.errors import SchemaError

_EPOCH = datetime.date(1970, 1, 1)


class DataType(enum.Enum):
    """Logical column type."""

    INT = "int"
    FLOAT = "float"
    STR = "str"
    DATE = "date"

    @classmethod
    def parse(cls, name: str) -> "DataType":
        """Return the :class:`DataType` for a type name such as ``"int"``.

        Raises :class:`SchemaError` for unknown names.
        """
        try:
            return cls(name.lower())
        except ValueError as exc:
            raise SchemaError(f"unknown data type {name!r}") from exc


def date_to_days(text: str) -> int:
    """Convert an ISO date string (``YYYY-MM-DD``) to days since epoch."""
    d = datetime.date.fromisoformat(text)
    return (d - _EPOCH).days


def coerce(value: Any, dtype: DataType) -> Any:
    """Coerce ``value`` to the Python representation of ``dtype``.

    ``None`` passes through (SQL NULL).  Strings given for DATE columns are
    parsed as ISO dates.  Raises :class:`SchemaError` when the value cannot
    represent the type.
    """
    if value is None:
        return None
    try:
        if dtype is DataType.INT:
            return int(value)
        if dtype is DataType.FLOAT:
            return float(value)
        if dtype is DataType.STR:
            return str(value)
        if dtype is DataType.DATE:
            if isinstance(value, str):
                return date_to_days(value)
            return int(value)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"cannot coerce {value!r} to {dtype.value}") from exc
    raise SchemaError(f"unknown data type {dtype!r}")
