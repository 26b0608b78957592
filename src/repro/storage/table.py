"""In-memory row-store tables.

A :class:`Table` stores rows as tuples in insertion order; the row id (rid) of
a row is its position in the store.  Rids are stable because the engine is
append-only (the reproduction is read-only after load, matching the paper's
experimental setting).  Each table models a page count derived from its row
width so that the cost model and the executor's work meter can charge I/O in
page units.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Iterable, Iterator, Sequence

from repro.common.errors import SchemaError
from repro.common.values import DataType, coerce

#: Modeled page size in bytes (used only for costing, not physical layout).
PAGE_SIZE = 4096

#: Modeled per-column byte widths for page-count estimation.
_TYPE_WIDTH = {
    DataType.INT: 8,
    DataType.FLOAT: 8,
    DataType.DATE: 8,
    DataType.STR: 24,
}


@dataclass(frozen=True)
class Column:
    """A named, typed column of a table."""

    name: str
    dtype: DataType

    @property
    def width(self) -> int:
        """Modeled storage width in bytes."""
        return _TYPE_WIDTH[self.dtype]


@dataclass
class Schema:
    """An ordered collection of columns with unique names."""

    columns: list[Column] = field(default_factory=list)

    def __post_init__(self) -> None:
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names in schema: {names}")
        self._by_name = {c.name: i for i, c in enumerate(self.columns)}

    @classmethod
    def of(cls, *specs: tuple[str, str] | Column) -> "Schema":
        """Build a schema from ``("name", "type")`` pairs or columns."""
        cols = [
            spec if isinstance(spec, Column) else Column(spec[0], DataType.parse(spec[1]))
            for spec in specs
        ]
        return cls(cols)

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self) -> Iterator[Column]:
        return iter(self.columns)

    def has_column(self, name: str) -> bool:
        return name in self._by_name

    def index_of(self, name: str) -> int:
        """Position of the column ``name``; raises :class:`SchemaError` if absent."""
        try:
            return self._by_name[name]
        except KeyError as exc:
            raise SchemaError(f"no column named {name!r}") from exc

    def column(self, name: str) -> Column:
        return self.columns[self.index_of(name)]

    def names(self) -> list[str]:
        return [c.name for c in self.columns]

    @property
    def row_width(self) -> int:
        """Modeled row width in bytes."""
        return sum(c.width for c in self.columns) or 1


class Table:
    """An append-only in-memory table.

    Rows are plain tuples ordered as the schema.  ``rows[rid]`` is the row
    with that rid.
    """

    def __init__(self, name: str, schema: Schema):
        self.name = name
        self.schema = schema
        self.rows: list[tuple] = []

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Table({self.name!r}, {self.row_count} rows)"

    @property
    def row_count(self) -> int:
        return len(self.rows)

    @property
    def page_count(self) -> int:
        """Modeled number of pages the table occupies (at least 1)."""
        rows_per_page = max(1, PAGE_SIZE // self.schema.row_width)
        return max(1, -(-self.row_count // rows_per_page))

    def insert(self, values: Sequence[Any]) -> int:
        """Append one row (coercing values to column types); returns its rid."""
        if len(values) != len(self.schema):
            raise SchemaError(
                f"{self.name}: expected {len(self.schema)} values, got {len(values)}"
            )
        row = tuple(
            coerce(v, col.dtype) for v, col in zip(values, self.schema.columns)
        )
        self.rows.append(row)
        return len(self.rows) - 1

    def insert_many(self, rows: Iterable[Sequence[Any]]) -> None:
        for values in rows:
            self.insert(values)

    def load_raw(self, rows: list[tuple]) -> None:
        """Bulk-append pre-coerced tuples (generator fast path, no validation)."""
        self.rows.extend(rows)

    def scan(self) -> Iterator[tuple[int, tuple]]:
        """Yield ``(rid, row)`` pairs in rid order."""
        return enumerate(self.rows)

    def fetch(self, rid: int) -> tuple:
        return self.rows[rid]

    def column_values(self, name: str) -> list[Any]:
        """All values of one column, in rid order (used by RUNSTATS)."""
        return list(map(itemgetter(self.schema.index_of(name)), self.rows))
