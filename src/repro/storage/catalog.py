"""The catalog (tables, indexes, statistics) and the temp-MV registry.

The catalog is the single registry both the optimizer and the executor consult
for everything that outlives a statement.  Temporary materialized views (temp
MVs) are how POP exposes intermediate results of a partially executed query to
the re-optimization step (paper §2.3): a completed materialization point is
*promoted* to a temp MV whose statistics carry the exact observed cardinality;
the optimizer then considers scanning it as a normal, cost-compared
alternative.  Temp MVs belong to one statement, so they live in a
:class:`TempMVRegistry` the POP driver creates per statement and hands to the
enumerator, the harvest step and the MV-scan operator — never in the shared
catalog.  The paper's "cleanup" step is the registry going out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.common.errors import CatalogError
from repro.storage.index import HashIndex, Index, SortedIndex
from repro.storage.table import Schema, Table


@dataclass
class TempMV:
    """A temporary materialized view promoted from an intermediate result.

    ``signature`` identifies *what* the rows represent: the set of base-table
    aliases joined, the set of predicate ids already applied, and the output
    columns (qualified names, in row order).  MV matching during
    re-optimization is an exact match on tables and predicates plus a
    column-coverage check.
    """

    name: str
    tables: frozenset
    predicate_ids: frozenset
    columns: tuple
    rows: list[tuple]
    #: Exact observed cardinality — this is the MV's "catalog statistic".
    cardinality: int = field(init=False)
    #: Sort order of the rows, as a tuple of qualified column names
    #: (empty when unordered); lets re-optimization reuse a SORT output
    #: without re-sorting.
    order: tuple = ()

    def __post_init__(self) -> None:
        self.cardinality = len(self.rows)


class TempMVRegistry:
    """The temp MVs of one statement, in registration order."""

    def __init__(self) -> None:
        self._mvs: dict[str, TempMV] = {}

    def register(
        self,
        tables: frozenset,
        predicate_ids: frozenset,
        columns: tuple,
        rows: list[tuple],
        order: tuple = (),
    ) -> TempMV:
        """Promote an intermediate result to a temp MV (paper §2.3)."""
        mv = TempMV(
            name=f"__tempmv_{len(self._mvs) + 1}",
            tables=tables,
            predicate_ids=predicate_ids,
            columns=columns,
            rows=rows,
            order=order,
        )
        self._mvs[mv.name] = mv
        return mv

    def __iter__(self):
        return iter(self._mvs.values())

    def __len__(self) -> int:
        return len(self._mvs)

    def get(self, name: str) -> TempMV:
        try:
            return self._mvs[name]
        except KeyError as exc:
            raise CatalogError(f"no temp MV named {name!r}") from exc


class Catalog:
    """Registry of tables, their indexes, and statistics."""

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}
        self._indexes: dict[str, Index] = {}
        self._indexes_by_table: dict[str, list[Index]] = {}
        # table name -> TableStatistics (duck-typed; see repro.stats)
        self._stats: dict[str, Any] = {}

    # ------------------------------------------------------------------ tables

    def create_table(self, name: str, schema: Schema) -> Table:
        key = name.lower()
        if key in self._tables:
            raise CatalogError(f"table {name!r} already exists")
        table = Table(name.lower(), schema)
        self._tables[key] = table
        self._indexes_by_table[key] = []
        return table

    def drop_table(self, name: str) -> None:
        key = name.lower()
        if key not in self._tables:
            raise CatalogError(f"no table named {name!r}")
        del self._tables[key]
        for index in self._indexes_by_table.pop(key, []):
            self._indexes.pop(index.name, None)
        self._stats.pop(key, None)

    def table(self, name: str) -> Table:
        try:
            return self._tables[name.lower()]
        except KeyError as exc:
            raise CatalogError(f"no table named {name!r}") from exc

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def tables(self) -> list[Table]:
        return list(self._tables.values())

    # ----------------------------------------------------------------- indexes

    def create_index(
        self, name: str, table_name: str, column: str, kind: str = "sorted"
    ) -> Index:
        """Create a ``"hash"`` or ``"sorted"`` index on ``table.column``."""
        key = name.lower()
        if key in self._indexes:
            raise CatalogError(f"index {name!r} already exists")
        table = self.table(table_name)
        if kind == "hash":
            index: Index = HashIndex(key, table, column)
        elif kind == "sorted":
            index = SortedIndex(key, table, column)
        else:
            raise CatalogError(f"unknown index kind {kind!r}")
        self._indexes[key] = index
        self._indexes_by_table[table.name].append(index)
        return index

    def indexes_on(self, table_name: str) -> list[Index]:
        return list(self._indexes_by_table.get(table_name.lower(), []))

    def index_on_column(self, table_name: str, column: str) -> Optional[Index]:
        """An index whose key is exactly ``column`` (sorted preferred), or None."""
        candidates = [
            ix for ix in self.indexes_on(table_name) if ix.column == column
        ]
        if not candidates:
            return None
        for ix in candidates:
            if ix.supports_range:
                return ix
        return candidates[0]

    def rebuild_indexes(self, table_name: str) -> None:
        """Rebuild all indexes of a table after a bulk load."""
        for index in self.indexes_on(table_name):
            index.rebuild()

    # ------------------------------------------------------------- statistics

    def set_statistics(self, table_name: str, stats: Any) -> None:
        self.table(table_name)  # validate existence
        self._stats[table_name.lower()] = stats

    def statistics(self, table_name: str) -> Any:
        """Statistics for a table, or ``None`` when RUNSTATS never ran."""
        return self._stats.get(table_name.lower())
