"""The logical query block.

A :class:`Query` is a single select-project-join block with optional grouping,
ordering and limit — the query class the paper's prototype operates on.
Queries are built either programmatically (workloads, tests) or by the SQL
front end (:mod:`repro.sql`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.common.errors import BindError
from repro.expr.expressions import ColumnRef
from repro.expr.predicates import JoinPredicate, Predicate

#: Aggregate functions supported in the SELECT list.
AGGREGATE_FUNCS = ("count", "sum", "avg", "min", "max")


@dataclass(frozen=True)
class TableRef:
    """A FROM-list entry: base table ``name`` under alias ``alias``."""

    alias: str
    table: str

    def __str__(self) -> str:
        if self.alias == self.table:
            return self.table
        return f"{self.table} AS {self.alias}"


@dataclass(frozen=True)
class Aggregate:
    """An aggregate select item, e.g. ``sum(l.price)`` or ``count(*)``."""

    func: str
    argument: Optional[ColumnRef]  # None means COUNT(*)
    alias: str

    def __post_init__(self) -> None:
        if self.func not in AGGREGATE_FUNCS:
            raise BindError(f"unknown aggregate function {self.func!r}")
        if self.argument is None and self.func != "count":
            raise BindError(f"{self.func}(*) is not valid")

    def __str__(self) -> str:
        arg = "*" if self.argument is None else str(self.argument)
        return f"{self.func}({arg})"


#: A SELECT-list item: plain column or aggregate.
SelectItem = ColumnRef | Aggregate


@dataclass(frozen=True)
class OrderItem:
    """One ORDER BY key: a select-list column (by qualified name) + direction."""

    column: str
    ascending: bool = True


@dataclass(frozen=True)
class HavingPredicate:
    """One HAVING conjunct: a comparison over an aggregation output column.

    ``column`` names a select-list output (a group column's qualified name
    or an aggregate's alias); evaluation happens on the GROUP BY output
    rows, after aggregation.
    """

    column: str
    op: str
    value: object

    def __post_init__(self) -> None:
        if self.op not in ("=", "!=", "<", "<=", ">", ">="):
            raise BindError(f"unknown HAVING operator {self.op!r}")

    def __str__(self) -> str:
        return f"{self.column} {self.op} {self.value!r}"


@dataclass
class Query:
    """A single SPJ + aggregation query block."""

    tables: list
    select: list
    local_predicates: list = field(default_factory=list)
    join_predicates: list = field(default_factory=list)
    group_by: list = field(default_factory=list)
    having: list = field(default_factory=list)
    order_by: list = field(default_factory=list)
    limit: Optional[int] = None
    distinct: bool = False

    def __post_init__(self) -> None:
        self.validate()

    # ------------------------------------------------------------- inspection

    @property
    def aliases(self) -> list[str]:
        return [t.alias for t in self.tables]

    def table_for(self, alias: str) -> TableRef:
        for ref in self.tables:
            if ref.alias == alias:
                return ref
        raise BindError(f"no table with alias {alias!r} in query")

    def local_predicates_for(self, alias: str) -> list[Predicate]:
        return [p for p in self.local_predicates if p.tables() == {alias}]

    @property
    def has_aggregates(self) -> bool:
        return any(isinstance(item, Aggregate) for item in self.select)

    @property
    def output_names(self) -> list[str]:
        """Qualified names / aliases of the result columns, in order."""
        names = []
        for item in self.select:
            if isinstance(item, Aggregate):
                names.append(item.alias)
            else:
                names.append(item.qualified)
        return names

    # ------------------------------------------------------------- validation

    def validate(self) -> None:
        aliases = self.aliases
        if len(set(aliases)) != len(aliases):
            raise BindError(f"duplicate table aliases: {aliases}")
        alias_set = set(aliases)
        for pred in self.local_predicates:
            if pred.is_join:
                raise BindError(f"join predicate in local list: {pred}")
            missing = pred.tables() - alias_set
            if missing:
                raise BindError(f"predicate {pred} references unknown {missing}")
        for pred in self.join_predicates:
            if not isinstance(pred, JoinPredicate):
                raise BindError(f"non-join predicate in join list: {pred}")
            missing = pred.tables() - alias_set
            if missing:
                raise BindError(f"join {pred} references unknown {missing}")
        if self.has_aggregates:
            group_cols = {c.qualified for c in self.group_by}
            for item in self.select:
                if isinstance(item, ColumnRef) and item.qualified not in group_cols:
                    raise BindError(
                        f"{item} must appear in GROUP BY when aggregates are used"
                    )
        if self.group_by and not self.has_aggregates:
            raise BindError("GROUP BY requires at least one aggregate")
        output = set(self.output_names)
        for item in self.order_by:
            if item.column not in output:
                raise BindError(
                    f"ORDER BY column {item.column!r} is not in the select list"
                )
        if self.having:
            if not self.has_aggregates:
                raise BindError("HAVING requires aggregation")
            for pred in self.having:
                if pred.column not in output:
                    raise BindError(
                        f"HAVING column {pred.column!r} is not in the select list"
                    )
