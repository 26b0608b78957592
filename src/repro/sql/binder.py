"""Binding: resolve a parsed SELECT against the catalog into a logical
:class:`~repro.plan.logical.Query`.

Responsibilities:

* resolve table names and aliases, and unqualified columns (erroring on
  ambiguity);
* classify WHERE conjuncts into local predicates, equi-join predicates, and
  OR groups (which must stay within one table);
* coerce literals to the column's type (ISO date strings become day
  numbers for DATE columns), and reject a literal or a join partner the
  column's type cannot compare with (a string against a number or a date,
  a number against a string): such a predicate would otherwise fail or
  match nothing depending on the plan;
* name aggregates (explicit alias, else ``func_column``).
"""

from __future__ import annotations

from repro.common.errors import BindError
from repro.common.values import DataType, date_to_days
from repro.expr.expressions import ColumnRef, Literal, ParameterMarker
from repro.expr.predicates import (
    Between,
    Comparison,
    InList,
    IsNull,
    JoinPredicate,
    Like,
    Or,
    Predicate,
)
from repro.plan.logical import Aggregate, HavingPredicate, OrderItem, Query, TableRef
from repro.sql.ast_nodes import (
    AndExpr,
    BetweenExpr,
    ColumnName,
    ComparisonExpr,
    Constant,
    InExpr,
    IsNullExpr,
    LikeExpr,
    Marker,
    OrExpr,
    SelectAggregate,
    SelectColumn,
    SelectStatement,
)
from repro.sql.parser import parse_sql
from repro.storage.catalog import Catalog


class Binder:
    """Binds one statement.

    With ``lift_literals=True`` every comparison/BETWEEN literal is replaced
    by an auto-named parameter marker (``__lit0``, ``__lit1``, ... in binding
    order) and its type-coerced value is collected in :attr:`lifted_params`.
    Statements differing only in those literal values then bind to the same
    logical query shape — the normalization the plan cache keys on.
    """

    #: Prefix of auto-generated marker names; ``?`` markers lex as ``p1``,
    #: ``p2``, ... so the leading underscores keep the namespaces apart.
    LIFTED_PREFIX = "__lit"

    def __init__(self, catalog: Catalog, lift_literals: bool = False):
        self.catalog = catalog
        self.lift_literals = lift_literals
        #: Values of lifted literals, keyed by generated marker name.
        self.lifted_params: dict[str, object] = {}
        self._aliases: dict[str, str] = {}  # alias -> table name

    # ------------------------------------------------------------ resolution

    def _register_tables(self, stmt: SelectStatement) -> list[TableRef]:
        refs = []
        for t in stmt.tables:
            if not self.catalog.has_table(t.table):
                raise BindError(f"unknown table {t.table!r}")
            if t.alias in self._aliases:
                raise BindError(f"duplicate table alias {t.alias!r}")
            self._aliases[t.alias] = t.table
            refs.append(TableRef(alias=t.alias, table=t.table))
        return refs

    def resolve_column(self, name: ColumnName) -> ColumnRef:
        if name.table is not None:
            table = self._aliases.get(name.table)
            if table is None:
                raise BindError(f"unknown table alias {name.table!r}")
            schema = self.catalog.table(table).schema
            if not schema.has_column(name.column):
                raise BindError(f"table {table!r} has no column {name.column!r}")
            return ColumnRef(name.table, name.column)
        matches = [
            alias
            for alias, table in self._aliases.items()
            if self.catalog.table(table).schema.has_column(name.column)
        ]
        if not matches:
            raise BindError(f"unknown column {name.column!r}")
        if len(matches) > 1:
            raise BindError(
                f"column {name.column!r} is ambiguous (tables {sorted(matches)})"
            )
        return ColumnRef(matches[0], name.column)

    def _column_type(self, ref: ColumnRef) -> DataType:
        table = self.catalog.table(self._aliases[ref.table])
        return table.schema.column(ref.column).dtype

    def _coerce_literal(self, value, dtype: DataType):
        if value is None:
            return None
        if dtype is DataType.DATE and isinstance(value, str):
            try:
                return date_to_days(value)
            except ValueError as exc:
                raise BindError(f"invalid date literal {value!r}") from exc
        if (dtype is DataType.STR) is not isinstance(value, str):
            raise BindError(
                f"cannot compare a {dtype.value} column with {value!r}"
            )
        if dtype is DataType.FLOAT and isinstance(value, int):
            return float(value)
        return value

    def _operand(self, value, dtype: DataType):
        if isinstance(value, Marker):
            return ParameterMarker(value.name)
        if isinstance(value, Constant):
            coerced = self._coerce_literal(value.value, dtype)
            if self.lift_literals:
                name = f"{self.LIFTED_PREFIX}{len(self.lifted_params)}"
                self.lifted_params[name] = coerced
                return ParameterMarker(name)
            return Literal(coerced)
        raise BindError(f"cannot bind operand {value!r}")

    # ------------------------------------------------------------ conditions

    def bind_condition(self, cond) -> list[Predicate]:
        """Flatten a condition into a conjunct list of bound predicates."""
        if isinstance(cond, AndExpr):
            preds: list[Predicate] = []
            for child in cond.children:
                preds.extend(self.bind_condition(child))
            return preds
        return [self._bind_single(cond)]

    def _bind_single(self, cond) -> Predicate:
        if isinstance(cond, ComparisonExpr):
            return self._bind_comparison(cond)
        if isinstance(cond, BetweenExpr):
            column = self.resolve_column(cond.column)
            dtype = self._column_type(column)
            return Between(
                column=column,
                low=self._operand(cond.low, dtype),
                high=self._operand(cond.high, dtype),
            )
        if isinstance(cond, InExpr):
            column = self.resolve_column(cond.column)
            dtype = self._column_type(column)
            return InList(
                column=column,
                values=tuple(self._coerce_literal(v, dtype) for v in cond.values),
            )
        if isinstance(cond, LikeExpr):
            column = self.resolve_column(cond.column)
            if self._column_type(column) is not DataType.STR:
                raise BindError(f"LIKE requires a string column, got {column}")
            return Like(column=column, pattern=cond.pattern)
        if isinstance(cond, IsNullExpr):
            column = self.resolve_column(cond.column)
            return IsNull(column=column, negated=cond.negated)
        if isinstance(cond, OrExpr):
            children = []
            for child in cond.children:
                bound = self.bind_condition(child)
                children.extend(bound)
            try:
                return Or(tuple(children))
            except ValueError as exc:
                raise BindError(str(exc)) from exc
        if isinstance(cond, AndExpr):  # AND nested under OR
            raise BindError("AND nested inside OR is not supported")
        raise BindError(f"cannot bind condition {cond!r}")

    def _bind_comparison(self, cond: ComparisonExpr) -> Predicate:
        if isinstance(cond.left, ColumnName) and isinstance(cond.right, ColumnName):
            left = self.resolve_column(cond.left)
            right = self.resolve_column(cond.right)
            if left.table == right.table:
                raise BindError(
                    f"column-to-column predicates within one table are not "
                    f"supported: {left} {cond.op} {right}"
                )
            if cond.op != "=":
                raise BindError(f"only equi-joins are supported, got {cond.op!r}")
            left_type, right_type = self._column_type(left), self._column_type(right)
            if (left_type is DataType.STR) is not (right_type is DataType.STR):
                raise BindError(
                    f"cannot join {left} ({left_type.value}) with "
                    f"{right} ({right_type.value})"
                )
            return JoinPredicate(left, right)
        if isinstance(cond.left, ColumnName):
            column = self.resolve_column(cond.left)
            dtype = self._column_type(column)
            return Comparison(column, cond.op, self._operand(cond.right, dtype))
        if isinstance(cond.right, ColumnName):
            # Normalize "value <op> column" to "column <mirrored-op> value".
            mirrored = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!="}
            column = self.resolve_column(cond.right)
            dtype = self._column_type(column)
            return Comparison(
                column, mirrored[cond.op], self._operand(cond.left, dtype)
            )
        raise BindError("comparison must reference at least one column")

    # ---------------------------------------------------------------- binding

    def bind(self, stmt: SelectStatement) -> Query:
        tables = self._register_tables(stmt)

        select = []
        column_aliases: dict[str, str] = {}  # select alias -> output name
        for item in stmt.select:
            if isinstance(item, SelectColumn):
                ref = self.resolve_column(item.column)
                if item.alias:
                    column_aliases[item.alias] = ref.qualified
                select.append(ref)
            elif isinstance(item, SelectAggregate):
                argument = (
                    None if item.argument is None else self.resolve_column(item.argument)
                )
                alias = item.alias or (
                    f"{item.func}_{argument.column}" if argument else f"{item.func}_star"
                )
                select.append(Aggregate(func=item.func, argument=argument, alias=alias))
            else:
                raise BindError(f"unknown select item {item!r}")

        local: list[Predicate] = []
        joins: list[JoinPredicate] = []
        if stmt.where is not None:
            for pred in self.bind_condition(stmt.where):
                if pred.is_join:
                    joins.append(pred)  # type: ignore[arg-type]
                else:
                    local.append(pred)

        group_by = [self.resolve_column(c) for c in stmt.group_by]

        # ORDER BY names refer to select-list outputs.
        output_names = []
        for item in select:
            output_names.append(item.alias if isinstance(item, Aggregate) else item.qualified)
        order_by = []
        for spec in stmt.order_by:
            name = self._order_target(
                spec.column, output_names, column_aliases
            )
            order_by.append(OrderItem(column=name, ascending=spec.ascending))

        having = (
            self._bind_having(stmt.having, output_names, column_aliases)
            if stmt.having is not None
            else []
        )

        return Query(
            tables=tables,
            select=select,
            local_predicates=local,
            join_predicates=joins,
            group_by=group_by,
            having=having,
            order_by=order_by,
            limit=stmt.limit,
            distinct=stmt.distinct,
        )

    def _bind_having(self, cond, output_names, column_aliases) -> list:
        """Bind HAVING into conjuncts over aggregation output columns."""
        conjuncts = list(cond.children) if isinstance(cond, AndExpr) else [cond]
        bound = []
        for conjunct in conjuncts:
            if not isinstance(conjunct, ComparisonExpr):
                raise BindError(
                    "HAVING supports only AND-combined comparisons over "
                    "select-list columns"
                )
            if isinstance(conjunct.left, ColumnName) and isinstance(
                conjunct.right, Constant
            ):
                column, op, value = conjunct.left, conjunct.op, conjunct.right.value
            elif isinstance(conjunct.right, ColumnName) and isinstance(
                conjunct.left, Constant
            ):
                mirrored = {"<": ">", "<=": ">=", ">": "<", ">=": "<=",
                            "=": "=", "!=": "!="}
                column, op, value = (
                    conjunct.right, mirrored[conjunct.op], conjunct.left.value,
                )
            else:
                raise BindError(
                    "HAVING comparisons must be between a select-list column "
                    "and a constant"
                )
            name = self._order_target(column, output_names, column_aliases)
            bound.append(HavingPredicate(column=name, op=op, value=value))
        return bound

    def _order_target(
        self, name: ColumnName, output_names, column_aliases
    ) -> str:
        """Resolve an ORDER BY column to a select-list output name."""
        if name.table is None:
            # Could be a select alias, an aggregate alias, or an unqualified
            # output column.
            if name.column in column_aliases:
                return column_aliases[name.column]
            for out in output_names:
                if out == name.column or out.endswith("." + name.column):
                    return out
            raise BindError(f"ORDER BY {name} is not in the select list")
        qualified = f"{name.table}.{name.column}"
        if qualified in output_names:
            return qualified
        raise BindError(f"ORDER BY {qualified} is not in the select list")


def bind_sql(text: str, catalog: Catalog) -> Query:
    """Parse and bind SQL text into a logical query."""
    return Binder(catalog).bind(parse_sql(text))
