"""Predicates of the query language.

Two families exist:

* *local* predicates restrict a single table (comparisons, BETWEEN, IN-lists,
  LIKE, and disjunctions of locals on the same table), and
* *join* predicates equate one column of each of two tables.

Every predicate exposes a stable ``pred_id`` string.  Predicate ids are the
currency of POP's bookkeeping: plan *properties* record the set of applied
predicate ids, temp-MV signatures and the cardinality-feedback store are keyed
by them, and structural equivalence of plans (paper §2.2) is decided over
them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.expr.expressions import ColumnRef, Operand, ParameterMarker

#: Comparison operators supported by :class:`Comparison`.
COMPARISON_OPS = ("=", "!=", "<", "<=", ">", ">=")


class Predicate:
    """Base class; concrete predicates are frozen dataclasses."""

    @property
    def pred_id(self) -> str:
        """A stable identifier derived from the predicate's content."""
        raise NotImplementedError

    def tables(self) -> frozenset[str]:
        """Aliases of the tables this predicate mentions."""
        raise NotImplementedError

    def columns(self) -> Iterator[ColumnRef]:
        """All column references in the predicate."""
        raise NotImplementedError

    @property
    def is_join(self) -> bool:
        return False

    @property
    def has_marker(self) -> bool:
        """True when the predicate contains a parameter marker (its
        selectivity is then unknown at optimization time)."""
        return False


def _operand_id(op: Operand) -> str:
    if isinstance(op, ParameterMarker):
        return f"?{op.name}"
    return repr(op.value)


@dataclass(frozen=True)
class Comparison(Predicate):
    """``column <op> operand`` with ``<op>`` one of :data:`COMPARISON_OPS`."""

    column: ColumnRef
    op: str
    operand: Operand

    def __post_init__(self) -> None:
        if self.op not in COMPARISON_OPS:
            raise ValueError(f"unknown comparison operator {self.op!r}")

    @property
    def pred_id(self) -> str:
        return f"{self.column.qualified}{self.op}{_operand_id(self.operand)}"

    def tables(self) -> frozenset[str]:
        return frozenset({self.column.table})

    def columns(self) -> Iterator[ColumnRef]:
        yield self.column

    @property
    def has_marker(self) -> bool:
        return isinstance(self.operand, ParameterMarker)

    def __str__(self) -> str:
        return f"{self.column} {self.op} {self.operand}"


@dataclass(frozen=True)
class Between(Predicate):
    """``column BETWEEN low AND high`` (both bounds inclusive)."""

    column: ColumnRef
    low: Operand
    high: Operand

    @property
    def pred_id(self) -> str:
        return (
            f"{self.column.qualified} between "
            f"{_operand_id(self.low)} and {_operand_id(self.high)}"
        )

    def tables(self) -> frozenset[str]:
        return frozenset({self.column.table})

    def columns(self) -> Iterator[ColumnRef]:
        yield self.column

    @property
    def has_marker(self) -> bool:
        return isinstance(self.low, ParameterMarker) or isinstance(
            self.high, ParameterMarker
        )

    def __str__(self) -> str:
        return f"{self.column} BETWEEN {self.low} AND {self.high}"


@dataclass(frozen=True)
class InList(Predicate):
    """``column IN (v1, v2, ...)`` over compile-time constants."""

    column: ColumnRef
    values: tuple

    @property
    def pred_id(self) -> str:
        return f"{self.column.qualified} in {self.values!r}"

    def tables(self) -> frozenset[str]:
        return frozenset({self.column.table})

    def columns(self) -> Iterator[ColumnRef]:
        yield self.column

    def __str__(self) -> str:
        return f"{self.column} IN {self.values!r}"


@dataclass(frozen=True)
class Like(Predicate):
    """``column LIKE pattern`` with SQL ``%``/``_`` wildcards."""

    column: ColumnRef
    pattern: str

    @property
    def pred_id(self) -> str:
        return f"{self.column.qualified} like {self.pattern!r}"

    def tables(self) -> frozenset[str]:
        return frozenset({self.column.table})

    def columns(self) -> Iterator[ColumnRef]:
        yield self.column

    def __str__(self) -> str:
        return f"{self.column} LIKE {self.pattern!r}"


@dataclass(frozen=True)
class IsNull(Predicate):
    """``column IS NULL`` / ``column IS NOT NULL``."""

    column: ColumnRef
    negated: bool = False

    @property
    def pred_id(self) -> str:
        return f"{self.column.qualified} is {'not ' if self.negated else ''}null"

    def tables(self) -> frozenset[str]:
        return frozenset({self.column.table})

    def columns(self) -> Iterator[ColumnRef]:
        yield self.column

    def __str__(self) -> str:
        return f"{self.column} IS {'NOT ' if self.negated else ''}NULL"


@dataclass(frozen=True)
class Or(Predicate):
    """A disjunction of local predicates over the same table."""

    children: tuple

    def __post_init__(self) -> None:
        tables = {t for child in self.children for t in child.tables()}
        if len(tables) != 1:
            raise ValueError("OR predicates must reference exactly one table")

    @property
    def pred_id(self) -> str:
        return "(" + " or ".join(sorted(c.pred_id for c in self.children)) + ")"

    def tables(self) -> frozenset[str]:
        return next(iter(self.children)).tables()

    def columns(self) -> Iterator[ColumnRef]:
        for child in self.children:
            yield from child.columns()

    @property
    def has_marker(self) -> bool:
        return any(c.has_marker for c in self.children)

    def __str__(self) -> str:
        return "(" + " OR ".join(str(c) for c in self.children) + ")"


@dataclass(frozen=True)
class JoinPredicate(Predicate):
    """An equi-join predicate ``left = right`` between two tables."""

    left: ColumnRef
    right: ColumnRef

    def __post_init__(self) -> None:
        if self.left.table == self.right.table:
            raise ValueError("join predicate must span two tables")

    @property
    def pred_id(self) -> str:
        a, b = sorted([self.left.qualified, self.right.qualified])
        return f"{a}={b}"

    def tables(self) -> frozenset[str]:
        return frozenset({self.left.table, self.right.table})

    def columns(self) -> Iterator[ColumnRef]:
        yield self.left
        yield self.right

    @property
    def is_join(self) -> bool:
        return True

    def side_for(self, table: str) -> ColumnRef:
        """The column of this predicate that belongs to ``table``."""
        if self.left.table == table:
            return self.left
        if self.right.table == table:
            return self.right
        raise ValueError(f"{table!r} is not a side of {self}")

    def other_side(self, table: str) -> ColumnRef:
        return self.right if self.left.table == table else self.left

    def __str__(self) -> str:
        return f"{self.left} = {self.right}"


def predicate_set_id(predicates: Sequence[Predicate]) -> frozenset[str]:
    """The canonical identity of a set of applied predicates."""
    return frozenset(p.pred_id for p in predicates)
