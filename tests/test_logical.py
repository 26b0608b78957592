"""Tests for the logical query block (validation rules)."""

import pytest

from repro.common.errors import BindError
from repro.expr.expressions import ColumnRef, Literal
from repro.expr.predicates import Comparison, JoinPredicate
from repro.plan.logical import Aggregate, OrderItem, Query, TableRef


def base_query(**overrides):
    args = dict(
        tables=[TableRef("a", "ta"), TableRef("b", "tb")],
        select=[ColumnRef("a", "x")],
        join_predicates=[JoinPredicate(ColumnRef("a", "x"), ColumnRef("b", "y"))],
    )
    args.update(overrides)
    return Query(**args)


class TestValidation:
    def test_valid_query_builds(self):
        assert base_query().aliases == ["a", "b"]

    def test_duplicate_aliases_rejected(self):
        with pytest.raises(BindError, match="duplicate"):
            base_query(tables=[TableRef("a", "ta"), TableRef("a", "tb")])

    def test_join_predicate_in_local_list_rejected(self):
        join = JoinPredicate(ColumnRef("a", "x"), ColumnRef("b", "y"))
        with pytest.raises(BindError, match="join predicate in local"):
            base_query(local_predicates=[join])

    def test_local_predicate_in_join_list_rejected(self):
        local = Comparison(ColumnRef("a", "x"), "=", Literal(1))
        with pytest.raises(BindError, match="non-join predicate"):
            base_query(join_predicates=[local])

    def test_unknown_alias_in_predicate_rejected(self):
        pred = Comparison(ColumnRef("zz", "x"), "=", Literal(1))
        with pytest.raises(BindError, match="unknown"):
            base_query(local_predicates=[pred])

    def test_plain_column_requires_group_by(self):
        agg = Aggregate("count", None, "n")
        with pytest.raises(BindError, match="GROUP BY"):
            base_query(select=[ColumnRef("a", "x"), agg])

    def test_group_by_without_aggregate_rejected(self):
        with pytest.raises(BindError, match="requires at least one aggregate"):
            base_query(group_by=[ColumnRef("a", "x")])

    def test_order_by_must_be_in_select(self):
        with pytest.raises(BindError, match="not in the select list"):
            base_query(order_by=[OrderItem("b.y")])

    def test_valid_aggregate_query(self):
        query = base_query(
            select=[ColumnRef("a", "x"), Aggregate("sum", ColumnRef("b", "y"), "s")],
            group_by=[ColumnRef("a", "x")],
            order_by=[OrderItem("s", ascending=False)],
        )
        assert query.has_aggregates
        assert query.output_names == ["a.x", "s"]


class TestAggregate:
    def test_unknown_function_rejected(self):
        with pytest.raises(BindError, match="unknown aggregate"):
            Aggregate("median", ColumnRef("a", "x"), "m")

    def test_star_only_for_count(self):
        with pytest.raises(BindError, match=r"sum\(\*\)"):
            Aggregate("sum", None, "s")
        assert str(Aggregate("count", None, "n")) == "count(*)"


class TestInspection:
    def test_local_predicates_for(self):
        p = Comparison(ColumnRef("a", "x"), "=", Literal(1))
        query = base_query(local_predicates=[p])
        assert query.local_predicates_for("a") == [p]
        assert query.local_predicates_for("b") == []

    def test_table_for(self):
        query = base_query()
        assert query.table_for("b").table == "tb"
        with pytest.raises(BindError):
            query.table_for("zz")
