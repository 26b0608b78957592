"""Tests for repro.expr.predicates and expressions."""

import pytest

from repro.common.errors import UnboundParameterError
from repro.expr.expressions import ColumnRef, Literal, ParameterMarker, operand_value
from repro.expr.predicates import (
    Between,
    Comparison,
    InList,
    JoinPredicate,
    Or,
    predicate_set_id,
)


def col(table: str, name: str) -> ColumnRef:
    return ColumnRef(table, name)


class TestExpressions:
    def test_qualified_name(self):
        assert col("t", "a").qualified == "t.a"
        assert str(col("t", "a")) == "t.a"

    def test_operand_value_literal(self):
        assert operand_value(Literal(5), {}) == 5

    def test_operand_value_marker(self):
        assert operand_value(ParameterMarker("p"), {"p": 9}) == 9

    def test_unbound_marker_raises(self):
        with pytest.raises(UnboundParameterError, match="p"):
            operand_value(ParameterMarker("p"), {})


class TestComparison:
    def test_rejects_unknown_operator(self):
        with pytest.raises(ValueError):
            Comparison(col("t", "a"), "~", Literal(1))

    def test_pred_id_is_stable_and_value_sensitive(self):
        a = Comparison(col("t", "a"), "=", Literal(1))
        b = Comparison(col("t", "a"), "=", Literal(1))
        c = Comparison(col("t", "a"), "=", Literal(2))
        assert a.pred_id == b.pred_id
        assert a.pred_id != c.pred_id

    def test_marker_detection(self):
        assert Comparison(col("t", "a"), "=", ParameterMarker("p")).has_marker
        assert not Comparison(col("t", "a"), "=", Literal(1)).has_marker

    def test_tables(self):
        assert Comparison(col("t", "a"), "<", Literal(1)).tables() == {"t"}


class TestBetween:
    def test_marker_detection_each_bound(self):
        assert Between(col("t", "a"), ParameterMarker("x"), Literal(2)).has_marker
        assert Between(col("t", "a"), Literal(1), ParameterMarker("y")).has_marker
        assert not Between(col("t", "a"), Literal(1), Literal(2)).has_marker

    def test_pred_id_distinguishes_bounds(self):
        a = Between(col("t", "a"), Literal(1), Literal(2))
        b = Between(col("t", "a"), Literal(1), Literal(3))
        assert a.pred_id != b.pred_id


class TestInListAndLike:
    def test_in_list_columns(self):
        pred = InList(col("t", "a"), (1, 2, 3))
        assert list(pred.columns()) == [col("t", "a")]


class TestOr:
    def test_requires_single_table(self):
        with pytest.raises(ValueError, match="exactly one table"):
            Or(
                (
                    Comparison(col("t", "a"), "=", Literal(1)),
                    Comparison(col("u", "b"), "=", Literal(2)),
                )
            )

    def test_pred_id_is_order_insensitive(self):
        p1 = Comparison(col("t", "a"), "=", Literal(1))
        p2 = Comparison(col("t", "a"), "=", Literal(2))
        assert Or((p1, p2)).pred_id == Or((p2, p1)).pred_id

    def test_marker_propagates(self):
        p1 = Comparison(col("t", "a"), "=", ParameterMarker("p"))
        p2 = Comparison(col("t", "a"), "=", Literal(2))
        assert Or((p1, p2)).has_marker


class TestJoinPredicate:
    def test_rejects_same_table(self):
        with pytest.raises(ValueError, match="two tables"):
            JoinPredicate(col("t", "a"), col("t", "b"))

    def test_pred_id_symmetric(self):
        a = JoinPredicate(col("t", "a"), col("u", "b"))
        b = JoinPredicate(col("u", "b"), col("t", "a"))
        assert a.pred_id == b.pred_id

    def test_side_for(self):
        pred = JoinPredicate(col("t", "a"), col("u", "b"))
        assert pred.side_for("t") == col("t", "a")
        assert pred.side_for("u") == col("u", "b")
        assert pred.other_side("t") == col("u", "b")
        with pytest.raises(ValueError):
            pred.side_for("x")

    def test_is_join_flag(self):
        assert JoinPredicate(col("t", "a"), col("u", "b")).is_join
        assert not Comparison(col("t", "a"), "=", Literal(1)).is_join


def test_predicate_set_id():
    p1 = Comparison(col("t", "a"), "=", Literal(1))
    p2 = Comparison(col("t", "b"), ">", Literal(2))
    assert predicate_set_id([p1, p2]) == predicate_set_id([p2, p1])
    assert predicate_set_id([]) == frozenset()
