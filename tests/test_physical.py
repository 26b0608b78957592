"""Tests for physical plan nodes and plan utilities."""

import pytest

from repro.expr.evaluate import RowLayout
from repro.expr.expressions import ColumnRef
from repro.expr.predicates import JoinPredicate
from repro.plan.explain import explain_plan, join_order, plan_operators
from repro.plan.physical import (
    Check,
    HashJoin,
    NLJoin,
    PlanOp,
    Return,
    Sort,
    TableScan,
    Temp,
    find_ops,
    number_plan,
)
from repro.plan.properties import PlanProperties, ValidityRange


def scan(alias: str, cols=("a", "b"), card=100.0, cost=10.0) -> TableScan:
    return TableScan(
        alias,
        alias,
        [],
        PlanProperties(frozenset({alias}), frozenset()),
        RowLayout([f"{alias}.{c}" for c in cols]),
        est_card=card,
        est_cost=cost,
    )


def join(left: PlanOp, right: PlanOp, cls=HashJoin, **kwargs) -> PlanOp:
    pred = JoinPredicate(
        ColumnRef(next(iter(left.properties.tables)), "a"),
        ColumnRef(next(iter(right.properties.tables)), "a"),
    )
    return cls(
        left,
        right,
        [pred],
        left.properties.merge(right.properties, {pred.pred_id}),
        left.layout.concat(right.layout),
        est_card=50.0,
        est_cost=left.est_cost + right.est_cost + 5.0,
        cost_desc=("hash", left.est_cost + right.est_cost, 0.005),
        **kwargs,
    )


class TestTreeBasics:
    def test_walk_preorder(self):
        tree = Return(join(scan("t"), scan("u")))
        kinds = [op.KIND for op in tree.walk()]
        assert kinds == ["RETURN", "HSJOIN", "TBSCAN", "TBSCAN"]

    def test_number_plan_assigns_sequential_ids(self):
        tree = Return(join(scan("t"), scan("u")))
        number_plan(tree)
        assert [op.op_id for op in tree.walk()] == [0, 1, 2, 3]

    def test_find_ops(self):
        tree = Return(join(scan("t"), scan("u")))
        assert len(find_ops(tree, TableScan)) == 2
        assert len(find_ops(tree, Check)) == 0

    def test_replace_child(self):
        inner = scan("t")
        root = Return(inner)
        replacement = scan("u")
        root.replace_child(inner, replacement)
        assert root.children == [replacement]
        with pytest.raises(ValueError):
            root.replace_child(inner, replacement)

    def test_validity_ranges_per_child(self):
        j = join(scan("t"), scan("u"))
        assert len(j.validity_ranges) == 2
        assert all(r.is_trivial for r in j.validity_ranges)


class TestOperatorSpecifics:
    def test_nljoin_method_validation(self):
        with pytest.raises(ValueError):
            join(scan("t"), scan("u"), cls=NLJoin, method="zigzag")

    def test_materialization_flags(self):
        s = scan("t")
        assert Sort(s, ("t.a",), s.properties.with_order(("t.a",)), 12.0).IS_MATERIALIZATION
        assert Temp(scan("t"), 11.0).IS_MATERIALIZATION
        assert not join(scan("t"), scan("u")).IS_MATERIALIZATION

    def test_sort_defaults_ascending(self):
        s = scan("t")
        sort = Sort(s, ("t.a", "t.b"), s.properties.with_order(("t.a", "t.b")), 12.0)
        assert sort.ascending == (True, True)

    def test_check_wraps_child_transparently(self):
        s = scan("t")
        check = Check(s, ValidityRange(1, 10), "LC")
        assert check.est_card == s.est_card
        assert check.layout == s.layout
        assert check.properties == s.properties

    def test_describe_strings(self):
        tree = Return(join(scan("t"), scan("u")))
        assert "HSJOIN" in tree.children[0].describe()
        assert "TBSCAN(t:t)" in scan("t").describe()


class TestExplain:
    def test_explain_contains_all_operators(self):
        tree = Return(join(scan("t"), scan("u")))
        text = explain_plan(tree)
        for kind in ("RETURN", "HSJOIN", "TBSCAN"):
            assert kind in text

    def test_explain_shows_narrowed_ranges(self):
        j = join(scan("t"), scan("u"))
        j.validity_ranges[0].narrow_high(123)
        text = explain_plan(Return(j))
        assert "edge[0]" in text
        assert "123" in text

    def test_plan_operators(self):
        tree = Return(join(scan("t"), scan("u")))
        assert plan_operators(tree) == ["RETURN", "HSJOIN", "TBSCAN", "TBSCAN"]

    def test_join_order_rendering(self):
        tree = Return(join(join(scan("t"), scan("u")), scan("v")))
        assert join_order(tree) == "((t HSJOIN u) HSJOIN v)"
