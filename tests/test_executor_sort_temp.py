"""Tests for SORT and TEMP materialization operators."""

from hypothesis import given
from hypothesis import strategies as st

from repro.executor.base import ExecutionContext
from repro.executor.runtime import build_executor
from repro.expr.evaluate import RowLayout
from repro.plan.physical import Sort, TableScan, Temp
from repro.plan.properties import PlanProperties
from repro.storage.catalog import Catalog
from repro.storage.table import Schema
from tests.conftest import pull_all


def make_catalog(rows):
    cat = Catalog()
    table = cat.create_table("t", Schema.of(("a", "int"), ("b", "str")))
    table.load_raw(rows)
    return cat


def scan_plan():
    return TableScan(
        "t", "t", [],
        PlanProperties(frozenset({"t"}), frozenset()),
        RowLayout(["t.a", "t.b"]),
        est_card=10, est_cost=1,
    )


def drain(op):
    op.open()
    return pull_all(op)


class TestSort:
    def test_ascending_sort(self):
        cat = make_catalog([(3, "x"), (1, "y"), (2, "z")])
        child = scan_plan()
        plan = Sort(child, ("t.a",), child.properties.with_order(("t.a",)), 5)
        rows = drain(build_executor(plan, ExecutionContext(cat)))
        assert [r[0] for r in rows] == [1, 2, 3]

    def test_descending_sort(self):
        cat = make_catalog([(3, "x"), (1, "y"), (2, "z")])
        child = scan_plan()
        plan = Sort(
            child, ("t.a",), child.properties.with_order(("t.a",)), 5,
            ascending=(False,),
        )
        rows = drain(build_executor(plan, ExecutionContext(cat)))
        assert [r[0] for r in rows] == [3, 2, 1]

    def test_multi_key_mixed_directions(self):
        cat = make_catalog([(1, "b"), (2, "a"), (1, "a"), (2, "b")])
        child = scan_plan()
        plan = Sort(
            child, ("t.a", "t.b"), child.properties.with_order(("t.a", "t.b")), 5,
            ascending=(True, False),
        )
        rows = drain(build_executor(plan, ExecutionContext(cat)))
        assert rows == [(1, "b"), (1, "a"), (2, "b"), (2, "a")]

    def test_nulls_sort_last_ascending(self):
        cat = make_catalog([(2, "x"), (None, "y"), (1, "z")])
        child = scan_plan()
        plan = Sort(child, ("t.a",), child.properties.with_order(("t.a",)), 5)
        rows = drain(build_executor(plan, ExecutionContext(cat)))
        assert [r[0] for r in rows] == [1, 2, None]

    def test_materialized_rows_exposed(self):
        cat = make_catalog([(2, "x"), (1, "y")])
        child = scan_plan()
        plan = Sort(child, ("t.a",), child.properties.with_order(("t.a",)), 5)
        op = build_executor(plan, ExecutionContext(cat))
        assert op.materialized_rows is None  # not built yet
        op.open()
        assert op.materialized_rows == [(1, "y"), (2, "x")]

    @given(st.lists(st.integers(-100, 100), max_size=50))
    def test_sort_is_correct_permutation(self, values):
        cat = make_catalog([(v, "x") for v in values])
        child = scan_plan()
        plan = Sort(child, ("t.a",), child.properties.with_order(("t.a",)), 5)
        rows = drain(build_executor(plan, ExecutionContext(cat)))
        assert [r[0] for r in rows] == sorted(values)


class TestTemp:
    def test_streams_all_rows(self):
        cat = make_catalog([(i, "x") for i in range(10)])
        plan = Temp(scan_plan(), 5)
        rows = drain(build_executor(plan, ExecutionContext(cat)))
        assert len(rows) == 10

    def test_reset_restarts_iteration(self):
        cat = make_catalog([(1, "a"), (2, "b")])
        plan = Temp(scan_plan(), 5)
        op = build_executor(plan, ExecutionContext(cat))
        op.open()
        assert op.next_batch(1) == [(1, "a")]
        op.reset()
        assert op.next_batch(1) == [(1, "a")]
        assert op.next_batch(1) == [(2, "b")]
        assert op.next_batch(1) is None

    def test_materialized_rows_exposed_after_open(self):
        cat = make_catalog([(1, "a")])
        plan = Temp(scan_plan(), 5)
        op = build_executor(plan, ExecutionContext(cat))
        op.open()
        assert op.materialized_rows == [(1, "a")]
        assert op.build_complete

    def test_charges_meter(self):
        cat = make_catalog([(i, "x") for i in range(100)])
        ctx = ExecutionContext(cat)
        drain(build_executor(Temp(scan_plan(), 5), ctx))
        assert ctx.meter.units > 0
