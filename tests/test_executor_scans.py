"""Tests for scan executors (table scan, index scan, MV scan)."""

import pytest

from repro.executor.base import ExecutionContext
from repro.executor.runtime import build_executor
from repro.expr.evaluate import RowLayout
from repro.expr.expressions import ColumnRef, Literal, ParameterMarker
from repro.expr.predicates import Between, Comparison
from repro.plan.physical import IndexScan, MVScan, TableScan
from repro.plan.properties import PlanProperties
from repro.storage.catalog import Catalog, TempMVRegistry
from repro.storage.table import Schema
from tests.conftest import pull_all


@pytest.fixture
def catalog():
    cat = Catalog()
    table = cat.create_table("t", Schema.of(("k", "int"), ("v", "str")))
    table.insert_many([(i, f"v{i % 3}") for i in range(50)])
    cat.create_index("ix_sorted", "t", "k", kind="sorted")
    cat.create_index("ix_hash", "t", "v", kind="hash")
    return cat


def layout():
    return RowLayout(["t.k", "t.v"])


def props(pred_ids=frozenset()):
    return PlanProperties(frozenset({"t"}), pred_ids)


def drain(op):
    op.open()
    return pull_all(op)


class TestTableScan:
    def test_full_scan(self, catalog):
        plan = TableScan("t", "t", [], props(), layout(), 50, 10)
        ctx = ExecutionContext(catalog)
        op = build_executor(plan, ctx)
        rows = drain(op)
        assert len(rows) == 50
        assert op.eof_seen
        assert op.rows_out == 50

    def test_filters_applied(self, catalog):
        pred = Comparison(ColumnRef("t", "k"), "<", Literal(10))
        plan = TableScan("t", "t", [pred], props(), layout(), 10, 10)
        rows = drain(build_executor(plan, ExecutionContext(catalog)))
        assert len(rows) == 10

    def test_meter_charged(self, catalog):
        plan = TableScan("t", "t", [], props(), layout(), 50, 10)
        ctx = ExecutionContext(catalog)
        drain(build_executor(plan, ctx))
        assert ctx.meter.units > 0

    def test_marker_filter(self, catalog):
        pred = Comparison(ColumnRef("t", "v"), "=", ParameterMarker("p"))
        plan = TableScan("t", "t", [pred], props(), layout(), 10, 10)
        ctx = ExecutionContext(catalog, params={"p": "v1"})
        rows = drain(build_executor(plan, ctx))
        assert all(r[1] == "v1" for r in rows)


class TestIndexScan:
    def _scan(self, catalog, sarg, index="ix_sorted", filters=()):
        return IndexScan(
            "t", "t", index, sarg, list(filters), props(), layout(), 5, 5
        )

    def test_equality_sarg(self, catalog):
        sarg = Comparison(ColumnRef("t", "k"), "=", Literal(7))
        rows = drain(build_executor(self._scan(catalog, sarg), ExecutionContext(catalog)))
        assert rows == [(7, "v1")]

    def test_range_sargs(self, catalog):
        for op, expected in [("<", 5), ("<=", 6), (">", 44), (">=", 45)]:
            sarg = Comparison(ColumnRef("t", "k"), op, Literal(5))
            rows = drain(
                build_executor(self._scan(catalog, sarg), ExecutionContext(catalog))
            )
            assert len(rows) == expected, op

    def test_between_sarg(self, catalog):
        sarg = Between(ColumnRef("t", "k"), Literal(10), Literal(19))
        rows = drain(build_executor(self._scan(catalog, sarg), ExecutionContext(catalog)))
        assert len(rows) == 10

    def test_hash_index_equality(self, catalog):
        sarg = Comparison(ColumnRef("t", "v"), "=", Literal("v0"))
        rows = drain(
            build_executor(self._scan(catalog, sarg, index="ix_hash"), ExecutionContext(catalog))
        )
        assert len(rows) == 17  # k % 3 == 0 for k in 0..49

    def test_residual_filters(self, catalog):
        sarg = Between(ColumnRef("t", "k"), Literal(0), Literal(20))
        residual = Comparison(ColumnRef("t", "v"), "=", Literal("v0"))
        rows = drain(
            build_executor(
                self._scan(catalog, sarg, filters=[residual]), ExecutionContext(catalog)
            )
        )
        assert all(r[1] == "v0" for r in rows)

    def test_marker_sarg(self, catalog):
        sarg = Comparison(ColumnRef("t", "k"), "=", ParameterMarker("p"))
        ctx = ExecutionContext(catalog, params={"p": 3})
        rows = drain(build_executor(self._scan(catalog, sarg), ctx))
        assert rows == [(3, "v0")]

    def test_correlated_rebind(self, catalog):
        plan = IndexScan(
            "t", "t", "ix_sorted", None, [], props(), layout(), 5, 5,
            correlation=ColumnRef("x", "k"),
        )
        ctx = ExecutionContext(catalog)
        op = build_executor(plan, ctx)
        op.open()
        op.rebind(9)
        assert op.next_batch(1) == [(9, "v0")]
        assert op.next_batch(1) is None
        op.rebind(3)
        assert op.next_batch(1) == [(3, "v0")]


class TestMVScan:
    def test_scan_with_residual(self, catalog):
        temp_mvs = TempMVRegistry()
        mv = temp_mvs.register(
            tables=frozenset({"t"}),
            predicate_ids=frozenset(),
            columns=("t.k", "t.v"),
            rows=[(1, "a"), (2, "b"), (3, "a")],
        )
        pred = Comparison(ColumnRef("t", "v"), "=", Literal("a"))
        plan = MVScan(mv.name, props(), layout(), 2, 1, filters=[pred])
        ctx = ExecutionContext(catalog, temp_mvs=temp_mvs)
        rows = drain(build_executor(plan, ctx))
        assert rows == [(1, "a"), (3, "a")]
