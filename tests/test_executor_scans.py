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
from repro.txn.manager import Snapshot
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

    @staticmethod
    def _correlated(catalog, index_name, snapshot=None):
        plan = IndexScan(
            "t", "t", index_name, None, [], props(), layout(), 5, 5,
            correlation=ColumnRef("x", "k"),
        )
        op = build_executor(plan, ExecutionContext(catalog, snapshot=snapshot))
        op.open()
        return op

    def test_correlated_probe(self, catalog):
        op = self._correlated(catalog, "ix_sorted")
        assert op.probe([9, None, 3], 5) == [[(9, "v0")], [], [(3, "v0")]]
        assert (op.probes, op.rows_out) == (3, 2)
        assert op.next_batch(1) is None

    def test_last_probe_key_resumes_in_next_batch(self, catalog):
        """Only the last key may fill the room; ``next_batch`` serves the
        rest of its matches, from the rid after the last one fetched."""
        op = self._correlated(catalog, "ix_hash")
        assert op.probe(["v2", "v0"], 20) == [
            [(k, "v2") for k in range(2, 50, 3)],
            [(0, "v0"), (3, "v0"), (6, "v0"), (9, "v0")],
        ]
        assert op.next_batch(100) == [(k, "v0") for k in range(12, 50, 3)]
        assert op.next_batch(1) is None
        assert op.rows_out == 16 + 17

    def test_a_stale_fan_overshoots_instead_of_dropping(self, catalog):
        """Keys sized by a fan that a rebuild has since outgrown: an earlier
        key longer than ``room`` is still read whole, nothing is lost."""
        op = self._correlated(catalog, "ix_hash")
        v2, v0 = op.probe(["v2", "v0"], 5)
        assert v2 == [(k, "v2") for k in range(2, 50, 3)]
        assert v0 == [(0, "v0")]
        assert op.next_batch(100) == [(k, "v0") for k in range(3, 50, 3)]

    @pytest.mark.parametrize("index_name, key", [("ix_sorted", 7), ("ix_hash", "v1")])
    def test_probe_at_a_pinned_snapshot(self, catalog, index_name, key):
        """Rows appended (and indexed) after the pin are not returned: the
        published rid lists are shared, not copied, so the cap must hold."""
        snapshot = Snapshot(epoch=1, visible={"t": 50})
        catalog.table("t").insert_many([(7, "v1"), (7, "v1")])
        catalog.rebuild_indexes("t")
        (pinned,) = self._correlated(catalog, index_name, snapshot).probe([key], 100)
        (latest,) = self._correlated(catalog, index_name).probe([key], 100)
        assert pinned and pinned == latest[:-2]
        assert latest[-2:] == [(7, "v1"), (7, "v1")]

    def test_uncapped_rid_list_is_not_copied(self, catalog):
        (index,) = [ix for ix in catalog.indexes_on("t") if ix.name == "ix_hash"]
        op = self._correlated(catalog, "ix_hash", Snapshot(epoch=1, visible={"t": 50}))
        op.probe(["v2"], 100)
        assert op._rids is index.lookup("v2")


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
