"""Boundary-value tests for CHECK/BUFCHECK semantics and optimizer facade
behaviour that the other suites don't pin down exactly."""

import io

import pytest

from repro import Database
from repro.executor.base import ExecutionContext, ReoptimizationSignal
from repro.executor.runtime import build_executor
from repro.expr.evaluate import RowLayout
from repro.plan.physical import BufCheck, Check, TableScan, number_plan
from repro.plan.properties import PlanProperties, ValidityRange
from repro.storage.catalog import Catalog
from repro.storage.table import Schema
from tests.conftest import pull_all


def catalog_with_rows(n):
    cat = Catalog()
    cat.create_table("t", Schema.of(("a", "int"))).load_raw([(i,) for i in range(n)])
    return cat


def scan_plan():
    return TableScan(
        "t", "t", [],
        PlanProperties(frozenset({"t"}), frozenset()),
        RowLayout(["t.a"]), 10.0, 1.0,
    )


def drain(plan, cat, **ctx_kwargs):
    number_plan(plan)
    ctx = ExecutionContext(cat, **ctx_kwargs)
    op = build_executor(plan, ctx)
    op.open()
    return pull_all(op), ctx


class TestCheckBoundaries:
    def test_exactly_at_upper_bound_passes(self):
        cat = catalog_with_rows(10)
        plan = Check(scan_plan(), ValidityRange(0, 10), "ECDC")
        rows, _ = drain(plan, cat)
        assert len(rows) == 10  # count == high is inside the range

    def test_one_past_upper_bound_fires(self):
        cat = catalog_with_rows(11)
        plan = Check(scan_plan(), ValidityRange(0, 10), "ECDC")
        with pytest.raises(ReoptimizationSignal):
            drain(plan, cat)

    def test_exactly_at_lower_bound_passes(self):
        cat = catalog_with_rows(5)
        plan = Check(scan_plan(), ValidityRange(5, 100), "ECDC")
        rows, _ = drain(plan, cat)
        assert len(rows) == 5

    def test_one_below_lower_bound_fires_at_eof(self):
        cat = catalog_with_rows(4)
        plan = Check(scan_plan(), ValidityRange(5, 100), "ECDC")
        with pytest.raises(ReoptimizationSignal) as exc:
            drain(plan, cat)
        assert exc.value.complete


class TestBufCheckBoundaries:
    def test_buffer_smaller_than_range_morphs_to_streaming(self):
        """When the valve's buffer fills without a verdict, ECB releases and
        streams on (the paper: an ECB can morph into pass-through)."""
        cat = catalog_with_rows(100)
        plan = BufCheck(scan_plan(), ValidityRange(0, 1000), buffer_size=5)
        rows, _ = drain(plan, cat)
        assert len(rows) == 100

    def test_exact_threshold_row_triggers(self):
        cat = catalog_with_rows(50)
        plan = BufCheck(scan_plan(), ValidityRange(0, 20), buffer_size=21)
        number_plan(plan)
        ctx = ExecutionContext(cat)
        op = build_executor(plan, ctx)
        with pytest.raises(ReoptimizationSignal) as exc:
            op.open()
        assert exc.value.observed == 21

    def test_empty_input_with_zero_lower_bound(self):
        cat = catalog_with_rows(0)
        plan = BufCheck(scan_plan(), ValidityRange(0, 10), buffer_size=5)
        rows, _ = drain(plan, cat)
        assert rows == []


class TestCliPersistence:
    def test_save_and_open_round_trip(self, tmp_path):
        from repro.cli import Shell

        db = Database()
        db.create_table("t", [("a", "int")])
        db.insert("t", [(1,), (2,)])
        db.runstats()
        out = io.StringIO()
        shell = Shell(db=db, out=out)
        shell.run([f"\\save {tmp_path / 'snap'}"])
        assert "saved" in out.getvalue()

        out2 = io.StringIO()
        shell2 = Shell(out=out2)
        shell2.run([f"\\open {tmp_path / 'snap'}", "SELECT t.a FROM t ORDER BY t.a;"])
        assert "2 row(s)" in out2.getvalue()

    def test_open_missing_reports_error(self, tmp_path):
        from repro.cli import Shell

        out = io.StringIO()
        Shell(out=out).run([f"\\open {tmp_path / 'ghost'}"])
        assert "error" in out.getvalue()


class TestOptimizerFacade:
    def test_optimization_result_fields(self, star_db):
        result = star_db.optimizer.optimize(
            star_db._to_query("SELECT c.c_id FROM cust c")
        )
        assert result.plan.est_cost > 0
        assert result.plans_enumerated >= 1
        assert result.estimator is not None

    def test_plans_numbered(self, star_db):
        result = star_db.optimizer.optimize(
            star_db._to_query(
                "SELECT c.c_id, o.o_id FROM cust c "
                "JOIN orders o ON c.c_id = o.o_custkey"
            )
        )
        ids = [op.op_id for op in result.plan.walk()]
        assert ids == list(range(len(ids)))
