"""Tests for the CHECK and BUFCHECK executors (paper Fig. 10 semantics)."""

import pytest

from repro.executor.base import ExecutionContext, ReoptimizationSignal
from repro.executor.runtime import build_executor
from repro.expr.evaluate import RowLayout
from repro.plan.physical import BufCheck, Check, TableScan, Temp, number_plan
from repro.plan.properties import PlanProperties, ValidityRange
from repro.storage.catalog import Catalog
from repro.storage.table import Schema
from tests.conftest import pull_all


def make_catalog(n_rows: int) -> Catalog:
    cat = Catalog()
    table = cat.create_table("t", Schema.of(("a", "int")))
    table.load_raw([(i,) for i in range(n_rows)])
    return cat


def scan_plan(card=10.0):
    return TableScan(
        "t", "t", [],
        PlanProperties(frozenset({"t"}), frozenset()),
        RowLayout(["t.a"]), est_card=card, est_cost=1.0,
    )


def run_checked(plan, ctx):
    number_plan(plan)
    op = build_executor(plan, ctx)
    op.open()
    return pull_all(op)


class TestCheck:
    def test_within_range_passes_through(self):
        cat = make_catalog(10)
        plan = Check(scan_plan(), ValidityRange(5, 20), "LC")
        rows = run_checked(plan, ExecutionContext(cat))
        assert len(rows) == 10

    def test_upper_violation_raises_immediately(self):
        cat = make_catalog(100)
        plan = Check(scan_plan(), ValidityRange(0, 10), "LC")
        ctx = ExecutionContext(cat)
        with pytest.raises(ReoptimizationSignal) as exc:
            run_checked(plan, ctx)
        # Triggered as soon as the bound is provably violated: 11 rows seen.
        assert exc.value.observed == 11
        assert not exc.value.complete

    def test_lower_violation_raises_at_eof(self):
        cat = make_catalog(3)
        plan = Check(scan_plan(), ValidityRange(5, 100), "LC")
        with pytest.raises(ReoptimizationSignal) as exc:
            run_checked(plan, ExecutionContext(cat))
        assert exc.value.observed == 3
        assert exc.value.complete  # EOF reached: exact cardinality

    def test_materialization_point_checked_once_at_open(self):
        """Above a TEMP, the check fires during open with an exact count
        (the paper's materialization-point optimization)."""
        cat = make_catalog(50)
        temp = Temp(scan_plan(), est_cost=2.0)
        plan = Check(temp, ValidityRange(0, 10), "LC")
        number_plan(plan)
        ctx = ExecutionContext(cat)
        op = build_executor(plan, ctx)
        with pytest.raises(ReoptimizationSignal) as exc:
            op.open()
        assert exc.value.observed == 50
        assert exc.value.complete

    def test_dry_run_logs_without_raising(self):
        cat = make_catalog(100)
        plan = Check(scan_plan(), ValidityRange(0, 10), "LC")
        ctx = ExecutionContext(cat, dry_run_checks=True)
        rows = run_checked(plan, ctx)
        assert len(rows) == 100
        triggered = [e for e in ctx.checkpoint_events if e.triggered]
        assert len(triggered) == 1
        assert triggered[0].observed == 11

    def test_forced_trigger_fires_within_range(self):
        cat = make_catalog(10)
        plan = Check(scan_plan(), ValidityRange(0, 100), "LC")
        number_plan(plan)
        ctx = ExecutionContext(cat, force_trigger_op_ids={plan.op_id})
        op = build_executor(plan, ctx)
        op.open()
        with pytest.raises(ReoptimizationSignal):
            pull_all(op)

    def test_event_logged_on_success_too(self):
        cat = make_catalog(10)
        plan = Check(scan_plan(), ValidityRange(0, 100), "LC")
        ctx = ExecutionContext(cat)
        run_checked(plan, ctx)
        assert len(ctx.checkpoint_events) == 1
        assert not ctx.checkpoint_events[0].triggered


class TestBufCheck:
    def test_upper_violation_before_any_row_released(self):
        """ECB's whole point: the valve fails before the parent sees rows."""
        cat = make_catalog(100)
        plan = BufCheck(scan_plan(), ValidityRange(0, 10), buffer_size=11)
        number_plan(plan)
        ctx = ExecutionContext(cat)
        op = build_executor(plan, ctx)
        with pytest.raises(ReoptimizationSignal) as exc:
            op.open()
        assert op.rows_out == 0
        assert exc.value.observed == 11

    def test_success_releases_buffered_then_streams(self):
        cat = make_catalog(30)
        plan = BufCheck(scan_plan(), ValidityRange(0, 100), buffer_size=10)
        rows = run_checked(plan, ExecutionContext(cat))
        assert len(rows) == 30

    def test_lower_bound_violation_at_eof(self):
        cat = make_catalog(3)
        plan = BufCheck(scan_plan(), ValidityRange(10, float("inf")), buffer_size=10)
        number_plan(plan)
        ctx = ExecutionContext(cat)
        op = build_executor(plan, ctx)
        with pytest.raises(ReoptimizationSignal) as exc:
            op.open()
        assert exc.value.observed == 3
        assert exc.value.complete

    def test_lower_bound_satisfied_by_bth_row(self):
        """ECB with range [b, inf) succeeds when the b-th row is buffered."""
        cat = make_catalog(100)
        plan = BufCheck(scan_plan(), ValidityRange(10, float("inf")), buffer_size=10)
        rows = run_checked(plan, ExecutionContext(cat))
        assert len(rows) == 100

    def test_exact_input_smaller_than_buffer(self):
        cat = make_catalog(5)
        plan = BufCheck(scan_plan(), ValidityRange(0, 10), buffer_size=20)
        rows = run_checked(plan, ExecutionContext(cat))
        assert len(rows) == 5
