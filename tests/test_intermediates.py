"""Tests for harvesting feedback and intermediate results after a CHECK."""


from repro.core.feedback import CardinalityFeedback
from repro.core.intermediates import harvest_execution_state
from repro.executor.base import ExecutionContext, ReoptimizationSignal
from repro.executor.runtime import build_executor
from repro.expr.evaluate import RowLayout
from repro.plan.physical import Check, Sort, TableScan, Temp, number_plan
from repro.plan.properties import PlanProperties, ValidityRange
from repro.storage.catalog import Catalog
from repro.storage.table import Schema
from tests.conftest import pull_all


def make_catalog(n=20):
    cat = Catalog()
    table = cat.create_table("t", Schema.of(("a", "int")))
    table.load_raw([(i % 7,) for i in range(n)])
    return cat


def scan_plan(card=5.0):
    return TableScan(
        "t", "t", [],
        PlanProperties(frozenset({"t"}), frozenset()),
        RowLayout(["t.a"]), est_card=card, est_cost=1.0,
    )


def run_to_signal(plan, cat):
    number_plan(plan)
    ctx = ExecutionContext(cat)
    op = build_executor(plan, ctx)
    try:
        op.open()
        pull_all(op)
    except ReoptimizationSignal as signal:
        return ctx, signal
    raise AssertionError("expected a reoptimization signal")


class TestHarvest:
    def test_completed_temp_promoted_to_mv(self):
        cat = make_catalog(20)
        plan = Check(Temp(scan_plan(), 2.0), ValidityRange(0, 5), "LCEM")
        ctx, signal = run_to_signal(plan, cat)
        feedback = CardinalityFeedback()
        names = harvest_execution_state(ctx, signal, feedback, promote=True)
        assert len(names) == 1
        mv = ctx.temp_mvs.get(names[0])
        assert mv.cardinality == 20
        assert mv.tables == frozenset({"t"})

    def test_sort_mv_records_order(self):
        cat = make_catalog(20)
        child = scan_plan()
        sort = Sort(child, ("t.a",), child.properties.with_order(("t.a",)), 2.0)
        plan = Check(sort, ValidityRange(0, 5), "LC")
        ctx, signal = run_to_signal(plan, cat)
        feedback = CardinalityFeedback()
        names = harvest_execution_state(ctx, signal, feedback, promote=True)
        assert ctx.temp_mvs.get(names[0]).order == ("t.a",)

    def test_exact_feedback_from_signal(self):
        cat = make_catalog(20)
        plan = Check(Temp(scan_plan(), 2.0), ValidityRange(0, 5), "LCEM")
        ctx, signal = run_to_signal(plan, cat)
        feedback = CardinalityFeedback()
        harvest_execution_state(ctx, signal, feedback, promote=True)
        signature = plan.properties.signature
        entry = feedback.lookup(signature)
        assert entry is not None and entry.exact and entry.cardinality == 20

    def test_incomplete_check_gives_lower_bound(self):
        cat = make_catalog(100)
        plan = Check(scan_plan(), ValidityRange(0, 10), "ECDC")
        ctx, signal = run_to_signal(plan, cat)
        assert not signal.complete
        feedback = CardinalityFeedback()
        harvest_execution_state(ctx, signal, feedback, promote=True)
        entry = feedback.lookup(plan.properties.signature)
        assert entry is not None and not entry.exact
        assert entry.cardinality == 11

    def test_no_promotion_skips_mv_registration(self):
        cat = make_catalog(20)
        plan = Check(Temp(scan_plan(), 2.0), ValidityRange(0, 5), "LCEM")
        ctx, signal = run_to_signal(plan, cat)
        names = harvest_execution_state(
            ctx, signal, CardinalityFeedback(), promote=False
        )
        assert names == []
        assert list(ctx.temp_mvs) == []

    def test_duplicate_signatures_not_registered_twice(self):
        cat = make_catalog(20)
        plan = Check(Temp(scan_plan(), 2.0), ValidityRange(0, 5), "LCEM")
        ctx, signal = run_to_signal(plan, cat)
        harvest_execution_state(ctx, signal, CardinalityFeedback(), promote=True)
        # Harvest again (as a second reopt round would).
        names = harvest_execution_state(
            ctx, signal, CardinalityFeedback(), promote=True
        )
        assert names == []
        assert len(ctx.temp_mvs) == 1
