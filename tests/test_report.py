"""Invariants of the execution report (PopReport/AttemptReport) across a
spread of query shapes — the report is part of the public API, so its
accounting must always be coherent."""

import pytest

from repro import PopConfig
from repro.core import driver as driver_module
from repro.plan.explain import explain_plan, join_order
from repro.workloads.tpch.queries import Q10_MARKER, TPCH_QUERIES

from .test_obs import marker_query


def check_report_invariants(report):
    assert report.attempts, "at least one attempt"
    # Only the last attempt completes; every earlier one re-optimized.
    for attempt in report.attempts[:-1]:
        assert attempt.reoptimized
    assert not report.attempts[-1].reoptimized
    assert report.reoptimizations == len(report.attempts) - 1
    # Work accounting adds up.
    parts = sum(
        a.execution_units + a.optimization_units for a in report.attempts
    )
    assert parts == pytest.approx(report.total_units, rel=0.01)
    assert report.total_units > 0
    assert report.wall_seconds >= 0
    # Each attempt has a plan, its explain text, and runtime counters.
    for attempt in report.attempts:
        assert attempt.plan is not None
        assert explain_plan(attempt.plan)
        assert attempt.join_order
        assert all(r.rows_out is not None for r in attempt.record.walk())
    # Aggregated checkpoint events match the per-attempt ones.
    total_events = sum(len(a.checkpoint_events) for a in report.attempts)
    assert len(report.checkpoint_events) == total_events
    # final_plan is the completing attempt's plan.
    assert report.final_plan is report.attempts[-1].plan


@pytest.mark.parametrize("name", ["Q1", "Q3", "Q5", "Q6", "Q9", "Q18"])
def test_tpch_report_invariants(tpch_db, name):
    result = tpch_db.execute(TPCH_QUERIES[name])
    check_report_invariants(result.report)


@pytest.mark.parametrize("mode", ["MODE00", "MODE27"])
def test_marker_report_invariants(tpch_db, mode):
    result = tpch_db.execute(Q10_MARKER, params={"p1": mode})
    check_report_invariants(result.report)


def test_no_pop_report_shape(tpch_db):
    result = tpch_db.execute_without_pop(TPCH_QUERIES["Q3"])
    report = result.report
    assert not report.pop_enabled
    assert len(report.attempts) == 1
    assert report.attempts[0].checkpoints_placed == 0
    check_report_invariants(report)


def test_summary_is_informative(tpch_db):
    result = tpch_db.execute(Q10_MARKER, params={"p1": "MODE00"})
    summary = result.report.summary()
    assert "attempt 0" in summary
    assert "work units" in summary
    if result.report.reoptimizations:
        assert "reopt at CHECK" in summary


def test_dry_run_reports_events_without_reopt(tpch_db):
    result = tpch_db.execute(
        Q10_MARKER, params={"p1": "MODE00"}, pop=PopConfig(dry_run=True)
    )
    assert result.report.reoptimizations == 0
    assert result.report.checkpoint_events


def test_plan_renderings_are_computed_when_read(star_db, monkeypatch):
    """A statement run without a tracer or metrics renders no
    attempt's join order; reading the report renders it."""
    calls = []

    def spy(render):
        def wrapper(plan):
            calls.append(render.__name__)
            return render(plan)

        return wrapper

    monkeypatch.setattr(driver_module, "join_order", spy(join_order))
    result = star_db.execute(marker_query(), params={"p": "COMMON"})
    attempts = result.report.attempts
    assert len(attempts) == 2 and attempts[1].reused_mvs
    assert calls == []
    for attempt in attempts:
        assert attempt.join_order == join_order(attempt.plan)
    assert calls == ["join_order"] * len(attempts)
