"""Tests for EXPLAIN ANALYZE and the per-attempt record it renders."""


import pytest

from repro import MemoryPolicy, PopConfig, explain_analyze
from repro.executor.base import ExecutionContext
from repro.expr.expressions import ColumnRef, ParameterMarker
from repro.expr.predicates import Comparison, JoinPredicate
from repro.obs import MetricsRegistry, OpRecord, record_attempt
from repro.obs.profile import QERROR_EXCLUDED, qerror
from repro.plan.analyze import explain_analyze_plan
from repro.plan.logical import Query, TableRef

from .conftest import build_dmv_db


def marker_query():
    return Query(
        tables=[TableRef("c", "cust"), TableRef("o", "orders")],
        select=[ColumnRef("c", "c_id"), ColumnRef("o", "o_id")],
        local_predicates=[
            Comparison(ColumnRef("c", "c_segment"), "=", ParameterMarker("p"))
        ],
        join_predicates=[
            JoinPredicate(ColumnRef("o", "o_custkey"), ColumnRef("c", "c_id"))
        ],
    )


class _Node:
    """A plan node as far as a record reads one: only its label."""

    def describe(self) -> str:
        return "SORT(x)"


def leaf_record(rows_out: int, eof: bool, est_card: float = 100.0) -> OpRecord:
    return OpRecord(
        plan=_Node(), op_id=3, kind="SORT", est_card=est_card, rows_in=0,
        rows_out=rows_out, eof=eof,
        qerror=qerror(est_card, rows_out) if eof else None,
        spill_pages=0.0, children=[],
    )


class TestExplainAnalyze:
    def test_completed_attempt_shows_exact_counts(self, star_db):
        result = star_db.execute(
            "SELECT c.c_id FROM cust c WHERE c.c_segment = 'RARE'"
        )
        text = explain_analyze(result.report)
        assert "(completed)" in text
        actual = len(result.rows)
        assert f"actual={actual}" in text

    def test_interrupted_attempt_marks_lower_bounds(self, star_db):
        result = star_db.execute(marker_query(), params={"p": "COMMON"})
        assert result.report.reoptimizations >= 1
        text = explain_analyze(result.report)
        assert "re-optimized at CHECK" in text
        assert "+" in text  # interrupted operators show lower bounds

    def test_misestimate_flagged(self, star_db):
        result = star_db.execute(marker_query(), params={"p": "COMMON"})
        text = explain_analyze(result.report)
        assert "x of estimate" in text

    def test_lower_bound_flagged_only_as_an_overrun(self):
        def flagged(rows, eof):
            return "x of estimate" in explain_analyze_plan(leaf_record(rows, eof))

        assert not flagged(10, eof=False)  # est/10, but the count may grow
        assert flagged(300, eof=False)  # already 3x: an over-run is proven
        assert flagged(10, eof=True)  # a complete count 10x under
        assert not flagged(100, eof=True)

    def test_qerror_shown_exactly_where_the_record_has_one(self, star_db):
        result = star_db.execute(marker_query(), params={"p": "COMMON"})
        for attempt in result.report.attempts:
            lines = explain_analyze_plan(attempt.record).splitlines()
            records = list(attempt.record.walk())
            assert len(lines) == len(records)
            for line, record in zip(lines, records):
                assert (" q=" in line) == (record.qerror is not None), line
                if record.kind in QERROR_EXCLUDED:
                    assert " q=" not in line
        assert "RETURN  {" in explain_analyze(result.report)

    def test_profiled_root_line_shows_self_time(self, star_db):
        result = star_db.execute(
            marker_query(), params={"p": "COMMON"}, profile=True
        )
        for attempt in result.report.attempts:
            assert attempt.record.op_id == 0
            root_line = explain_analyze_plan(attempt.record).splitlines()[0]
            assert root_line.startswith("RETURN") and " self=" in root_line

    def test_every_attempt_rendered(self, star_db):
        result = star_db.execute(marker_query(), params={"p": "COMMON"})
        text = explain_analyze(result.report)
        assert text.count("--- attempt") == len(result.report.attempts)

    def test_plan_renderer_handles_missing_ops(self, star_db):
        result = star_db.execute_without_pop(
            "SELECT c.c_id FROM cust c WHERE c.c_segment = 'RARE'"
        )
        plan = result.report.attempts[0].plan
        record = record_attempt(plan, ExecutionContext(star_db.catalog))
        assert "not executed" in explain_analyze_plan(record)

    def test_cli_analyze_command(self, star_db):
        import io

        from repro.cli import Shell

        out = io.StringIO()
        shell = Shell(db=star_db, out=out)
        shell.run(["\\analyze SELECT c.c_id FROM cust c WHERE c.c_segment = 'RARE'"])
        text = out.getvalue()
        assert "attempt 0" in text
        assert "actual=" in text


class TestAttemptRecord:
    def test_unprofiled_record_covers_every_operator(self, star_db):
        result = star_db.execute(marker_query(), params={"p": "COMMON"})
        assert len(result.report.attempts) >= 2
        for attempt in result.report.attempts:
            records = list(attempt.record.walk())
            assert [r.op_id for r in records] == [
                op.op_id for op in attempt.plan.walk()
            ]
            for record in records:
                assert record.profile is None
                assert record.rows_out >= 0 and isinstance(record.eof, bool)
                assert record.rows_in == sum(c.rows_out for c in record.children)
                if record.eof and record.kind not in QERROR_EXCLUDED:
                    assert record.qerror == qerror(record.est_card, record.rows_out)
                else:
                    assert record.qerror is None
        completed = result.report.attempts[-1].record
        assert any(r.qerror is not None for r in completed.walk())

    def test_unprofiled_spilling_attempt_has_spill_share(self):
        db = build_dmv_db()
        db.enable_memory_governor(
            policy=MemoryPolicy(
                budget_pages=4.0, min_reservation_pages=1.0, min_grant_pages=1.0
            )
        )
        result = db.execute(
            "SELECT c.c_id, c.c_make, c.c_weight FROM car c "
            "ORDER BY c.c_weight, c.c_id",
            pop=PopConfig(reuse_policy="never"),
        )
        attempt = result.report.attempts[-1]
        assert attempt.spilled and not attempt.profiled
        shares = {r.kind: r.spill_pages for r in attempt.record.walk()}
        assert shares["SORT"] == pytest.approx(attempt.spill_categories["sort"])
        assert sum(shares.values()) == pytest.approx(attempt.spill_pages)

    def test_qerror_histogram_counts_the_records_with_a_qerror(self, star_db):
        metrics = MetricsRegistry()
        result = star_db.execute(
            marker_query(), params={"p": "COMMON"}, metrics=metrics
        )
        with_qerror = [
            r.qerror
            for a in result.report.attempts
            for r in a.record.walk()
            if r.qerror is not None
        ]
        assert with_qerror
        hist = metrics.histogram("estimate.error.qerror")
        assert hist["count"] == len(with_qerror)
        assert hist["sum"] == pytest.approx(sum(with_qerror))

    def test_to_dict_nests_children_and_adds_profile_fields(self, star_db):
        plain = star_db.execute(marker_query(), params={"p": "RARE"})
        tree = plain.report.attempts[0].record.to_dict()
        assert tree["kind"] == "RETURN" and tree["children"]
        assert "self_units" not in tree
        profiled = star_db.execute(
            marker_query(), params={"p": "RARE"}, profile=True
        )
        tree = profiled.report.attempts[0].record.to_dict()
        assert {"opens", "calls", "self_units", "extras"} <= set(tree)
        assert "self_units" in tree["children"][0]
