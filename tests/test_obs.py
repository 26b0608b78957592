"""Tests for the observability layer (repro.obs): tracing + metrics."""

import io
import json

import pytest

from repro import Database, MetricsRegistry, Tracer
from repro.expr.expressions import ColumnRef, ParameterMarker
from repro.expr.predicates import Comparison, JoinPredicate
from repro.obs import QERROR_BUCKETS, read_jsonl
from repro.obs.trace import _jsonable
from repro.plan.logical import Query, TableRef


def marker_query():
    """Two-table join whose marker predicate misestimates badly."""
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


class TestTracer:
    def test_span_nesting_implicit_stack(self):
        tracer = Tracer(clock=lambda: 0.0)
        outer = tracer.start_span("outer")
        inner = tracer.start_span("inner")
        tracer.end_span(inner)
        tracer.end_span(outer)
        spans = tracer.spans()
        assert [s["name"] for s in spans] == ["outer", "inner"]
        assert spans[0]["parent"] is None
        assert spans[1]["parent"] == outer

    def test_explicit_parent_wins_over_stack(self):
        tracer = Tracer()
        a = tracer.start_span("a")
        b = tracer.start_span("b")
        c = tracer.start_span("c", parent=a)
        assert tracer.spans("c")[0]["parent"] == a
        for span in (c, b, a):
            tracer.end_span(span)

    def test_end_span_is_idempotent_and_tolerates_unknown_ids(self):
        tracer = Tracer()
        span = tracer.start_span("s", tag=1)
        tracer.end_span(span, rows=5)
        tracer.end_span(span, rows=99)  # second close: ignored
        tracer.end_span(12345)  # unknown id: ignored
        tracer.end_span(None)
        record = tracer.spans("s")[0]
        assert record["attrs"] == {"tag": 1, "rows": 5}

    def test_out_of_order_closes_keep_stack_consistent(self):
        tracer = Tracer()
        a = tracer.start_span("a")
        b = tracer.start_span("b")
        tracer.end_span(a)  # parent closed before child
        tracer.event("e")  # should attach to the innermost open span: b
        tracer.end_span(b)
        assert tracer.events("e")[0]["span"] == b

    def test_context_manager_and_events(self):
        tracer = Tracer()
        with tracer.span("work", step=1) as span_id:
            tracer.event("mark", detail="x")
        span = tracer.spans("work")[0]
        assert span["t1"] is not None
        event = tracer.events("mark")[0]
        assert event["span"] == span_id
        assert event["attrs"]["detail"] == "x"

    def test_work_unit_timestamps_from_bound_meter(self):
        from repro.executor.meter import WorkMeter

        tracer = Tracer()
        meter = WorkMeter()
        tracer.bind_meter(meter)
        span = tracer.start_span("s")
        meter.charge(7.5)
        tracer.end_span(span)
        record = tracer.spans("s")[0]
        assert record["u0"] == 0.0
        assert record["u1"] == 7.5

    def test_jsonl_round_trip(self, tmp_path):
        tracer = Tracer()
        with tracer.span("outer", n=1):
            tracer.event("point", high=float("inf"))
        path = str(tmp_path / "trace.jsonl")
        tracer.write_jsonl(path)
        back = read_jsonl(path)
        assert len(back) == len(tracer.records)
        assert back[0]["name"] == "outer"
        # Non-finite floats are stringified so every line is strict JSON.
        assert back[1]["attrs"]["high"] == "inf"
        for line in open(path):
            json.loads(line)

    def test_write_jsonl_to_stream(self):
        tracer = Tracer()
        tracer.event("only")
        buf = io.StringIO()
        tracer.write_jsonl(buf)
        assert read_jsonl(io.StringIO(buf.getvalue()))[0]["name"] == "only"

    def test_jsonable_sanitizes_nested_structures(self):
        out = _jsonable({"a": [float("inf"), 1.0], "b": {"c": float("nan")}})
        assert out["a"][0] == "inf"
        assert out["b"]["c"] == "nan"

    def test_clear(self):
        tracer = Tracer()
        tracer.start_span("s")
        tracer.clear()
        assert tracer.records == []
        assert tracer.start_span("t") is not None


class TestMetricsRegistry:
    def test_counter_labels_are_distinct_series(self):
        reg = MetricsRegistry()
        reg.inc("check.evaluations", flavor="LC", triggered=True)
        reg.inc("check.evaluations", flavor="LC", triggered=False)
        reg.inc("check.evaluations", 2, flavor="LC", triggered=False)
        assert reg.get("check.evaluations", flavor="LC", triggered=True) == 1
        assert reg.get("check.evaluations", flavor="LC", triggered=False) == 3
        assert reg.total("check.evaluations") == 4

    def test_gauge_set_overwrites(self):
        reg = MetricsRegistry()
        reg.set_gauge("work.units", 10.0, category="sort")
        reg.set_gauge("work.units", 4.0, category="sort")
        assert reg.get("work.units", category="sort") == 4.0

    def test_histogram_buckets_are_cumulative(self):
        reg = MetricsRegistry()
        for value in (0.5, 5.0, 50.0, 5e6):
            reg.observe("h", value)
        hist = reg.histogram("h")
        assert hist["buckets"] == {
            1.0: 1, 10.0: 2, 100.0: 3, 1_000.0: 3, 10_000.0: 3,
            100_000.0: 3, 1_000_000.0: 3, "+Inf": 4,
        }
        assert hist["count"] == 4
        assert hist["sum"] == pytest.approx(5_000_055.5)

    def test_qerror_histogram_uses_declared_buckets(self):
        reg = MetricsRegistry()
        reg.observe("estimate.error.qerror", 1.0)
        hist = reg.histogram("estimate.error.qerror")
        assert tuple(hist["buckets"])[:-1] == QERROR_BUCKETS

    def test_snapshot_and_renderers(self):
        reg = MetricsRegistry()
        reg.inc("pop.reoptimizations", reason="cardinality")
        reg.set_gauge("work.units", 12.5, category="other")
        reg.observe("estimate.error.qerror", 3.0)
        snap = reg.snapshot()
        assert snap["counters"]["pop.reoptimizations{reason=cardinality}"] == 1
        assert snap["gauges"]["work.units{category=other}"] == 12.5
        assert snap["histograms"]["estimate.error.qerror"]["count"] == 1
        text = reg.render_text()
        assert "pop.reoptimizations{reason=cardinality}" in text
        prom = reg.render_prometheus()
        assert 'pop_reoptimizations_total{reason="cardinality"} 1' in prom
        assert 'estimate_error_qerror_bucket{le="4"} 1' in prom
        assert "estimate_error_qerror_count 1" in prom

    def test_empty_render(self):
        assert "no metrics" in MetricsRegistry().render_text()

    def test_reset(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.observe("h", 1.0)
        reg.reset()
        assert reg.total("a") == 0
        assert reg.histogram("h") is None


class TestDisabledPathIsFree:
    def test_default_execution_has_no_obs_state(self, star_db):
        result = star_db.execute(marker_query(), params={"p": "RARE"})
        # No tracer/metrics attached: the report exists, nothing else.
        assert result.report.attempts

    def test_instrumentation_does_not_change_work_units_or_rows(self, star_db):
        plain = star_db.execute(marker_query(), params={"p": "COMMON"})
        traced = star_db.execute(
            marker_query(),
            params={"p": "COMMON"},
            tracer=Tracer(),
            metrics=MetricsRegistry(),
        )
        assert sorted(traced.rows) == sorted(plain.rows)
        assert traced.report.total_units == plain.report.total_units

    def test_noop_meter_ignores_categories(self):
        from repro.executor.meter import WorkMeter

        meter = WorkMeter()
        meter.charge(3.0, "sort")
        assert meter.snapshot() == 3.0
        assert meter.by_category() == {}
        tracked = WorkMeter(track_categories=True)
        tracked.charge(3.0, "sort")
        tracked.charge(1.0)
        assert tracked.by_category() == {"sort": 3.0, "other": 1.0}
        assert tracked.snapshot() == 4.0


class TestDriverIntegration:
    def run_reoptimizing(self, star_db):
        tracer = Tracer()
        metrics = MetricsRegistry()
        result = star_db.execute(
            marker_query(), params={"p": "COMMON"}, tracer=tracer, metrics=metrics
        )
        assert result.report.reoptimizations >= 1
        return result, tracer, metrics

    def test_span_sequence_covers_the_pop_loop(self, star_db):
        result, tracer, _ = self.run_reoptimizing(star_db)
        statements = tracer.spans("pop.statement")
        assert len(statements) == 1
        attempts = tracer.children(statements[0]["id"])
        assert [a["name"] for a in attempts] == (
            ["pop.attempt"] * len(result.report.attempts)
        )
        for attempt_span in attempts:
            phases = [c["name"] for c in tracer.children(attempt_span["id"])]
            assert phases == [
                "optimizer.optimize",
                "pop.place_checkpoints",
                "pop.execute",
            ]
        # First attempt was interrupted, the final one completed.
        assert attempts[0]["attrs"]["interrupted"] is True
        assert attempts[-1]["attrs"]["interrupted"] is False

    def test_reoptimize_and_harvest_events(self, star_db):
        result, tracer, _ = self.run_reoptimizing(star_db)
        reopts = tracer.events("pop.reoptimize")
        assert len(reopts) == result.report.reoptimizations
        first = result.report.attempts[0]
        assert reopts[0]["attrs"]["op_id"] == first.signal_op_id
        assert reopts[0]["attrs"]["flavor"] == first.signal_flavor
        assert tracer.events("pop.harvest"), "interrupted attempt must harvest"
        assert tracer.events("checkpoint.placed")
        assert tracer.events("check.evaluate")

    def test_operator_spans_report_rows_even_when_interrupted(self, star_db):
        _, tracer, _ = self.run_reoptimizing(star_db)
        op_spans = [s for s in tracer.spans() if s["name"].startswith("op.")]
        assert op_spans
        for span in op_spans:
            assert span["t1"] is not None, f"unclosed span {span['name']}"
            assert "rows_out" in span["attrs"]

    def test_metrics_counts_match_report(self, star_db):
        result, _, metrics = self.run_reoptimizing(star_db)
        report = result.report
        assert metrics.total("pop.reoptimizations") == report.reoptimizations
        assert metrics.get("pop.statements") == 1
        assert metrics.get("pop.attempts") == len(report.attempts)
        assert metrics.get("optimizer.invocations") == len(report.attempts)
        assert metrics.total("check.evaluations") == len(report.checkpoint_events)
        assert metrics.total("optimizer.plans_enumerated") > 0
        assert metrics.total("optimizer.newton_iterations") > 0
        qerror = metrics.histogram("estimate.error.qerror")
        assert qerror is not None and qerror["count"] > 0
        # Category gauges cover the meter's total.
        snap = metrics.snapshot()
        categorized = sum(
            v for k, v in snap["gauges"].items() if k.startswith("work.units")
        )
        assert categorized == pytest.approx(report.total_units)

    def test_trace_jsonl_round_trips_from_driver(self, star_db, tmp_path):
        _, tracer, _ = self.run_reoptimizing(star_db)
        path = str(tmp_path / "t.jsonl")
        tracer.write_jsonl(path)
        back = read_jsonl(path)
        assert len(back) == len(tracer.records)
        assert {r["type"] for r in back} == {"span", "event"}


class TestCliObservability:
    def make_shell(self):
        import random

        from repro.cli import Shell

        db = Database()
        db.create_table("t", [("a", "int"), ("b", "int")])
        rng = random.Random(3)
        db.insert("t", [(i, rng.randrange(5)) for i in range(200)])
        db.runstats()
        out = io.StringIO()
        return Shell(db=db, out=out), out

    def test_metrics_command(self):
        shell, out = self.make_shell()
        shell.run(["SELECT t.a FROM t;", "\\metrics"])
        text = out.getvalue()
        assert "pop.statements" in text
        shell.run(["\\metrics reset", "\\metrics"])
        assert "metrics reset" in out.getvalue()
        assert "(no metrics recorded)" in out.getvalue()

    def test_trace_on_writes_jsonl(self, tmp_path):
        shell, out = self.make_shell()
        path = str(tmp_path / "cli.jsonl")
        shell.run([f"\\trace on {path}", "SELECT t.a FROM t;", "\\trace off"])
        assert "tracing on" in out.getvalue()
        records = read_jsonl(path)
        assert any(r["name"] == "pop.statement" for r in records)

    def test_trace_status_and_usage(self):
        shell, out = self.make_shell()
        shell.run(["\\trace", "\\trace bogus"])
        text = out.getvalue()
        assert "tracing is off" in text
        assert "usage" in text
