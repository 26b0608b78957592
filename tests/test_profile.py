"""Tests for the live profiler, progress estimation, and robustness maps.

Covers the tentpole observability surfaces:

* :class:`repro.obs.ProfileCollector` — the frame-accounting invariant
  (exclusive units partition the attempt's metered execution work) read
  off each attempt's record, rows in/out and q-error through nested joins,
  extras capture, and the multi-attempt (re-optimization) shape;
* the obs-off fast path — disabled profiling constructs no collector,
  reaches no hook, and leaves metered work units bit-identical;
* :func:`repro.obs.progress_history` — budget refinement at CHECK points,
  completion snapping and rendering, replayed from the report, and parity
  with the live estimator it replaced;
* :class:`repro.obs.RobustnessMap` — surface structure, fragility, JSON
  and heatmap artifacts;
* the JSONL export, ``explain analyze`` annotations, the CLI verbs, and
  Prometheus label escaping.
"""

from __future__ import annotations

import io
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro import PopConfig
from repro.cli import Shell
from repro.core import driver as driver_module
from repro.core.flavors import ECB, ECDC
from repro.executor import aggregate
from repro.executor.meter import WorkMeter
from repro.obs import (
    MetricsRegistry,
    RobustnessMap,
    progress_history,
    render_progress,
    write_profiles_jsonl,
)
from repro.optimizer.enumeration import OptimizerOptions
from repro.plan.analyze import explain_analyze
from repro.workloads.tpch.queries import TPCH_QUERIES

from . import test_driver_pipeline as pipeline

RECONCILE_TOLERANCE = 0.01

THREE_JOIN_SQL = """
SELECT orders.o_orderkey, lineitem.l_quantity, customer.c_name
FROM customer, orders, lineitem
WHERE customer.c_custkey = orders.o_custkey
  AND orders.o_orderkey = lineitem.l_orderkey
  AND customer.c_mktsegment = 'BUILDING'
"""


def run_profiled(db, sql, params=None, pop=None):
    meter = WorkMeter()
    result = db.execute(sql, params=params, pop=pop, meter=meter, profile=True)
    return result.report


def profiled_records(attempt) -> list:
    assert attempt.profiled
    return list(attempt.record.walk())


def records_of(report, kind: str) -> list:
    """The profiled records of ``kind`` across every attempt of ``report``."""
    return [
        r for a in report.attempts for r in profiled_records(a) if r.kind == kind
    ]


class TestExclusiveTimeAccounting:
    def test_self_units_partition_execution_units(self, tpch_db):
        report = run_profiled(tpch_db, THREE_JOIN_SQL)
        assert report.profiled
        for attempt in report.attempts:
            total = sum(r.profile.self_units for r in profiled_records(attempt))
            assert total == pytest.approx(
                attempt.execution_units, rel=RECONCILE_TOLERANCE
            )
        assert sum(
            r.profile.self_units for r in report.profiled_records()
        ) == pytest.approx(
            sum(a.execution_units for a in report.attempts),
            rel=RECONCILE_TOLERANCE,
        )

    def test_inclusive_bounds_and_rows_flow(self, tpch_db):
        report = run_profiled(tpch_db, THREE_JOIN_SQL)
        (attempt,) = report.attempts
        for record in profiled_records(attempt):
            prof = record.profile
            assert prof.self_units >= 0.0
            assert prof.total_units >= prof.self_units - 1e-9
            assert prof.calls > 0
            # rows_in of every operator is the sum of its children's rows_out.
            assert record.rows_in == sum(c.rows_out for c in record.children)

    def test_qerror_propagates_through_nested_joins(self, tpch_db):
        report = run_profiled(tpch_db, THREE_JOIN_SQL)
        (attempt,) = report.attempts
        joins = [
            p for p in profiled_records(attempt)
            if p.kind in ("HSJOIN", "NLJOIN", "MSJOIN")
        ]
        assert len(joins) >= 2, "three-way join must profile >= 2 join ops"
        for prof in joins:
            if not prof.eof:
                continue
            est = max(prof.est_card, 1.0)
            act = max(float(prof.rows_out), 1.0)
            assert prof.qerror == pytest.approx(max(est / act, act / est))
            assert prof.qerror >= 1.0
        # Transparent operators never get a q-error, even at EOF.
        for prof in profiled_records(attempt):
            if prof.kind in ("CHECK", "BUFCHECK", "RETURN", "ANTIJOIN"):
                assert prof.qerror is None

    def test_extras_captured_per_kind(self, tpch_db):
        report = run_profiled(tpch_db, THREE_JOIN_SQL)
        (attempt,) = report.attempts
        by_kind = {}
        for r in profiled_records(attempt):
            by_kind.setdefault(r.kind, r.profile)
        scan = by_kind.get("TBSCAN")
        assert scan is not None and "table" in scan.extras
        if "HSJOIN" in by_kind:
            extras = by_kind["HSJOIN"].extras
            assert "build_rows" in extras and "probe_rows" in extras

    def test_reoptimized_round_profiles_every_attempt(self, star_db):
        from tests.test_driver import marker_query

        first = star_db.execute(marker_query(), params={"p": "RARE"})
        checks = [
            e.op_id for a in first.report.attempts for e in a.checkpoint_events
        ]
        if not checks:
            pytest.skip("no checkpoints placed for this plan")
        config = PopConfig(force_trigger_op_ids=frozenset({checks[0]}))
        report = run_profiled(
            star_db, marker_query(), params={"p": "RARE"}, pop=config
        )
        assert report.reoptimizations >= 1
        assert len(report.attempts) >= 2
        for attempt in report.attempts:
            total = sum(r.profile.self_units for r in profiled_records(attempt))
            assert total == pytest.approx(
                attempt.execution_units, rel=RECONCILE_TOLERANCE
            )


class TestExtrasAgreeWithRowCounts:
    """Each kind's ``profile_extras`` against its record's row counts.
    DISTINCT and MSJOIN release the buffers their extras read in ``close``,
    so extras captured after the release would read 0."""

    def test_distinct(self, tpch_db):
        sql = (
            "SELECT DISTINCT c.c_mktsegment FROM customer c, orders o "
            "WHERE c.c_custkey = o.o_custkey"
        )
        (record,) = records_of(run_profiled(tpch_db, sql), "DISTINCT")
        assert record.eof and 0 < record.rows_out < record.rows_in
        assert record.profile.extras == {"distinct_keys": record.rows_out}

    def test_ecb_bufcheck(self, tpch_db):
        config = PopConfig(flavors=frozenset({ECB}), min_cost_for_checkpoints=0.0)
        records = records_of(run_profiled(tpch_db, THREE_JOIN_SQL, pop=config), "BUFCHECK")
        assert records
        for record in records:
            assert record.eof and record.rows_out == record.rows_in > 0
            assert record.profile.extras == {
                "flavor": "ECB",
                "buffered_rows": min(record.rows_in, record.plan.buffer_size),
                "decided": True,
            }

    def test_merge_join(self, tpch_db):
        report = tpch_db.execute(
            TPCH_QUERIES["Q10"],
            optimizer_options=OptimizerOptions(enable_hash_join=False),
            profile=True,
        ).report
        records = records_of(report, "MSJOIN")
        assert records
        for record in records:
            outer, inner = record.children
            assert record.eof and record.rows_out > 0
            assert record.profile.extras == {
                "merged_rows": record.rows_out,
                "outer_rows": outer.rows_out,
                "inner_rows": inner.rows_out,
            }

    def test_ecdc_anti_join(self):
        """The ``ecdc_compensation`` statement of the driver pipeline: the
        re-optimized attempt subtracts the rows attempt 0 returned."""
        config = PopConfig(flavors=frozenset({ECDC}), min_cost_for_checkpoints=0.0)
        report = run_profiled(
            pipeline.build_star_db(), pipeline.marker_query(),
            params={"p": "COMMON"}, pop=config,
        )
        (record,) = records_of(report, "ANTIJOIN")
        compensated = record.rows_in - record.rows_out
        assert record.eof
        assert compensated == report.attempts[0].rows_emitted > 0
        assert record.profile.extras == {"compensated_rows": compensated}


    def test_check_counts_only_until_it_evaluates(self):
        """The LCEM CHECK above a TEMP evaluates once, at ``open``; the rows
        it passes on afterwards leave its count as the event logged it."""
        report = run_profiled(
            pipeline.build_star_db(), pipeline.marker_query(),
            params={"p": "RARE"},
        )
        (record,) = records_of(report, "CHECK")
        (event,) = report.checkpoint_events
        assert event.complete and not event.triggered
        assert record.eof and record.rows_out == event.observed == 45
        assert record.profile.extras == {
            "flavor": "LCEM", "observed": event.observed, "evaluated": True,
        }


class TestGroupjoinAttribution:
    """A GROUP BY over an in-memory hash join folds the join's matches
    (groupjoin); the profiler still books the probe and emit work to the
    join, exactly as on the row path."""

    SQL = (
        "SELECT c.c_segment, count(*) AS n, sum(o.o_total) AS t "
        "FROM cust c, orders o WHERE o.o_custkey = c.c_id GROUP BY c.c_segment"
    )

    def records(self, db):
        (attempt,) = run_profiled(db, self.SQL).attempts
        return attempt, profiled_records(attempt)

    def test_self_units_and_rows_equal_the_row_path(self, star_db, monkeypatch):
        attempt, fused = self.records(star_db)
        monkeypatch.setattr(aggregate, "_folds_matches", lambda child: False)
        _, row_path = self.records(star_db)
        kinds = [r.kind for r in fused]
        assert kinds[1:3] == ["GRPBY", "HSJOIN"]
        assert fused[1].profile.extras["groupjoin"] is True
        assert row_path[1].profile.extras["groupjoin"] is False
        assert [(r.kind, r.profile.self_units, r.profile.calls, r.rows_out) for r in fused] == [
            (r.kind, r.profile.self_units, r.profile.calls, r.rows_out) for r in row_path
        ]
        assert fused[2].rows_out == 12000
        assert sum(r.profile.self_units for r in fused) == pytest.approx(
            attempt.execution_units, rel=1e-9
        )


class TestObsOffFastPath:
    def test_disabled_profiling_constructs_no_collector(
        self, star_db, monkeypatch
    ):
        calls = []

        class CountingCollector:
            def __init__(self, *args, **kwargs):
                calls.append("init")

        monkeypatch.setattr(
            driver_module, "ProfileCollector", CountingCollector
        )
        result = star_db.execute(
            "SELECT cust.c_id FROM cust WHERE cust.c_segment = 'RARE'"
        )
        assert calls == []
        assert not result.report.profiled
        for attempt in result.report.attempts:
            assert all(r.profile is None for r in attempt.record.walk())

    def test_enabled_profiling_reaches_hooks(self, star_db):
        result = star_db.execute(
            "SELECT cust.c_id FROM cust WHERE cust.c_segment = 'RARE'",
            profile=True,
        )
        for record in result.report.attempts[0].record.walk():
            assert record.profile.opens > 0  # on_open
            assert record.profile.extras is not None  # on_close

    def test_records_compute_no_label_unless_rendered(
        self, star_db, monkeypatch
    ):
        from repro.plan.physical import PlanOp

        calls = []

        def counting(describe):
            def wrapper(self):
                calls.append(self.KIND)
                return describe(self)

            return wrapper

        pending = [PlanOp]
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            if "describe" in vars(cls):
                monkeypatch.setattr(cls, "describe", counting(cls.describe))
        sql = "SELECT cust.c_id FROM cust WHERE cust.c_segment = 'RARE'"
        counts = []
        for profile in (False, True):
            del calls[:]
            result = star_db.execute(sql, profile=profile)
            counts.append(len(calls))
        # Every describe() call comes from the plan text, none from records.
        assert counts[0] == counts[1]
        del calls[:]
        explain_analyze(result.report)
        assert len(calls) == len(list(result.report.attempts[0].record.walk()))

    def test_profiling_never_perturbs_work_units(self, star_db):
        sql = (
            "SELECT cust.c_id, orders.o_id FROM cust, orders "
            "WHERE cust.c_id = orders.o_custkey AND cust.c_segment = 'MID'"
        )
        off = star_db.execute(sql, meter=WorkMeter())
        on = star_db.execute(sql, meter=WorkMeter(), profile=True)
        assert on.report.total_units == off.report.total_units
        assert [r for r in on.rows] == [r for r in off.rows]


PROGRESS_GOLDEN = Path(__file__).parent / "fixtures" / "progress_history_golden.json"

#: The driver outcomes the fixture covers, each a scenario of
#: ``tests/test_driver_pipeline.py``.  The fixture's ``breaker_fallback``,
#: ``transient_retry``, ``fault_after_rows`` and ``deadline_fallback``
#: histories are not replayed: the circuit breaker, the guard's retries
#: and its safe-plan fallback they froze are deleted.
PROGRESS_OUTCOMES = ("single_attempt", "reopt_mv_reuse", "ecdc_compensation")


def one_attempt(plan, events=(), total_units=0.0):
    """A report as far as the progress replay reads one."""
    attempt = SimpleNamespace(
        plan=plan,
        checkpoint_events=list(events),
        units_at_start=0.0,
        optimization_units=0.0,
    )
    return SimpleNamespace(attempts=[attempt], total_units=total_units)


class TestProgressHistory:
    def test_integration_reaches_completion(self, tpch_db):
        metrics = MetricsRegistry()
        report = tpch_db.execute(THREE_JOIN_SQL, metrics=metrics).report
        history = progress_history(report)
        events = [h["event"] for h in history]
        assert events[0] == "begin" and events[-1] == "end"
        assert events.count("begin") == len(report.attempts)
        assert history[-1]["fraction"] == 1.0
        assert history[-1]["eta_work_units"] == 0.0
        assert history[-1]["units"] == report.total_units
        gauges = metrics.snapshot()["gauges"]
        assert not any(name.startswith("progress.") for name in gauges)

    def test_checkpoint_refinement_rescales_budget(self):
        class Edge:
            op_id = 1
            est_card = 100.0
            children = ()

        class Plan:
            est_cost = 1000.0

            def walk(self):
                check = type(
                    "CheckOp",
                    (),
                    {"op_id": 7, "est_card": 100.0, "children": [Edge()]},
                )()
                return [check, Edge()]

        class Event:
            op_id = 7
            observed = 400  # 4x the estimated edge cardinality
            units_at_event = 200.0

        report = one_attempt(Plan(), [Event()], total_units=3400.0)
        begin, checkpoint, end = progress_history(report)
        assert begin["eta_work_units"] == pytest.approx(1000.0)
        # spent 200, remaining 800 rescaled by 4x -> budget 3400.
        assert checkpoint["eta_work_units"] == pytest.approx(3200.0)
        assert checkpoint["fraction"] == pytest.approx(200.0 / 3400.0)
        assert end["fraction"] == 1.0
        assert "refinements=1" in render_progress(report)

    def test_refinement_ratio_is_clamped(self):
        class Plan:
            est_cost = 1000.0

            def walk(self):
                return [
                    type(
                        "CheckOp",
                        (),
                        {
                            "op_id": 7,
                            "est_card": 1.0,
                            "children": [
                                type(
                                    "Edge",
                                    (),
                                    {"op_id": 1, "est_card": 1.0,
                                     "children": ()},
                                )()
                            ],
                        },
                    )()
                ]

        class Event:
            op_id = 7
            observed = 10_000_000  # 1e7x misestimate
            units_at_event = 0.0

        checkpoint = progress_history(one_attempt(Plan(), [Event()]))[1]
        assert checkpoint["eta_work_units"] == pytest.approx(64_000.0)

    def test_render_shows_bar_and_history(self):
        class Plan:
            est_cost = 10.0

            def walk(self):
                return []

        text = render_progress(one_attempt(Plan(), total_units=10.0), width=10)
        assert "[##########] 100.0%" in text
        assert "attempts=1 refinements=0" in text
        assert "begin" in text and "end" in text

    @pytest.mark.parametrize("name", PROGRESS_OUTCOMES)
    def test_replay_equals_the_live_estimator(self, name, monkeypatch):
        """``tests/fixtures/progress_history_golden.json`` holds the history
        of the live estimator the replay replaced, recorded at fe2286d (the
        last commit that had one) by passing a ``ProgressEstimator`` to
        each statement the scenario runs through ``observed``.  It is never
        regenerated; the replay must reproduce it with ``==``."""
        reports = []

        def run(db, statement, **kwargs):
            reports.append(db.execute(statement, **kwargs).report)

        monkeypatch.setattr(pipeline, "observed", run)
        pipeline.SCENARIOS[name]()
        golden = json.loads(PROGRESS_GOLDEN.read_text())[name]
        assert [progress_history(r) for r in reports] == golden


class TestRobustnessMap:
    def test_surface_structure_and_fragility(self, tpch_db):
        opt = tpch_db.optimizer.optimize(tpch_db._to_query(THREE_JOIN_SQL))
        rmap = RobustnessMap(opt.plan, tpch_db.optimizer.cost_model)
        surface = rmap.compute()
        assert surface["base_cost"] > 0
        assert surface["fragility"] >= 1.0
        assert surface["min_cost"] <= surface["base_cost"] <= surface["max_cost"]
        assert all(1.0 in axis for axis in surface["factors"])
        assert len(surface["edges"]) >= 1
        rows = surface["cost"]
        assert all(len(row) == len(surface["factors"][0]) for row in rows)

    def test_json_and_heatmap_artifacts(self, tpch_db):
        opt = tpch_db.optimizer.optimize(tpch_db._to_query(THREE_JOIN_SQL))
        rmap = RobustnessMap(opt.plan, tpch_db.optimizer.cost_model)
        parsed = json.loads(rmap.to_json())
        assert parsed["fragility"] == rmap.compute()["fragility"]
        heat = rmap.heatmap()
        assert "^ = estimate" in heat
        assert "fragility=" in heat

    def test_single_table_plan_has_no_join_edges(self, star_db):
        opt = star_db.optimizer.optimize(
            star_db._to_query(
                "SELECT cust.c_id FROM cust WHERE cust.c_segment = 'RARE'"
            )
        )
        rmap = RobustnessMap(opt.plan, star_db.optimizer.cost_model)
        surface = rmap.compute()
        assert surface["edges"] == []
        assert surface["fragility"] == 1.0


class TestExportsAndRendering:
    def test_jsonl_export_round_trips(self, tpch_db, tmp_path):
        report = run_profiled(tpch_db, THREE_JOIN_SQL)
        path = tmp_path / "profiles.jsonl"
        count = write_profiles_jsonl(str(path), report.attempts)
        lines = path.read_text().splitlines()
        assert count == len(lines) == len(report.attempts) == 1
        (tree,) = [json.loads(line) for line in lines]
        assert tree["attempt"] == 0
        assert tree == {"attempt": 0, **report.attempts[0].record.to_dict()}

        def kinds(node):
            yield node["kind"]
            for child in node["children"]:
                yield from kinds(child)

        assert set(kinds(tree)) >= {"TBSCAN", "RETURN"}

    def test_jsonl_export_skips_unprofiled_reports(self, star_db, tmp_path):
        result = star_db.execute(
            "SELECT cust.c_id FROM cust WHERE cust.c_segment = 'RARE'"
        )
        path = tmp_path / "profiles.jsonl"
        assert write_profiles_jsonl(str(path), result.report.attempts) == 0
        assert not path.exists()

    def test_explain_analyze_annotates_profiled_attempts(self, tpch_db):
        report = run_profiled(tpch_db, THREE_JOIN_SQL)
        text = explain_analyze(report)
        assert "self=" in text and "wall=" in text and "q=" in text
        plain = tpch_db.execute(THREE_JOIN_SQL)
        assert "self=" not in explain_analyze(plain.report)

    def test_report_summary_mentions_profile(self, tpch_db):
        report = run_profiled(tpch_db, THREE_JOIN_SQL)
        assert "profile:" in report.summary()


class TestShellVerbs:
    def shell(self, db):
        out = io.StringIO()
        return Shell(db=db, out=out), out

    def test_profile_toggle_and_last(self, star_db):
        shell, out = self.shell(star_db)
        shell.run(["\\profile last"])
        assert "no profiled statement" in out.getvalue()
        shell.run(
            [
                "\\profile on",
                "SELECT cust.c_id FROM cust WHERE cust.c_segment = 'RARE';",
                "\\profile last",
                "\\progress",
            ]
        )
        text = out.getvalue()
        assert "profiling on" in text
        assert "--- attempt 0 (completed) ---" in text
        assert "self=" in text  # the EXPLAIN ANALYZE renderer
        assert "total self time:" in text
        assert "100.0%" in text  # progress bar of the completed statement

    def test_progress_needs_no_profile(self, star_db):
        shell, out = self.shell(star_db)
        shell.run(["\\progress"])
        assert "no statement yet" in out.getvalue()
        shell.run(
            [
                "\\set p1 COMMON",
                "SELECT c.c_id, o.o_id FROM cust c, orders o "
                "WHERE o.o_custkey = c.c_id AND c.c_segment = ?;",
                "\\progress",
            ]
        )
        report = shell.last_report
        assert not report.profiled and report.reoptimizations == 1
        assert render_progress(report) in out.getvalue()
        assert "attempts=2 refinements=1" in out.getvalue()

    def test_analyze_always_profiles(self, star_db):
        shell, out = self.shell(star_db)
        shell.run(
            ["\\analyze SELECT cust.c_id FROM cust "
             "WHERE cust.c_segment = 'RARE';"]
        )
        assert "self=" in out.getvalue()

    def test_trace_export_writes_profile_jsonl(self, star_db, tmp_path):
        shell, out = self.shell(star_db)
        trace = tmp_path / "trace.jsonl"
        shell.run(
            [
                f"\\trace on {trace}",
                "\\profile on",
                "SELECT cust.c_id FROM cust WHERE cust.c_segment = 'RARE';",
            ]
        )
        export = tmp_path / "trace.profile.jsonl"
        assert export.exists()
        records = [
            json.loads(line) for line in export.read_text().splitlines()
        ]
        assert records and all("self_units" in r for r in records)
        assert all("self_units" in c for r in records for c in r["children"])


class TestPromLabelEscaping:
    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.inc("queries", op='say "hi"\\now', stage="a\nb")
        text = registry.render_prometheus()
        assert 'op="say \\"hi\\"\\\\now"' in text
        assert 'stage="a\\nb"' in text
        assert "\n " not in text.split("# ")[0]  # no raw newline inside a label

    def test_plain_labels_unchanged(self):
        registry = MetricsRegistry()
        registry.inc("queries", op="scan")
        assert 'op="scan"' in registry.render_prometheus()
