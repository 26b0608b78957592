"""Fault injection, execution guards, retry/backoff, and safe-plan fallback.

Covers:

* the error taxonomy and ``failure_class`` classification;
* seeded fault-plan determinism (same seed -> identical schedule, identical
  retry/fallback sequence, identical rows);
* retry correctness against the reference oracle, with backoff charged to
  the work meter;
* the fixed retry budget and backoff schedule, and the safe-plan
  fallback's correctness;
* deadline timeouts, memory-grant exhaustion, and statistics corruption
  (a per-statement override: the catalog is never written);
* exception safety: every operator is closed (and closable twice) on
  error paths;
* the CLI's classified one-line errors and ``\\chaos`` mode;
* the ``close-guarded`` and ``fault-isolation`` contract rules.
"""

from __future__ import annotations

import io

import pytest

from repro import Database, PopConfig
from repro.analysis.contract import check_module
from repro.cli import Shell
from repro.common.chaosutil import canonical_rows, query_seed
from repro.common.errors import (
    FATAL,
    RESOURCE,
    TIMEOUT,
    TRANSIENT,
    USER,
    ExecutionError,
    ExecutionTimeout,
    ParseError,
    ReproError,
    ResourceExhausted,
    TransientError,
    failure_class,
    is_retryable,
)
from repro.core.config import ResiliencePolicy
from repro.core.driver import PopDriver
from repro.executor.base import ExecutionContext
from repro.executor.meter import WorkMeter
from repro.executor.runtime import run_plan
from repro.obs import MetricsRegistry, Tracer
from repro.plan.explain import explain_plan
from repro.plan.physical import NLJoin, find_ops
from repro.resilience import (
    EXEC_KINDS,
    FALLBACK,
    RAISE,
    RETRY,
    ExecutionGuard,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    fault_campaign,
)
from repro.resilience.chaos import FaultTally, run_query_under_chaos
from repro.resilience.guard import MAX_RETRIES, backoff_units
from tests.conftest import canonical
from tests.reference import evaluate_reference

JOIN_SQL = (
    "SELECT c.c_id, o.o_total FROM cust c, orders o "
    "WHERE c.c_id = o.o_custkey AND c.c_segment = 'MID'"
)

SORT_SQL = (
    "SELECT c.c_id, o.o_total FROM cust c, orders o "
    "WHERE c.c_id = o.o_custkey AND c.c_segment = 'COMMON' "
    "ORDER BY o.o_total DESC"
)


def guarded(**kwargs) -> PopConfig:
    return PopConfig(resilience=ResiliencePolicy(**kwargs))


def oracle_rows(db: Database, sql: str):
    return canonical(evaluate_reference(db.catalog, db._to_query(sql), {}))


# ---------------------------------------------------------------- taxonomy


class TestErrorTaxonomy:
    def test_failure_classes(self):
        assert failure_class(TransientError("x")) == TRANSIENT
        assert failure_class(ResourceExhausted("x")) == RESOURCE
        assert failure_class(ExecutionTimeout("x")) == TIMEOUT
        assert failure_class(ParseError("x")) == USER
        assert failure_class(ExecutionError("x")) == FATAL
        assert failure_class(ValueError("x")) == FATAL

    def test_hierarchy(self):
        # ResourceExhausted is retryable-transient; timeouts are not.
        assert is_retryable(ResourceExhausted("x"))
        assert is_retryable(TransientError("x"))
        assert not is_retryable(ExecutionTimeout("x"))
        assert isinstance(ResourceExhausted("x"), TransientError)
        assert isinstance(ExecutionTimeout("x"), ReproError)


# ------------------------------------------------------------- fault plans


class TestFaultPlans:
    def test_seeded_plan_is_deterministic(self):
        a = FaultPlan.seeded(99, n_faults=6, tables=("t1", "t2"))
        b = FaultPlan.seeded(99, n_faults=6, tables=("t1", "t2"))
        assert a.specs == b.specs
        assert FaultPlan.seeded(100, n_faults=6, tables=("t1",)).specs != a.specs

    def test_query_seed_is_stable(self):
        # crc32-derived, so stable across processes (unlike hash()).
        assert query_seed(1, "tpch", "Q1") == query_seed(1, "tpch", "Q1")
        assert query_seed(1, "tpch", "Q1") != query_seed(2, "tpch", "Q1")

    def test_stats_fault_requires_table(self):
        with pytest.raises(ValueError):
            FaultSpec("stats", payload=2.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec("segfault", trigger_at=1)


# ------------------------------------------------------------ guard (unit)


class TestInjectorCountsBatchPulls:
    """The injector's clock is the ``next_batch`` pull: whatever the batch
    width, a fault whose trigger the statement reaches must fire."""

    @pytest.mark.parametrize("width", [1, 1024])
    def test_every_reached_exec_fault_fires(self, star_db, width):
        physical = star_db.execute_without_pop(SORT_SQL).report.attempts[0].plan
        # Seed 3 draws all three execution kinds at six distinct triggers
        # (2..39), inside the 91 pulls this plan takes at width 1024.
        plan = FaultPlan.seeded(3, n_faults=6, max_trigger=40)
        assert {s.kind for s in plan.specs} == set(EXEC_KINDS)
        injector = FaultInjector(plan)
        for _attempt in range(len(plan.specs) + 1):
            # One injector across attempts, like the driver's retry loop:
            # the pull counter keeps running, each attempt gets a fresh
            # context (and with it un-shrunk memory).
            ctx = ExecutionContext(
                star_db.catalog, batch_size=width, fault_injector=injector
            )
            try:
                rows = run_plan(physical, ctx)
            except (TransientError, ResourceExhausted):
                continue
            break
        else:
            pytest.fail("statement never survived its fault schedule")
        assert canonical(rows) == oracle_rows(star_db, SORT_SQL)
        reached = [
            s for s in plan.exec_specs if s.trigger_at <= injector.call_count
        ]
        assert len(reached) == 6
        assert sorted((f.kind, f.at_call) for f in injector.fired) == sorted(
            (s.kind, s.trigger_at) for s in reached
        )


class TestExecutionGuard:
    def test_backoff_schedule_is_capped_exponential(self):
        assert [backoff_units(i) for i in range(6)] == [
            50.0, 100.0, 200.0, 400.0, 800.0, 800.0,
        ]

    def test_retry_then_fallback_then_exhausted(self):
        meter = WorkMeter(track_categories=True)
        guard = ExecutionGuard(ResiliencePolicy(), meter=meter)
        assert guard.on_failure(TransientError("a")) == RETRY
        assert guard.on_failure(ResourceExhausted("b")) == RETRY
        assert guard.on_failure(TransientError("c")) == FALLBACK
        assert guard.retries == 2
        assert meter.by_category()["backoff"] == pytest.approx(
            guard.backoff_units_charged
        )

    def test_fatal_and_user_errors_raise(self):
        guard = ExecutionGuard(ResiliencePolicy())
        assert guard.on_failure(ExecutionError("boom")) == RAISE
        assert guard.on_failure(ParseError("bad sql")) == RAISE
        assert guard.retries == 0

    def test_timeout_goes_straight_to_fallback(self):
        guard = ExecutionGuard(ResiliencePolicy())
        assert guard.on_failure(ExecutionTimeout("late")) == FALLBACK
        assert "deadline" in guard.fallback_reason

    def test_fallback_disabled_raises_instead(self):
        guard = ExecutionGuard(ResiliencePolicy(fallback_enabled=False))
        for _ in range(MAX_RETRIES):
            assert guard.on_failure(TransientError("a")) == RETRY
        assert guard.on_failure(TransientError("a")) == RAISE

    def test_requested_fallback_gets_no_deadline_and_no_second_chance(self):
        """The safe plan must complete: once the guard asked for it, it
        hands out no deadline, and a failure of it is raised uncounted."""
        metrics = MetricsRegistry()
        guard = ExecutionGuard(
            ResiliencePolicy(deadline_units=10.0, deadline_seconds=60.0),
            meter=WorkMeter(),
            metrics=metrics,
        )
        assert guard.deadline_for_attempt(WorkMeter()) == 10.0
        assert guard.wall_deadline_for_statement() is not None
        assert guard.on_failure(ExecutionTimeout("late")) == FALLBACK
        counters = metrics.snapshot()["counters"]
        assert guard.deadline_for_attempt(WorkMeter()) is None
        assert guard.wall_deadline_for_statement() is None
        assert guard.on_failure(TransientError("again")) == RAISE
        assert guard.on_failure(ExecutionTimeout("again")) == RAISE
        assert guard.retries == 0
        assert metrics.snapshot()["counters"] == counters


# ----------------------------------------------------- retry through driver


class TestRetry:
    def test_transient_fault_retried_and_correct(self, star_db):
        oracle = oracle_rows(star_db, JOIN_SQL)
        meter = WorkMeter(track_categories=True)
        plan = FaultPlan(specs=[FaultSpec("iterator", trigger_at=4)])
        result = star_db.execute(
            JOIN_SQL, pop=guarded(), meter=meter, faults=plan
        )
        assert canonical(result.rows) == oracle
        assert result.report.retries == 1
        assert not result.report.fallback_used
        assert result.report.faults_injected == 1
        failed = result.report.attempts[0]
        assert failed.failure_class == TRANSIENT
        assert "injected transient" in failed.failure

    def test_backoff_charged_to_meter(self, star_db):
        meter = WorkMeter(track_categories=True)
        plan = FaultPlan(specs=[FaultSpec("iterator", trigger_at=4)])
        result = star_db.execute(
            JOIN_SQL, pop=guarded(), meter=meter, faults=plan
        )
        assert result.report.retries == 1
        assert meter.by_category()["backoff"] == backoff_units(0)
        assert result.report.backoff_units == backoff_units(0)

    def test_retries_do_not_consume_reopt_budget(self, star_db):
        # A retry re-optimizes but must not burn a CHECK's re-planning
        # round: with reopt_limit untouched, a fault on attempt 0 still
        # leaves the full budget for genuine checkpoint triggers.
        plan = FaultPlan(specs=[FaultSpec("iterator", trigger_at=2)])
        result = star_db.execute(JOIN_SQL, pop=guarded(), faults=plan)
        checkpointed = [
            a for a in result.report.attempts if a.checkpoints_placed
        ]
        assert checkpointed, "retry attempt should still place checkpoints"

    def test_mem_shrink_resource_exhaustion_retried(self, star_db):
        oracle = oracle_rows(star_db, SORT_SQL)
        plan = FaultPlan(
            specs=[FaultSpec("mem_shrink", trigger_at=2, payload=0.0001)]
        )
        result = star_db.execute(SORT_SQL, pop=guarded(), faults=plan)
        assert canonical(result.rows) == oracle
        assert result.report.retries >= 1
        assert result.report.attempts[0].failure_class == RESOURCE

    def test_seeded_fault_runs_are_identical(self, star_db):
        outcomes = []
        for _ in range(2):
            plan = FaultPlan.seeded(
                7,
                n_faults=4,
                kinds=("iterator", "stall", "mem_shrink"),
            )
            meter = WorkMeter(track_categories=True)
            result = star_db.execute(
                SORT_SQL, pop=guarded(), meter=meter, faults=plan
            )
            outcomes.append(
                (
                    canonical(result.rows),
                    result.report.retries,
                    result.report.fallback_used,
                    result.report.faults_injected,
                    [a.failure_class for a in result.report.attempts],
                    meter.snapshot(),
                )
            )
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == oracle_rows(star_db, SORT_SQL)


# ----------------------------------------------------------------- fallback


class TestFallback:
    def test_persistent_fault_falls_back_correctly(self, star_db):
        oracle = oracle_rows(star_db, JOIN_SQL)
        plan = FaultPlan(
            specs=[FaultSpec("iterator", trigger_at=3, times=1000)]
        )
        result = star_db.execute(
            JOIN_SQL, pop=guarded(), faults=plan
        )
        assert canonical(result.rows) == oracle
        assert result.report.retries == MAX_RETRIES
        assert result.report.fallback_used
        assert "retries exhausted" in result.report.fallback_reason
        final = result.report.attempts[-1]
        assert final.fallback
        assert final.checkpoints_placed == 0
        assert final.failure is None

    def test_fallback_disabled_raises(self, star_db):
        plan = FaultPlan(
            specs=[FaultSpec("iterator", trigger_at=3, times=1000)]
        )
        with pytest.raises(TransientError):
            star_db.execute(
                JOIN_SQL,
                pop=guarded(fallback_enabled=False),
                faults=plan,
            )

    def test_fallback_avoids_nested_loop_joins(self, star_db):
        plan = FaultPlan(
            specs=[FaultSpec("iterator", trigger_at=3, times=1000)]
        )
        result = star_db.execute(JOIN_SQL, pop=guarded(), faults=plan)
        assert result.report.fallback_used
        assert not find_ops(result.report.attempts[-1].plan, NLJoin)

    def test_fallback_restriction_ends_with_its_statement(self, star_db):
        before = explain_plan(star_db.plan(JOIN_SQL)[1].plan)
        plan = FaultPlan(
            specs=[FaultSpec("iterator", trigger_at=3, times=1000)]
        )
        star_db.execute(JOIN_SQL, pop=guarded(), faults=plan)
        assert explain_plan(star_db.plan(JOIN_SQL)[1].plan) == before

    def test_deadline_timeout_falls_back(self, star_db):
        oracle = oracle_rows(star_db, JOIN_SQL)
        result = star_db.execute(
            JOIN_SQL, pop=guarded(deadline_units=1.0), faults=FaultPlan()
        )
        assert canonical(result.rows) == oracle
        assert result.report.fallback_used
        assert "deadline" in result.report.fallback_reason
        assert result.report.attempts[0].failure_class == TIMEOUT


# -------------------------------------------------------------- stats faults


ORDERS_SQL = "SELECT o.o_id FROM orders o WHERE o.o_total > 400.0"


def stats_fault(payload: float) -> FaultPlan:
    return FaultPlan(
        specs=[FaultSpec("stats", payload=payload, target_table="orders")]
    )


def inside_the_statement(db: Database, monkeypatch) -> list:
    """Spy on the driver: as each attempt starts executing, record what
    another caller of the same database sees — the catalog's statistics
    object for ``orders`` and ``db.plan``'s estimate for ORDERS_SQL."""
    seen = []
    real_execute = PopDriver._execute

    def execute(self, sc, planned):
        seen.append(
            (
                db.catalog.statistics("orders"),
                db.plan(ORDERS_SQL)[0].plan.est_card,
            )
        )
        return real_execute(self, sc, planned)

    monkeypatch.setattr(PopDriver, "_execute", execute)
    return seen


class TestStatsFaults:
    """A ``stats`` fault is an override the faulted statement plans with;
    the catalog every other statement reads is never written."""

    def test_stats_fault_corrupts_only_its_own_statement(
        self, star_db, monkeypatch
    ):
        before = star_db.catalog.statistics("orders")
        clean = star_db.plan(ORDERS_SQL)[0].plan.est_card
        seen = inside_the_statement(star_db, monkeypatch)
        result = star_db.execute(
            ORDERS_SQL, pop=guarded(), faults=stats_fault(100.0)
        )
        assert canonical(result.rows) == oracle_rows(star_db, ORDERS_SQL)
        assert result.report.faults_injected == 1
        # The statement itself planned with 100x the rows...
        assert result.report.attempts[0].plan.est_card == pytest.approx(100 * clean)
        # ...while everyone else saw the catalog as it was, throughout.
        assert seen
        assert all(stats is before for stats, _ in seen)
        assert all(est == clean for _, est in seen)
        assert star_db.catalog.statistics("orders") is before

    def test_dropped_statistics_are_never_dropped_from_the_catalog(
        self, star_db, monkeypatch
    ):
        before = star_db.catalog.statistics("orders")
        seen = inside_the_statement(star_db, monkeypatch)
        result = star_db.execute(
            JOIN_SQL, pop=guarded(), faults=stats_fault(0.0)
        )
        assert canonical(result.rows) == oracle_rows(star_db, JOIN_SQL)
        assert seen and all(stats is before for stats, _ in seen)
        with pytest.raises(ReproError):
            star_db.execute(
                "SELECT c.nope FROM cust c", pop=guarded(),
                faults=stats_fault(0.0),
            )
        assert star_db.catalog.statistics("orders") is before

    def test_stats_faulted_statement_skips_the_plan_cache(self, star_db):
        cache = star_db.enable_plan_cache()
        result = star_db.execute(
            JOIN_SQL, pop=guarded(), faults=stats_fault(100.0)
        )
        assert canonical(result.rows) == oracle_rows(star_db, JOIN_SQL)
        assert result.report.faults_injected == 1
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.installs) == (0, 0, 0)
        assert not cache.entries()


# --------------------------------------------------------- exception safety


class TestExceptionSafety:
    def test_operators_closed_on_fault(self, star_db):
        tracer = Tracer()
        plan = FaultPlan(
            specs=[FaultSpec("iterator", trigger_at=3, times=1000)]
        )
        result = star_db.execute(
            JOIN_SQL, pop=guarded(), faults=plan, tracer=tracer
        )
        assert result.report.fallback_used
        # Every operator span must have ended despite the mid-plan crashes.
        op_spans = [
            r for r in tracer.records
            if r["type"] == "span" and r["name"].startswith("op.")
        ]
        assert op_spans
        assert all(r["t1"] is not None for r in op_spans)

    def test_close_is_idempotent_on_every_operator(self, star_db):
        from repro.executor.base import ExecutionContext
        from repro.executor.runtime import run_plan

        opt = star_db.optimizer.optimize(star_db._to_query(SORT_SQL))
        ctx = ExecutionContext(star_db.catalog)
        run_plan(opt.plan, ctx)
        for op in ctx.operators:
            op.close()
            op.close()  # second close must be a no-op, not an error

    def test_close_before_open_is_safe(self, star_db):
        from repro.executor.base import ExecutionContext
        from repro.executor.runtime import build_executor

        opt = star_db.optimizer.optimize(star_db._to_query(SORT_SQL))
        ctx = ExecutionContext(star_db.catalog)
        build_executor(opt.plan, ctx)
        for op in ctx.operators:
            op.close()  # never opened: still must not raise


# ------------------------------------------------------------------ chaos


class TestChaosHarness:
    def test_canonical_rows_tolerates_float_noise(self):
        a = [(1, 201770999.87999946), (2, 0.04988384371700163)]
        b = [(2, 0.04988384371700152), (1, 201770999.88000032)]
        assert canonical_rows(a) == canonical_rows(b)
        assert canonical_rows([(1, 1.0)]) != canonical_rows([(1, 2.0)])

    def test_one_query_under_chaos(self, star_db):
        outcome = fault_campaign([("unit", star_db, [("join", JOIN_SQL)])])(5)
        assert outcome.ok, outcome.problems
        assert sum(outcome.tally.fired.values()) >= 1

    def test_silent_injector_fails_the_campaign(self, monkeypatch, capsys):
        """A seed that planned execution faults and fired none did not test
        anything: that seed fails on its own, whatever the others fired."""
        from repro.common.chaosutil import scenario_main
        from repro.workloads import small_workload_databases

        workloads = [
            (label, db, queries[:2])
            for label, db, queries in small_workload_databases("tpch")
        ]
        run_faults = fault_campaign(workloads)
        assert run_faults(1).ok
        monkeypatch.setattr(FaultInjector, "_wrap", lambda self, op, ctx: None)
        silent = run_faults(2)
        assert not silent.ok
        assert silent.problems[-1].endswith("execution faults planned, none fired")
        runners = {"faults": run_faults}
        assert scenario_main(runners, ["--seeds", "1", "--quiet"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] faults seed=1 0/" in out and "none fired" in out
        monkeypatch.undo()
        assert scenario_main(runners, ["--seeds", "1", "--quiet"]) == 0
        assert "none fired" not in capsys.readouterr().out

    def test_seeded_campaign_reaches_the_operators(self, capsys):
        """The injector wraps ``next_batch`` (and an index-NLJN inner's
        ``probe``) per operator instance, and the pull sequence is what
        places the faults.  The batched index NLJN removed pulls on purpose
        — one outer pull per batch of rows instead of one per row, and no
        per-row inner EOF pull — so the campaign reaches fewer of its
        late triggers: 139/223 (iterator 40, stall 50, mem_shrink 49) with
        per-row NLJN pulls.  Counting a k-key probe as k pulls keeps every
        kind above 80 % of that."""
        from repro.chaos import main

        args = ["--scenario", "faults", "stampede", "memory",
                "--seeds", "1", "2", "--quiet"]
        assert main(args) == 0
        assert (
            "chaos: 6/6 scenario runs ok, 121/223 execution faults fired "
            "(iterator 37/64, stall 43/80, mem_shrink 41/79), "
            "83/83 stats faults fired, 37 retries, 0 fallbacks"
        ) in capsys.readouterr().out

    def test_chaos_detects_divergence(self, star_db):
        assert run_query_under_chaos(
            star_db, "unit", "join", JOIN_SQL, 5, [("wrong",)], FaultTally()
        )[0].startswith("rows diverge")

    def test_failing_query_is_named(self, star_db, capsys):
        from repro.common.chaosutil import scenario_main

        runners = {
            "faults": fault_campaign([("unit", star_db, [("join", JOIN_SQL)])])
        }
        assert scenario_main(runners, ["--seeds", "5", "--quiet"]) == 0
        # The oracle was taken on the first seed; new data makes the next
        # seed's rows diverge from it.
        mid = star_db.execute(
            "SELECT c.c_id FROM cust c WHERE c.c_segment = 'MID'"
        ).rows[0][0]
        star_db.insert("orders", [(99999, mid, 1.0)])
        assert scenario_main(runners, ["--seeds", "5", "--quiet"]) == 1
        assert "unit/join seed=5: rows diverge" in capsys.readouterr().out


# --------------------------------------------------------------------- CLI


class TestCliResilience:
    def _shell(self, star_db):
        out = io.StringIO()
        return Shell(db=star_db, out=out), out

    def test_classified_user_error(self, star_db):
        shell, out = self._shell(star_db)
        shell.run(["SELECT c.nope FROM cust c;"])
        assert "error[user]:" in out.getvalue()

    def test_chaos_meta_command(self, star_db):
        shell, out = self._shell(star_db)
        shell.run(["\\chaos 42"])
        assert "chaos on (seed 42)" in out.getvalue()
        shell.run([JOIN_SQL + ";"])
        shell.run(["\\chaos off"])
        text = out.getvalue()
        assert "chaos off" in text
        assert "error" not in text.split("chaos on (seed 42)")[1].split("chaos off")[0]

    def test_chaos_meta_usage(self, star_db):
        shell, out = self._shell(star_db)
        shell.run(["\\chaos nonsense"])
        assert "usage" in out.getvalue()


# --------------------------------------------------------- contract rules


OPERATOR_STUB = """
class Operator:
    def __init__(self):
        self.rows_out = 0
    def open(self):
        pass
    def close(self):
        pass
    def next_batch(self, max_rows):
        raise NotImplementedError
"""


class TestCloseGuardedRule:
    def test_open_assigned_attribute_flagged(self):
        findings = check_module(
            OPERATOR_STUB
            + """
class Leaky(Operator):
    def __init__(self):
        super().__init__()
    def open(self):
        super().open()
        self._table = {}
    def close(self):
        super().close()
        self._table.clear()
    def next_batch(self, max_rows):
        return None
"""
        )
        rules = [f.rule for f in findings]
        assert "close-guarded" in rules

    def test_init_assigned_attribute_clean(self):
        findings = check_module(
            OPERATOR_STUB
            + """
class Tidy(Operator):
    def __init__(self):
        super().__init__()
        self._table = {}
    def close(self):
        super().close()
        self._table = {}
        if self._table:
            pass
    def next_batch(self, max_rows):
        return None
"""
        )
        assert [f.rule for f in findings] == []

    def test_method_calls_in_close_allowed(self):
        findings = check_module(
            OPERATOR_STUB
            + """
class Spanner(Operator):
    def __init__(self):
        super().__init__()
    def end_span(self):
        pass
    def close(self):
        super().close()
        self.end_span()
    def next_batch(self, max_rows):
        return None
"""
        )
        assert [f.rule for f in findings] == []


class TestFaultIsolationRule:
    def test_submodule_import_flagged(self):
        findings = check_module(
            "from repro.resilience.faults import FaultInjector\n"
        )
        assert [f.rule for f in findings] == ["fault-isolation"]

    def test_package_import_allowed(self):
        assert check_module("from repro.resilience import FaultPlan\n") == []

    def test_attribute_reference_flagged(self):
        findings = check_module("def f(ctx):\n    return ctx.fault_injector\n")
        assert [f.rule for f in findings] == ["fault-isolation"]

    def test_live_package_is_clean(self):
        from repro.analysis.contract import run_contract_checks

        assert [
            f for f in run_contract_checks()
            if f.rule in ("fault-isolation", "close-guarded")
        ] == []


# ------------------------------------------------------------ observability


class TestObservability:
    def test_every_fault_visible_in_trace_and_metrics(self, star_db):
        tracer = Tracer()
        metrics = MetricsRegistry()
        plan = FaultPlan(
            specs=[
                FaultSpec("iterator", trigger_at=4),
                FaultSpec("stall", trigger_at=10, payload=500.0),
                FaultSpec("stats", payload=50.0, target_table="orders"),
            ]
        )
        result = star_db.execute(
            JOIN_SQL, pop=guarded(), faults=plan,
            tracer=tracer, metrics=metrics,
        )
        assert result.report.faults_injected == 3
        assert len(tracer.events("fault.injected")) == 3
        assert metrics.total("resilience.faults_injected") == 3
        assert len(tracer.events("guard.retry")) == result.report.retries
        assert metrics.total("resilience.retries") == result.report.retries

    def test_fallback_events(self, star_db):
        tracer = Tracer()
        metrics = MetricsRegistry()
        plan = FaultPlan(
            specs=[FaultSpec("iterator", trigger_at=3, times=1000)]
        )
        star_db.execute(
            JOIN_SQL, pop=guarded(), faults=plan,
            tracer=tracer, metrics=metrics,
        )
        assert len(tracer.events("guard.fallback")) == 1
        assert metrics.total("resilience.fallbacks") == 1

    def test_stall_fault_charges_meter(self, star_db):
        meter = WorkMeter(track_categories=True)
        plan = FaultPlan(
            specs=[FaultSpec("stall", trigger_at=5, payload=777.0)]
        )
        result = star_db.execute(
            JOIN_SQL, pop=guarded(), meter=meter, faults=plan
        )
        assert result.report.faults_injected == 1
        assert meter.by_category()["fault.stall"] == pytest.approx(777.0)
