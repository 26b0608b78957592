"""Fault injection, failure classification and exception safety.

Covers:

* the error taxonomy and ``failure_class`` classification;
* seeded fault-plan determinism (same seed -> identical schedule, identical
  renegotiations, identical rows);
* memory-pressure (``mem_shrink``) faults against a governed statement and
  statistics corruption (a per-statement override: the catalog is never
  written);
* exception safety: every operator is closed (and closable twice) on
  error paths;
* the CLI's classified one-line errors and ``\\chaos`` mode;
* the ``close-guarded`` and ``fault-isolation`` contract rules.
"""

from __future__ import annotations

import io

import pytest

from repro import Database
from repro.analysis.contract import check_module
from repro.cli import Shell
from repro.common.chaosutil import canonical_rows, query_seed, spill_dirs
from repro.common.errors import (
    ADMISSION,
    CANCELLED,
    CONFLICT,
    FATAL,
    OVERLOADED,
    TIMEOUT,
    USER,
    AdmissionRejected,
    BindError,
    CatalogError,
    ExecutionCancelled,
    ExecutionError,
    ExecutionTimeout,
    ParseError,
    ProtocolError,
    ReproError,
    SchemaError,
    ServerOverloaded,
    TransactionConflict,
    WalError,
    failure_class,
)
from repro.core.config import MemoryPolicy, ResiliencePolicy
from repro.core.driver import PopDriver
from repro.executor.base import ExecutionContext
from repro.executor.meter import WorkMeter
from repro.executor.runtime import run_plan
from repro.obs import MetricsRegistry, Tracer
from repro.resilience import (
    ALL_KINDS,
    MEM_SHRINK,
    FaultInjector,
    FaultPlan,
    FaultSpec,
)
from tests.conftest import canonical
from tests.reference import evaluate_reference
from tests.test_cancellation import CountdownToken

#: The default budget admits every statement; one-page floors let a
#: ``mem_shrink`` fault squeeze a reservation until its operators spill.
ONE_PAGE_FLOORS = MemoryPolicy(min_reservation_pages=1.0, min_grant_pages=1.0)

JOIN_SQL = (
    "SELECT c.c_id, o.o_total FROM cust c, orders o "
    "WHERE c.c_id = o.o_custkey AND c.c_segment = 'MID'"
)

SORT_SQL = (
    "SELECT c.c_id, o.o_total FROM cust c, orders o "
    "WHERE c.c_id = o.o_custkey AND c.c_segment = 'COMMON' "
    "ORDER BY o.o_total DESC"
)

#: Spills under a 16-page budget (``tests/test_cancellation.py``'s join).
SPILL_JOIN_SQL = (
    "SELECT c.c_segment, o.o_total FROM cust c, orders o "
    "WHERE o.o_custkey = c.c_id ORDER BY o.o_total, c.c_segment"
)


def oracle_rows(db: Database, sql: str):
    return canonical(evaluate_reference(db.catalog, db._to_query(sql), {}))


# ---------------------------------------------------------------- taxonomy


#: Every failure class, with each exception that must land in it.
FAILURE_CLASSES = [
    (ExecutionTimeout, TIMEOUT),
    (ExecutionCancelled, CANCELLED),
    (AdmissionRejected, ADMISSION),
    (ServerOverloaded, OVERLOADED),
    (TransactionConflict, CONFLICT),
    (ParseError, USER),
    (BindError, USER),
    (SchemaError, USER),
    (CatalogError, USER),
    (ProtocolError, USER),
    (ExecutionError, FATAL),
    (WalError, FATAL),
    (ValueError, FATAL),
]


class TestErrorTaxonomy:
    @pytest.mark.parametrize(
        "error, cls", FAILURE_CLASSES, ids=[e.__name__ for e, _ in FAILURE_CLASSES]
    )
    def test_failure_classes(self, error, cls):
        assert failure_class(error("x")) == cls

    def test_hierarchy(self):
        assert isinstance(ExecutionTimeout("x"), ExecutionError)
        assert isinstance(TransactionConflict("x"), ReproError)
        assert not isinstance(TransactionConflict("x"), ExecutionError)

    def test_the_safe_plan_cannot_be_asked_for(self):
        assert not ResiliencePolicy().fallback_enabled
        with pytest.raises(ValueError, match="safe-plan fallback was removed"):
            ResiliencePolicy(fallback_enabled=True)


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

    @pytest.mark.parametrize("kind", ["segfault", "iterator", "stall"])
    def test_unknown_kind_rejected(self, kind):
        with pytest.raises(ValueError):
            FaultSpec(kind, trigger_at=1)


# ------------------------------------------------------- injector (unit)


def markers(triggers) -> FaultPlan:
    """``mem_shrink`` faults that shrink nothing: pull-clock markers."""
    return FaultPlan(
        specs=[FaultSpec(MEM_SHRINK, trigger_at=k, payload=1.0) for k in triggers]
    )


class TestInjectorCountsBatchPulls:
    """The injector's clock is the ``next_batch`` pull: whatever the batch
    width, a fault whose trigger the statement reaches must fire."""

    @pytest.mark.parametrize("width", [1, 7, 1024])
    def test_every_reached_exec_fault_fires(self, star_db, width):
        physical = star_db.execute_without_pop(SORT_SQL).report.attempts[0].plan
        # Six distinct triggers inside the 91 pulls this plan takes at
        # width 1024.
        plan = markers((2, 5, 11, 17, 29, 39))
        injector = FaultInjector(plan)
        ctx = ExecutionContext(
            star_db.catalog, batch_size=width, fault_injector=injector
        )
        rows = run_plan(physical, ctx)
        assert canonical(rows) == oracle_rows(star_db, SORT_SQL)
        assert injector.call_count >= 39
        assert sorted((f.kind, f.at_call) for f in injector.fired) == sorted(
            (s.kind, s.trigger_at) for s in plan.specs
        )

    def test_groupjoin_pulls_count_like_the_row_path(self, star_db, monkeypatch):
        """A GROUP BY that folds a hash join's matches pulls them through
        ``next_matches``; each call is one pull, so a schedule lands on the
        operators where the row path's ``next_batch`` pulls put it."""
        from repro.executor import aggregate

        sql = (
            "SELECT c.c_segment, count(*) AS n FROM cust c, orders o "
            "WHERE o.o_custkey = c.c_id GROUP BY c.c_segment"
        )
        physical = star_db.execute_without_pop(sql).report.attempts[0].plan

        def pulls() -> list:
            injector = FaultInjector(markers(range(1, 100)))
            ctx = ExecutionContext(star_db.catalog, fault_injector=injector)
            run_plan(physical, ctx)
            return [(f.at_call, f.op_kind) for f in injector.fired]

        fused = pulls()
        assert ("HSJOIN" in {kind for _, kind in fused}) and len(fused) < 99
        monkeypatch.setattr(aggregate, "_folds_matches", lambda child: False)
        assert pulls() == fused


# ---------------------------------------------------- mem_shrink through driver


class TestMemShrinkFaults:
    def test_seeded_fault_runs_are_identical(self, star_db):
        star_db.enable_memory_governor(policy=ONE_PAGE_FLOORS)
        outcomes = []
        for _ in range(2):
            plan = FaultPlan.seeded(
                7, n_faults=4, kinds=ALL_KINDS, tables=("cust", "orders")
            )
            meter = WorkMeter(track_categories=True)
            result = star_db.execute(SORT_SQL, meter=meter, faults=plan)
            outcomes.append(
                (
                    canonical(result.rows),
                    result.report.faults_injected,
                    result.report.renegotiations,
                    result.report.spilled,
                    meter.snapshot(),
                )
            )
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == oracle_rows(star_db, SORT_SQL)
        assert outcomes[0][2] >= 1


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
            ORDERS_SQL, faults=stats_fault(100.0)
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
        result = star_db.execute(JOIN_SQL, faults=stats_fault(0.0))
        assert canonical(result.rows) == oracle_rows(star_db, JOIN_SQL)
        assert seen and all(stats is before for stats, _ in seen)
        with pytest.raises(ReproError):
            star_db.execute(
                "SELECT c.nope FROM cust c", faults=stats_fault(0.0)
            )
        assert star_db.catalog.statistics("orders") is before

    def test_stats_faulted_statement_skips_the_plan_cache(self, star_db):
        cache = star_db.enable_plan_cache()
        result = star_db.execute(JOIN_SQL, faults=stats_fault(100.0))
        assert canonical(result.rows) == oracle_rows(star_db, JOIN_SQL)
        assert result.report.faults_injected == 1
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.installs) == (0, 0, 0)
        assert not cache.entries()


# --------------------------------------------------------- exception safety


class TestExceptionSafety:
    def test_operators_closed_on_error(self, star_db):
        """A governed, spilling join cancelled mid-drain: every operator
        span ends, and no spill file or reservation is left behind."""
        before = spill_dirs()
        governor = star_db.enable_memory_governor(
            policy=MemoryPolicy(
                budget_pages=16.0, min_reservation_pages=4.0, min_grant_pages=2.0
            )
        )
        tracer, metrics = Tracer(), MetricsRegistry()
        # Poll 20: the build side is on disk, the probe side mid-partition.
        with pytest.raises(ExecutionCancelled):
            star_db.execute(
                SPILL_JOIN_SQL, cancel=CountdownToken(20), tracer=tracer,
                metrics=metrics,
            )
        assert metrics.total("governor.spill_files") > 0
        op_spans = [
            r for r in tracer.records
            if r["type"] == "span" and r["name"].startswith("op.")
        ]
        assert op_spans
        assert all(r["t1"] is not None for r in op_spans)
        snap = governor.snapshot()
        assert snap["used_pages"] == 0 and snap["reservations"] == []
        assert spill_dirs() - before == set()

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
        star_db.enable_memory_governor(policy=ONE_PAGE_FLOORS)
        tracer = Tracer()
        metrics = MetricsRegistry()
        plan = FaultPlan(
            specs=[
                FaultSpec(MEM_SHRINK, trigger_at=4, payload=0.1),
                FaultSpec("stats", payload=50.0, target_table="orders"),
            ]
        )
        result = star_db.execute(
            SORT_SQL, faults=plan, tracer=tracer, metrics=metrics
        )
        assert canonical(result.rows) == oracle_rows(star_db, SORT_SQL)
        assert result.report.faults_injected == 2
        assert len(tracer.events("fault.injected")) == 2
        assert metrics.total("resilience.faults_injected") == 2
        assert result.report.renegotiations == 1
