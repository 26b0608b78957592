"""Tests for the memory governor: admission, reclaim, renegotiation,
shedding, end-to-end degradation, and concurrent determinism.

The concurrency suites push K threads of seeded workload queries through
one governor with an undersized budget and assert row-level equality with
single-query oracles, plus the budget invariant (the peak-reservation
gauge never exceeds ``budget_pages``).
"""

from __future__ import annotations

import threading

import pytest

from repro.common.cancel import CancelToken
from repro.common.chaosutil import spill_dirs
from repro.common.errors import (
    ADMISSION,
    CANCELLED,
    AdmissionRejected,
    ExecutionCancelled,
    failure_class,
)
from repro.core.config import MemoryPolicy, PopConfig
from repro.core.database import Database
from repro.core.flavors import LCEM
from repro.executor.base import ExecutionContext
from repro.governor import MemoryGovernor, estimate_plan_memory
from repro.obs import MetricsRegistry
from repro.optimizer.optimizer import Optimizer
from repro.plan.explain import join_order
from repro.plan.physical import Check, Temp, find_ops
from repro.sql.binder import bind_sql
from repro.sql.parameterize import parameterize_sql
from tests.conftest import build_dmv_db, canonical
from tests.test_plan_cache import MAKE_VIOLATIONS


def policy(**overrides):
    defaults = dict(
        budget_pages=100.0,
        min_reservation_pages=10.0,
        max_queue_depth=4,
        queue_timeout_seconds=5.0,
    )
    defaults.update(overrides)
    return MemoryPolicy(**defaults)


class TestMemoryPolicy:
    def test_validation_rejects_nonsense(self):
        with pytest.raises(ValueError):
            MemoryPolicy(budget_pages=0.0)
        with pytest.raises(ValueError):
            MemoryPolicy(min_reservation_pages=-1.0)
        with pytest.raises(ValueError):
            MemoryPolicy(spill_partitions=1)
        with pytest.raises(ValueError):
            MemoryPolicy(max_recursion_depth=-1)


class TestAdmission:
    def test_admit_and_release(self):
        gov = MemoryGovernor(policy())
        res = gov.admit(40.0, label="q1")
        assert res.pages == 40.0
        assert gov.used_pages() == 40.0
        res.release()
        res.release()  # idempotent
        assert gov.used_pages() == 0.0

    def test_request_clamped_to_floor_and_budget(self):
        gov = MemoryGovernor(policy())
        tiny = gov.admit(0.0)
        assert tiny.pages == 10.0  # floor
        tiny.release()
        huge = gov.admit(1e9)
        assert huge.pages == 100.0  # whole budget
        huge.release()

    def test_queue_admits_after_release(self):
        gov = MemoryGovernor(policy(min_reservation_pages=60.0))
        first = gov.admit(100.0)
        admitted = []

        def waiter():
            res = gov.admit(80.0)
            admitted.append(res)
            res.release()

        t = threading.Thread(target=waiter)
        t.start()
        # The waiter cannot fit even after reclaim (floor 60 < ask 80
        # against a 100-page budget with 100 reserved -> reclaim frees 40).
        first.release()
        t.join(timeout=5.0)
        assert not t.is_alive()
        assert len(admitted) == 1
        assert gov.queued_total == 1

    def test_full_queue_sheds_with_classified_error(self):
        gov = MemoryGovernor(policy(max_queue_depth=0, min_reservation_pages=100.0))
        gov.admit(100.0)
        with pytest.raises(AdmissionRejected) as err:
            gov.admit(50.0, label="victim")
        exc = err.value
        assert exc.requested_pages == 100.0  # clamped ask
        assert exc.budget_pages == 100.0
        assert exc.queue_depth == 0
        assert failure_class(exc) == ADMISSION

    def test_wait_timeout_sheds(self):
        gov = MemoryGovernor(
            policy(queue_timeout_seconds=0.05, min_reservation_pages=100.0)
        )
        gov.admit(100.0)
        with pytest.raises(AdmissionRejected, match="timed out"):
            gov.admit(100.0)


class TestRenegotiation:
    def test_reclaim_shrinks_largest_first_to_floor(self):
        gov = MemoryGovernor(policy())
        big = gov.admit(70.0)
        small = gov.admit(30.0)
        third = gov.admit(30.0)  # forces a 30-page reclaim
        assert third.pages == 30.0
        assert big.pages == 40.0  # shrunk; small untouched
        assert small.pages == 30.0
        assert big.renegotiations == 1
        assert gov.renegotiation_total == 1

    def test_voluntary_shrink_floors_at_policy_minimum(self):
        gov = MemoryGovernor(policy())
        res = gov.admit(50.0)
        freed = res.shrink_to(1.0)
        assert res.pages == 10.0
        assert freed == 40.0
        assert res.shrink_to(50.0) == 0.0  # growing is not renegotiation

    def test_peak_gauge_tracks_high_water_mark(self):
        metrics = MetricsRegistry()
        gov = MemoryGovernor(policy(), metrics=metrics)
        a = gov.admit(60.0)
        b = gov.admit(40.0)
        a.release()
        b.release()
        snap = gov.snapshot()
        assert snap["peak_pages"] == 100.0
        assert snap["used_pages"] == 0.0
        assert metrics.get("governor.peak_pages") == 100.0
        assert metrics.total("governor.admitted") == 2


class TestGrantPlumbing:
    def test_reservation_caps_grants_and_pressure_renegotiates(self):
        gov = MemoryGovernor(policy())
        res = gov.admit(50.0)
        metrics = MetricsRegistry()
        ctx = ExecutionContext(
            Database().catalog, memory=gov.policy, reservation=res,
            metrics=metrics,
        )
        assert ctx.grant_pages(40.0, "sort") == 40.0  # fits: exact
        granted = ctx.grant_pages(128.0, "hash")
        assert granted == 50.0  # capped at the reservation
        assert metrics.snapshot()["counters"] == {
            "governor.grants_squeezed{category=hash}": 1.0
        }
        ctx.apply_memory_pressure(0.5)
        assert res.pages == 25.0
        assert ctx.grant_pages(128.0, "hash") == 25.0

    @pytest.mark.parametrize(
        "reserved, asked, floor, granted",
        [
            (None, 128.0, 8.0, 128.0),  # ungoverned: the full grant
            (200.0, 128.0, 8.0, 128.0),  # fits the reservation
            (50.0, 128.0, 8.0, 50.0),  # capped at the reservation
            (4.0, 128.0, 8.0, 8.0),  # floored at min_grant_pages
            (4.0, 6.0, 8.0, 6.0),  # never more than asked
        ],
    )
    def test_grant_rule(self, reserved, asked, floor, granted):
        memory = policy(
            budget_pages=512.0, min_reservation_pages=1.0, min_grant_pages=floor
        )
        ctx = ExecutionContext(
            Database().catalog,
            memory=memory if reserved is not None else None,
            reservation=(
                MemoryGovernor(memory).admit(reserved) if reserved is not None else None
            ),
        )
        assert ctx.grant_pages(asked, "sort") == granted

    def test_pressure_without_a_reservation_changes_nothing(self):
        ctx = ExecutionContext(Database().catalog)
        ctx.apply_memory_pressure(0.001)
        assert ctx.grant_pages(128.0, "sort") == 128.0


def _estimate(db, sql):
    plan = db.optimizer.optimize(bind_sql(sql, db.catalog)).plan
    return estimate_plan_memory(plan, db.cost_params)


class TestEstimate:
    def test_streaming_plan_needs_nothing(self, tpch_db):
        sql = "SELECT r.r_name FROM region r WHERE r.r_regionkey = 1"
        assert _estimate(tpch_db, sql) == 0.0

    def test_sort_plan_needs_pages(self, tpch_db):
        sql = (
            "SELECT l.l_orderkey, l.l_quantity FROM lineitem l "
            "ORDER BY l.l_quantity, l.l_orderkey"
        )
        est = _estimate(tpch_db, sql)
        assert 0.0 < est <= float(tpch_db.cost_params.sort_mem_pages)


@pytest.fixture
def governed(request):
    """Attach a governor to a session workload db; always detach after."""

    def attach(db, **kwargs):
        governor = db.enable_memory_governor(**kwargs)
        request.addfinalizer(db.disable_memory_governor)
        return governor

    return attach


class TestEndToEnd:
    def test_report_carries_spill_and_reservation_facts(self, dmv_db, governed):
        governed(
            dmv_db,
            policy=MemoryPolicy(
                budget_pages=4.0, min_reservation_pages=1.0, min_grant_pages=1.0
            ),
        )
        sql = (
            "SELECT c.c_id, c.c_make, c.c_weight FROM car c "
            "ORDER BY c.c_weight, c.c_id"
        )
        result = dmv_db.execute(sql, pop=PopConfig(reuse_policy="never"))
        report = result.report
        assert report.spilled
        assert report.spill_pages > 0.0
        assert report.spill_files > 0
        assert report.spill_bytes > 0
        assert any(
            r.kind == "SORT" and r.spill_pages > 0
            for r in report.attempts[-1].record.walk()
        )
        assert report.attempts[-1].reservation_pages == 4.0
        assert report.attempts[-1].spill_categories.get("sort", 0.0) > 0.0
        assert "spilled" in report.summary()
        snap = dmv_db.memory_governor.snapshot()
        assert snap["spill_files_total"] == report.spill_files

    def test_mem_shrink_fault_renegotiates_reservation(self, dmv_db, governed):
        # A mid-build shrink is seen by the hash join's post-build
        # overcommit re-check: the build fit its original grant, no
        # longer fits the renegotiated one, and spills instead of
        # passing silently.
        from repro.resilience import MEM_SHRINK, FaultPlan, FaultSpec

        governed(dmv_db, budget_pages=512.0)
        sql = (
            "SELECT o.o_name, c.c_model FROM car c, owner o "
            "WHERE c.c_owner_id = o.o_id ORDER BY o.o_name, c.c_model"
        )
        config = PopConfig(reuse_policy="never")
        oracle = canonical(dmv_db.execute(sql, pop=config).rows)
        # Pull 2 is the build-side scan's second batch (1500 owners at the
        # default width): the build is under way, its grant already taken.
        faults = FaultPlan(
            [FaultSpec(MEM_SHRINK, trigger_at=2, payload=0.001)]
        )
        result = dmv_db.execute(sql, pop=config, faults=faults)
        assert canonical(result.rows) == oracle
        report = result.report
        assert report.renegotiations >= 1
        assert report.spilled  # pressure forced the build to disk
        assert any(
            r.kind == "HSJOIN" and r.spill_pages > 0
            for r in report.attempts[-1].record.walk()
        )
        assert report.attempts[-1].reservation_pages < 512.0

    def test_ungoverned_mem_shrink_fault_fires_and_changes_nothing(self, dmv_db):
        from repro.resilience import MEM_SHRINK, FaultPlan, FaultSpec

        sql = (
            "SELECT o.o_name, c.c_model FROM car c, owner o "
            "WHERE c.c_owner_id = o.o_id ORDER BY o.o_name, c.c_model"
        )
        config = PopConfig(reuse_policy="never")
        clean = dmv_db.execute(sql, pop=config)
        faults = FaultPlan(
            [FaultSpec(MEM_SHRINK, trigger_at=2, payload=0.001)]
        )
        shrunk = dmv_db.execute(sql, pop=config, faults=faults)
        assert shrunk.report.faults_injected == 1
        assert shrunk.rows == clean.rows
        assert shrunk.report.total_units == clean.report.total_units
        assert not shrunk.report.spilled


def roomy_policy():
    """A budget that never squeezes, with a floor low enough that every
    reservation is the plan's own estimate."""
    return MemoryPolicy(budget_pages=1e6, min_reservation_pages=1.0)


class TestPlanThenAdmit:
    """The driver admits a statement once attempt 0 has its plan, and
    sizes the reservation from that plan, as it runs."""

    def test_reservation_sized_from_the_peeked_plan(self):
        db = build_dmv_db()
        db.enable_plan_cache()
        db.enable_memory_governor(policy=roomy_policy())
        sql = MAKE_VIOLATIONS.format(make="MAKE00")
        # The cache lifts the literal to a marker and plans at its peeked
        # value; planned at the marker's default selectivity instead, the
        # statement gets another join order and a far smaller estimate.
        unpeeked = db.optimizer.optimize(
            parameterize_sql(sql, db.catalog).query
        ).plan
        first = db.execute(sql).report.attempts[0]
        assert first.join_order != join_order(unpeeked)
        estimate = estimate_plan_memory(first.plan, db.cost_params)
        assert estimate > estimate_plan_memory(unpeeked, db.cost_params)
        assert first.reservation_pages == estimate

    def test_reservation_counts_the_lcem_temp(self):
        db = build_dmv_db()
        db.enable_memory_governor(policy=roomy_policy())
        sql = MAKE_VIOLATIONS.format(make="MAKE02")
        first = db.execute(sql).report.attempts[0]
        lcem = [
            op for op in find_ops(first.plan, Check) if op.flavor == LCEM
        ]
        assert lcem and isinstance(lcem[0].children[0], Temp)
        unplaced = db.optimizer.optimize(bind_sql(sql, db.catalog)).plan
        estimate = estimate_plan_memory(first.plan, db.cost_params)
        assert estimate > estimate_plan_memory(unplaced, db.cost_params)
        assert first.reservation_pages == estimate

    def test_one_optimize_per_governed_attempt(self, monkeypatch):
        calls = []
        real = Optimizer.optimize

        def spy(self, *args, **kwargs):
            calls.append(1)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(Optimizer, "optimize", spy)

        def optimizes(sql):
            calls.clear()
            report = db.execute(sql).report
            return len(calls), report

        db = build_dmv_db()
        db.enable_plan_cache()
        db.enable_memory_governor(policy=roomy_policy())
        miss_sql = MAKE_VIOLATIONS.format(make="MAKE02")
        governed_miss, report = optimizes(miss_sql)
        assert not report.cache_hit and governed_miss >= 1
        hit, report = optimizes(MAKE_VIOLATIONS.format(make="MAKE03"))
        assert report.cache_hit and report.attempts[0].reservation_pages
        assert hit == 0
        db.disable_memory_governor()
        db.plan_cache.clear()
        ungoverned_miss, report = optimizes(miss_sql)
        assert not report.cache_hit
        assert governed_miss == ungoverned_miss


class TestAdmissionFailures:
    """A statement the governor cannot admit fails with the classified
    error, holds no pages and leaves no spill directory."""

    SQL = "SELECT c.c_id, c.c_weight FROM car c ORDER BY c.c_weight, c.c_id"

    def saturated(self, dmv_db, governed, **overrides):
        governor = governed(
            dmv_db,
            policy=policy(min_reservation_pages=100.0, **overrides),
        )
        return governor, governor.admit(100.0, label="hog"), spill_dirs()

    def test_shed_statement(self, dmv_db, governed):
        governor, hog, before = self.saturated(
            dmv_db, governed, max_queue_depth=0
        )
        rejected = governor.rejected_total
        with pytest.raises(AdmissionRejected) as err:
            dmv_db.execute(self.SQL)
        assert failure_class(err.value) == ADMISSION
        assert governor.rejected_total == rejected + 1
        assert governor.used_pages() == hog.pages
        hog.release()
        assert governor.used_pages() == 0
        assert spill_dirs() == before

    def test_statement_cancelled_while_queued(self, dmv_db, governed):
        governor, hog, before = self.saturated(
            dmv_db, governed, queue_timeout_seconds=60.0
        )
        token = CancelToken()
        outcome: dict = {}

        def queued() -> None:
            try:
                dmv_db.execute(self.SQL, cancel=token)
            except ExecutionCancelled as exc:
                outcome["error"] = exc

        thread = threading.Thread(target=queued)
        thread.start()
        for _ in range(500):
            if governor.snapshot()["queue_depth"]:
                break
            thread.join(timeout=0.01)
        assert governor.snapshot()["queue_depth"] == 1
        token.cancel("client went away")
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert failure_class(outcome["error"]) == CANCELLED
        assert governor.used_pages() == hog.pages
        hog.release()
        assert governor.used_pages() == 0
        assert governor.rejected_total == 0
        assert spill_dirs() == before


QUERY_POOL = [
    ("sort_cars",
     "SELECT c.c_id, c.c_make, c.c_weight FROM car c "
     "ORDER BY c.c_weight, c.c_id"),
    ("join_car_owner",
     "SELECT o.o_name, c.c_model FROM car c, owner o "
     "WHERE c.c_owner_id = o.o_id ORDER BY o.o_name, c.c_model"),
    ("sort_insurance",
     "SELECT i.i_id, i.i_premium FROM insurance i "
     "ORDER BY i.i_premium, i.i_id"),
    ("filter_only",
     "SELECT c.c_id FROM car c WHERE c.c_make = 'MAKE0'"),
]


class TestConcurrentDeterminism:
    THREADS = 4
    PER_THREAD = 2

    def test_threads_match_oracle_and_respect_budget(self, dmv_db, governed):
        import random

        config = PopConfig(reuse_policy="never")
        oracle = {
            sql: canonical(dmv_db.execute(sql, pop=config).rows)
            for _, sql in QUERY_POOL
        }
        rng = random.Random(20260806)
        picks = [
            QUERY_POOL[rng.randrange(len(QUERY_POOL))]
            for _ in range(self.THREADS * self.PER_THREAD)
        ]
        metrics = MetricsRegistry()
        budget = 8.0
        governed(
            dmv_db,
            policy=MemoryPolicy(
                budget_pages=budget,
                min_reservation_pages=2.0,
                min_grant_pages=1.0,
                max_queue_depth=self.THREADS * self.PER_THREAD,
                queue_timeout_seconds=60.0,
            ),
            metrics=metrics,
        )
        governor = dmv_db.memory_governor
        barrier = threading.Barrier(self.THREADS)
        problems: list[str] = []
        lock = threading.Lock()

        def worker(tid):
            mine = picks[tid * self.PER_THREAD:(tid + 1) * self.PER_THREAD]
            barrier.wait()
            for name, sql in mine:
                try:
                    rows = canonical(dmv_db.execute(sql, pop=config).rows)
                except Exception as exc:  # noqa: BLE001 - the assertion
                    with lock:
                        problems.append(f"{tid}/{name}: {exc!r}")
                    return
                if rows != oracle[sql]:
                    with lock:
                        problems.append(f"{tid}/{name}: diverged")

        pool = [
            threading.Thread(target=worker, args=(tid,))
            for tid in range(self.THREADS)
        ]
        for t in pool:
            t.start()
        for t in pool:
            t.join(timeout=120.0)
        assert problems == []
        snap = governor.snapshot()
        assert snap["peak_pages"] <= budget + 1e-9
        assert snap["admitted_total"] == self.THREADS * self.PER_THREAD
        assert snap["rejected_total"] == 0
        assert metrics.get("governor.peak_pages") <= budget + 1e-9

    def test_chaos_memory_scenario_passes(self):
        from repro.resilience import run_memory

        outcome = run_memory(1, threads=4)
        assert outcome.ok, outcome.problems


class TestCli:
    def _shell(self, db):
        import io

        from repro.cli import Shell

        out = io.StringIO()
        return Shell(db=db, out=out), out

    def _db(self):
        db = Database()
        db.create_table("t", [("a", "int"), ("s", "str")])
        db.insert("t", [(i, f"s{i % 7}") for i in range(300)])
        db.runstats()
        return db

    def test_memory_meta_command_snapshot(self):
        shell, out = self._shell(self._db())
        shell.run(
            [
                "\\memory",
                "\\memory on 2",
                "SELECT t.a, t.s FROM t ORDER BY t.s, t.a;",
                "\\memory",
                "\\memory off",
            ]
        )
        text = out.getvalue()
        assert "memory governor is off" in text
        assert "memory governor on (budget 2 pages)" in text
        assert "budget 2 pages" in text
        assert "admitted=1" in text
        assert "spilled:" in text
        assert "memory governor off" in text

    def test_memory_meta_usage(self):
        shell, out = self._shell(self._db())
        shell.run(["\\memory on nope", "\\memory nonsense"])
        text = out.getvalue()
        assert "usage: \\memory on [BUDGET_PAGES]" in text
        assert "usage: \\memory [on [BUDGET_PAGES]|off]" in text

    def test_chaos_mem_mode(self):
        shell, out = self._shell(self._db())
        shell.run(["\\chaos mem 9", "\\chaos"])
        assert "chaos mem needs the memory governor" in out.getvalue()
        assert "chaos is off" in out.getvalue()
        shell.run(
            [
                "\\memory on",
                "\\chaos mem 9",
                "\\chaos",
                "SELECT t.a FROM t WHERE t.a < 50;",
                "\\chaos off",
            ]
        )
        text = out.getvalue()
        assert "chaos on (memory pressure, seed 9)" in text
        assert "(memory pressure)" in text
        assert "chaos off" in text
        assert "error" not in text
