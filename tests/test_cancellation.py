"""Cooperative cancellation and wall-clock deadlines.

Covers the interrupt plumbing the server runtime depends on:

* :class:`~repro.common.cancel.CancelToken` semantics;
* ``Database.execute(cancel=...)`` unwinding mid-query with
  :class:`~repro.common.errors.ExecutionCancelled` — including mid
  Grace-join spill, asserting zero leaked spill pages and a fully
  drained governor (the teardown-ordering regression);
* idempotent :meth:`~repro.storage.spill.SpillManager.close_all`;
* the statement wall-clock deadline
  (``ResiliencePolicy.deadline_seconds``): a stalled operator is aborted
  by wall time with a classified timeout;
* the governor's interruptible admission wait.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.common.cancel import CancelToken
from repro.common.chaosutil import spill_dirs
from repro.common.errors import (
    ExecutionCancelled,
    ExecutionTimeout,
    failure_class,
)
from repro.core.config import MemoryPolicy, PopConfig, ResiliencePolicy
from repro.governor import MemoryGovernor
from repro.obs import MetricsRegistry

JOIN_SQL = (
    "SELECT c.c_segment, o.o_total FROM cust c, orders o "
    "WHERE o.o_custkey = c.c_id ORDER BY o.o_total, c.c_segment"
)


class CountdownToken:
    """Duck-typed cancel token that flips after N ``cancelled`` polls.

    The executor only reads ``.cancelled`` and ``.reason``, so a property
    with a side effect gives a deterministic mid-query cancel point —
    no timing, no threads.  Polls happen once per emitted batch and per
    blocking-phase batch: at the default width ``JOIN_SQL`` makes 89 of
    them ungoverned and 102 under the spilling budget below, so the
    thresholds in this module sit inside those runs.
    """

    def __init__(self, polls: int, reason: str = "countdown elapsed"):
        self.remaining = polls
        self.reason = reason

    @property
    def cancelled(self) -> bool:
        self.remaining -= 1
        return self.remaining <= 0


class TestCancelToken:
    def test_starts_clear_and_latches(self):
        token = CancelToken()
        assert not token.cancelled
        assert token.reason is None
        token.cancel("client disconnected")
        assert token.cancelled
        assert token.reason == "client disconnected"

    def test_first_reason_wins(self):
        token = CancelToken()
        token.cancel("first")
        token.cancel("second")
        assert token.reason == "first"

    def test_classified_as_cancelled(self):
        assert failure_class(ExecutionCancelled("x")) == "cancelled"


class TestExecuteCancel:
    def test_pre_cancelled_token_rejects_statement(self, star_db):
        token = CancelToken()
        token.cancel("gone before start")
        with pytest.raises(ExecutionCancelled, match="gone before start"):
            star_db.execute("SELECT c.c_id FROM cust c", cancel=token)

    def test_mid_query_cancel_unwinds(self, star_db):
        with pytest.raises(ExecutionCancelled, match="countdown"):
            star_db.execute(JOIN_SQL, cancel=CountdownToken(40))

    def test_cancel_mid_grace_join_releases_spill(self, star_db):
        """Kill a spilling join mid-flight: no leaked pages, governor at
        zero.  (Regression: teardown once double-released or skipped the
        spill manager when cancellation interrupted a blocking phase.)"""
        before = spill_dirs()
        governor = star_db.enable_memory_governor(
            policy=MemoryPolicy(
                budget_pages=16.0,
                min_reservation_pages=4.0,
                min_grant_pages=2.0,
            )
        )
        try:
            # A clean run under this budget must spill — otherwise the
            # cancel below would not be interrupting spill-backed work.
            clean = star_db.execute(JOIN_SQL)
            assert clean.report.spilled
            # Poll 20 falls after the build side was partitioned to disk
            # (poll 5) and before the join's output reaches the sort (35):
            # the probe side is mid-partitioning, 16 spill files are open.
            metrics = MetricsRegistry()
            with pytest.raises(ExecutionCancelled):
                star_db.execute(
                    JOIN_SQL, cancel=CountdownToken(20), metrics=metrics
                )
            assert metrics.total("governor.spill_files") == 16
            snap = governor.snapshot()
            assert snap["used_pages"] == 0
            assert snap["reservations"] == []
        finally:
            star_db.disable_memory_governor()
        assert spill_dirs() - before == set()

    def test_cancel_leaves_database_usable(self, star_db):
        oracle = star_db.execute("SELECT c.c_id FROM cust c").rows
        with pytest.raises(ExecutionCancelled):
            star_db.execute(JOIN_SQL, cancel=CountdownToken(40))
        again = star_db.execute("SELECT c.c_id FROM cust c").rows
        assert sorted(again) == sorted(oracle)


class TestRejectingScanCancel:
    """A scan whose filter rejects every row never reaches ``emit_batch``;
    its chunk loop polls instead, so a cancel still unwinds within one
    batch width of scanned rows."""

    N_ROWS = 10_000
    TRIP_AT = 3_000

    @pytest.mark.parametrize("width", [64, 1024])
    def test_unwinds_within_one_batch_width(self, width):
        from repro.executor.base import ExecutionContext
        from repro.executor.runtime import run_plan
        from repro.expr.evaluate import RowLayout
        from repro.expr.expressions import ColumnRef, Literal
        from repro.expr.predicates import Comparison
        from repro.plan.physical import Return, TableScan, number_plan
        from repro.plan.properties import PlanProperties
        from repro.storage.catalog import Catalog
        from repro.storage.table import Schema

        token = CancelToken()
        scanned = []

        class Tripwire(int):
            """A cell that records that the filter read it and cancels the
            statement at row ``TRIP_AT``: the cancel lands at a known
            scanned row, with no timing."""

            def __lt__(self, other):
                scanned.append(self)
                if len(scanned) == TestRejectingScanCancel.TRIP_AT:
                    token.cancel("tripwire row scanned")
                return False

        cat = Catalog()
        table = cat.create_table("t", Schema.of(("a", "int"), ("b", "int")))
        table.load_raw([(i, Tripwire(5)) for i in range(self.N_ROWS)])
        plan = Return(
            TableScan(
                "t", "t", [Comparison(ColumnRef("t", "b"), "<", Literal(0))],
                PlanProperties(frozenset({"t"}), frozenset()),
                RowLayout(["t.a", "t.b"]), est_card=1.0, est_cost=1.0,
            )
        )
        number_plan(plan)
        ctx = ExecutionContext(cat, cancel=token, batch_size=width)
        with pytest.raises(ExecutionCancelled, match="tripwire"):
            run_plan(plan, ctx)
        assert self.TRIP_AT <= len(scanned) < self.TRIP_AT + width


class TestSpillReleaseIdempotent:
    def test_close_all_twice_releases_once(self, star_db):
        from repro.executor.meter import WorkMeter
        from repro.obs import Tracer
        from repro.storage.spill import SpillManager

        tracer = Tracer()
        manager = SpillManager(
            WorkMeter(), star_db.cost_params, tracer=tracer
        )
        spill = manager.create("test", label="t")
        spill.write_rows([(i, "row") for i in range(64)])
        manager.close_all()
        manager.close_all()  # second release must be a no-op
        assert len(tracer.events("spill.release")) == 1


class TestWallClockDeadline:
    def test_stalled_operator_aborted_by_wall_time(self, star_db, monkeypatch):
        """A stalled scan blows the statement wall deadline and is shed
        with a classified ``timeout`` (fallback disabled)."""
        from repro.executor.scans import TableScanExec

        original = TableScanExec.next_batch

        def stalled(self, max_rows):
            # One row per 20ms pull: partial batches are legal anywhere.
            time.sleep(0.02)
            return original(self, 1)

        monkeypatch.setattr(TableScanExec, "next_batch", stalled)
        pop = PopConfig(
            resilience=ResiliencePolicy(
                deadline_seconds=0.1, fallback_enabled=False
            )
        )
        started = time.monotonic()
        with pytest.raises(ExecutionTimeout) as info:
            star_db.execute("SELECT c.c_id FROM cust c", pop=pop)
        assert failure_class(info.value) == "timeout"
        # Aborted by wall time, not by finishing the (~24s) stalled scan.
        assert time.monotonic() - started < 5.0

    def test_deadline_not_hit_when_fast(self, star_db):
        pop = PopConfig(
            resilience=ResiliencePolicy(
                deadline_seconds=30.0, fallback_enabled=False
            )
        )
        result = star_db.execute("SELECT c.c_id FROM cust c", pop=pop)
        assert len(result.rows) == 1200


class TestGovernorAdmitCancel:
    def test_queued_admission_wait_is_interruptible(self):
        governor = MemoryGovernor(
            MemoryPolicy(
                budget_pages=8.0,
                min_reservation_pages=4.0,
                min_grant_pages=4.0,
                max_queue_depth=4,
                queue_timeout_seconds=60.0,
            )
        )
        hog = governor.admit(8.0, label="hog")  # exhausts the budget
        token = CancelToken()
        outcome: dict = {}

        def blocked() -> None:
            try:
                governor.admit(8.0, label="blocked", cancel=token)
            except ExecutionCancelled as exc:
                outcome["error"] = exc

        thread = threading.Thread(target=blocked)
        thread.start()
        time.sleep(0.1)  # let it enter the sliced queue wait
        token.cancel("session killed")
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert "session killed" in str(outcome["error"])
        hog.release()
        assert governor.used_pages() == 0
