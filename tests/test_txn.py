"""Snapshot transactions end to end: manager, engine, server, shell.

Covers the MVCC-lite contract (pinned snapshots, private write-sets,
first-committer-wins conflicts), durable recovery through the Database
API, commit-coalesced plan-cache invalidation (with a hit-rate
regression against the legacy per-insert path), the server's session
transaction lifecycle including abort-on-disconnect, and the ``\\txn``
meta-command.
"""

from __future__ import annotations

import io
import threading
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database
from repro.common.errors import (
    TransactionConflict,
    TransactionError,
    failure_class,
)
from repro.core.config import PopConfig
from repro.txn import Snapshot, TransactionManager


def fresh_db(rows=3) -> Database:
    db = Database()
    db.create_table("t", [("a", "int"), ("s", "str")])
    db.insert("t", [(i, f"r{i}") for i in range(rows)])
    db.runstats()
    return db


SCAN = "SELECT t.a, t.s FROM t"


# ----------------------------------------------------------------- manager


class TestManager:
    def test_commit_installs_and_bumps_epoch(self):
        db = fresh_db()
        manager = db.enable_transactions()
        assert manager.epoch == 0
        txn = manager.begin()
        manager.stage(txn, "t", [(10, "new")])
        assert manager.commit(txn) == 1
        assert manager.epoch == 1
        assert db.catalog.table("t").rows[-1] == (10, "new")

    def test_staged_rows_invisible_until_commit(self):
        db = fresh_db()
        manager = db.enable_transactions()
        txn = manager.begin()
        manager.stage(txn, "t", [(10, "new")])
        assert len(db.execute(SCAN).rows) == 3
        manager.commit(txn)
        assert len(db.execute(SCAN).rows) == 4

    def test_first_committer_wins(self):
        db = fresh_db()
        manager = db.enable_transactions()
        first, second = manager.begin(), manager.begin()
        manager.stage(first, "t", [(10, "a")])
        manager.stage(second, "t", [(11, "b")])
        manager.commit(first)
        with pytest.raises(TransactionConflict) as excinfo:
            manager.commit(second)
        assert excinfo.value.tables == ("t",)
        assert excinfo.value.begin_epoch == 0
        assert excinfo.value.committed_epoch == 1
        assert second.state == "aborted"
        assert manager.conflicts == 1
        # Conflicts are classified retryable, rendered as "conflict".
        assert failure_class(excinfo.value) == "conflict"

    def test_disjoint_tables_do_not_conflict(self):
        db = fresh_db()
        db.create_table("u", [("b", "int")])
        manager = db.enable_transactions()
        first, second = manager.begin(), manager.begin()
        manager.stage(first, "t", [(10, "a")])
        manager.stage(second, "u", [(1,)])
        manager.commit(first)
        manager.commit(second)  # no conflict: different table
        assert manager.epoch == 2

    def test_rollback_discards_write_set(self):
        db = fresh_db()
        manager = db.enable_transactions()
        txn = manager.begin()
        manager.stage(txn, "t", [(10, "gone")])
        manager.rollback(txn)
        assert len(db.catalog.table("t").rows) == 3
        with pytest.raises(TransactionError, match="aborted"):
            manager.commit(txn)

    def test_read_only_commit_is_free(self):
        db = fresh_db()
        manager = db.enable_transactions()
        txn = manager.begin()
        assert manager.commit(txn) == 0  # epoch unchanged
        assert manager.epoch == 0

    def test_stage_checks_arity_and_state(self):
        from repro.common.errors import SchemaError

        db = fresh_db()
        manager = db.enable_transactions()
        txn = manager.begin()
        with pytest.raises(SchemaError, match="expected 2 values"):
            manager.stage(txn, "t", [(1, "x", "extra")])
        manager.rollback(txn)
        with pytest.raises(TransactionError, match="cannot stage"):
            manager.stage(txn, "t", [(1, "x")])

    def test_autocommit_retries_conflicts(self, monkeypatch):
        db = fresh_db()
        manager = db.enable_transactions()
        original = manager.commit
        calls = {"n": 0}

        def flaky(txn):
            if calls["n"] == 0:
                calls["n"] += 1
                manager.rollback(txn)
                raise TransactionConflict(
                    "synthetic race", tables=("t",),
                    begin_epoch=0, committed_epoch=1,
                )
            return original(txn)

        monkeypatch.setattr(manager, "commit", flaky)
        manager.autocommit("t", [(10, "retried")])
        assert calls["n"] == 1
        assert db.catalog.table("t").rows[-1] == (10, "retried")
        assert manager.autocommits == 1

    def test_snapshot_pins_visibility(self):
        db = fresh_db()
        manager = db.enable_transactions()
        snap = manager.pin_snapshot()
        manager.autocommit("t", [(10, "later")])
        assert snap.visible_rows("t") == 3
        assert manager.pin_snapshot().visible_rows("t") == 4

    def test_snapshot_unknown_table_uncapped(self):
        snap = Snapshot(epoch=0, visible={"t": 3})
        assert snap.visible_rows("other") is None


# -------------------------------------------------------- snapshot scans


class TestSnapshotScans:
    def test_table_scan_capped_at_watermark(self):
        db = fresh_db()
        manager = db.enable_transactions()
        snap = manager.pin_snapshot()
        db.insert("t", [(10, "late"), (11, "late")])
        assert len(db.execute(SCAN, snapshot=snap).rows) == 3
        assert len(db.execute(SCAN).rows) == 5

    def test_index_scan_filters_rids_above_watermark(self):
        db = fresh_db(rows=50)
        db.create_index("ix_t_a", "t", "a", kind="sorted")
        db.runstats()
        manager = db.enable_transactions()
        snap = manager.pin_snapshot()
        # New rows duplicate key 7: a stale-free index probe would now
        # return extra rids; the snapshot filter must drop them.
        db.insert("t", [(7, "dup1"), (7, "dup2")])
        sql = "SELECT t.s FROM t WHERE t.a = 7"
        assert sorted(db.execute(sql, snapshot=snap).rows) == [("r7",)]
        assert len(db.execute(sql).rows) == 3

    @settings(max_examples=25, deadline=None)
    @given(extra=st.integers(0, 30), width=st.sampled_from([7, 64, 1024]))
    def test_pinned_reads_are_width_and_growth_invariant(self, extra, width):
        """Property: a pinned snapshot's rows never change, regardless of
        how many rows commit afterwards or the execution batch width."""
        db = fresh_db(rows=10)
        manager = db.enable_transactions()
        snap = manager.pin_snapshot()
        # Width 1 pulls exactly what is demanded: the baseline.
        narrow = PopConfig(reuse_policy="never", batch_size=1)
        oracle = sorted(db.execute(SCAN, pop=narrow, snapshot=snap).rows)
        if extra:
            db.insert("t", [(100 + i, "x") for i in range(extra)])
        config = PopConfig(reuse_policy="never", batch_size=width)
        assert sorted(db.execute(SCAN, pop=config, snapshot=snap).rows) == oracle


# --------------------------------------------------------------- database


class TestDatabaseTransactions:
    def test_requires_enable(self):
        db = fresh_db()
        with pytest.raises(TransactionError, match="not enabled"):
            db.begin()

    def test_begin_insert_commit_lifecycle(self):
        db = fresh_db()
        db.enable_transactions()
        db.begin()
        db.insert("t", [(10, "staged")])
        # This thread's statements also read the pinned snapshot: the
        # staged row is not visible even to us until commit (snapshot
        # isolation, no read-your-own-writes in this engine).
        assert len(db.execute(SCAN).rows) == 3
        epoch = db.commit()
        assert epoch == 1
        assert len(db.execute(SCAN).rows) == 4

    def test_rollback_and_state_errors(self):
        db = fresh_db()
        db.enable_transactions()
        db.begin()
        db.insert("t", [(10, "gone")])
        db.rollback()
        assert len(db.execute(SCAN).rows) == 3
        with pytest.raises(TransactionError, match="no open transaction"):
            db.commit()
        db.begin()
        with pytest.raises(TransactionError, match="already open"):
            db.begin()
        db.rollback()

    def test_insert_without_txn_autocommits(self):
        db = fresh_db()
        manager = db.enable_transactions()
        db.insert("t", [(10, "auto")])
        assert manager.autocommits == 1
        assert manager.epoch == 1

    def test_threads_have_independent_transactions(self):
        db = fresh_db()
        db.enable_transactions()
        db.begin()
        db.insert("t", [(10, "mine")])
        seen = {}

        def other():
            # A different thread has no open transaction: autocommit.
            db.insert("t", [(11, "theirs")])
            seen["rows"] = len(db.execute(SCAN).rows)

        worker = threading.Thread(target=other)
        worker.start()
        worker.join()
        assert seen["rows"] == 4  # the other thread saw its own commit
        # The other thread committed to the same table first, so this
        # thread's commit loses first-committer-wins — and the retry on
        # a fresh snapshot succeeds.
        with pytest.raises(TransactionConflict):
            db.commit()
        db.begin()
        db.insert("t", [(10, "mine")])
        db.commit()
        assert len(db.execute(SCAN).rows) == 5

    def test_durable_roundtrip_via_database(self, tmp_path):
        path = str(tmp_path / "txdb")
        db = Database()
        db.create_table("t", [("a", "int"), ("s", "str")])
        db.enable_transactions(path=path)
        db.begin()
        db.insert("t", [(1, "one"), (2, "two")])
        db.commit()
        db.insert("t", [(3, "three")])
        db.close()
        db2 = Database()
        db2.enable_transactions(path=path)
        assert db2.catalog.table("t").rows == [
            (1, "one"), (2, "two"), (3, "three"),
        ]
        assert db2.txn_manager.epoch == 2
        db2.close()


class TestCommitEncoding:
    """The write-set is JSON-encoded for the WAL append, and a second time
    only to size a governor reservation somebody will actually take."""

    ROWS = [(i, "x" * 40) for i in range(400)]  # ~20 KB encoded: > 1 page

    @pytest.fixture
    def durable_db(self, tmp_path):
        db = Database()
        db.create_table("t", [("a", "int"), ("s", "str")])
        db.enable_transactions(path=str(tmp_path / "txdb"))
        yield db
        db.close()

    @pytest.fixture
    def encodes(self, monkeypatch):
        from repro.storage.wal import WalRecord

        calls = []
        real = WalRecord.encode

        def counting(record):
            encoded = real(record)
            calls.append((record.epoch, len(encoded)))
            return encoded

        monkeypatch.setattr(WalRecord, "encode", counting)
        return calls

    def test_without_governor_the_record_is_encoded_once(
        self, durable_db, encodes
    ):
        durable_db.insert("t", self.ROWS)
        assert [epoch for epoch, _ in encodes] == [1]

    def test_with_governor_the_reservation_size_is_unchanged(
        self, durable_db, encodes, monkeypatch
    ):
        from repro.storage.table import PAGE_SIZE

        governor = durable_db.enable_memory_governor()
        asked = []
        real_admit = governor.admit

        def admit(pages, **kwargs):
            asked.append(pages)
            return real_admit(pages, **kwargs)

        monkeypatch.setattr(governor, "admit", admit)
        durable_db.insert("t", self.ROWS)
        # Off-epoch sizing record, then the real one inside the lock.
        assert [epoch for epoch, _ in encodes] == [0, 1]
        assert asked == [encodes[0][1] / PAGE_SIZE]
        assert asked[0] > 1.0
        assert governor.snapshot()["used_pages"] == 0


# ------------------------------------------------- invalidation coalescing


class TestInvalidationCoalescing:
    def test_one_invalidation_per_commit(self):
        db = fresh_db()
        manager = db.enable_transactions()
        calls = []
        manager.add_invalidation_callback(lambda tables: calls.append(tables))
        db.begin()
        for i in range(10):
            db.insert("t", [(100 + i, "bulk")])
        assert calls == []  # nothing fires while staging
        db.commit()
        assert calls == [["t"]]  # exactly once, at the commit boundary

    def test_invalidation_callbacks_run_outside_the_epoch_lock(self):
        """A callback may take locks ranked after txn.epoch (the plan
        cache's does), so commit dispatches it only after releasing the
        epoch lock (catch-table row 28 of docs/static_analysis.md)."""
        db = fresh_db()
        manager = db.enable_transactions()
        held = []

        def callback(tables):
            free = manager._epoch_lock.acquire(blocking=False)
            if free:
                manager._epoch_lock.release()
            held.append(not free)

        manager.add_invalidation_callback(callback)
        txn = manager.begin()
        manager.stage(txn, "t", [(10, "new")])
        manager.commit(txn)
        assert held == [False]

    def test_legacy_path_invalidates_per_insert(self):
        db = fresh_db()
        cache = db.enable_plan_cache()
        db.execute(SCAN)
        db.execute(SCAN)  # install, then hit
        assert cache.stats.hits >= 1
        db.insert("t", [(200, "x")])  # per-insert invalidation, immediately
        assert cache.stats.invalidations >= 1
        before_misses = cache.stats.misses
        db.execute(SCAN)  # the cached plan is gone: a fresh miss
        assert cache.stats.misses > before_misses

    def test_cache_hit_rate_regression_under_load_query_mix(self):
        """Commit-coalesced invalidation must beat per-insert: the same
        seeded load+query mix yields strictly more cache hits (and >=50%
        hit rate) with transactions on."""

        def run_mix(db) -> tuple[int, int]:
            cache = db.enable_plan_cache()
            sql = "SELECT t.s FROM t WHERE t.a < 100"
            for round_no in range(6):
                if db.txn_manager is not None:
                    db.begin()
                for i in range(4):
                    db.insert("t", [(1000 + round_no * 4 + i, "load")])
                    db.execute(sql)
                if db.txn_manager is not None:
                    db.commit()
            return cache.stats.hits, cache.stats.misses

        legacy_db = fresh_db()
        legacy_hits, _legacy_misses = run_mix(legacy_db)
        txn_db = fresh_db()
        txn_db.enable_transactions()
        txn_hits, txn_misses = run_mix(txn_db)
        assert txn_hits > legacy_hits
        assert txn_hits / (txn_hits + txn_misses) >= 0.5
        # Same final data either way — coalescing changes when caches
        # invalidate, never what committed.
        assert sorted(legacy_db.catalog.table("t").rows) == sorted(
            txn_db.catalog.table("t").rows
        )

    def test_commit_invalidation_reaches_db_plan_cache(self):
        db = fresh_db()
        cache = db.enable_plan_cache()
        db.enable_transactions()
        db.execute(SCAN)
        db.execute(SCAN)
        assert cache.stats.hits >= 1
        db.begin()
        db.insert("t", [(500, "inval")])
        before = cache.stats.invalidations
        db.commit()
        assert cache.stats.invalidations > before


# ------------------------------------------------------------------ server


@contextmanager
def serve_txn_db(**overrides):
    from repro.server import ReproServer, ServerConfig

    db = fresh_db(rows=5)
    db.enable_transactions()
    server = ReproServer(db, ServerConfig(**overrides))
    host, port = server.start()
    try:
        yield db, server, host, port
    finally:
        server.shutdown(drain=False)
        db.close()


class TestServerTransactions:
    def test_begin_execute_commit_over_the_wire(self):
        from repro.server.client import ReproClient

        with serve_txn_db() as (db, _server, host, port):
            cli = ReproClient(host, port)
            resp = cli.begin()
            assert resp["ok"] and resp["epoch"] == 0
            pinned = cli.execute(SCAN)["rows"]
            db.insert("t", [(50, "after-pin")])  # autocommit from outside
            assert cli.execute(SCAN)["rows"] == pinned  # snapshot holds
            resp = cli.commit()
            assert resp["ok"] and resp["committed"]
            assert len(cli.execute(SCAN)["rows"]) == len(pinned) + 1
            cli.close()

    def test_txn_state_visible_in_sessions_op(self):
        from repro.server.client import ReproClient

        with serve_txn_db() as (_db, _server, host, port):
            cli = ReproClient(host, port)
            cli.begin()
            entry = cli.sessions()["sessions"][0]
            assert entry["txn_open"] is True
            cli.rollback()
            entry = cli.sessions()["sessions"][0]
            assert entry["txn_open"] is False
            cli.close()

    def test_commit_without_begin_is_classified_user_error(self):
        from repro.server.client import ReproClient

        with serve_txn_db() as (_db, _server, host, port):
            cli = ReproClient(host, port)
            resp = cli.commit()
            assert not resp["ok"] and resp["error_class"] == "user"
            resp = cli.begin()
            assert resp["ok"]
            resp = cli.begin()  # nested begin is a protocol error
            assert not resp["ok"] and resp["error_class"] == "user"
            # The session survives classified errors; the txn is intact.
            assert cli.sessions()["sessions"][0]["txn_open"] is True
            cli.close()

    def test_abort_on_disconnect_mid_transaction(self):
        from repro.server.client import ReproClient

        with serve_txn_db() as (db, server, host, port):
            manager = db.txn_manager
            cli = ReproClient(host, port)
            assert cli.begin()["ok"]
            assert manager.active_count() == 1
            cli.drop()  # vanish mid-transaction
            deadline = threading.Event()
            for _ in range(200):
                if manager.active_count() == 0:
                    break
                deadline.wait(0.01)
            assert manager.active_count() == 0
            assert server.metrics.total("server.txn_aborted") >= 1
            assert manager.rollbacks >= 1

    def test_stats_op_reports_txn_counters(self):
        from repro.server.client import ReproClient

        with serve_txn_db() as (_db, _server, host, port):
            cli = ReproClient(host, port)
            cli.begin()
            cli.commit()
            resp = cli.stats()
            assert resp["ok"]
            txn_stats = resp["stats"]["txn"]
            assert txn_stats["commits"] >= 1
            assert txn_stats["durable"] is False
            cli.close()

    def test_txn_ops_rejected_when_transactions_off(self):
        from repro.server import ReproServer, ServerConfig
        from repro.server.client import ReproClient

        db = fresh_db()
        server = ReproServer(db, ServerConfig())
        host, port = server.start()
        try:
            cli = ReproClient(host, port)
            resp = cli.begin()
            assert not resp["ok"] and resp["error_class"] == "user"
            cli.close()
        finally:
            server.shutdown(drain=False)


# --------------------------------------------------------------------- CLI


class TestCliTxn:
    def make_shell(self):
        from repro.cli import Shell

        out = io.StringIO()
        return Shell(db=fresh_db(), out=out), out

    def test_txn_off_by_default(self):
        shell, out = self.make_shell()
        shell.run(["\\txn status"])
        assert "transactions are off" in out.getvalue()

    def test_txn_lifecycle(self):
        shell, out = self.make_shell()
        shell.run([
            "\\txn on",
            "\\txn begin",
            "\\txn status",
            "\\txn commit",
            "\\txn rollback",
            "\\txn status",
        ])
        text = out.getvalue()
        assert "transactions on (in-memory)" in text
        assert "begin: txn 1 at epoch 0" in text
        assert "open transaction: txn 1" in text
        assert "commit: epoch" in text
        # rollback with no open txn renders a classified fatal error.
        assert "error[fatal]: no open transaction" in text
        assert "commits=1" in text

    def test_txn_on_durable(self, tmp_path):
        shell, out = self.make_shell()
        shell.run([f"\\txn on {tmp_path / 'wal'}", "\\txn status"])
        text = out.getvalue()
        assert "durable in" in text
        assert "(durable)" in text

    def test_conflict_renders_classified(self):
        shell, _out = self.make_shell()
        exc = TransactionConflict(
            "lost the race", tables=("t",), begin_epoch=1, committed_epoch=2
        )
        assert shell._format_error(exc) == "error[conflict]: lost the race"


# ------------------------------------------------------------ chaos harness


class TestChaosHarness:
    SCENARIOS = ["crash", "snapshot"]

    def test_full_scenario_sweep_single_seed(self):
        from repro.chaos import scenarios
        from repro.common.chaosutil import run_scenarios

        outcomes = run_scenarios(scenarios(), [11], self.SCENARIOS, verbose=False)
        assert [o.scenario for o in outcomes] == self.SCENARIOS
        failed = [o for o in outcomes if not o.ok]
        assert not failed, [(o.scenario, o.problems) for o in failed]

    def test_main_reports_and_exits_zero(self, capsys):
        from repro.chaos import main

        assert main(["--seeds", "12", "--scenario", "crash"]) == 0
        out = capsys.readouterr().out
        assert "[ok] crash seed=12" in out
        assert "1/1 scenario runs ok" in out
