"""The crash-safe durability layer: WAL replay, torn tails, checkpoints.

Property tests (hypothesis) pin the recovery contract: *any* torn-tail
prefix of a WAL recovers to exactly the committed prefix of records, and
replay is idempotent — a second recovery pass over the truncated file
sees identical state.  Unit tests cover fsync-failure rollback, log
poisoning, and checkpoint atomicity under injected crashes.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database
from repro.common.errors import WalError
from repro.storage import wal as wal_module
from repro.storage.wal import (
    CHECKPOINT_FILE,
    WAL_FILE,
    RecoveredState,
    RowCut,
    WalRecord,
    WriteAheadLog,
    read_checkpoint,
    read_wal_records,
    recover,
    write_checkpoint,
)
from repro.txn.faults import CrashInjector, CrashPlan, CrashSpec, SimulatedCrash

# ------------------------------------------------------------- strategies

_values = st.one_of(
    st.integers(-1000, 1000),
    st.text(max_size=8),
    st.none(),
)
_rows = st.lists(st.tuples(_values, _values), min_size=1, max_size=4)
_records = st.lists(
    st.builds(
        lambda i, rows: WalRecord(txn_id=i, epoch=i, writes={"t": rows}),
        st.integers(1, 100),
        _rows,
    ),
    min_size=0,
    max_size=6,
)


def _encode_all(records) -> bytes:
    # Re-number epochs monotonically so replay filters behave like a
    # real log (epochs strictly increase across commits).
    blob = b""
    for n, record in enumerate(records, start=1):
        blob += WalRecord(record.txn_id, n, record.writes).encode()
    return blob


class TestTornTailProperty:
    @settings(max_examples=60, deadline=None)
    @given(records=_records, data=st.data())
    def test_any_cut_recovers_a_committed_prefix(self, tmp_path_factory, records, data):
        """Cutting the file anywhere yields a whole-record prefix."""
        blob = _encode_all(records)
        cut = data.draw(st.integers(0, len(blob)), label="cut")
        tmp = tmp_path_factory.mktemp("wal")
        path = str(tmp / WAL_FILE)
        with open(path, "wb") as f:
            f.write(blob[:cut])
        got, good_bytes, total = read_wal_records(path)
        assert total == cut
        # The recovered records are exactly the longest whole prefix
        # whose encoded bytes fit in the cut.
        sizes = []
        offset = 0
        for n, record in enumerate(records, start=1):
            offset += len(WalRecord(record.txn_id, n, record.writes).encode())
            sizes.append(offset)
        expect = sum(1 for s in sizes if s <= cut)
        assert len(got) == expect
        assert good_bytes == (sizes[expect - 1] if expect else 0)
        for n, record in enumerate(got, start=1):
            assert record.epoch == n
            assert record.writes == records[n - 1].writes

    @settings(max_examples=40, deadline=None)
    @given(records=_records, data=st.data())
    def test_recover_truncates_and_is_idempotent(
        self, tmp_path_factory, records, data
    ):
        blob = _encode_all(records)
        cut = data.draw(st.integers(0, len(blob)), label="cut")
        tmp = tmp_path_factory.mktemp("walrec")
        directory = str(tmp)
        with open(os.path.join(directory, WAL_FILE), "wb") as f:
            f.write(blob[:cut])
        first = recover(directory)
        second = recover(directory)
        assert [r.writes for r in second.records] == [
            r.writes for r in first.records
        ]
        # The torn tail was physically truncated: pass two sees none.
        assert second.truncated_bytes == 0
        size = os.path.getsize(os.path.join(directory, WAL_FILE))
        assert size == cut - first.truncated_bytes

    @settings(max_examples=30, deadline=None)
    @given(records=_records.filter(lambda r: len(r) > 0))
    def test_garbage_tail_never_replays(self, tmp_path_factory, records):
        """A flipped byte in the last record drops it, never corrupts it."""
        blob = _encode_all(records)
        corrupted = blob[:-1] + bytes([blob[-1] ^ 0xFF])
        tmp = tmp_path_factory.mktemp("walbad")
        path = str(tmp / WAL_FILE)
        with open(path, "wb") as f:
            f.write(corrupted)
        got, _good, _total = read_wal_records(path)
        assert len(got) == len(records) - 1
        for n, record in enumerate(got, start=1):
            assert record.writes == records[n - 1].writes


# ------------------------------------------------------------ WAL object


def _record(epoch: int) -> WalRecord:
    return WalRecord(txn_id=epoch, epoch=epoch, writes={"t": [(epoch, "x")]})


class TestWriteAheadLog:
    def test_append_then_read_back(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        for e in (1, 2, 3):
            wal.append_commit(_record(e))
        wal.close()
        records, _good, _total = read_wal_records(str(tmp_path / WAL_FILE))
        assert [r.epoch for r in records] == [1, 2, 3]
        assert wal.records_appended == 3
        assert wal.fsyncs == 3

    def test_fsync_failure_rolls_the_record_back(self, tmp_path):
        plan = CrashPlan(
            specs=[CrashSpec("wal.fsync", "fsync_fail", trigger_at=2)]
        )
        wal = WriteAheadLog(str(tmp_path), crash_hook=CrashInjector(plan).hook)
        wal.append_commit(_record(1))
        with pytest.raises(WalError, match="append failed"):
            wal.append_commit(_record(2))
        # The unsynced record was truncated away; the log keeps working.
        wal.append_commit(_record(3))
        wal.close()
        records, _good, _total = read_wal_records(str(tmp_path / WAL_FILE))
        assert [r.epoch for r in records] == [1, 3]

    def test_failed_rollback_poisons_the_log(self, tmp_path):
        plan = CrashPlan(
            specs=[CrashSpec("wal.fsync", "fsync_fail", trigger_at=1)]
        )
        wal = WriteAheadLog(str(tmp_path), crash_hook=CrashInjector(plan).hook)

        class BrokenFile:
            """Delegates everything but makes truncate fail too."""

            def __init__(self, inner):
                self._inner = inner

            def __getattr__(self, name):
                return getattr(self._inner, name)

            def truncate(self, *a):
                raise OSError("disk on fire")

        wal._file = BrokenFile(wal._file)
        with pytest.raises(WalError, match="poisoned|rollback failed"):
            wal.append_commit(_record(1))
        with pytest.raises(WalError, match="poisoned"):
            wal.append_commit(_record(2))

    def test_torn_append_is_truncated_on_recovery(self, tmp_path):
        plan = CrashPlan(
            specs=[CrashSpec("wal.append", "torn", trigger_at=2,
                             tear_fraction=0.5)]
        )
        wal = WriteAheadLog(str(tmp_path), crash_hook=CrashInjector(plan).hook)
        wal.append_commit(_record(1))
        with pytest.raises(SimulatedCrash):
            wal.append_commit(_record(2))
        wal.close()
        state = recover(str(tmp_path))
        assert [r.epoch for r in state.records] == [1]
        assert state.truncated_bytes > 0

    def test_reset_empties_the_log(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.append_commit(_record(1))
        wal.reset()
        wal.append_commit(_record(2))
        wal.close()
        records, _good, _total = read_wal_records(str(tmp_path / WAL_FILE))
        assert [r.epoch for r in records] == [2]


# ------------------------------------------------------------ checkpoints


STATE = {"epoch": 7, "tables": {"t": {"columns": [["a", "int"]], "rows": [[1]]}}}
#: Several tables, keys out of order, and every stored value kind: int,
#: float, NULL and non-ASCII text.
MULTI = {
    "tables": {
        "zeta": {
            "rows": [[1, 2.5, "na\u00efve"], [-7, None, "\u65e5\u672c"],
                     [None, 1e-07, "it's \"q\""]],
            "indexes": [["ix_zeta_k", "k", "sorted"]],
            "columns": [["k", "int"], ["x", "float"], ["s", "str"]],
        },
        "alpha": {"columns": [["a", "int"]], "indexes": [], "rows": []},
    },
    "epoch": 12,
}


def framed(state) -> bytes:
    """The checkpoint file's bytes as the format defines them."""
    body = json.dumps(state, sort_keys=True, separators=(",", ":"))
    return ('{"crc":%d,"state":%s}' % (zlib.crc32(body.encode()), body)).encode()


class TestCheckpoints:
    def test_roundtrip(self, tmp_path):
        write_checkpoint(str(tmp_path), STATE)
        assert read_checkpoint(str(tmp_path)) == STATE

    def test_missing_is_none(self, tmp_path):
        assert read_checkpoint(str(tmp_path)) is None

    def test_corruption_is_loud(self, tmp_path):
        write_checkpoint(str(tmp_path), STATE)
        path = tmp_path / CHECKPOINT_FILE
        obj = json.loads(path.read_bytes())
        obj["state"]["epoch"] = 8  # silently corrupt the body
        path.write_text(json.dumps(obj))
        with pytest.raises(WalError, match="checksum mismatch"):
            read_checkpoint(str(tmp_path))

    def test_format_is_pinned(self, tmp_path):
        """``{"crc":C,"state":<compact, key-sorted JSON>}``, byte for byte,
        so files written before the one-pass writer stay readable."""
        size = write_checkpoint(str(tmp_path), MULTI)
        stored = (tmp_path / CHECKPOINT_FILE).read_bytes()
        assert stored == framed(MULTI)
        assert size == len(stored)
        assert read_checkpoint(str(tmp_path)) == MULTI

    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(_values, st.one_of(st.floats(allow_nan=False), st.none())),
            max_size=40,
        ),
        data=st.data(),
    )
    def test_row_cut_encodes_its_prefix_in_blocks(self, tmp_path_factory, rows, data):
        """A :class:`RowCut` is written as ``rows[:watermark]``, whatever
        the block size of the encoder calls."""
        watermark = data.draw(st.integers(0, len(rows)), label="watermark")
        block = data.draw(st.integers(1, 7), label="block")
        cut = {"epoch": 1, "tables": {"t": {"rows": RowCut(rows, watermark)}}}
        plain = {"epoch": 1, "tables": {"t": {"rows": rows[:watermark]}}}
        directory = str(tmp_path_factory.mktemp("cut"))
        saved = wal_module._ROW_BLOCK
        wal_module._ROW_BLOCK = block
        try:
            write_checkpoint(directory, cut)
        finally:
            wal_module._ROW_BLOCK = saved
        with open(os.path.join(directory, CHECKPOINT_FILE), "rb") as f:
            assert f.read() == framed(plain)

    def test_flipped_row_byte_that_still_parses_is_a_checksum_mismatch(
        self, tmp_path
    ):
        write_checkpoint(str(tmp_path), MULTI)
        path = tmp_path / CHECKPOINT_FILE
        stored = path.read_bytes()
        at = stored.index(b"[-7,")
        flipped = stored[: at + 2] + b"8" + stored[at + 3:]
        json.loads(flipped)  # still well-formed JSON
        path.write_bytes(flipped)
        with pytest.raises(WalError, match="checksum mismatch"):
            read_checkpoint(str(tmp_path))

    @pytest.mark.parametrize(
        "content",
        [
            b'{"state":{"epoch":7,"tables":{}},"crc":1}',
            b'{"crc":1,"state":{"epoch":7,"tables":',
            b'{"crc":-1,"state":{}}',
            b"",
        ],
        ids=["keys-swapped", "unclosed", "negative-crc", "empty"],
    )
    def test_unframed_file_is_refused(self, tmp_path, content):
        (tmp_path / CHECKPOINT_FILE).write_bytes(content)
        with pytest.raises(WalError, match="not a framed state"):
            read_checkpoint(str(tmp_path))

    def test_commit_inside_the_capture_window(self, tmp_path):
        """The capture holds no lock and copies no row: a commit issued
        while the checkpoint is paused between its cut and the encoding
        completes, its rows stay out of the checkpoint, and recovery
        restores them from the WAL."""
        directory = str(tmp_path)
        db = Database()
        db.create_table("t", [("i", "int"), ("s", "str")])
        manager = db.enable_transactions(path=directory, checkpoint_interval=100)
        db.insert("t", [(i, f"r{i}") for i in range(5)])
        table = db.catalog.table("t")
        checkpointer = threading.current_thread()
        lock = manager._epoch_lock
        row_reads = []  # (under the epoch lock?) per row read by this thread

        class WatchedRows(list):
            def _note(self):
                if threading.current_thread() is checkpointer:
                    free = lock.acquire(False)
                    if free:
                        lock.release()
                    row_reads.append(not free)

            def __getitem__(self, i):
                self._note()
                return super().__getitem__(i)

            def __iter__(self):
                self._note()
                return super().__iter__()

        table.rows = WatchedRows(table.rows)
        window_commits = []

        def commit_in_window(point, size, write_partial):
            if point != "checkpoint.capture" or window_commits:
                return
            worker = threading.Thread(
                target=lambda: window_commits.append(
                    manager.autocommit("t", [(100, "late"), (101, "late")])
                ),
                daemon=True,
            )
            worker.start()
            worker.join(10.0)
            assert not worker.is_alive(), "the commit waited on the checkpoint"

        manager.set_crash_hook(commit_in_window)
        epoch = manager.checkpoint()
        manager.set_crash_hook(None)
        assert window_commits == [epoch + 1]
        # The rows were read, and never under the epoch lock.
        assert row_reads and not any(row_reads)
        assert len(db.catalog.table("t").rows) == 7
        state = read_checkpoint(directory)
        assert state["epoch"] == epoch
        assert state["tables"]["t"]["rows"] == [[i, f"r{i}"] for i in range(5)]
        db.close()
        recovered = recover(directory)
        assert [r.epoch for r in recovered.records] == [epoch + 1]
        db2 = Database()
        db2.enable_transactions(path=directory)
        assert db2.catalog.table("t").rows == [
            (i, f"r{i}") for i in range(5)
        ] + [(100, "late"), (101, "late")]
        db2.close()

    @staticmethod
    def _ddl_in_capture_window(manager, ddl, in_hook):
        """Run ``ddl`` from one checkpoint's ``checkpoint.capture`` hook:
        in the hook itself, or in a worker thread that the hook lets run
        on once the DDL's own checkpoint has found this one running."""
        refused = threading.Event()
        fired = []
        worker = threading.Thread(target=ddl, daemon=True)
        checkpoint = manager.checkpoint

        def counting_checkpoint(*args, **kwargs):
            epoch = checkpoint(*args, **kwargs)
            if epoch is None:
                refused.set()
            return epoch

        def hook(point, size, write_partial):
            if point != "checkpoint.capture" or fired:
                return
            fired.append(point)
            if in_hook:
                ddl()
                return
            worker.start()
            assert refused.wait(10.0), "the DDL did not reach its checkpoint"

        manager.checkpoint = counting_checkpoint
        manager.set_crash_hook(hook)
        try:
            assert checkpoint() is not None
        finally:
            manager.set_crash_hook(None)
            del manager.checkpoint
        assert fired
        if not in_hook:
            worker.join(10.0)
            assert not worker.is_alive(), "the DDL never returned"

    @pytest.mark.parametrize("in_hook", [False, True], ids=["worker", "hook"])
    def test_table_created_inside_the_capture_window_survives_recovery(
        self, tmp_path, in_hook
    ):
        """DDL is not WAL-logged: a table created while a checkpoint runs
        must reach a checkpoint before its first WAL-logged insert can
        need it at recovery."""
        directory = str(tmp_path)
        db = Database()
        db.create_table("t", [("i", "int")])
        manager = db.enable_transactions(path=directory, checkpoint_interval=100)

        def ddl():
            db.create_table("u", [("i", "int")])
            db.insert("u", [(1,), (2,)])

        self._ddl_in_capture_window(manager, ddl, in_hook)
        db.close()
        reopened = Database()
        reopened.enable_transactions(path=directory)
        assert reopened.catalog.table("u").rows == [(1,), (2,)]
        reopened.close()

    @pytest.mark.parametrize("in_hook", [False, True], ids=["worker", "hook"])
    def test_index_created_inside_the_capture_window_survives_recovery(
        self, tmp_path, in_hook
    ):
        directory = str(tmp_path)
        db = Database()
        db.create_table("t", [("i", "int")])
        db.insert("t", [(i,) for i in range(5)])
        manager = db.enable_transactions(path=directory, checkpoint_interval=100)

        def ddl():
            db.create_index("ix_t_i", "t", "i")
            db.insert("t", [(7,)])

        self._ddl_in_capture_window(manager, ddl, in_hook)
        db.close()
        reopened = Database()
        reopened.enable_transactions(path=directory)
        assert [ix.name for ix in reopened.catalog.indexes_on("t")] == ["ix_t_i"]
        assert list(reopened.catalog.index_on_column("t", "i").lookup(7)) == [5]
        reopened.close()

    def test_concurrent_ddl_and_commits_all_survive_recovery(self, tmp_path):
        """More DDL threads than cores, each creating tables and inserting
        into them while checkpoints run every other commit: each table is
        in the checkpoint on disk once its creation returns, and after a
        clean close every table and row recovers."""
        directory = str(tmp_path)
        db = Database()
        db.create_table("t", [("i", "int")])
        db.enable_transactions(path=directory, checkpoint_interval=2)
        names = [f"u{w}_{k}" for w in range(6) for k in range(3)]
        missing = []

        def work(w):
            for k in range(3):
                db.create_table(f"u{w}_{k}", [("i", "int")])
                if f"u{w}_{k}" not in read_checkpoint(directory)["tables"]:
                    missing.append(f"u{w}_{k}")
                db.insert(f"u{w}_{k}", [(w,), (k,)])
                db.insert("t", [(w * 10 + k,)])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(target=work, args=(w,), daemon=True)
                for w in range(6)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(30.0)
                assert not worker.is_alive(), "a DDL or commit never returned"
        finally:
            sys.setswitchinterval(interval)
        assert missing == []
        db.close()
        reopened = Database()
        reopened.enable_transactions(path=directory)
        for name in names:
            w, k = (int(part) for part in name[1:].split("_"))
            assert reopened.catalog.table(name).rows == [(w,), (k,)]
        assert sorted(reopened.catalog.table("t").rows) == sorted(
            (w * 10 + k,) for w in range(6) for k in range(3)
        )
        reopened.close()

    def test_crash_before_rename_keeps_the_old_checkpoint(self, tmp_path):
        write_checkpoint(str(tmp_path), STATE)
        newer = {"epoch": 9, "tables": {}}
        plan = CrashPlan(specs=[CrashSpec("checkpoint.rename", "crash")])
        with pytest.raises(SimulatedCrash):
            write_checkpoint(
                str(tmp_path), newer, crash_hook=CrashInjector(plan).hook
            )
        # Old checkpoint intact, the orphan .tmp swept by recovery.
        assert read_checkpoint(str(tmp_path)) == STATE
        state = recover(str(tmp_path))
        assert state.checkpoint == STATE
        assert any(".tmp" in n for n in state.removed_temp_files)
        assert not any(".tmp" in n for n in os.listdir(tmp_path))

    @pytest.mark.parametrize("fraction", [0.0, 0.3, 0.99])
    def test_torn_checkpoint_write_never_installs(self, tmp_path, fraction):
        write_checkpoint(str(tmp_path), STATE)
        full = tmp_path / "full"
        full.mkdir()
        size = write_checkpoint(str(full), MULTI)
        injector = CrashInjector(
            CrashPlan(
                specs=[
                    CrashSpec("checkpoint.write", "torn", tear_fraction=fraction)
                ]
            )
        )
        with pytest.raises(SimulatedCrash):
            write_checkpoint(str(tmp_path), MULTI, crash_hook=injector.hook)
        # The torn file holds the first k bytes of the whole file, k drawn
        # across the frame and the state's pieces.
        k = injector.fired[0].bytes_written
        assert k == max(1, min(size - 1, int(size * fraction)))
        torn = (tmp_path / (CHECKPOINT_FILE + ".tmp")).read_bytes()
        assert torn == (full / CHECKPOINT_FILE).read_bytes()[:k]
        assert read_checkpoint(str(tmp_path)) == STATE
        assert recover(str(tmp_path)).checkpoint == STATE

    def test_recovery_filters_checkpointed_epochs(self, tmp_path):
        write_checkpoint(str(tmp_path), STATE)  # epoch 7
        wal = WriteAheadLog(str(tmp_path))
        wal.append_commit(_record(6))  # already folded into the checkpoint
        wal.append_commit(_record(8))  # newer than the checkpoint
        wal.close()
        state = recover(str(tmp_path))
        assert isinstance(state, RecoveredState)
        assert [r.epoch for r in state.records] == [8]


# ----------------------------------------------------------------- faults


class TestFaultValidation:
    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError, match="unknown crash point"):
            CrashSpec("wal.bogus", "crash")

    def test_inapplicable_kind_rejected(self):
        with pytest.raises(ValueError, match="not applicable"):
            CrashSpec("wal.durable", "torn")

    def test_seeded_plans_are_reproducible(self):
        a, b = CrashPlan.seeded(99), CrashPlan.seeded(99)
        assert a.specs == b.specs
        assert a.seed == 99

    def test_injector_fires_once(self):
        plan = CrashPlan(specs=[CrashSpec("wal.durable", "crash", trigger_at=2)])
        injector = CrashInjector(plan)
        injector.hook("wal.durable", 0, lambda k: None)
        with pytest.raises(SimulatedCrash):
            injector.hook("wal.durable", 0, lambda k: None)
        assert injector.exhausted
        injector.hook("wal.durable", 0, lambda k: None)  # spent: no re-fire
        assert len(injector.fired) == 1
