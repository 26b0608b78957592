"""Tests for database save/load round-tripping.

A saved database and a durable one share one on-disk format, the
transaction checkpoint, so each entry point also reads the other's
directory, and recovery restores indexes along with the rows.
"""

import json
import os
import zlib
from functools import partial

import pytest

from repro import Database
from repro.common.errors import FATAL, ReproError, WalError, failure_class
from repro.storage import persistence
from repro.storage.persistence import PersistenceError, load_database, save_database
from repro.storage.wal import CHECKPOINT_FILE, write_checkpoint
from repro.txn.faults import CrashInjector, CrashPlan, CrashSpec, SimulatedCrash


def make_db():
    db = Database()
    db.create_table(
        "t", [("i", "int"), ("f", "float"), ("s", "str"), ("d", "date")]
    )
    db.insert(
        "t",
        [
            (1, 1.5, "hello", "2001-06-13"),
            (2, None, "it's", "1999-12-31"),
            (None, 0.0, "", "1970-01-01"),
        ],
    )
    db.create_index("ix_t_i", "t", "i", kind="sorted")
    db.create_index("ix_t_s", "t", "s", kind="hash")
    db.runstats()
    return db


class TestRoundTrip:
    def test_rows_identical(self, tmp_path):
        original = make_db()
        save_database(original, str(tmp_path / "db"))
        restored = load_database(str(tmp_path / "db"))
        assert restored.catalog.table("t").rows == original.catalog.table("t").rows

    def test_schema_and_types_preserved(self, tmp_path):
        save_database(make_db(), str(tmp_path / "db"))
        restored = load_database(str(tmp_path / "db"))
        schema = restored.catalog.table("t").schema
        assert [c.dtype.value for c in schema] == ["int", "float", "str", "date"]

    def test_indexes_rebuilt(self, tmp_path):
        save_database(make_db(), str(tmp_path / "db"))
        restored = load_database(str(tmp_path / "db"))
        indexes = restored.catalog.indexes_on("t")
        assert {ix.name for ix in indexes} == {"ix_t_i", "ix_t_s"}
        sorted_ix = restored.catalog.index_on_column("t", "i")
        assert list(sorted_ix.lookup(1)) == [0]

    def test_queries_work_after_load(self, tmp_path):
        original = make_db()
        sql = "SELECT t.s FROM t WHERE t.d >= '2000-01-01'"
        expected = original.execute(sql).rows
        save_database(original, str(tmp_path / "db"))
        restored = load_database(str(tmp_path / "db"))
        assert restored.execute(sql).rows == expected

    def test_statistics_collected_on_load(self, tmp_path):
        save_database(make_db(), str(tmp_path / "db"))
        restored = load_database(str(tmp_path / "db"))
        assert restored.catalog.statistics("t") is not None

    def test_runstats_skippable(self, tmp_path):
        save_database(make_db(), str(tmp_path / "db"))
        restored = load_database(str(tmp_path / "db"), runstats=False)
        assert restored.catalog.statistics("t") is None

    def test_workload_round_trip(self, tmp_path, tpch_db):
        save_database(tpch_db, str(tmp_path / "tpch"))
        restored = load_database(str(tmp_path / "tpch"))
        assert (
            restored.catalog.table("lineitem").row_count
            == tpch_db.catalog.table("lineitem").row_count
        )
        from repro.workloads.tpch.queries import TPCH_QUERIES

        assert (
            restored.execute(TPCH_QUERIES["Q11"]).rows
            == tpch_db.execute(TPCH_QUERIES["Q11"]).rows
        )


class TestFailureModes:
    def test_missing_directory(self, tmp_path):
        with pytest.raises(PersistenceError, match="no database found"):
            load_database(str(tmp_path / "ghost"))

    def test_old_format_directory_is_refused(self, tmp_path):
        path = tmp_path / "db"
        (path / "data").mkdir(parents=True)
        (path / "schema.json").write_text(
            json.dumps({"version": 2, "tables": {"t": [["i", "int"]]}})
        )
        (path / "data" / "t.jsonl").write_text("[1]\n")
        with pytest.raises(PersistenceError, match="no database found"):
            load_database(str(path))

    def test_save_refuses_a_non_empty_write_ahead_log(self, tmp_path):
        path = str(tmp_path / "db")
        db = make_db()
        db.enable_transactions(path=path, checkpoint_interval=100)
        db.insert("t", [(4, 4.0, "wal", "2002-02-02")])
        with pytest.raises(PersistenceError, match="write-ahead log") as info:
            save_database(db, path)
        assert failure_class(info.value) == FATAL
        db.close()
        # The refused save left the durable directory as it was.
        assert load_database(path).catalog.table("t").row_count == 4


class TestCrashSafeFormat:
    """Atomic install, checksum, and the `.tmp` sweep of the checkpoint."""

    def test_no_temp_files_left_behind(self, tmp_path):
        path = tmp_path / "db"
        save_database(make_db(), str(path))
        save_database(make_db(), str(path))  # overwrite in place
        leftovers = [
            name
            for root, _dirs, names in os.walk(path)
            for name in names
            if ".tmp" in name
        ]
        assert leftovers == []

    def test_saved_file_is_the_pinned_format(self, tmp_path):
        """A save writes ``{"crc":C,"state":<compact, key-sorted JSON>}``
        of the captured rows, byte for byte: files written before the
        one-pass writer stay readable, and this one reads back."""
        db = make_db()
        db.insert("t", [(3, -2.25, "Z\u00fcrich \u65e5", "2020-02-29")])
        path = tmp_path / "db"
        save_database(db, str(path))
        table = db.catalog.table("t")
        state = {
            "epoch": 0,
            "tables": {
                "t": {
                    "columns": [[c.name, c.dtype.value] for c in table.schema],
                    "indexes": [["ix_t_i", "i", "sorted"], ["ix_t_s", "s", "hash"]],
                    "rows": [list(row) for row in table.rows],
                }
            },
        }
        body = json.dumps(state, sort_keys=True, separators=(",", ":"))
        expected = '{"crc":%d,"state":%s}' % (zlib.crc32(body.encode()), body)
        assert (path / CHECKPOINT_FILE).read_bytes() == expected.encode()
        assert load_database(str(path)).catalog.table("t").rows == table.rows

    def test_corrupt_checkpoint_is_loud_through_both_entry_points(self, tmp_path):
        path = tmp_path / "db"
        save_database(make_db(), str(path))
        checkpoint = path / CHECKPOINT_FILE
        content = json.loads(checkpoint.read_text())
        content["state"]["tables"]["t"]["rows"].pop()  # drop the last row
        checkpoint.write_text(json.dumps(content))
        with pytest.raises(WalError, match="checksum mismatch") as loaded:
            load_database(str(path))
        with pytest.raises(WalError, match="checksum mismatch") as opened:
            Database().enable_transactions(path=str(path))
        for info in (loaded, opened):
            assert isinstance(info.value, ReproError)
            assert failure_class(info.value) == FATAL

    @pytest.mark.parametrize(
        "point, kind, survives",
        [
            ("checkpoint.capture", "crash", "old"),
            ("checkpoint.write", "torn", "old"),
            ("checkpoint.fsync", "crash", "old"),
            ("checkpoint.rename", "crash", "old"),
            ("checkpoint.done", "crash", "new"),
        ],
    )
    def test_crash_during_save_leaves_old_or_new(
        self, tmp_path, monkeypatch, point, kind, survives
    ):
        path = str(tmp_path / "db")
        old = make_db()
        save_database(old, path)
        new = make_db()
        new.insert("t", [(7, 7.5, "new", "2010-10-10")])
        plan = CrashPlan(specs=[CrashSpec(point, kind, tear_fraction=0.5)])
        monkeypatch.setattr(
            persistence,
            "write_checkpoint",
            partial(write_checkpoint, crash_hook=CrashInjector(plan).hook),
        )
        with pytest.raises(SimulatedCrash):
            save_database(new, path)
        expected = (old if survives == "old" else new).catalog.table("t").rows
        assert load_database(path).catalog.table("t").rows == expected
        assert not any(".tmp" in name for name in os.listdir(path))


def durable_db(path: str) -> Database:
    """A durable ``t`` with a hash index made before the open and a sorted
    one after it, rows in the checkpoint and in the WAL suffix."""
    db = Database()
    db.create_table("t", [("i", "int"), ("s", "str")])
    db.create_index("ix_t_s", "t", "s", kind="hash")
    db.enable_transactions(path=path, checkpoint_interval=100)
    db.insert("t", [(i, f"s{i % 5}") for i in range(200)])
    db.create_index("ix_t_i", "t", "i", kind="sorted")
    db.insert("t", [(i, f"s{i % 5}") for i in range(200, 300)])
    return db


def assert_indexed(db: Database) -> None:
    assert {ix.name for ix in db.catalog.indexes_on("t")} == {"ix_t_i", "ix_t_s"}
    assert list(db.catalog.index_on_column("t", "i").lookup(250)) == [250]
    assert len(db.catalog.index_on_column("t", "s").lookup("s2")) == 60
    db.runstats()
    assert "IXSCAN" in db.explain("SELECT t.s FROM t WHERE t.i = 2")


class TestOneFormat:
    def test_recovery_restores_indexes(self, tmp_path):
        path = str(tmp_path / "db")
        durable_db(path).close()
        db = Database()
        db.enable_transactions(path=path)
        assert db.txn_manager.snapshot_stats()["recovered_records"] == 1
        assert db.catalog.table("t").row_count == 300
        assert_indexed(db)
        db.close()

    def test_load_reads_a_durable_directory_with_its_wal_suffix(self, tmp_path):
        path = str(tmp_path / "db")
        durable_db(path).close()
        db = load_database(path)
        assert db.catalog.table("t").rows == [
            (i, f"s{i % 5}") for i in range(300)
        ]
        assert db.catalog.statistics("t") is not None
        assert_indexed(db)

    def test_enable_transactions_sees_a_saved_directory(self, tmp_path):
        path = str(tmp_path / "db")
        original = make_db()
        save_database(original, path)
        db = Database()
        db.enable_transactions(path=path)
        assert db.catalog.table("t").rows == original.catalog.table("t").rows
        assert {ix.name for ix in db.catalog.indexes_on("t")} == {
            "ix_t_i",
            "ix_t_s",
        }
        db.insert("t", [(5, 5.0, "more", "2005-05-05")])
        db.close()
        assert load_database(path).catalog.table("t").row_count == 4
