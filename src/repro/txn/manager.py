"""MVCC-lite snapshot transactions over the append-only row store.

The storage engine (:mod:`repro.storage.table`) is append-only: rows are
never updated or deleted in place, and a row's rid is its position.
That makes multi-versioning cheap — a *snapshot* is just a commit epoch
plus, per table, the number of rows visible at that epoch, and the
per-table row-version list keyed by commit epoch is the monotone history
of those watermarks.  Readers pin a snapshot at statement (or
transaction) start and scan at most ``visible[table]`` rows / rids below
the watermark; writers stage rows into a private write-set that becomes
visible to others only when the commit installs it and bumps the epoch.

Commit protocol (first-committer-wins):

1. with a memory governor enabled, encode the WAL record and admit its
   buffer against the budget (*before* the epoch lock — admission may
   block on the governor condition, and waiting while holding a policy
   lock is a ``cc-wait-holding`` violation);
2. under ``_epoch_lock``: validate (any write-set table committed past
   this transaction's begin epoch -> retryable
   :class:`~repro.common.errors.TransactionConflict`), append + fsync
   the WAL record (the durability point), install the write-set
   (``rows.extend`` + index rebuild), advance the watermarks and the
   epoch;
3. after release: run the plan-cache invalidation callbacks once per
   commit (not per insert), publish ``txn.*`` metrics/trace events, and
   maybe fold the log into an atomic checkpoint.

Because installs happen entirely under the epoch lock and snapshots are
pinned under the same lock, a reader can never observe a half-installed
commit; because rids are positional and tables append-only, a stale
index probe can at worst return rids at or above the watermark, which
the snapshot filter drops.

Durability is optional: with a ``directory`` the manager opens the
crash-safe WAL + checkpoint layer (:mod:`repro.storage.wal`) and
recovery-on-open installs the checkpoint (tables, rows, indexes),
replays the committed suffix and discards torn tails; without one,
transactions are isolation-only (in-memory).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

from repro.common.errors import (
    SchemaError,
    TransactionConflict,
    TransactionError,
)
from repro.common.locking import maybe_witness
from repro.common.values import coerce
from repro.storage.table import PAGE_SIZE
from repro.storage.wal import (
    WalRecord,
    WriteAheadLog,
    apply_state,
    capture_state,
    recover,
    write_checkpoint,
)

__all__ = ["Snapshot", "Transaction", "TransactionManager"]

#: Transaction states.
ACTIVE = "active"
COMMITTED = "committed"
ABORTED = "aborted"


@dataclass(frozen=True)
class Snapshot:
    """An immutable view: commit epoch + per-table visible row counts.

    A table absent from ``visible`` (created after the pin) is fully
    visible — DDL is unversioned, matching the engine's DDL story.
    """

    epoch: int
    visible: Mapping[str, int]

    def visible_rows(self, table_name: str) -> Optional[int]:
        """Row watermark for ``table_name``; ``None`` = no cap."""
        return self.visible.get(table_name)


@dataclass
class Transaction:
    """One writer/reader scope: pinned snapshot + private write-set."""

    txn_id: int
    snapshot: Snapshot
    state: str = ACTIVE
    #: table name -> staged (coerced) row tuples, in staging order.
    write_set: dict = field(default_factory=dict)

    @property
    def begin_epoch(self) -> int:
        return self.snapshot.epoch

    def staged_rows(self) -> int:
        return sum(len(rows) for rows in self.write_set.values())


class TransactionManager:
    """Epochs, snapshots, write-sets, and the commit critical section.

    One manager per :class:`~repro.core.database.Database`; thread-safe.
    ``governor_source`` is a zero-argument callable returning the current
    :class:`~repro.governor.MemoryGovernor` (or ``None``) so WAL and
    checkpoint buffers are charged against the shared budget whenever a
    governor is enabled, even one enabled after this manager.
    """

    def __init__(
        self,
        catalog,
        directory: Optional[str] = None,
        governor_source: Optional[Callable] = None,
        metrics=None,
        tracer=None,
        checkpoint_interval: int = 16,
        crash_hook=None,
    ):
        self.catalog = catalog
        self.directory = directory
        self.metrics = metrics
        self.tracer = tracer
        self.checkpoint_interval = max(1, checkpoint_interval)
        self.crash_hook = crash_hook
        self._governor_source = governor_source
        # Rank 1 in the repo-wide order: inside the session layer,
        # outside every engine lock (see repro.common.locking).
        self._epoch_lock = maybe_witness(threading.Lock(), "txn.epoch")
        self._epoch = 0  # guarded-by: _epoch_lock
        self._next_txn_id = 0  # guarded-by: _epoch_lock
        self._visible: dict = {}  # guarded-by: _epoch_lock
        self._last_commit: dict = {}  # guarded-by: _epoch_lock
        self._active: set = set()  # guarded-by: _epoch_lock
        self._commits_since_checkpoint = 0  # guarded-by: _epoch_lock
        self._checkpointing = False  # guarded-by: _epoch_lock
        self.commits = 0
        self.rollbacks = 0
        self.conflicts = 0
        self.autocommits = 0
        self.recovered_records = 0
        self.recovered_truncated_bytes = 0
        self.checkpoints_written = 0
        #: Commit-coalesced cache/stats invalidation: each callback is
        #: invoked once per commit with the set of affected tables, after
        #: the epoch lock is released.
        self._invalidation_callbacks: list = []
        self._wal: Optional[WriteAheadLog] = None
        with self._epoch_lock:
            if directory is not None:
                recovered = recover(directory)
                self.recovered_records = len(recovered.records)
                self.recovered_truncated_bytes = recovered.truncated_bytes
                self._epoch, self._last_commit = apply_state(
                    self.catalog, recovered
                )
            self._sync_visible_locked()
        if directory is not None:
            self._wal = WriteAheadLog(directory, crash_hook=self.crash_hook)
            # Checkpoint-at-open closes the DDL gap (DDL is not WAL-logged):
            # every table and index known at open — pre-loaded or recovered
            # — is captured, so later WAL records always land on known
            # tables.
            self.checkpoint()

    # ------------------------------------------------------------- durability

    def set_crash_hook(self, crash_hook) -> None:
        """Arm (or disarm, with ``None``) crash injection after open.

        The crash-chaos harness opens the database cleanly, then mounts
        its kill schedule — recovery-on-open and the checkpoint-at-open
        must never be the victims of the schedule they are recovering
        from.
        """
        self.crash_hook = crash_hook
        if self._wal is not None:
            self._wal.crash_hook = crash_hook

    def _sync_visible_locked(self) -> None:
        """Watermark every catalog table at its current row count."""
        for table in self.catalog.tables():
            self._visible[table.name] = len(table.rows)

    @property
    def epoch(self) -> int:
        with self._epoch_lock:
            return self._epoch

    def active_count(self) -> int:
        with self._epoch_lock:
            return len(self._active)

    # ---------------------------------------------------------- invalidation

    def add_invalidation_callback(self, callback: Callable) -> None:
        """Register ``callback(tables)`` to run once per commit (outside
        the epoch lock).  Used by the database-wide and per-session plan
        caches so bulk loads invalidate at commit boundaries, not per
        insert."""
        if callback not in self._invalidation_callbacks:
            self._invalidation_callbacks.append(callback)

    def remove_invalidation_callback(self, callback: Callable) -> None:
        if callback in self._invalidation_callbacks:
            self._invalidation_callbacks.remove(callback)

    def _notify_invalidation(self, tables: set) -> None:
        for callback in list(self._invalidation_callbacks):
            callback(sorted(tables))

    # -------------------------------------------------------------- lifecycle

    def begin(self) -> Transaction:
        with self._epoch_lock:
            self._next_txn_id += 1
            txn = Transaction(
                txn_id=self._next_txn_id,
                snapshot=Snapshot(self._epoch, dict(self._visible)),
            )
            self._active.add(txn.txn_id)
        if self.metrics is not None:
            self.metrics.inc("txn.begins")
        return txn

    def pin_snapshot(self) -> Snapshot:
        """A fresh statement-level snapshot (autocommit reads)."""
        with self._epoch_lock:
            return Snapshot(self._epoch, dict(self._visible))

    def on_ddl(self, table) -> None:
        """DDL hook (a new table or index): watermark the table and
        persist the catalog."""
        with self._epoch_lock:
            self._visible[table.name] = len(table.rows)
        if self._wal is not None:
            self.checkpoint()

    # ---------------------------------------------------------------- staging

    def stage(self, txn: Transaction, table_name: str, rows, raw: bool = False) -> None:
        """Add rows to the transaction's private write-set.

        Values are coerced against the live schema immediately (``raw``
        skips coercion for pre-coerced bulk loads), so a bad row fails at
        staging time, not inside the commit critical section.
        """
        self._require_active(txn, "stage into")
        table = self.catalog.table(table_name)
        if raw:
            staged = [tuple(row) for row in rows]
        else:
            staged = []
            for values in rows:
                if len(values) != len(table.schema):
                    raise SchemaError(
                        f"{table_name}: expected {len(table.schema)} values, "
                        f"got {len(values)}"
                    )
                staged.append(
                    tuple(
                        coerce(v, col.dtype)
                        for v, col in zip(values, table.schema.columns)
                    )
                )
        txn.write_set.setdefault(table_name, []).extend(staged)

    @staticmethod
    def _require_active(txn: Transaction, verb: str) -> None:
        if txn.state != ACTIVE:
            raise TransactionError(
                f"cannot {verb} a {txn.state} transaction (txn {txn.txn_id})"
            )

    # ----------------------------------------------------------------- commit

    def commit(self, txn: Transaction) -> int:
        """First-committer-wins commit; returns the new epoch.

        Raises :class:`~repro.common.errors.TransactionConflict` (and
        aborts ``txn``) when another transaction committed to one of the
        write-set tables after ``txn`` began — the retryable signal to
        re-run against a fresh snapshot.
        """
        self._require_active(txn, "commit")
        if not txn.write_set:
            # Read-only: nothing to validate or install.
            txn.state = COMMITTED
            with self._epoch_lock:
                self._active.discard(txn.txn_id)
            self.commits += 1
            if self.metrics is not None:
                self.metrics.inc("txn.commits", **{"mode": "readonly"})
            return txn.begin_epoch
        writes = {name: list(rows) for name, rows in txn.write_set.items()}
        reservation = None
        governor = (
            self._governor_source() if self._governor_source is not None else None
        )
        if governor is not None:
            # Size the WAL buffer off-epoch (the real record differs only
            # in its epoch digits) and admit it before taking the epoch
            # lock.  Without a governor nobody asks for the size, and the
            # record is encoded once, by ``append_commit``.
            provisional = WalRecord(txn.txn_id, 0, writes).encode()
            pages = max(1.0, len(provisional) / PAGE_SIZE)
            reservation = governor.admit(pages, label=f"txn.wal #{txn.txn_id}")
        wal_bytes = 0
        try:
            with self._epoch_lock:
                conflicted = tuple(
                    name
                    for name in writes
                    if self._last_commit.get(name, 0) > txn.begin_epoch
                )
                if conflicted:
                    self._active.discard(txn.txn_id)
                    txn.state = ABORTED
                    self.conflicts += 1
                    raise TransactionConflict(
                        "first-committer-wins conflict on "
                        f"{', '.join(conflicted)}: committed at epoch "
                        f"{max(self._last_commit[n] for n in conflicted)}, "
                        f"transaction began at epoch {txn.begin_epoch}",
                        tables=conflicted,
                        begin_epoch=txn.begin_epoch,
                        committed_epoch=max(
                            self._last_commit[n] for n in conflicted
                        ),
                    )
                epoch = self._epoch + 1
                if self._wal is not None:
                    # The durability point: fsync returns before install.
                    wal_bytes = self._wal.append_commit(
                        WalRecord(txn.txn_id, epoch, writes)
                    )
                self._install_locked(writes, epoch)
                self._epoch = epoch
                self._active.discard(txn.txn_id)
                self._commits_since_checkpoint += 1
                need_checkpoint = (
                    self._wal is not None
                    and not self._checkpointing
                    and self._commits_since_checkpoint
                    >= self.checkpoint_interval
                )
                if need_checkpoint:
                    self._checkpointing = True
                    self._commits_since_checkpoint = 0
        finally:
            if reservation is not None:
                governor.release(reservation)
        txn.state = COMMITTED
        txn.write_set = {}
        self.commits += 1
        affected = set(writes)
        self._notify_invalidation(affected)
        if self.metrics is not None:
            self.metrics.inc("txn.commits")
            self.metrics.set_gauge("txn.epoch", float(epoch))
            if wal_bytes:
                self.metrics.inc("txn.wal.records")
                self.metrics.inc("txn.wal.bytes", wal_bytes)
                self.metrics.inc("txn.wal.fsyncs")
        if self.tracer is not None:
            self.tracer.event(
                "txn.commit",
                txn=txn.txn_id,
                epoch=epoch,
                tables=sorted(affected),
                rows=sum(len(r) for r in writes.values()),
                wal_bytes=wal_bytes,
            )
        if need_checkpoint:
            self.checkpoint(_resume=True)
        return epoch

    def _install_locked(self, writes: dict, epoch: int) -> None:
        """Install a validated write-set (caller holds the epoch lock)."""
        for name, rows in writes.items():
            table = self.catalog.table(name)
            table.rows.extend(rows)
            self.catalog.rebuild_indexes(name)
            self._visible[name] = len(table.rows)
            self._last_commit[name] = epoch

    def autocommit(self, table_name: str, rows, raw: bool = False, retries: int = 8) -> int:
        """Run one insert as a single-statement transaction.

        A conflict here only means another append won the epoch race —
        re-staging against the fresh snapshot is always safe for
        append-only writes, so conflicts are retried internally.
        """
        rows = list(rows)
        last: Optional[TransactionConflict] = None
        for _ in range(max(1, retries)):
            txn = self.begin()
            self.stage(txn, table_name, rows, raw=raw)
            try:
                epoch = self.commit(txn)
            except TransactionConflict as exc:
                last = exc
                continue
            self.autocommits += 1
            return epoch
        raise last  # pragma: no cover - requires pathological contention

    # --------------------------------------------------------------- rollback

    def rollback(self, txn: Transaction) -> None:
        """Discard the write-set; nothing staged ever became visible."""
        if txn.state == ABORTED:
            return
        self._require_active(txn, "roll back")
        txn.state = ABORTED
        txn.write_set = {}
        with self._epoch_lock:
            self._active.discard(txn.txn_id)
        self.rollbacks += 1
        if self.metrics is not None:
            self.metrics.inc("txn.rollbacks")

    # ------------------------------------------------------------- checkpoint

    def checkpoint(self, _resume: bool = False) -> Optional[int]:
        """Fold the WAL into an atomic checkpoint; returns its epoch.

        The state is captured under the epoch lock (a consistent cut),
        written outside it (the slow part), and the WAL truncated only if
        no commit interleaved — otherwise the newer records stay and
        recovery's epoch filter skips the checkpointed prefix.
        """
        if self._wal is None:
            return None
        with self._epoch_lock:
            if not _resume and self._checkpointing:
                return None
            self._checkpointing = True
            state = capture_state(self.catalog, self._epoch)
        governor = (
            self._governor_source() if self._governor_source is not None else None
        )
        reservation = None
        if governor is not None:
            pages = max(
                1.0,
                sum(
                    len(spec["rows"]) * self.catalog.table(name).schema.row_width
                    for name, spec in state["tables"].items()
                )
                / PAGE_SIZE,
            )
            reservation = governor.admit(pages, label="txn.checkpoint")
        try:
            write_checkpoint(self.directory, state, crash_hook=self.crash_hook)
        finally:
            if reservation is not None:
                governor.release(reservation)
            with self._epoch_lock:
                self._checkpointing = False
        with self._epoch_lock:
            if self._epoch == state["epoch"]:
                self._wal.reset()
        self.checkpoints_written += 1
        if self.metrics is not None:
            self.metrics.inc("txn.checkpoints")
        if self.tracer is not None:
            self.tracer.event("txn.checkpoint", epoch=state["epoch"])
        return state["epoch"]

    # ------------------------------------------------------------------ close

    def close(self) -> None:
        if self._wal is not None:
            self._wal.close()

    def snapshot_stats(self) -> dict:
        """Point-in-time counters for the CLI and tests."""
        with self._epoch_lock:
            epoch = self._epoch
            active = len(self._active)
        wal = self._wal
        return {
            "epoch": epoch,
            "active": active,
            "commits": self.commits,
            "rollbacks": self.rollbacks,
            "conflicts": self.conflicts,
            "autocommits": self.autocommits,
            "durable": wal is not None,
            "wal_records": wal.records_appended if wal is not None else 0,
            "wal_bytes": wal.bytes_appended if wal is not None else 0,
            "checkpoints": self.checkpoints_written,
            "recovered_records": self.recovered_records,
            "recovered_truncated_bytes": self.recovered_truncated_bytes,
        }
