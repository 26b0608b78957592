"""File-backed spill storage for memory-constrained operators.

When the memory governor (:mod:`repro.governor`) squeezes an operator's
grant below its footprint, the operator *degrades instead of dying*: sort
runs, hash-join partitions, and TEMP overflows are written to disk through
this module and read back in bounded-memory passes.

Two classes:

* :class:`SpillFile` — one append-then-read file of row tuples (a sort
  run, a join partition, a TEMP overflow).  Rows are written in pickled
  batches; reads stream batch by batch (:meth:`SpillFile.batches`) so
  memory stays bounded by the batch size, not the file size.
* :class:`SpillManager` — the per-execution registry every spill file is
  created through.  It owns the temp directory, charges all spill I/O to
  the :class:`~repro.executor.meter.WorkMeter` category ``"spill"`` (so
  degraded execution is visible in the same cost currency as everything
  else), feeds the ``governor.spill_*`` metrics, and guarantees cleanup:
  ``close_all()`` runs in the executor's ``finally`` block, on success and
  abort paths alike.
"""

from __future__ import annotations

import io
import os
import pickle
import shutil
import tempfile
import threading
from itertools import chain
from typing import Iterable, Iterator, Optional

from repro.common.errors import ExecutionError
from repro.common.locking import maybe_witness

#: Rows per pickled batch: large enough to amortize pickling overhead,
#: small enough that one in-flight batch never dominates the grant.
BATCH_ROWS = 512


class SpillFile:
    """One spill file: write rows in order, then stream them back.

    Instances are created by :meth:`SpillManager.create` only; the
    manager charges I/O and guarantees the file is closed and deleted when
    the execution attempt ends, whichever way it ends.
    """

    def __init__(self, manager: "SpillManager", path: str, category: str, label: str):
        self._manager = manager
        self.path = path
        #: WorkMeter/metrics label: "sort", "hash", "temp", ...
        self.category = category
        #: Human-readable name for traces ("run-3", "build-part-2.1", ...).
        self.label = label
        self.rows_written = 0
        self.bytes_written = 0
        self.closed = False
        self.deleted = False
        self._writer: Optional[io.BufferedWriter] = None
        self._pending: list[tuple] = []

    # ------------------------------------------------------------- writing

    def append(self, row: tuple) -> None:
        """Append one row; rows are batched internally, so a row-at-a-time
        writer still amortizes I/O (:meth:`append_batch` is the same
        writer for a list of rows)."""
        if self.closed:
            raise ExecutionError(f"spill file {self.label} written after close")
        self._pending.append(row)
        if len(self._pending) >= BATCH_ROWS:
            self._flush_pending()

    def append_batch(self, rows: Iterable[tuple]) -> None:
        """Append many rows at once (order-preserving).

        Equivalent to calling :meth:`append` row by row — including the
        internal flush boundaries: full ``BATCH_ROWS`` chunks are flushed
        as they accumulate and the remainder stays pending, so
        ``rows_written`` and :attr:`row_count` agree with a row-at-a-time
        writer after every call (the PR-5 pending-batch accounting bug
        class), readers see the same bounded chunk sizes, and the metered
        spill I/O is charged at the same points.
        """
        if self.closed:
            raise ExecutionError(f"spill file {self.label} written after close")
        pending = self._pending
        pending.extend(rows)
        full = len(pending) - len(pending) % BATCH_ROWS
        if full:
            self._pending = pending[full:]
            for start in range(0, full, BATCH_ROWS):
                self._write_chunk(pending[start:start + BATCH_ROWS])

    def write_rows(self, rows: Iterable[tuple]) -> int:
        """Append ``rows`` (order-preserving); returns the count written."""
        before = self.row_count
        self.append_batch(rows)
        return self.row_count - before

    def _flush_pending(self) -> None:
        if not self._pending:
            return
        batch, self._pending = self._pending, []
        self._write_chunk(batch)

    def _write_chunk(self, batch: list[tuple]) -> None:
        if self._writer is None:
            self._writer = open(self.path, "ab")
        payload = pickle.dumps(batch, protocol=pickle.HIGHEST_PROTOCOL)
        self._writer.write(len(payload).to_bytes(8, "big"))
        self._writer.write(payload)
        self.rows_written += len(batch)
        self.bytes_written += len(payload) + 8
        self._manager._note_write(self, len(batch), len(payload) + 8)

    @property
    def row_count(self) -> int:
        """Rows appended so far, including any still-buffered batch —
        use this for emptiness checks, not ``rows_written`` (which only
        counts flushed rows)."""
        return self.rows_written + len(self._pending)

    # ------------------------------------------------------------- reading

    def batches(self) -> Iterator[list[tuple]]:
        """Stream the rows back in write order, one non-empty list per
        written chunk (restartable: each call is a fresh pass over the
        file, and each chunk read charges its I/O)."""
        if self.deleted:
            raise ExecutionError(f"spill file {self.label} read after delete")
        self._sync()
        if self.rows_written == 0:
            return
        with open(self.path, "rb") as reader:
            while True:
                header = reader.read(8)
                if not header:
                    break
                payload = reader.read(int.from_bytes(header, "big"))
                batch = pickle.loads(payload)
                self._manager._note_read(self, len(batch))
                yield batch

    def rows(self) -> Iterator[tuple]:
        """:meth:`batches`, one row at a time."""
        return chain.from_iterable(self.batches())

    def _sync(self) -> None:
        """Make buffered writes visible to readers without closing."""
        self._flush_pending()
        if self._writer is not None:
            self._writer.flush()

    # ------------------------------------------------------------ lifecycle

    def close(self) -> None:
        """Stop writing (idempotent; the file remains readable)."""
        self._flush_pending()
        if self._writer is not None:
            self._writer.close()
            self._writer = None
        self.closed = True

    def delete(self) -> None:
        """Close and remove the backing file (idempotent)."""
        self._pending = []  # never pay write I/O for rows being discarded
        self.close()
        if not self.deleted:
            self.deleted = True
            try:
                os.unlink(self.path)
            except OSError:
                pass  # the manager removes the whole directory anyway


class SpillManager:
    """Creates, accounts for, and cleans up every spill file of one
    execution attempt.

    ``meter`` / ``cost_params`` translate spilled rows into modeled pages
    and charge them to the ``"spill"`` WorkMeter category; ``metrics`` /
    ``tracer`` (both optional, :mod:`repro.obs`) receive ``governor.*``
    counters and ``spill.*`` events.
    """

    def __init__(self, meter, cost_params, tracer=None, metrics=None):
        self.meter = meter
        self.cost_params = cost_params
        self.tracer = tracer
        self.metrics = metrics
        # Ranked "spill" — last in the repo lock order (repro.common.locking).
        # It guards bookkeeping only; meter charges and metrics/tracer
        # emission happen *after* it is released, so no spill->obs
        # acquisition edge exists.
        self._lock = maybe_witness(threading.Lock(), "spill")
        self._dir: Optional[str] = None  # guarded-by: _lock
        self._files: list[SpillFile] = []  # guarded-by: _lock
        self._seq = 0  # guarded-by: _lock
        self.released = False  # guarded-by: _lock
        #: Cumulative accounting, kept past :meth:`close_all` so drivers
        #: can report per-attempt spill volume after cleanup.
        self.files_created = 0  # guarded-by: _lock
        self.rows_spilled = 0  # guarded-by: _lock
        self.rows_read_back = 0  # guarded-by: _lock
        self.bytes_spilled = 0  # guarded-by: _lock
        self.pages_spilled = 0.0  # guarded-by: _lock
        self.categories: dict[str, float] = {}  # guarded-by: _lock

    # ------------------------------------------------------------- creation

    def create(self, category: str, label: Optional[str] = None) -> SpillFile:
        """A new empty spill file charged to ``category``."""
        with self._lock:
            if self.released:
                raise ExecutionError("spill manager used after release")
            if self._dir is None:
                # The pid in the name lets a leak audit tell this
                # process's directories from a concurrent one's.
                self._dir = tempfile.mkdtemp(
                    prefix=f"repro-spill-{os.getpid()}-"
                )
            self._seq += 1
            name = label if label is not None else f"{category}-{self._seq}"
            path = os.path.join(self._dir, f"{self._seq:06d}-{category}")
            spill = SpillFile(self, path, category, name)
            self._files.append(spill)
            self.files_created += 1
        if self.metrics is not None:
            self.metrics.inc("governor.spill_files", category=category)
        if self.tracer is not None:
            self.tracer.event("spill.create", category=category, label=name)
        return spill

    def spill_rows(
        self, category: str, rows: Iterable[tuple], label: Optional[str] = None
    ) -> SpillFile:
        """Convenience: create a file and write ``rows`` into it."""
        spill = self.create(category, label)
        spill.write_rows(rows)
        return spill

    # ----------------------------------------------------------- accounting

    def _pages(self, row_count: int) -> float:
        return row_count / self.cost_params.rows_per_page

    def _note_write(self, spill: SpillFile, row_count: int, byte_count: int) -> None:
        pages = self._pages(row_count)
        with self._lock:
            self.rows_spilled += row_count
            self.pages_spilled += pages
            self.bytes_spilled += byte_count
            self.categories[spill.category] = (
                self.categories.get(spill.category, 0.0) + pages
            )
        self.meter.charge(pages * self.cost_params.io_page, "spill")
        if self.metrics is not None:
            self.metrics.inc(
                "governor.spill_pages", pages, category=spill.category
            )

    def _note_read(self, spill: SpillFile, row_count: int) -> None:
        with self._lock:
            self.rows_read_back += row_count
        self.meter.charge(
            self._pages(row_count) * self.cost_params.io_page, "spill"
        )

    def summary(self) -> dict:
        """Plain-dict spill accounting for reports and traces."""
        with self._lock:
            return {
                "files": self.files_created,
                "rows": self.rows_spilled,
                "pages": self.pages_spilled,
                "bytes": self.bytes_spilled,
                "categories": dict(self.categories),
            }

    # ------------------------------------------------------------ lifecycle

    def close_all(self) -> None:
        """Delete every spill file and the temp directory (idempotent).

        Runs in ``run_plan``'s ``finally`` block, so both the success path
        and every abort path (re-optimization signal, injected fault,
        cancellation, timeout) release their disk footprint here.
        Strictly idempotent: the first call wins, and a second call — the
        driver and server teardown paths may both ask — neither re-deletes
        nor re-emits the ``spill.release`` trace event.
        """
        with self._lock:
            if self.released:
                return
            self.released = True
            files = list(self._files)
            directory = self._dir
            self._dir = None
        # File deletion and the release trace run outside the lock:
        # delete() can flush into _note_write (which takes the
        # non-reentrant lock), and tracer emission under "spill" would
        # invert the declared lock order.
        for spill in files:
            spill.delete()
        if directory is not None:
            shutil.rmtree(directory, ignore_errors=True)
        with self._lock:
            counts = (self.files_created, self.rows_spilled, self.bytes_spilled)
        if self.tracer is not None and counts[0]:
            self.tracer.event(
                "spill.release",
                files=counts[0],
                rows=counts[1],
                bytes=counts[2],
            )
