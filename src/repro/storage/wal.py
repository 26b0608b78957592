"""Crash-safe durability: a checksummed WAL and atomic checkpoints.

The write-ahead log is the commit point of the transaction layer
(:mod:`repro.txn`): a transaction is durable exactly when its commit
record's ``fsync`` has returned.  The format is deliberately boring —
every record is::

    4-byte big-endian payload length
    4-byte big-endian CRC32 of the payload
    payload: UTF-8 JSON {"txn": id, "epoch": E, "writes": {table: [rows]}}

so replay needs no index and torn tails are self-evident: a record whose
header is short, whose payload is short, or whose CRC mismatches marks
the end of the committed prefix, and :func:`read_wal_records` truncates
the file back to the last good record (re-running recovery is therefore
idempotent — the second pass sees only whole records).

Checkpoints bound replay time.  A checkpoint is one JSON file carrying
the full catalog state (tables, rows, index definitions) plus the epoch
it captured, written to a ``.tmp`` sibling, fsynced, and atomically
installed with ``os.replace`` — a crash at any point leaves either the
old checkpoint or the new one, never a torn hybrid (leftover ``.tmp``
files are swept by :func:`recover`).  The file is::

    {"crc":C,"state":<state as compact, key-sorted JSON>}

with ``C`` the CRC32 of the state's bytes as stored, so silent
corruption is detected rather than loaded.  :func:`capture_state` takes
no row: it records each table's row list and watermark
(:class:`RowCut`), and :func:`write_checkpoint` encodes
``rows[:watermark]`` once, a block of rows per C-encoder call, into the
one serialized copy it writes.  It is the database's only on-disk
format: a durable database (:mod:`repro.txn`) and a saved one
(:mod:`repro.storage.persistence`) both write it, and both open through
:func:`recover` + :func:`apply_state`.

Crash injection rides a single optional hook so the storage layer never
imports the fault machinery: ``crash_hook(point, size, write_partial)``
is called at every named point (``wal.append``, ``wal.fsync``,
``wal.durable``, ``checkpoint.capture``, ``checkpoint.write``,
``checkpoint.fsync``, ``checkpoint.rename``, ``checkpoint.done``).
``checkpoint.capture`` opens the window between the cut and its
encoding, in which commits may land past the watermarks.  The hook may
return ``None`` (continue), raise (a simulated process death, or an
``OSError`` standing in for a failed fsync), or call ``write_partial(k)``
first to leave ``k`` bytes of the pending record behind — a torn write.
"""

from __future__ import annotations

import json
import os
import re
import struct
import zlib
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from repro.common.errors import WalError
from repro.storage.table import Schema

__all__ = [
    "WAL_FILE",
    "CHECKPOINT_FILE",
    "WalRecord",
    "WriteAheadLog",
    "read_wal_records",
    "write_checkpoint",
    "read_checkpoint",
    "recover",
    "RecoveredState",
    "RowCut",
    "capture_state",
    "apply_state",
]

WAL_FILE = "wal.log"
CHECKPOINT_FILE = "checkpoint.json"

#: ``struct`` layout of the record header: payload length, payload CRC32.
_HEADER = struct.Struct(">II")

#: Crash-hook type: ``(point, size, write_partial) -> None``.
CrashHook = Callable[[str, int, Callable[[int], None]], None]


def _no_partial(_k: int) -> None:
    """Placeholder ``write_partial`` for points with no pending bytes."""


@dataclass(frozen=True)
class WalRecord:
    """One committed transaction as logged: id, epoch, staged writes."""

    txn_id: int
    epoch: int
    #: table name -> list of row tuples (JSON-safe values, as stored).
    writes: dict

    def encode(self) -> bytes:
        payload = json.dumps(
            {
                "txn": self.txn_id,
                "epoch": self.epoch,
                "writes": self.writes,
            },
            separators=(",", ":"),
            sort_keys=True,
        ).encode("utf-8")
        return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload

    @classmethod
    def decode_payload(cls, payload: bytes) -> "WalRecord":
        obj = json.loads(payload.decode("utf-8"))
        return cls(
            txn_id=obj["txn"],
            epoch=obj["epoch"],
            writes={
                name: [tuple(row) for row in rows]
                for name, rows in obj["writes"].items()
            },
        )


class WriteAheadLog:
    """Append-only commit log with fsync-at-commit and torn-tail rollback.

    Not thread-safe by itself: the transaction manager serializes appends
    under its epoch lock (the WAL is part of the commit critical section).
    """

    def __init__(self, directory: str, crash_hook: Optional[CrashHook] = None):
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self.path = os.path.join(directory, WAL_FILE)
        self.crash_hook = crash_hook
        self._file = open(self.path, "ab")
        self._poisoned: Optional[str] = None
        self.records_appended = 0
        self.bytes_appended = 0
        self.fsyncs = 0

    # ----------------------------------------------------------------- hooks

    def _hook(self, point: str, record: bytes = b"") -> None:
        if self.crash_hook is None:
            return

        def write_partial(k: int) -> None:
            self._file.write(record[:k])
            self._file.flush()

        self.crash_hook(point, len(record), write_partial)

    # ---------------------------------------------------------------- append

    def append_commit(self, record: WalRecord) -> int:
        """Durably append one commit record; returns its encoded size.

        The record is written, flushed, and fsynced before return — when
        this method returns, the transaction survives a crash.  A failed
        fsync rolls the file back to the pre-append offset so the
        unsynced record can never replay; if even the rollback fails the
        log is poisoned and every further commit refuses with
        :class:`~repro.common.errors.WalError`.
        """
        if self._poisoned is not None:
            raise WalError(
                f"write-ahead log is poisoned ({self._poisoned}); "
                "the database must be re-opened to recover"
            )
        encoded = record.encode()
        start = self._file.tell()
        self._hook("wal.append", encoded)
        try:
            self._file.write(encoded)
            self._file.flush()
            self._hook("wal.fsync", encoded)
            os.fsync(self._file.fileno())
        except OSError as exc:
            try:
                self._file.truncate(start)
                self._file.seek(start)
                self._file.flush()
                os.fsync(self._file.fileno())
            except OSError:
                self._poisoned = f"fsync failed and rollback failed: {exc}"
                raise WalError(self._poisoned) from exc
            raise WalError(f"wal append failed: {exc}") from exc
        self._hook("wal.durable", encoded)
        self.records_appended += 1
        self.bytes_appended += len(encoded)
        self.fsyncs += 1
        return len(encoded)

    def reset(self) -> None:
        """Truncate the log to empty (called after a checkpoint installs)."""
        self._file.truncate(0)
        self._file.seek(0)
        self._file.flush()
        os.fsync(self._file.fileno())

    def close(self) -> None:
        try:
            self._file.close()
        except OSError:
            pass


# ----------------------------------------------------------------- replay


def read_wal_records(path: str) -> tuple[list[WalRecord], int, int]:
    """Parse a WAL file: ``(records, good_bytes, total_bytes)``.

    Stops at the first torn record (short header, short payload, CRC
    mismatch, or undecodable payload): everything before it is the
    committed prefix, everything after is discarded by the caller.
    """
    if not os.path.exists(path):
        return [], 0, 0
    with open(path, "rb") as f:
        data = f.read()
    records: list[WalRecord] = []
    offset = 0
    total = len(data)
    while offset + _HEADER.size <= total:
        length, crc = _HEADER.unpack_from(data, offset)
        start = offset + _HEADER.size
        end = start + length
        if end > total:
            break  # torn payload
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            break  # torn or corrupt record
        try:
            records.append(WalRecord.decode_payload(payload))
        except (ValueError, KeyError):
            break  # checksummed garbage (should not happen; stop anyway)
        offset = end
    return records, offset, total


# ------------------------------------------------------------- checkpoints


def _fsync_directory(directory: str) -> None:
    """Best-effort fsync of a directory entry (not available everywhere)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


#: The encoder of every checkpoint byte: ``json.dumps``' compact,
#: key-sorted form, on the C encoder (tuples are written as arrays).
_ENCODER = json.JSONEncoder(separators=(",", ":"), sort_keys=True)
#: Rows per encoder call: bounds the transient text of one call.
_ROW_BLOCK = 4096
#: The frame up to the state's first byte.  The writer puts no
#: whitespace in it; the reader lets a re-serialized file's through, so
#: its altered state bytes fail the CRC rather than the frame.
_FRAME = re.compile(rb'\{\s*"crc"\s*:\s*(\d+)\s*,\s*"state"\s*:')


def _encode_rows(rows: list, watermark: int) -> Iterator:
    """``rows[:watermark]`` as one JSON array, a block of rows per call."""
    if watermark == 0:
        yield b"[]"
        return
    for start in range(0, watermark, _ROW_BLOCK):
        block = rows[start:min(start + _ROW_BLOCK, watermark)]
        text = _ENCODER.encode(block).encode("ascii")
        # Each block's array brackets are dropped (a view, not a copy);
        # the first and last blocks supply the outer pair.
        yield b"[" if start == 0 else b","
        yield memoryview(text)[1:-1]
    yield b"]"


def _encode_state(obj) -> Iterator:
    """``obj`` in the pieces of ``json.dumps(obj, separators=(",", ":"),
    sort_keys=True)`` — byte-identical once joined — with each
    :class:`RowCut` encoded in place of the row list it cuts."""
    if isinstance(obj, RowCut):
        yield from _encode_rows(obj.rows, obj.watermark)
    elif isinstance(obj, dict):
        yield b"{"
        for i, key in enumerate(sorted(obj)):
            yield (b"," if i else b"") + _ENCODER.encode(key).encode("ascii") + b":"
            yield from _encode_state(obj[key])
        yield b"}"
    else:
        yield _ENCODER.encode(obj).encode("ascii")


def write_checkpoint(
    directory: str,
    state: dict,
    crash_hook: Optional[CrashHook] = None,
) -> int:
    """Atomically install ``state`` as the checkpoint; returns bytes written.

    ``state`` is a :func:`capture_state` cut or a JSON-serializable
    ``{"epoch": E, "tables": {...}}``.  Its rows are encoded once, and
    the pieces written are the only serialized copy.  Temp file + fsync +
    ``os.replace``: a crash at any point leaves the previous checkpoint
    intact or the new one fully installed.
    """

    def hook(point: str, size: int = 0, writer=_no_partial) -> None:
        if crash_hook is not None:
            crash_hook(point, size, writer)

    hook("checkpoint.capture")
    body = list(_encode_state(state))
    crc = 0
    for piece in body:
        crc = zlib.crc32(piece, crc)
    pieces = [b'{"crc":%d,"state":' % crc, *body, b"}"]
    size = sum(len(piece) for piece in pieces)
    final = os.path.join(directory, CHECKPOINT_FILE)
    tmp = final + ".tmp"
    with open(tmp, "wb") as f:

        def write_partial(k: int) -> None:
            for piece in pieces:
                if k <= 0:
                    break
                f.write(piece[:k])
                k -= len(piece)
            f.flush()

        hook("checkpoint.write", size, write_partial)
        f.writelines(pieces)
        f.flush()
        hook("checkpoint.fsync", size)
        os.fsync(f.fileno())
    hook("checkpoint.rename")
    os.replace(tmp, final)
    _fsync_directory(directory)
    hook("checkpoint.done")
    return size


def read_checkpoint(directory: str) -> Optional[dict]:
    """The installed checkpoint's state, or ``None`` when there is none.

    The CRC is checked over the state's bytes as stored, which are then
    parsed once.  A file not framed as :func:`write_checkpoint` frames it,
    or a CRC mismatch, is a hard :class:`~repro.common.errors.WalError`:
    ``os.replace`` is atomic, so a bad file means silent corruption, not a
    crash artifact — loading it would be a wrong-answer bug.
    """
    path = os.path.join(directory, CHECKPOINT_FILE)
    if not os.path.exists(path):
        return None
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as exc:
        raise WalError(f"unreadable checkpoint {path!r}: {exc}") from exc
    frame = _FRAME.match(data)
    if frame is None or not data.endswith(b"}"):
        raise WalError(f"unreadable checkpoint {path!r}: not a framed state")
    body = memoryview(data)[frame.end():-1]
    if zlib.crc32(body) != int(frame.group(1)):
        raise WalError(f"checkpoint checksum mismatch in {path!r}")
    try:
        return json.loads(bytes(body))
    except ValueError as exc:
        raise WalError(f"unreadable checkpoint {path!r}: {exc}") from exc


# ------------------------------------------------------------------ recover


@dataclass
class RecoveredState:
    """Everything recovery-on-open found on disk."""

    checkpoint: Optional[dict]
    records: list = field(default_factory=list)
    truncated_bytes: int = 0
    removed_temp_files: list = field(default_factory=list)


def recover(directory: str) -> RecoveredState:
    """Recovery-on-open: sweep temp files, load the checkpoint, replay
    the committed WAL suffix, truncate the torn tail.

    Records with ``epoch <= checkpoint epoch`` are dropped here (they are
    already folded into the checkpoint), which together with the physical
    truncation makes replay idempotent: running :func:`recover` twice
    yields identical state.
    """
    os.makedirs(directory, exist_ok=True)
    removed = []
    for name in sorted(os.listdir(directory)):
        if ".tmp" in name:
            try:
                os.remove(os.path.join(directory, name))
                removed.append(name)
            except OSError:
                pass
    checkpoint = read_checkpoint(directory)
    base_epoch = checkpoint["epoch"] if checkpoint is not None else 0
    wal_path = os.path.join(directory, WAL_FILE)
    records, good_bytes, total_bytes = read_wal_records(wal_path)
    truncated = total_bytes - good_bytes
    if truncated and os.path.exists(wal_path):
        with open(wal_path, "r+b") as f:
            f.truncate(good_bytes)
            f.flush()
            os.fsync(f.fileno())
    return RecoveredState(
        checkpoint=checkpoint,
        records=[r for r in records if r.epoch > base_epoch],
        truncated_bytes=truncated,
        removed_temp_files=removed,
    )


# ------------------------------------------------------------ catalog state


@dataclass(frozen=True)
class RowCut:
    """A table's rows as of a capture: the first ``watermark`` of ``rows``.

    Tables are append-only (only recovery replaces a row list, under the
    epoch lock at open), so ``rows[:watermark]`` read after the capture,
    outside any lock, is exactly the rows the capture saw.
    """

    rows: list
    watermark: int

    def __len__(self) -> int:
        return self.watermark


def capture_state(catalog, epoch: int) -> dict:
    """The checkpoint body of ``catalog`` at ``epoch``, without its rows.

    Per table: ``[name, type]`` column pairs, the rows as a
    :class:`RowCut` (O(1): no row is read), and the index definitions as
    ``[name, column, kind]`` — the indexes are part of the state because
    the optimizer's plans and validity ranges are computed over them.
    :func:`write_checkpoint` encodes the cut.
    """
    return {
        "epoch": epoch,
        "tables": {
            table.name: {
                "columns": [[c.name, c.dtype.value] for c in table.schema],
                "rows": RowCut(table.rows, len(table.rows)),
                "indexes": [
                    [ix.name, ix.column, "sorted" if ix.supports_range else "hash"]
                    for ix in catalog.indexes_on(table.name)
                ],
            }
            for table in catalog.tables()
        },
    }


def apply_state(catalog, recovered: RecoveredState) -> tuple[int, dict]:
    """Install ``recovered`` into ``catalog``; returns ``(epoch, last_commit)``.

    Creates the tables and indexes the catalog lacks, installs the
    checkpoint's rows (replacing any the catalog held), appends the
    committed WAL suffix, and rebuilds each touched table's indexes once.
    ``last_commit`` maps every touched table to the epoch of its last
    write — the transaction manager's first-committer-wins watermark.
    """
    checkpoint = recovered.checkpoint
    epoch = 0
    last_commit: dict = {}
    if checkpoint is not None:
        epoch = checkpoint["epoch"]
        for name, spec in checkpoint["tables"].items():
            if not catalog.has_table(name):
                catalog.create_table(
                    name, Schema.of(*[tuple(c) for c in spec["columns"]])
                )
            existing = {ix.name for ix in catalog.indexes_on(name)}
            for index_name, column, kind in spec.get("indexes", ()):
                if index_name not in existing:
                    catalog.create_index(index_name, name, column, kind)
            catalog.table(name).rows[:] = [tuple(r) for r in spec["rows"]]
            last_commit[name] = epoch
    for record in recovered.records:
        for name, rows in record.writes.items():
            catalog.table(name).load_raw([tuple(r) for r in rows])
            last_commit[name] = record.epoch
        epoch = max(epoch, record.epoch)
    for name in last_commit:
        catalog.rebuild_indexes(name)
    return epoch, last_commit
