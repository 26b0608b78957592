"""Saving and loading whole databases.

A saved database is the transaction layer's checkpoint
(:mod:`repro.storage.wal`): one CRC-checked JSON file carrying every
table's columns, rows and index definitions, installed atomically (temp
file + fsync + ``os.replace``), so a crash mid-save leaves the previous
save intact.  All value types round-trip exactly: INT/FLOAT/STR natively,
DATE as its day number, NULL as JSON ``null``.  Statistics are
re-collected on load (they derive from the data).

There is one format, so either entry point reads the other's directory:
:func:`load_database` opens a durable database's directory (checkpoint
plus committed WAL suffix) exactly as recovery does, and
``Database.enable_transactions(path=...)`` on a saved directory recovers
its tables and indexes.
"""

from __future__ import annotations

import os

from repro.common.errors import ReproError
from repro.core.database import Database
from repro.storage.wal import (
    CHECKPOINT_FILE,
    WAL_FILE,
    apply_state,
    capture_state,
    recover,
    write_checkpoint,
)


class PersistenceError(ReproError):
    """The on-disk database is missing, or the target directory is unsafe."""


def save_database(db: Database, path: str) -> None:
    """Write ``db``'s tables, rows and indexes under directory ``path``.

    Refuses a directory whose write-ahead log holds records: those belong
    to a durable database, and a checkpoint written beside them would be
    out of step with the log it is meant to fold.
    """
    wal_path = os.path.join(path, WAL_FILE)
    if os.path.exists(wal_path) and os.path.getsize(wal_path) > 0:
        raise PersistenceError(
            f"{path!r} holds a non-empty write-ahead log; "
            "save to another directory"
        )
    os.makedirs(path, exist_ok=True)
    epoch = db.txn_manager.epoch if db.txn_manager is not None else 0
    write_checkpoint(path, capture_state(db.catalog, epoch))


def load_database(path: str, runstats: bool = True) -> Database:
    """Open the database under ``path`` as recovery does, then RUNSTATS.

    Reads a :func:`save_database` directory or a durable database's
    directory (its committed WAL suffix included).  A directory without a
    checkpoint raises :class:`PersistenceError`; a corrupt checkpoint
    raises :class:`~repro.common.errors.WalError`.
    """
    if not os.path.exists(os.path.join(path, CHECKPOINT_FILE)):
        raise PersistenceError(
            f"no database found at {path!r} (no {CHECKPOINT_FILE})"
        )
    database = Database()
    apply_state(database.catalog, recover(path))
    if runstats:
        database.runstats()
    return database
