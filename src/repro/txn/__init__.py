"""Snapshot transactions and crash-safe durability (MVCC-lite).

Public surface:

* :class:`~repro.txn.manager.TransactionManager` — epochs, snapshots,
  write-sets, first-committer-wins commit, WAL + checkpoint durability,
  recovery-on-open;
* :class:`~repro.txn.manager.Transaction` /
  :class:`~repro.txn.manager.Snapshot` — the handles callers hold;
* :mod:`repro.txn.faults` — seeded crash injection for the durability
  layer (the ``crash`` scenario of ``python -m repro.chaos`` plugs into it).

See ``docs/transactions.md`` for the design.
"""

from repro.txn.manager import Snapshot, Transaction, TransactionManager

__all__ = ["Snapshot", "Transaction", "TransactionManager"]
