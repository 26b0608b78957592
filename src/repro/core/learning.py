"""Cross-query cardinality learning (paper §7, "Learning for the Future").

The paper notes POP only helps the statement currently executing and
proposes combining it with LEO-style learning [SLM+01]: cardinalities
observed at runtime should also correct *future* statements.  This module
implements that extension: a :class:`LearnedCardinalities` store owned by
the :class:`~repro.core.database.Database` accumulates exact observations
across statements, and the POP driver seeds each statement's feedback from
it.

Safety rules:

* Only edges whose predicates are fully literal are learned.  A parameter
  marker's ``pred_id`` is bind-value-independent, so persisting its observed
  cardinality would leak one bind's cardinality into executions with
  different bind values.
* An entry is keyed by the ``(alias, table)`` pairs of its edge, not by the
  aliases alone, and seeds only a statement in which every pair occurs: the
  alias ``a`` of one statement may name another table in the next.
* Entries of a table are dropped when its rows, indexes or statistics change
  (``Database`` calls :meth:`LearnedCardinalities.forget` from the same
  invalidation path as the plan cache's).
"""

from __future__ import annotations

import threading
from typing import Iterable, Optional

from repro.core.feedback import CardinalityFeedback
from repro.plan.logical import Query


def _table_of(query: Query) -> dict:
    """``query``'s aliases and the table each one names."""
    return {ref.alias: ref.table for ref in query.tables}


class LearnedCardinalities:
    """A persistent, marker-safe cardinality store shared across statements."""

    def __init__(self) -> None:
        #: (frozenset of (alias, table) pairs, frozenset of predicate ids)
        #: -> exact cardinality.
        self._store: dict = {}
        self.statements_learned_from = 0
        # Guards both fields above.  A leaf lock: nothing else is acquired
        # while it is held, so it is not in the repo lock order.
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._store)

    def seed(self, query: Query) -> CardinalityFeedback:
        """A fresh feedback store for ``query``, pre-loaded with the entries
        whose ``(alias, table)`` pairs all occur in it."""
        pairs = set(_table_of(query).items())
        with self._lock:
            entries = [
                (key, card) for key, card in self._store.items() if key[0] <= pairs
            ]
        feedback = CardinalityFeedback()
        for (edge, predicate_ids), card in entries:
            aliases = frozenset(alias for alias, _table in edge)
            feedback.record((aliases, predicate_ids), card, exact=True)
        return feedback

    def absorb(self, query: Query, feedback: CardinalityFeedback) -> int:
        """Learn the exact, marker-free observations of one run of ``query``.

        Returns how many edges were learned.
        """
        table_of = _table_of(query)
        learned = {}
        for (aliases, predicate_ids), entry in feedback.snapshot().items():
            if not entry.exact:
                continue  # lower bounds are bind-specific runtime facts
            if any("?" in pred_id for pred_id in predicate_ids):
                continue
            edge = frozenset((alias, table_of[alias]) for alias in aliases)
            learned[(edge, predicate_ids)] = entry.cardinality
        if learned:
            with self._lock:
                self._store.update(learned)
                self.statements_learned_from += 1
        return len(learned)

    def forget(self, tables: Optional[Iterable[str]] = None) -> None:
        """Drop the entries that read any of ``tables`` (everything when
        ``None``, e.g. after RUNSTATS over every table)."""
        with self._lock:
            if tables is None:
                self._store.clear()
                self.statements_learned_from = 0
                return
            dropped = set(tables)
            self._store = {
                key: card
                for key, card in self._store.items()
                if not any(table in dropped for _alias, table in key[0])
            }
