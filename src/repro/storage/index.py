"""Secondary indexes over tables.

Two index kinds are modeled:

* :class:`HashIndex` — equality lookups, O(1) probe; used by the executor for
  hash-based index nested-loop joins and point predicates.
* :class:`SortedIndex` — a sorted ``(key, rid)`` array probed with binary
  search; supports range scans and provides an ordering (making index scans a
  source of *interesting orders* for the optimizer, as in System R).  It is
  built as parallel ``keys`` / ``rids`` sequences: the column is taken once
  with ``itemgetter``, the non-NULL rids are sorted with the column as the
  key (a stable sort, so equal keys stay in rid order: exactly the order of
  sorted ``(key, rid)`` pairs), and the keys are read back in that order.

Row ids are stored as 8-byte machine words, an ``array("q")`` (the sorted
index's one rid array, or one per hash bucket), not as a list of ``int``
objects: an entry costs its key pointer and 8 bytes instead of a list slot
plus a 32-byte ``int``.  Keys stay a list, so ``bisect`` keeps its C fast
path.  ``lookup`` and ``range_scan`` return the stored array or a slice of
it; readers index and iterate it like a list.

Both index kinds ignore NULL keys, matching SQL semantics where ``col = x``
never matches NULL.

``rebuild`` publishes its result as a **single attribute assignment** of a
fully built structure.  The transaction layer rebuilds indexes inside the
commit critical section while snapshot readers may be probing concurrently;
atomic publication means a concurrent probe sees either the old structure or
the new one, never a half-built hybrid (a stale probe can at worst return
rids at or above the reader's snapshot watermark, which the snapshot filter
drops).

A published structure is **immutable** and each key's rids are ascending,
so readers keep what ``lookup`` returns without copying.  Incremental
maintenance must copy on write: build the new bucket, then publish it.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
from collections.abc import Sequence
from operator import itemgetter
from typing import Any, Optional

from repro.storage.table import Table


class Index:
    """Common interface of both index kinds."""

    #: set by subclasses
    supports_range = False

    def __init__(self, name: str, table: Table, column: str):
        self.name = name
        self.table = table
        self.column = column
        self._col_pos = table.schema.index_of(column)
        #: What ``rebuild`` last assigned; ``(it, its longest rid list)``.
        self._published: Any = None
        self._fan: Optional[tuple[Any, int]] = None

    def rebuild(self) -> None:
        raise NotImplementedError

    def lookup(self, key: Any) -> Sequence[int]:
        """Rids of rows whose indexed column equals ``key``."""
        raise NotImplementedError

    def max_rids_per_key(self) -> int:
        """The longest rid list ``lookup`` can return (0 when empty), computed
        once per published structure by the first reader to ask — never in
        ``rebuild``, so neither loading nor a commit pays for it."""
        published, cached = self._published, self._fan
        if cached is None or cached[0] is not published:
            cached = self._fan = (published, self._longest_rid_list(published))
        return cached[1]

    @property
    def leaf_pages(self) -> int:
        """Modeled number of leaf pages (for probe costing)."""
        entries_per_page = 256
        return max(1, -(-self.table.row_count // entries_per_page))


class HashIndex(Index):
    """Equality-only index: key -> ``array("q")`` of rids."""

    def __init__(self, name: str, table: Table, column: str):
        super().__init__(name, table, column)
        self.rebuild()

    def rebuild(self) -> None:
        pos = self._col_pos
        buckets: dict[Any, list[int]] = {}
        for rid, row in enumerate(self.table.rows):
            key = row[pos]
            if key is None:
                continue
            buckets.setdefault(key, []).append(rid)
        # Single assignment: concurrent probes see old or new, never partial.
        self._published = {key: array("q", rids) for key, rids in buckets.items()}
        self._fan = None

    def lookup(self, key: Any) -> Sequence[int]:
        if key is None:
            return []
        return self._published.get(key, [])

    def distinct_keys(self) -> int:
        return len(self._published)

    def _longest_rid_list(self, buckets: dict[Any, array]) -> int:
        return max(map(len, buckets.values()), default=0)


class SortedIndex(Index):
    """Sorted-array index supporting equality and range probes."""

    supports_range = True

    def __init__(self, name: str, table: Table, column: str):
        super().__init__(name, table, column)
        self.rebuild()

    def rebuild(self) -> None:
        column = list(map(itemgetter(self._col_pos), self.table.rows))
        if None in column:
            rids = [rid for rid, key in enumerate(column) if key is not None]
        else:
            rids = list(range(len(column)))
        # Stable: equal keys keep rid order, the order of ``(key, rid)`` pairs.
        rids.sort(key=column.__getitem__)
        # Keys and rids are published as one tuple in a single assignment so
        # a concurrent probe never pairs new keys with old rids (or reads a
        # torn keys/rids pair mid-rebuild).
        self._published = (list(map(column.__getitem__, rids)), array("q", rids))
        self._fan = None

    def lookup(self, key: Any) -> Sequence[int]:
        if key is None:
            return []
        keys, rids = self._published
        lo = bisect_left(keys, key)
        return rids[lo:bisect_right(keys, key, lo)]

    def range_scan(
        self,
        low: Any = None,
        high: Any = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> Sequence[int]:
        """Rids with keys in the given (possibly open-ended) range, in key
        order."""
        keys, rids = self._published
        lo = 0
        hi = len(keys)
        if low is not None:
            lo = bisect_left(keys, low) if low_inclusive else bisect_right(keys, low)
        if high is not None:
            hi = bisect_right(keys, high) if high_inclusive else bisect_left(keys, high)
        return rids[lo:hi]

    def _longest_rid_list(self, entries: tuple[list[Any], array]) -> int:
        return max(Counter(entries[0]).values(), default=0)
