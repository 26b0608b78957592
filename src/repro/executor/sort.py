"""SORT: the canonical materialization point (paper §3.1).

Two execution modes:

* **In-memory** (the default, and the only mode without a
  :class:`~repro.core.config.MemoryPolicy`): drain, sort, stream — the
  fully built result is promotable to a temp MV.
* **External merge** (memory governor active): rows are collected into
  grant-sized runs, each run sorted and spilled through
  :mod:`repro.storage.spill`, and the output is a k-way merge of the run
  files.  The merge is stable across runs in arrival order, so the output
  ordering is *identical* to the in-memory stable sort — degradation
  changes cost, never answers.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from itertools import chain, islice
from operator import itemgetter
from typing import Iterator, Optional

from repro.executor.base import ExecutionContext, Operator
from repro.expr.evaluate import kernel_code
from repro.plan.physical import Sort


class _Reversed:
    """Inverts comparisons, so descending keys compose into one ascending
    composite key (usable by both ``sorted`` and ``bisect``)."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __lt__(self, other):
        return other.value < self.value

    def __eq__(self, other):
        return other.value == self.value


def _composite_key(slots: list[int], ascending: list[bool]):
    """One ``row -> key`` function ordering rows by every sort column at
    once: per column a ``(is NULL, value)`` pair (NULL after every value,
    and values never compared with ``None``), wrapped in :class:`_Reversed`
    where the column sorts descending.  Generated as one tuple expression."""
    parts = []
    for slot, asc in zip(slots, ascending):
        pair = f"(row[{slot}] is None, row[{slot}])"
        parts.append(pair if asc else f"_Reversed({pair})")
    source = "lambda row: (" + ", ".join(parts) + ",)"
    return eval(kernel_code(source, "eval"), {"_Reversed": _Reversed})


def _merge_blocks(runs: list, key) -> Iterator[list[tuple]]:
    """Stable k-way merge of sorted runs, a block at a time.

    Each run is an iterable of lists (blocks), sorted by ``key`` across
    the whole run.  Each round takes as its bound the smallest last key
    of the runs' current blocks; the first run holding that key is the
    bound run.  Every block is cut at the bound — rows ``<=`` it from the
    bound run and the runs before it (``bisect_right``), rows ``<`` it
    from the runs after it (``bisect_left``), whose equal keys may still
    follow in the bound run's next block.  The cut rows, concatenated in
    run order, go through one stable sort (on the keys computed when
    their block was read) and are yielded.  Ties thus come out in run
    order, then in order within a run, as from ``heapq.merge(*runs,
    key=key)``.  Every round uses up the bound run's block, and a run's
    next block is read only when the round that needs it starts.
    """
    # One [blocks, rows, keys, pos] entry per run still holding rows, in
    # run order.
    live = [[iter(blocks), [], [], 0] for blocks in runs]
    while True:
        for entry in live:
            if entry[3] == len(entry[1]):
                for rows in entry[0]:
                    if rows:
                        entry[1], entry[2], entry[3] = rows, list(map(key, rows)), 0
                        break
                else:
                    entry[1] = None
        live = [entry for entry in live if entry[1] is not None]
        if not live:
            return
        bound_run, bound = 0, live[0][2][-1]
        for i in range(1, len(live)):
            last = live[i][2][-1]
            if last < bound:
                bound_run, bound = i, last
        out: list[tuple] = []
        out_keys: list = []
        for i, entry in enumerate(live):
            rows, keys, pos = entry[1], entry[2], entry[3]
            cut = (bisect_right if i <= bound_run else bisect_left)(keys, bound, pos)
            out += rows[pos:cut]
            out_keys += keys[pos:cut]
            entry[3] = cut
        order = sorted(range(len(out)), key=out_keys.__getitem__)
        yield list(map(out.__getitem__, order))


def _sort_in_place(rows: list[tuple], slots: list[int], ascending: list[bool]) -> bool:
    """Stable multi-key sort honoring per-key direction: one pass per key,
    least significant first.  A column holding no NULL sorts on the bare
    C-level ``itemgetter``; one that does sorts through the ``(is NULL,
    value)`` pair, NULL after every value.  The rows come out in the order
    of a stable sort on :func:`_composite_key` (a descending pass with
    ``reverse=True`` keeps ties in input order).  Returns whether any key
    column held a NULL."""
    saw_null = False
    for slot, asc in reversed(list(zip(slots, ascending))):
        column = itemgetter(slot)
        if None in map(column, rows):
            saw_null = True
            rows.sort(key=lambda r, s=slot: (r[s] is None, r[s]), reverse=not asc)
        else:
            rows.sort(key=column, reverse=not asc)
    return saw_null


class SortExec(Operator):
    """Drains its child at open, sorts, then streams the sorted rows.

    When the build fits its grant, the fully built result is exposed
    through :attr:`materialized_rows`, so POP can promote it to a temp MV
    when a checkpoint fires later in the plan (paper §2.3).  A spilled
    sort exposes nothing — its rows live in run files, not memory.
    """

    def __init__(self, plan: Sort, ctx: ExecutionContext, child: Operator):
        super().__init__(plan, ctx)
        self.child = child
        self._rows: Optional[list[tuple]] = None
        self._pos = 0
        self._count = 0
        self.build_complete = False
        self.spilled = False
        self._merge = None

    def open(self) -> None:
        super().open()
        self.child.open()
        if self.ctx.spill_enabled:
            self._open_external()
            return
        p = self.ctx.cost_params
        interruptible = self.ctx.interruptible
        rows: list[tuple] = []
        batch_size = self.ctx.batch_size
        while True:
            batch = self.child.next_batch(batch_size)
            if batch is None:
                break
            rows.extend(batch)
            # Blocking build phase: no row reaches emit_batch() until the
            # drain finishes, so poll the interrupt sources here.
            if interruptible:
                self.ctx.check_interrupt()
        slots = [self.plan.layout.slot(k) for k in self.plan.keys]
        _sort_in_place(rows, slots, self.plan.ascending)
        n = len(rows)
        if n:
            self.ctx.meter.charge(n * max(1.0, math.log2(n + 1)) * p.cpu_sort, "sort")
            pages = self.ctx.cost_model.pages_for(n)
            grant = self.ctx.grant_pages(p.sort_mem_pages, "sort")
            if pages > grant:
                passes = math.ceil(math.log(pages / grant, 8)) + 1
                self.ctx.meter.charge(2.0 * pages * p.io_page * passes, "sort")
        self._rows = rows
        self._count = n
        self._pos = 0
        self.build_complete = True

    def _open_external(self) -> None:
        """Governed build: grant-sized runs, spilled, k-way merged."""
        p = self.ctx.cost_params
        grant = self.ctx.grant_pages(p.sort_mem_pages, "sort")
        capacity = max(1, int(grant * p.rows_per_page))
        slots = [self.plan.layout.slot(k) for k in self.plan.keys]
        ascending = self.plan.ascending
        interruptible = self.ctx.interruptible
        runs = []
        saw_null = False
        buf: list[tuple] = []
        n = 0
        batch_size = self.ctx.batch_size
        while True:
            batch = self.child.next_batch(batch_size)
            if batch is None:
                break
            # Cancellation during the spilling build is the hard case this
            # poll exists for: the run files created below are torn down
            # by run_plan's finally (close + release_spill) when it raises.
            if interruptible:
                self.ctx.check_interrupt()
            pos = 0
            while pos < len(batch):
                # Flush before filling: run boundaries fall on the same
                # input ordinals however the batch straddles the capacity,
                # and a flush happens only when another row actually
                # arrives — an input that exactly fills the grant stays in
                # memory.
                if len(buf) >= capacity:
                    saw_null |= _sort_in_place(buf, slots, ascending)
                    runs.append(
                        self.ctx.spill.spill_rows(
                            "sort", buf, f"sort-run-{len(runs)}"
                        )
                    )
                    buf = []
                take = capacity - len(buf)
                buf += batch[pos:pos + take]
                pos += take
            n += len(batch)
        if n:
            self.ctx.meter.charge(n * max(1.0, math.log2(n + 1)) * p.cpu_sort, "sort")
        saw_null |= _sort_in_place(buf, slots, ascending)
        if runs:
            if buf:
                runs.append(self.ctx.spill.spill_rows("sort", buf, "sort-run-final"))
            # Every run is in composite-key order, and the merge is stable
            # across runs in arrival order, so the merged stream equals the
            # in-memory stable sort row for row.  With no NULL key and every
            # key ascending, the bare key columns order rows exactly as the
            # composite key does.
            if saw_null or not all(ascending):
                key = _composite_key(slots, ascending)
            else:
                key = itemgetter(*slots)
            self.spilled = True
            self._merge = chain.from_iterable(
                _merge_blocks([run.batches() for run in runs], key)
            )
        else:
            self._rows = buf
        self._count = n
        self._pos = 0
        self.build_complete = True

    def next_batch(self, max_rows: int) -> Optional[list[tuple]]:
        self.require_open()
        if self._merge is not None:
            out = list(islice(self._merge, max_rows))
            if not out:
                self.finish()
                return None
            return self.emit_batch(out)
        assert self._rows is not None
        rows = self._rows
        pos = self._pos
        if pos >= len(rows):
            self.finish()
            return None
        take = min(max_rows, len(rows) - pos)
        self._pos = pos + take
        # No per-row serve charge: the sort cost was charged in full at
        # build time.
        return self.emit_batch(rows[pos:pos + take])

    @property
    def materialized_rows(self) -> Optional[list[tuple]]:
        if self.spilled:
            return None
        return self._rows if self.build_complete else None

    @property
    def materialized_count(self) -> Optional[int]:
        return self._count if self.build_complete else None

    def profile_extras(self) -> dict:
        return {
            "build_complete": self.build_complete,
            "spilled": self.spilled,
            "in_memory_rows": len(self._rows) if self._rows is not None else 0,
        }
