"""TEMP: materialize the child into a temporary table (paper §3.1).

TEMPs are POP's second kind of materialization point; LCEM inserts
TEMP/CHECK pairs on nested-loop outers, and the rescan NLJN method uses a
TEMP inner so repeated scans read the materialized rows.

Under the memory governor a TEMP whose input outgrows its grant keeps a
grant-sized prefix in memory and overflows the rest to a spill file;
``reset()`` rescans re-read the overflow from disk (each pass charged to
the ``"spill"`` meter category), so NLJN rescans keep working on inputs
that no longer fit.
"""

from __future__ import annotations

from itertools import islice
from typing import Optional

from repro.executor.base import ExecutionContext, Operator
from repro.plan.physical import Temp


class TempExec(Operator):
    """Drains its child at open; streams (and can re-stream) the result."""

    def __init__(self, plan: Temp, ctx: ExecutionContext, child: Operator):
        super().__init__(plan, ctx)
        self.child = child
        self._rows: Optional[list[tuple]] = None
        self._pos = 0
        self.build_complete = False
        self.spilled = False
        self._overflow = None
        self._overflow_iter = None

    def open(self) -> None:
        super().open()
        self.child.open()
        p = self.ctx.cost_params
        if self.ctx.spill_enabled:
            self._open_spilling()
            return
        interruptible = self.ctx.interruptible
        rows: list[tuple] = []
        batch_size = self.ctx.batch_size
        while True:
            batch = self.child.next_batch(batch_size)
            if batch is None:
                break
            # Blocking fill phase: poll per inserted batch.
            if interruptible:
                self.ctx.check_interrupt()
            self.ctx.meter.charge(len(batch) * p.cpu_temp_insert, "temp")
            rows.extend(batch)
        pages = self.ctx.cost_model.pages_for(len(rows))
        if pages > self.ctx.grant_pages(p.temp_mem_pages, "temp"):
            self.ctx.meter.charge(pages * p.io_page, "temp")
        self._rows = rows
        self._pos = 0
        self.build_complete = True

    def _open_spilling(self) -> None:
        """Governed build: grant-sized memory prefix, disk overflow."""
        p = self.ctx.cost_params
        grant = self.ctx.grant_pages(p.temp_mem_pages, "temp")
        capacity = max(1, int(grant * p.rows_per_page))
        interruptible = self.ctx.interruptible
        rows: list[tuple] = []
        batch_size = self.ctx.batch_size
        while True:
            batch = self.child.next_batch(batch_size)
            if batch is None:
                break
            # A cancel mid-overflow must not leak the spill file: raising
            # here unwinds into run_plan's teardown and release_spill.
            if interruptible:
                self.ctx.check_interrupt()
            self.ctx.meter.charge(len(batch) * p.cpu_temp_insert, "temp")
            # Exact capacity split for batches straddling the boundary:
            # the memory prefix holds precisely ``capacity`` rows and the
            # remainder overflows, whatever the batch width (the PR-5
            # off-by-one bug class).
            room = capacity - len(rows)
            if room >= len(batch):
                rows.extend(batch)
                continue
            if room > 0:
                rows.extend(batch[:room])
            overflow = batch[room:] if room > 0 else batch
            if self._overflow is None:
                self._overflow = self.ctx.spill.create("temp", "temp-overflow")
                self.spilled = True
            self._overflow.append_batch(overflow)
        self._rows = rows
        self._pos = 0
        self.build_complete = True

    def reset(self) -> None:
        """Restart iteration over the materialized rows (NLJN rescans)."""
        self._pos = 0
        self._overflow_iter = None

    def next_batch(self, max_rows: int) -> Optional[list[tuple]]:
        self.require_open()
        assert self._rows is not None
        rows = self._rows
        pos = self._pos
        if pos < len(rows):
            take = min(max_rows, len(rows) - pos)
            self._pos = pos + take
            self.ctx.meter.charge(
                take * self.ctx.cost_params.cpu_temp_scan, "temp"
            )
            return self.emit_batch(rows[pos:pos + take])
        if self._overflow is not None:
            if self._overflow_iter is None:
                self._overflow_iter = self._overflow.rows()
            out = list(islice(self._overflow_iter, max_rows))
            if out:
                self.ctx.meter.charge(
                    len(out) * self.ctx.cost_params.cpu_temp_scan, "temp"
                )
                return self.emit_batch(out)
        self.finish()
        return None

    @property
    def materialized_rows(self) -> Optional[list[tuple]]:
        if self.spilled:
            return None
        return self._rows if self.build_complete else None

    @property
    def materialized_count(self) -> Optional[int]:
        if not self.build_complete:
            return None
        overflow = self._overflow.row_count if self._overflow is not None else 0
        return len(self._rows) + overflow

    def profile_extras(self) -> dict:
        return {
            "build_complete": self.build_complete,
            "spilled": self.spilled,
            "in_memory_rows": len(self._rows) if self._rows is not None else 0,
            "overflow_rows": (
                self._overflow.row_count if self._overflow is not None else 0
            ),
        }
