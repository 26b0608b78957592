"""CHECK and BUFCHECK: the paper's checkpoint operators (Fig. 10).

CHECK has no relational semantics.  It counts rows from its child and raises
:class:`ReoptimizationSignal` when the count leaves the check range:

* ``count > high`` — raised immediately (the cardinality is already proven
  too large; ``observed`` is a lower bound unless the child also hit EOF);
* ``count < low`` at end-of-stream — raised with an exact cardinality.

Above a materialization point, checking collapses to a single evaluation
after the materialization completes (the paper's optimization), because the
child's full count is already known when ``open`` returns.

BUFCHECK implements ECB's valve: rows are buffered until the check's fate is
decided, so no row escapes to the parent before a potential
re-optimization — that is what makes ECB safe in pipelined plans.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.executor.base import (
    CheckpointEvent,
    ExecutionContext,
    Operator,
    ReoptimizationSignal,
)
from repro.plan.physical import BufCheck, Check


class CheckExec(Operator):
    """The plain CHECK operator (LC / LCEM / ECWC / ECDC flavors)."""

    def __init__(self, plan: Check, ctx: ExecutionContext, child: Operator):
        super().__init__(plan, ctx)
        self.child = child
        self.count = 0
        self._evaluated_once = False
        self._forced = False

    def open(self) -> None:
        super().open()
        self.child.open()
        self.count = 0
        self._evaluated_once = False
        self._forced = self.plan.op_id in self.ctx.force_trigger_op_ids
        # Materialization-point optimization: the child already knows its
        # exact cardinality — evaluate the check once, right now.
        mat = self.child.materialized_rows
        if mat is not None:
            self.count = len(mat)
            self._evaluate(complete=True)
            self._evaluated_once = True

    def reset(self) -> None:
        """Restart iteration when checking a rescanned TEMP (NLJN inner).

        The check itself already evaluated once when the materialization
        completed (``open``); rescans are pass-through.
        """
        self.child.reset()  # type: ignore[attr-defined]
        self._evaluated_once = True

    @property
    def can_still_evaluate(self) -> bool:
        """Whether a pull through this CHECK may still log an event or raise:
        it has not evaluated yet."""
        return not self._evaluated_once

    def _evaluate(self, complete: bool) -> None:
        rng = self.plan.check_range
        triggered = self.count > rng.high or (complete and self.count < rng.low)
        if self._forced:
            triggered = True
        self.ctx.log_checkpoint(
            CheckpointEvent(
                op_id=self.plan.op_id or -1,
                flavor=self.plan.flavor,
                observed=self.count,
                low=rng.low,
                high=rng.high,
                complete=complete,
                units_at_event=self.ctx.meter.snapshot(),
                triggered=triggered,
            )
        )
        if triggered and not self.ctx.dry_run_checks:
            raise ReoptimizationSignal(self.plan, self.count, complete)

    def next_batch(self, max_rows: int) -> Optional[list[tuple]]:
        """Batch drain with row-exact CHECK semantics.

        The counter advances by individual rows and the mid-stream
        evaluation happens at the first count above ``high``, so
        ``observed`` — and with it the harvested feedback and any
        re-optimized plan — does not depend on batch width.  To keep the
        *child's* emitted-row counter width-independent too (it feeds the
        same edge's lower bound at harvest time), the child request is
        capped at the rows remaining until the range can first be
        violated: the child stops at exactly the crossing row.  Interrupt
        polls happen once per batch.
        """
        self.require_open()
        # CHECK points are the plan's designated reactive sites (paper §3):
        # the same place a cardinality violation is detected is where a
        # cancel or wall-clock deadline is honored.
        if self.ctx.interruptible:
            self.ctx.check_interrupt()
        want = max_rows
        armed = not self._evaluated_once
        rng = self.plan.check_range
        if armed and rng.high != math.inf:
            # Rows until the count first exceeds ``high`` (>= 1 here, since
            # count <= high whenever the mid-stream evaluation is armed).
            want = min(want, math.floor(rng.high) + 1 - self.count)
        batch = self.child.next_batch(want)
        p = self.ctx.cost_params
        if batch is None:
            self.ctx.meter.charge(p.cpu_check, "check")
            self.finish()
            if armed:
                self._evaluate(complete=True)
                self._evaluated_once = True
            return None
        n = len(batch)
        self.ctx.meter.charge(n * p.cpu_check, "check")
        if armed:
            # Once evaluated the count is final, what the event logged:
            # rows streamed after an evaluation at ``open`` add nothing.
            self.count += n
            if self.count > rng.high:
                self._evaluate(complete=False)
                self._evaluated_once = True  # dry-run mode: log only once
        return self.emit_batch(batch)

    def profile_extras(self) -> dict:
        return {
            "flavor": self.plan.flavor,
            "observed": self.count,
            "evaluated": self._evaluated_once,
        }


class BufCheckExec(Operator):
    """The buffered CHECK of ECB (paper Fig. 8 / Fig. 10 right column)."""

    def __init__(self, plan: BufCheck, ctx: ExecutionContext, child: Operator):
        super().__init__(plan, ctx)
        self.child = child
        self._buffer: list[tuple] = []
        self._pos = 0
        self._decided = False
        self._child_eof = False

    def open(self) -> None:
        super().open()
        self.child.open()
        p = self.ctx.cost_params
        rng = self.plan.check_range
        forced = self.plan.op_id in self.ctx.force_trigger_op_ids
        self._buffer = []
        self._pos = 0
        self._child_eof = False
        # Fill the valve until the check's outcome is certain.  The child
        # is pulled through ``next_batch(1)``: single-row batches keep the
        # child's emitted-row counter (which feeds cardinality harvesting)
        # exactly demand-driven — no row past the verdict is ever pulled.
        count = 0
        triggered = False
        complete = False
        while True:
            if count > rng.high:
                triggered = True
                break
            if count >= rng.low and rng.high == float("inf") and count >= self.plan.buffer_size:
                break  # low bound satisfied, no upper bound to violate
            if count >= self.plan.buffer_size and count <= rng.high:
                # Buffer exhausted without a verdict; optimistically succeed
                # and continue pipelined (the ECB "morphs into" streaming).
                break
            one = self.child.next_batch(1)
            self.ctx.meter.charge(p.cpu_check + p.cpu_temp_insert, "check")
            if one is None:
                self._child_eof = True
                complete = True
                triggered = count < rng.low
                break
            self._buffer.append(one[0])
            count += 1
        if forced:
            triggered = True
        self.ctx.log_checkpoint(
            CheckpointEvent(
                op_id=self.plan.op_id or -1,
                flavor="ECB",
                observed=count,
                low=rng.low,
                high=rng.high,
                complete=complete,
                units_at_event=self.ctx.meter.snapshot(),
                triggered=triggered,
            )
        )
        if triggered and not self.ctx.dry_run_checks:
            raise ReoptimizationSignal(self.plan, count, complete)
        self._decided = True

    def next_batch(self, max_rows: int) -> Optional[list[tuple]]:
        self.require_open()
        p = self.ctx.cost_params
        buf = self._buffer
        if self._pos < len(buf):
            take = min(max_rows, len(buf) - self._pos)
            out = buf[self._pos:self._pos + take]
            self._pos += take
            self.ctx.meter.charge(take * p.cpu_temp_scan, "check")
            return self.emit_batch(out)
        if self._child_eof:
            self.finish()
            return None
        batch = self.child.next_batch(max_rows)
        if batch is None:
            self.ctx.meter.charge(p.cpu_check, "check")
            self._child_eof = True
            self.finish()
            return None
        self.ctx.meter.charge(len(batch) * p.cpu_check, "check")
        return self.emit_batch(batch)

    def profile_extras(self) -> dict:
        return {
            "flavor": "ECB",
            "buffered_rows": len(self._buffer),
            "decided": self._decided,
        }
