"""Projection, RETURN, and the ECDC anti-join compensation operator."""

from __future__ import annotations

import operator as _operator
from collections import Counter
from typing import Optional

from repro.executor.base import ExecutionContext, Operator
from repro.expr.evaluate import compile_slot_filter
from repro.plan.physical import AntiJoin, Project, Return


class ProjectExec(Operator):
    """Column projection/reordering."""

    def __init__(self, plan: Project, ctx: ExecutionContext, child: Operator):
        super().__init__(plan, ctx)
        self.child = child
        child_layout = plan.children[0].layout
        self._slots = [child_layout.slot(c) for c in plan.columns]
        # Compiled once: one C-level itemgetter call per row instead of
        # rebuilding a generator expression per row.  One slot's getter
        # returns the bare value, which ``zip`` wraps in a 1-tuple.
        self._proj = _operator.itemgetter(*self._slots)
        self._single = len(self._slots) == 1

    def open(self) -> None:
        super().open()
        self.child.open()

    def next_batch(self, max_rows: int) -> Optional[list[tuple]]:
        self.require_open()
        batch = self.child.next_batch(max_rows)
        if batch is None:
            self.finish()
            return None
        if self._single:
            out = list(zip(map(self._proj, batch)))
        else:
            out = list(map(self._proj, batch))
        self.ctx.meter.charge(len(out) * self.ctx.cost_params.cpu_emit)
        return self.emit_batch(out)


class HavingFilterExec(Operator):
    """Evaluates HAVING conjuncts over aggregation output rows."""

    def __init__(self, plan, ctx: ExecutionContext, child: Operator):
        super().__init__(plan, ctx)
        self.child = child
        layout = plan.children[0].layout
        self._keep = compile_slot_filter(
            [(layout.slot(p.column), p.op, p.value) for p in plan.predicates]
        )

    def open(self) -> None:
        super().open()
        self.child.open()

    def next_batch(self, max_rows: int) -> Optional[list[tuple]]:
        self.require_open()
        p = self.ctx.cost_params
        while True:
            batch = self.child.next_batch(max_rows)
            if batch is None:
                self.finish()
                return None
            self.ctx.meter.charge(len(batch) * p.cpu_row)
            out = self._keep(batch)
            if out:
                return self.emit_batch(out)


class ReturnExec(Operator):
    """Root operator: streams rows to the application, honoring LIMIT.

    Counts returned rows in the execution context; the POP driver uses that
    count both to assert that non-compensating flavors never fire after rows
    were pipelined out, and to maintain the ECDC compensation multiset.
    """

    def __init__(self, plan: Return, ctx: ExecutionContext, child: Operator):
        super().__init__(plan, ctx)
        self.child = child

    def open(self) -> None:
        super().open()
        self.child.open()

    def next_batch(self, max_rows: int) -> Optional[list[tuple]]:
        self.require_open()
        want = max_rows
        limit = self.plan.limit
        if limit is not None:
            # Cap the child request at the rows still owed so no row past
            # the limit is ever pulled (downstream CHECK counters depend
            # on it).
            remaining = limit - self.rows_out
            if remaining <= 0:
                self.finish()
                return None
            want = min(want, remaining)
        batch = self.child.next_batch(want)
        if batch is None:
            self.finish()
            return None
        self.ctx.rows_returned += len(batch)
        return self.emit_batch(batch)

    def profile_extras(self) -> dict:
        return {"limit": self.plan.limit}


class AntiJoinExec(Operator):
    """ECDC compensation: multiset-subtract previously returned rows.

    The driver supplies the compensation multiset (a Counter of rows already
    pipelined to the application during earlier execution attempts); each
    matching row consumes one count instead of being emitted, so the final
    result stream is an exact multiset difference (paper §3.3's anti-join on
    the rid side table, value-based here — see DESIGN.md).
    """

    def __init__(self, plan: AntiJoin, ctx: ExecutionContext, child: Operator):
        super().__init__(plan, ctx)
        self.child = child
        self.compensated = 0  #: rows consumed by the compensation multiset
        self.compensation: Counter = getattr(ctx, "compensation", None) or Counter()

    def open(self) -> None:
        super().open()
        self.child.open()

    def next_batch(self, max_rows: int) -> Optional[list[tuple]]:
        self.require_open()
        p = self.ctx.cost_params
        comp = self.compensation
        while True:
            batch = self.child.next_batch(max_rows)
            if batch is None:
                self.finish()
                return None
            self.ctx.meter.charge(len(batch) * p.cpu_hash_probe)
            if comp:
                out = []
                for row in batch:
                    if comp.get(row, 0) > 0:
                        comp[row] -= 1
                        self.compensated += 1
                    else:
                        out.append(row)
            else:
                out = batch
            if out:
                return self.emit_batch(out)

    def profile_extras(self) -> dict:
        return {"compensated_rows": self.compensated}
