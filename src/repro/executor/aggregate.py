"""Hash aggregation (GROUP BY) and DISTINCT."""

from __future__ import annotations

from typing import Any, Optional

from repro.executor.base import ExecutionContext, Operator
from repro.plan.physical import Distinct, GroupBy


class _AggState:
    """Accumulator for one group's aggregates."""

    __slots__ = ("counts", "sums", "mins", "maxs")

    def __init__(self, n: int):
        self.counts = [0] * n
        self.sums: list[Any] = [0] * n
        self.mins: list[Any] = [None] * n
        self.maxs: list[Any] = [None] * n

    def update(self, i: int, value: Any) -> None:
        if value is None:
            return
        self.counts[i] += 1
        self.sums[i] += value if not isinstance(value, str) else 0
        if self.mins[i] is None or value < self.mins[i]:
            self.mins[i] = value
        if self.maxs[i] is None or value > self.maxs[i]:
            self.maxs[i] = value

    def result(self, i: int, func: str) -> Any:
        if func == "count":
            return self.counts[i]
        if self.counts[i] == 0:
            return None
        if func == "sum":
            return self.sums[i]
        if func == "avg":
            return self.sums[i] / self.counts[i]
        if func == "min":
            return self.mins[i]
        if func == "max":
            return self.maxs[i]
        raise ValueError(f"unknown aggregate {func!r}")


class GroupByExec(Operator):
    """Blocking hash aggregation.

    With no group keys, produces exactly one row (scalar aggregation), even
    over empty input — SQL semantics.
    """

    def __init__(self, plan: GroupBy, ctx: ExecutionContext, child: Operator):
        super().__init__(plan, ctx)
        self.child = child
        self._results: Optional[list[tuple]] = None
        self._pos = 0

    def open(self) -> None:
        super().open()
        self.child.open()
        plan = self.plan
        p = self.ctx.cost_params
        child_layout = plan.children[0].layout
        key_slots = [child_layout.slot(k) for k in plan.group_keys]
        agg_slots = [
            None if a.argument is None else child_layout.slot(a.argument)
            for a in plan.aggregates
        ]
        groups: dict[tuple, tuple[_AggState, int]] = {}
        counts_star: dict[tuple, int] = {}
        n_aggs = len(plan.aggregates)
        interruptible = self.ctx.interruptible
        batch_size = self.ctx.batch_size

        def consume(row: tuple) -> None:
            key = tuple(row[s] for s in key_slots)
            state_entry = groups.get(key)
            if state_entry is None:
                state = _AggState(n_aggs)
                groups[key] = (state, 0)
            else:
                state = state_entry[0]
            counts_star[key] = counts_star.get(key, 0) + 1
            for i, slot in enumerate(agg_slots):
                if slot is None:
                    continue
                state.update(i, row[slot])

        while True:
            batch = self.child.next_batch(batch_size)
            if batch is None:
                break
            # Blocking aggregation drain: poll per consumed batch.
            if interruptible:
                self.ctx.check_interrupt()
            self.ctx.meter.charge(len(batch) * p.cpu_agg)
            for row in batch:
                consume(row)
        if not groups and not plan.group_keys:
            groups[()] = (_AggState(n_aggs), 0)
            counts_star[()] = 0
        results = []
        for key, (state, _) in groups.items():
            values = []
            for i, agg in enumerate(plan.aggregates):
                if agg.func == "count" and agg.argument is None:
                    values.append(counts_star[key])
                else:
                    values.append(state.result(i, agg.func))
            self.ctx.meter.charge(p.cpu_emit)
            results.append(key + tuple(values))
        self._results = results
        self._pos = 0

    def next_batch(self, max_rows: int) -> Optional[list[tuple]]:
        self.require_open()
        assert self._results is not None
        results = self._results
        pos = self._pos
        if pos >= len(results):
            self.finish()
            return None
        take = min(max_rows, len(results) - pos)
        self._pos = pos + take
        # Result rows were charged (cpu_emit) when built at open time.
        return self.emit_batch(results[pos:pos + take])

    def profile_extras(self) -> dict:
        return {
            "groups": len(self._results) if self._results is not None else 0,
            "aggregates": len(self.plan.aggregates),
        }


class DistinctExec(Operator):
    """Streaming hash-based duplicate elimination."""

    def __init__(self, plan: Distinct, ctx: ExecutionContext, child: Operator):
        super().__init__(plan, ctx)
        self.child = child
        self._seen: set = set()

    def open(self) -> None:
        super().open()
        self.child.open()
        self._seen = set()

    def close(self) -> None:
        """Release the duplicate-tracking set (idempotent)."""
        super().close()
        self._seen = set()

    def next_batch(self, max_rows: int) -> Optional[list[tuple]]:
        self.require_open()
        p = self.ctx.cost_params
        seen = self._seen
        while True:
            batch = self.child.next_batch(max_rows)
            if batch is None:
                self.finish()
                return None
            self.ctx.meter.charge(len(batch) * p.cpu_hash_probe)
            out = []
            for row in batch:
                if row in seen:
                    continue
                seen.add(row)
                out.append(row)
            if out:
                self.ctx.meter.charge(len(out) * p.cpu_emit)
                return self.emit_batch(out)
            # Duplicate-heavy streams can consume whole batches without an
            # emit; poll so cancellation stays within one batch's work.
            if self.ctx.interruptible:
                self.ctx.check_interrupt()

    def profile_extras(self) -> dict:
        # Captured at first close, before the set above is released.
        return {"distinct_keys": len(self._seen)}
