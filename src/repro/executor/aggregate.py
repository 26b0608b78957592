"""Hash aggregation (GROUP BY) and DISTINCT."""

from __future__ import annotations

from operator import itemgetter
from typing import Optional

from repro.executor.base import ExecutionContext, Operator
from repro.expr.evaluate import kernel_code
from repro.plan.physical import Distinct, GroupBy


def _count_star_kernel(key_slots: list[int]):
    """Aggregation with no aggregate but ``count(*)``: the group table maps
    a key straight to its row count, one dict increment per row."""
    if not key_slots:

        def fold(batch: list[tuple], groups: dict) -> None:
            groups[()] = groups.get((), 0) + len(batch)

    else:
        key_of = itemgetter(*key_slots)

        def fold(batch: list[tuple], groups: dict) -> None:
            get = groups.get
            for key in map(key_of, batch):
                groups[key] = get(key, 0) + 1

    return fold, 0


def _aggregation_kernel(key_slots: list[int], aggregates: list[tuple[str, Optional[int]]]):
    """Compile the aggregation loop for one GROUP BY node.

    ``aggregates`` lists ``(func, argument slot)``, ``None`` standing for
    ``*``.  Returns ``(fold, initial, values)``: ``fold(batch,
    groups)`` folds a batch into the group table (insertion order is
    first-seen order), a new group's state is a copy of ``initial``, and
    ``values(state)`` is the tuple of aggregate results.  A group's state is
    one flat list holding only what some aggregate asks for: the row count
    for ``count(*)``, per argument column the non-NULL count and, for
    ``sum``/``avg``, the running sum, and a ``min``/``max`` cell only where
    that function appears.  NULL arguments are skipped, and every aggregate
    but ``count`` is NULL over a group with no non-NULL argument.
    """
    if all(slot is None for _, slot in aggregates):
        fold, initial = _count_star_kernel(key_slots)
        return fold, initial, lambda n: (n,) * len(aggregates)

    initial: list = []
    cells: dict[tuple[str, Optional[int]], str] = {}
    updates: dict[int, list[str]] = {}

    def cell(kind: str, slot: Optional[int], start, update: str = "") -> str:
        """The state cell for ``(kind, slot)``, added — with the line that
        maintains it per non-NULL value ``v`` — on first use."""
        if (kind, slot) not in cells:
            cells[kind, slot] = name = f"st[{len(initial)}]"
            initial.append(start)
            if update:
                updates.setdefault(slot, []).append(update.format(c=name))
        return cells[kind, slot]

    values: list[str] = []
    for func, slot in aggregates:
        if slot is None:
            values.append(cell("rows", None, 0))
        elif func in ("min", "max"):
            test = "<" if func == "min" else ">"
            values.append(
                cell(func, slot, None, f"if {{c}} is None or v {test} {{c}}: {{c}} = v")
            )
        elif func in ("count", "sum", "avg"):
            count = cell("count", slot, 0, "{c} += 1")
            if func == "count":
                values.append(count)
                continue
            # Strings count but add nothing (a text column sums to 0).
            total = cell("sum", slot, 0, "if v.__class__ is not str: {c} += v")
            quotient = total if func == "sum" else f"{total} / {count}"
            values.append(f"({quotient} if {count} else None)")
        else:
            raise ValueError(f"unknown aggregate {func!r}")

    body = [f"{cells['rows', None]} += 1"] if ("rows", None) in cells else []
    for slot, lines in updates.items():
        body += [f"v = row[{slot}]", "if v is not None:"]
        body += ["    " + line for line in lines]
    if key_slots:
        head = [
            "def fold(batch, groups):",
            "    get = groups.get",
            "    for key, row in zip(map(key_of, batch), batch):",
            "        st = get(key)",
            "        if st is None:",
            "            st = groups[key] = initial.copy()",
        ]
    else:
        head = [
            "def fold(batch, groups):",
            "    st = groups.get(())",
            "    if st is None:",
            "        st = groups[()] = initial.copy()",
            "    for row in batch:",
        ]
    source = "\n".join(head + ["        " + line for line in body])
    source += "\ndef values(st):\n    return (" + ", ".join(values) + ",)\n"
    namespace = {
        "initial": initial,
        "key_of": itemgetter(*key_slots) if key_slots else None,
    }
    exec(kernel_code(source, "exec"), namespace)
    # Popped, so the namespace (the functions' globals) does not hold them
    # back: no reference cycle is left for the collector.
    return namespace.pop("fold"), initial, namespace.pop("values")


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
        fold, initial, values = _aggregation_kernel(
            key_slots,
            [
                (a.func, None if a.argument is None else child_layout.slot(a.argument))
                for a in plan.aggregates
            ],
        )
        groups: dict = {}
        interruptible = self.ctx.interruptible
        batch_size = self.ctx.batch_size
        while True:
            batch = self.child.next_batch(batch_size)
            if batch is None:
                break
            # Blocking aggregation drain: poll per consumed batch.
            if interruptible:
                self.ctx.check_interrupt()
            self.ctx.meter.charge(len(batch) * p.cpu_agg)
            fold(batch, groups)
        if not groups and not key_slots:
            groups[()] = initial
        # ``itemgetter`` over one slot yields the bare value, not a 1-tuple.
        scalar_key = len(key_slots) == 1
        results = []
        for key, state in groups.items():
            self.ctx.meter.charge(p.cpu_emit)
            results.append(((key,) if scalar_key else key) + values(state))
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
