"""Hash aggregation (GROUP BY) and DISTINCT."""

from __future__ import annotations

from operator import itemgetter
from typing import Optional

from repro.executor.base import ExecutionContext, Operator
from repro.executor.joins import HashJoinExec
from repro.expr.evaluate import kernel_code
from repro.plan.physical import Distinct, GroupBy

#: How a state cell folds one non-NULL argument value ``v`` (``{c}``: the
#: cell).  Strings count but add nothing (a text column sums to 0).
_UPDATE = {
    "count": ["{c} += 1"],
    "sum": ["if v.__class__ is not str: {c} += v"],
    "min": ["if {c} is None or v < {c}: {c} = v"],
    "max": ["if {c} is None or v > {c}: {c} = v"],
}
#: The same for a probe-row value ``v`` repeated over the ``k`` rows of its
#: ``matches``: a sum still adds it once per row, in row order.
_UPDATE_REPEATED = dict(
    _UPDATE,
    count=["{c} += k"],
    sum=["if v.__class__ is not str:", "    for _ in matches: {c} += v"],
)


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


def _state_layout(aggregates: list[tuple[str, Optional[int]]]):
    """The flat group state of one GROUP BY node: ``(initial, cells,
    values)``.  ``cells`` lists ``(kind, argument slot, source name)`` in
    state order, the row count for ``count(*)`` as kind ``"rows"``;
    ``values`` is the source of each aggregate's result."""
    initial: list = []
    cells: dict[tuple[str, Optional[int]], str] = {}

    def cell(kind: str, slot: Optional[int], start) -> str:
        """The state cell for ``(kind, slot)``, added on first use."""
        if (kind, slot) not in cells:
            cells[kind, slot] = f"st[{len(initial)}]"
            initial.append(start)
        return cells[kind, slot]

    values: list[str] = []
    for func, slot in aggregates:
        if slot is None:
            values.append(cell("rows", None, 0))
        elif func in ("min", "max"):
            values.append(cell(func, slot, None))
        elif func in ("count", "sum", "avg"):
            count = cell("count", slot, 0)
            if func == "count":
                values.append(count)
                continue
            total = cell("sum", slot, 0)
            quotient = total if func == "sum" else f"{total} / {count}"
            values.append(f"({quotient} if {count} else None)")
        else:
            raise ValueError(f"unknown aggregate {func!r}")
    layout = [(kind, slot, name) for (kind, slot), name in cells.items()]
    return initial, layout, values


def _fold_lines(cells, column, slots=None, update=_UPDATE) -> list[str]:
    """Per argument slot (of ``slots``, default all): ``v = column(slot)``
    and, when it is not NULL, the update of each of its cells."""
    per_slot: dict[int, list[str]] = {}
    for kind, slot, name in cells:
        if slot is not None and (slots is None or slot in slots):
            lines = per_slot.setdefault(slot, [])
            lines += [line.format(c=name) for line in update[kind]]
    lines = []
    for slot, updates in per_slot.items():
        lines += [f"v = {column(slot)}", "if v is not None:"]
        lines += ["    " + line for line in updates]
    return lines


def _compile_fold(source: str, initial, values: Optional[list[str]], key_of):
    """``exec`` a fold's source and, unless ``values`` is ``None``, its
    ``values(st)``; returns both (``None`` for the latter when absent)."""
    if values is not None:
        source += "\ndef values(st):\n    return (" + ", ".join(values) + ",)\n"
    namespace = {"initial": initial, "key_of": key_of}
    exec(kernel_code(source, "exec"), namespace)
    # Popped, so the namespace (the functions' globals) does not hold them
    # back: no reference cycle is left for the collector.
    return namespace.pop("fold"), namespace.pop("values", None)


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

    initial, cells, values = _state_layout(aggregates)
    body = [f"{name} += 1" for kind, _, name in cells if kind == "rows"]
    body += _fold_lines(cells, lambda slot: f"row[{slot}]")
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
    key_of = itemgetter(*key_slots) if key_slots else None
    fold, values = _compile_fold(source, initial, values, key_of)
    return fold, initial, values


def _groupjoin_kernel(
    probe_width: int, key_slots: list[int], aggregates: list[tuple[str, Optional[int]]]
):
    """Compile the groupjoin fold of a GROUP BY over an in-memory hash join.

    Returns ``(fold, initial, values)`` as :func:`_aggregation_kernel` does
    for the same arguments, except that ``fold(pairs, groups)`` takes the
    join's ``(probe row, matches)`` pairs (see
    :meth:`~repro.executor.joins.HashJoinExec.next_matches`) instead of the
    rows ``probe row + match`` they stand for, which are never built.
    Slots below ``probe_width`` are probe-row columns, the others build-row
    columns.  With no build-side group key a pair finds its group once:
    ``count(*)`` adds ``len(matches)`` and a probe-row argument updates its
    cells as if once per match; a build-side key finds the group per match.
    Every cell folds its values in output-row order, so sums are
    bit-identical to the row path's.
    """

    def column(slot: int) -> str:
        return f"row[{slot}]" if slot < probe_width else f"m[{slot - probe_width}]"

    per_match = any(slot >= probe_width for slot in key_slots)
    if not per_match:
        key_of = itemgetter(*key_slots) if key_slots else None
        find = ["key = key_of(row)"]
    elif all(slot >= probe_width for slot in key_slots):
        key_of = itemgetter(*(slot - probe_width for slot in key_slots))
        find = ["key = key_of(m)"]
    else:
        key_of = None
        keys = ", ".join(map(column, key_slots))
        find = [f"key = ({keys},)" if len(key_slots) > 1 else f"key = {keys}"]
    head = ["def fold(pairs, groups):", "    get = groups.get"]
    loop = ["for row, matches in pairs:"]
    if per_match:
        loop.append("    for m in matches:")

    def nest(lines: list[str]) -> list[str]:
        return ["    " + line for line in lines]

    if all(slot is None for _, slot in aggregates):
        if not key_slots:
            body = ["n = get((), 0)", *loop, "    n += len(matches)", "groups[()] = n"]
        else:
            count = "1" if per_match else "len(matches)"
            inner = find + [f"groups[key] = get(key, 0) + {count}"]
            body = loop + nest(nest(inner) if per_match else inner)
        source = "\n".join(head + nest(body))
        fold, _ = _compile_fold(source, 0, None, key_of)
        return fold, 0, lambda n: (n,) * len(aggregates)

    initial, cells, values = _state_layout(aggregates)
    new_group = ["st = get(key)", "if st is None:", "    st = groups[key] = initial.copy()"]
    rows = [name for kind, _, name in cells if kind == "rows"]
    if per_match:
        inner = find + new_group + [f"{name} += 1" for name in rows]
        inner += _fold_lines(cells, column)
        body = loop + nest(nest(inner))
    else:
        probe_slots = {slot for _, slot, _ in cells if slot is not None and slot < probe_width}
        build_slots = {slot for _, slot, _ in cells if slot is not None and slot >= probe_width}
        inner = (find + new_group) if key_slots else []
        inner += ["k = len(matches)"] + [f"{name} += k" for name in rows]
        inner += _fold_lines(cells, column, probe_slots, _UPDATE_REPEATED)
        if build_slots:
            inner += ["for m in matches:"] + nest(_fold_lines(cells, column, build_slots))
        body = loop + nest(inner)
        if not key_slots:
            body = ["st = get(())", "if st is None:", "    st = groups[()] = initial.copy()"] + body
    source = "\n".join(head + nest(body))
    fold, values = _compile_fold(source, initial, values, key_of)
    return fold, initial, values


def _folds_matches(child: Operator) -> bool:
    """Whether a GROUP BY over the opened ``child`` runs as a groupjoin:
    ``child`` is a hash join that did not spill (a Grace join has no probe
    loop to share).  A CHECK between the two, or any other child, keeps the
    row path."""
    return isinstance(child, HashJoinExec) and not child.spilled


class GroupByExec(Operator):
    """Blocking hash aggregation.

    With no group keys, produces exactly one row (scalar aggregation), even
    over empty input — SQL semantics.

    Over an in-memory hash join it runs as a groupjoin: the join hands over
    each probe row with its build matches and the fold counts them, so the
    joined rows are never built (see :func:`_groupjoin_kernel`).  Rows, row
    counters and work units are those of the row path, which a spilled join
    and every other child keep.
    """

    def __init__(self, plan: GroupBy, ctx: ExecutionContext, child: Operator):
        super().__init__(plan, ctx)
        self.child = child
        self._results: Optional[list[tuple]] = None
        self._pos = 0
        #: Whether the last open folded its child's matches (groupjoin).
        self.groupjoin = False

    def open(self) -> None:
        super().open()
        child = self.child
        child.open()
        plan = self.plan
        p = self.ctx.cost_params
        child_layout = plan.children[0].layout
        key_slots = [child_layout.slot(k) for k in plan.group_keys]
        aggregates = [
            (a.func, None if a.argument is None else child_layout.slot(a.argument))
            for a in plan.aggregates
        ]
        self.groupjoin = _folds_matches(child)
        if self.groupjoin:
            probe_width = len(child.plan.outer.layout)
            fold, initial, values = _groupjoin_kernel(probe_width, key_slots, aggregates)
            pull = child.next_matches
        else:
            fold, initial, values = _aggregation_kernel(key_slots, aggregates)
            pull = child.next_batch
        groups: dict = {}
        interruptible = self.ctx.interruptible
        batch_size = self.ctx.batch_size
        while True:
            batch = pull(batch_size)
            if batch is None:
                break
            # Blocking aggregation drain: poll per consumed batch.
            if interruptible:
                self.ctx.check_interrupt()
            # A groupjoin batch is ``(pairs, rows they stand for)``.
            batch, n = batch if self.groupjoin else (batch, len(batch))
            self.ctx.meter.charge(n * p.cpu_agg)
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
            "groupjoin": self.groupjoin,
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
