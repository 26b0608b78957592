"""A brute-force reference evaluator used as a correctness oracle.

Evaluates a logical :class:`~repro.plan.logical.Query` by materializing the
full cross product of the FROM tables (filtered early per table for
tractability), applying all predicates, then grouping/ordering/limiting.
Deliberately simple and obviously correct — every integration and property
test compares the engine's output against this.

It shares no evaluation code with the engine: predicates are closures applied
one row at a time (:func:`row_test`), and the ``naive_*`` functions are the
per-row references the executor's compiled kernels are compared against
(``tests/test_executor_kernels.py``).  The ``reference_*`` catalog builders
sort every value (every ``(key, rid)`` pair for an index): they are the
oracles of ``tests/test_catalog_build.py``.
"""

from __future__ import annotations

import operator
from collections import Counter
from itertools import product
from typing import Any, Optional, Sequence

from repro.expr.evaluate import RowLayout
from repro.expr.expressions import operand_value
from repro.expr.predicates import (
    Between,
    Comparison,
    InList,
    IsNull,
    JoinPredicate,
    Like,
    Or,
    Predicate,
)
from repro.plan.logical import Aggregate, Query
from repro.stats.column_stats import ColumnStatistics
from repro.stats.histogram import Bucket, EquiDepthHistogram
from repro.storage.catalog import Catalog

_COMPARE = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def like(pattern: str, text: str) -> bool:
    """SQL LIKE by recursion on the pattern: ``%`` any run, ``_`` one
    character, anything else itself."""
    if not pattern:
        return not text
    head, rest = pattern[0], pattern[1:]
    if head == "%":
        return any(like(rest, text[i:]) for i in range(len(text) + 1))
    return bool(text) and (head == "_" or head == text[0]) and like(rest, text[1:])


def row_test(pred: Predicate, layout: RowLayout, params: dict):
    """``pred`` as a ``row -> bool`` closure, slots and operands resolved
    once; a comparison with NULL — cell or operand — is false."""
    if isinstance(pred, Comparison):
        slot = layout.slot(pred.column)
        value = operand_value(pred.operand, params)
        compare = _COMPARE[pred.op]
        if value is None:
            return lambda row: False
        return lambda row: row[slot] is not None and compare(row[slot], value)
    if isinstance(pred, Between):
        slot = layout.slot(pred.column)
        low = operand_value(pred.low, params)
        high = operand_value(pred.high, params)
        if low is None or high is None:
            return lambda row: False
        return lambda row: row[slot] is not None and low <= row[slot] <= high
    if isinstance(pred, InList):
        slot = layout.slot(pred.column)
        values = [v for v in pred.values if v is not None]
        return lambda row: row[slot] is not None and any(row[slot] == v for v in values)
    if isinstance(pred, Like):
        slot = layout.slot(pred.column)
        pattern = pred.pattern
        return lambda row: isinstance(row[slot], str) and like(pattern, row[slot])
    if isinstance(pred, IsNull):
        slot = layout.slot(pred.column)
        negated = pred.negated
        return lambda row: (row[slot] is None) != negated
    if isinstance(pred, Or):
        tests = [row_test(child, layout, params) for child in pred.children]
        return lambda row: any(test(row) for test in tests)
    if isinstance(pred, JoinPredicate):
        left, right = layout.slot(pred.left), layout.slot(pred.right)
        return lambda row: row[left] is not None and row[left] == row[right]
    raise AssertionError(pred)


def holds(pred: Predicate, row: tuple, layout: RowLayout, params: dict) -> bool:
    return row_test(pred, layout, params)(row)


def naive_filter(
    preds: Sequence[Predicate], rows, layout: RowLayout, params: dict
) -> list[tuple]:
    """The rows satisfying every predicate, tested one row at a time."""
    tests = [row_test(pred, layout, params) for pred in preds]
    if len(tests) == 1:  # the cross-product join test: 10^7 rows in the suites
        (only,) = tests
        return [row for row in rows if only(row)]
    return [row for row in rows if all(test(row) for test in tests)]


def naive_aggregate(
    rows: Sequence[tuple],
    key_slots: Sequence[int],
    aggregates: Sequence[tuple[str, Optional[int]]],
) -> list[tuple]:
    """GROUP BY over ``(func, argument slot | None for *)`` aggregates:
    groups in first-seen order, one output row per group; a scalar
    aggregation (no keys) yields one row even over no input."""
    groups: dict[tuple, list[tuple]] = {}
    for row in rows:
        groups.setdefault(tuple(row[s] for s in key_slots), []).append(row)
    if not groups and not key_slots:
        groups[()] = []
    out = []
    for key, members in groups.items():
        values: list[Any] = []
        for func, slot in aggregates:
            if slot is None:
                values.append(len(members))
                continue
            data = [r[slot] for r in members if r[slot] is not None]
            if func == "count":
                values.append(len(data))
            elif not data:
                values.append(None)
            elif func in ("sum", "avg"):
                total = 0
                for value in data:  # the engine's order of additions
                    total += 0 if isinstance(value, str) else value
                values.append(total if func == "sum" else total / len(data))
            else:
                values.append(min(data) if func == "min" else max(data))
        out.append(key + tuple(values))
    return out


def naive_sort(
    rows: Sequence[tuple], slots: Sequence[int], ascending: Sequence[bool]
) -> list[tuple]:
    """Stable multi-key sort; NULL sorts after every value (so first
    within a descending key)."""
    rows = list(rows)
    for slot, asc in reversed(list(zip(slots, ascending))):
        rows.sort(key=lambda r, s=slot: (r[s] is None, r[s]), reverse=not asc)
    return rows


def naive_equi_join(
    outer: Sequence[tuple],
    inner: Sequence[tuple],
    outer_slots: Sequence[int],
    inner_slots: Sequence[int],
) -> list[tuple]:
    """Nested loops in outer-major order; NULL keys join nothing."""
    out = []
    for orow in outer:
        okey = [orow[s] for s in outer_slots]
        if None in okey:
            continue
        for irow in inner:
            if okey == [irow[s] for s in inner_slots]:
                out.append(orow + irow)
    return out


def reference_sorted_index(rows: Sequence[tuple], pos: int) -> tuple[list, list[int]]:
    """A sorted index's ``(keys, rids)``: the sort of every non-NULL
    ``(key, rid)`` pair."""
    pairs = sorted((row[pos], rid) for rid, row in enumerate(rows) if row[pos] is not None)
    return [k for k, _ in pairs], [r for _, r in pairs]


def reference_histogram(values: Sequence[Any], num_buckets: int = 20) -> EquiDepthHistogram:
    """An equi-depth histogram cut from every value sorted, each bucket
    extended over the run of values equal to its last one."""
    data = sorted(values)
    total = len(data)
    if total == 0:
        return EquiDepthHistogram([], 0)
    num_buckets = max(1, min(num_buckets, total))
    buckets = []
    start = 0
    for b in range(num_buckets):
        end = ((b + 1) * total) // num_buckets
        if end <= start:
            continue
        while end < total and data[end] == data[end - 1]:
            end += 1
        chunk = data[start:end]
        buckets.append(Bucket(chunk[0], chunk[-1], len(chunk), len(set(chunk))))
        start = end
        if start >= total:
            break
    return EquiDepthHistogram(buckets, total)


def reference_column_statistics(
    column: str, values: Sequence[Any], num_buckets: int = 20, num_mcvs: int = 10
) -> ColumnStatistics:
    """RUNSTATS for one column with a list of the non-NULL values, their
    ``min`` / ``max`` and :func:`reference_histogram`."""
    non_null = [v for v in values if v is not None]
    null_count = len(values) - len(non_null)
    if not non_null:
        return ColumnStatistics(column, len(values), null_count, ndv=0)
    counter = Counter(non_null)
    return ColumnStatistics(
        column=column,
        row_count=len(values),
        null_count=null_count,
        ndv=len(counter),
        min_value=min(non_null),
        max_value=max(non_null),
        mcvs=[(v, c) for v, c in counter.most_common(num_mcvs) if c > 1],
        histogram=reference_histogram(non_null, num_buckets),
    )


def two_variable_cost(cm, description: tuple):
    """A join's total cost as ``(outer_card, inner_card) -> cost`` through
    ``CostModel``'s two-variable methods — the closures the enumerator used
    to carry, and the reference for ``CostModel.edge_kernel``."""
    kind, *consts = description
    if kind == "hash":
        base, sel = consts
        return lambda cl, cr: base + cm.hash_join_cost(cl, cr, cl * cr * sel)
    if kind == "merge":
        base, sel, sort_outer, sort_inner = consts
        return lambda cl, cr: base + cm.merge_join_cost(
            cl, cr, cl * cr * sel, sort_outer, sort_inner
        )
    if kind == "rescan":
        base, sel = consts
        return lambda cl, cr: base + cm.nljn_rescan_cost(cl, cr, cl * cr * sel)
    assert kind == "index", kind
    outer_cost, probe_cost, sel = consts
    return lambda cl, cr: (
        outer_cost + cl * probe_cost + cl * cr * sel * cm.params.cpu_emit
    )


def reference_edge_kernel(cm, description: tuple, position: int, other_card: float):
    """``two_variable_cost`` along one edge, the other held at ``other_card``."""
    cost_fn = two_variable_cost(cm, description)
    if position == 0:
        return lambda c: cost_fn(c, other_card)
    return lambda c: cost_fn(other_card, c)


def _concatenated(rows: tuple) -> tuple:
    return sum(rows, ())


def _table_rows(catalog: Catalog, query: Query, alias: str, params) -> list[tuple]:
    ref = query.table_for(alias)
    table = catalog.table(ref.table)
    layout = RowLayout([f"{alias}.{c}" for c in table.schema.names()])
    return naive_filter(
        query.local_predicates_for(alias), table.rows, layout, params or {}
    )


def evaluate_reference(
    catalog: Catalog, query: Query, params: Optional[dict[str, Any]] = None
) -> list[tuple]:
    """Evaluate ``query`` naively; returns rows in final (ordered) form."""
    params = params or {}
    aliases = query.aliases
    layouts: list[list[str]] = []
    filtered: list[list[tuple]] = []
    for alias in aliases:
        table = catalog.table(query.table_for(alias).table)
        layouts.append([f"{alias}.{c}" for c in table.schema.names()])
        filtered.append(_table_rows(catalog, query, alias, params))

    joined_layout = RowLayout([c for cols in layouts for c in cols])
    joined = naive_filter(
        query.join_predicates,
        map(_concatenated, product(*filtered)),
        joined_layout,
        params,
    )

    if query.has_aggregates:
        rows = _aggregate(query, joined_layout, joined)
    else:
        slots = [joined_layout.slot(c.qualified) for c in query.select]  # type: ignore[union-attr]
        rows = [tuple(row[s] for s in slots) for row in joined]
        if query.distinct:
            seen = set()
            deduped = []
            for row in rows:
                if row not in seen:
                    seen.add(row)
                    deduped.append(row)
            rows = deduped

    if query.order_by:
        out_names = query.output_names
        for item in reversed(query.order_by):
            slot = out_names.index(item.column)
            rows.sort(
                key=lambda r, s=slot: (r[s] is None, r[s]),
                reverse=not item.ascending,
            )
    if query.limit is not None:
        rows = rows[: query.limit]
    return rows


def _aggregate(query: Query, layout: RowLayout, joined: list[tuple]) -> list[tuple]:
    key_slots = [layout.slot(k.qualified) for k in query.group_by]
    groups: dict[tuple, list[tuple]] = {}
    for row in joined:
        groups.setdefault(tuple(row[s] for s in key_slots), []).append(row)
    if not groups and not query.group_by:
        groups[()] = []
    results = []
    for key, rows in groups.items():
        values: list[Any] = []
        for item in query.select:
            if not isinstance(item, Aggregate):
                values.append(key[ [k.qualified for k in query.group_by].index(item.qualified) ])
                continue
            if item.func == "count" and item.argument is None:
                values.append(len(rows))
                continue
            slot = layout.slot(item.argument.qualified)  # type: ignore[union-attr]
            data = [r[slot] for r in rows if r[slot] is not None]
            if item.func == "count":
                values.append(len(data))
            elif not data:
                values.append(None)
            elif item.func == "sum":
                values.append(sum(data))
            elif item.func == "avg":
                values.append(sum(data) / len(data))
            elif item.func == "min":
                values.append(min(data))
            elif item.func == "max":
                values.append(max(data))
            else:  # pragma: no cover
                raise AssertionError(item.func)
        results.append(tuple(values))
    return results
