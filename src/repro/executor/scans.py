"""Scan operators: table scan, index scan (sarg or correlated), MV scan."""

from __future__ import annotations

from collections.abc import Sequence
from typing import Optional

from repro.common.errors import ExecutionError
from repro.executor.base import ExecutionContext, Operator
from repro.expr.evaluate import compile_scan
from repro.expr.expressions import operand_value
from repro.expr.predicates import Between, Comparison
from repro.plan.physical import IndexScan, MVScan, TableScan
from repro.storage.index import SortedIndex


class TableScanExec(Operator):
    """Sequential scan with fused filters.

    Charges I/O per page and CPU per scanned row, amortized per row so the
    work meter advances smoothly (needed for Figure 14's progress fractions).
    """

    def __init__(self, plan: TableScan, ctx: ExecutionContext):
        super().__init__(plan, ctx)
        self.table = ctx.catalog.table(plan.table)
        self._pos = 0
        self._visible: Optional[int] = None
        self._scan = None
        p = ctx.cost_params
        rows = max(1, self.table.row_count)
        self._charge_per_row = (
            self.table.page_count * p.io_page / rows + p.cpu_row
        )

    def open(self) -> None:
        super().open()
        self._scan = compile_scan(
            self.plan.filters, self.plan.layout, self.ctx.params
        )
        # Snapshot isolation: rows are append-only and rids positional, so
        # capping the scan at the pinned watermark yields exactly the rows
        # visible at the snapshot's epoch — concurrent commits append past
        # the cap without being observed.
        self._visible = (
            self.ctx.snapshot.visible_rows(self.table.name)
            if self.ctx.snapshot is not None
            else None
        )
        self._pos = 0

    def next_batch(self, max_rows: int) -> Optional[list[tuple]]:
        """One call of the compiled scan loop, one bulk meter charge
        (``scanned × per-row``)."""
        self.require_open()
        assert self._scan is not None
        rows = self.table.rows
        end = len(rows) if self._visible is None else min(self._visible, len(rows))
        start = self._pos
        out, self._pos = self._scan(rows, start, end, max_rows, self._poll)
        if self._pos > start:
            self.ctx.meter.charge((self._pos - start) * self._charge_per_row)
        if not out:
            self.finish()
            return None
        return self.emit_batch(out)

    def profile_extras(self) -> dict:
        return {
            "table": self.plan.table,
            "table_rows": self.table.row_count,
            "table_pages": self.table.page_count,
        }


class IndexScanExec(Operator):
    """Index access, in two modes.

    *Sarg mode* (``plan.correlation is None``): the sargable predicate drives
    one index range/equality probe at open time.

    *Correlated mode*: the operator is the inner of an index nested-loop
    join; the NLJN calls :meth:`probe` with the join-key values of a batch
    of outer rows and reads the matches.
    """

    def __init__(self, plan: IndexScan, ctx: ExecutionContext):
        super().__init__(plan, ctx)
        self.table = ctx.catalog.table(plan.table)
        self.index = None
        for ix in ctx.catalog.indexes_on(plan.table):
            if ix.name == plan.index_name:
                self.index = ix
                break
        if self.index is None:
            raise ExecutionError(f"index {plan.index_name!r} not found")
        self._rids: Sequence[int] = []
        self._pos = 0
        self._scan = None
        self.probes = 0  #: index probes issued (1 sarg, or 1 per probe key)
        self._fetch_charge = ctx.cost_model.fetch_cost_per_row(
            float(self.table.page_count)
        )
        # Snapshot watermark: index probes may return rids appended after
        # the pinned epoch (indexes are rebuilt at commit), so every rid
        # list is filtered to ``rid < visible`` before fetching.
        self._visible = (
            ctx.snapshot.visible_rows(self.table.name)
            if ctx.snapshot is not None
            else None
        )

    def open(self) -> None:
        super().open()
        self._scan = compile_scan(
            self.plan.filters,
            self.plan.layout,
            self.ctx.params,
            fetch=self.table.rows.__getitem__,
        )
        if self.plan.correlation is None:
            rids, visible = self._rids_for_sarg(), self._visible
            # A range's rids are in key order, not rid order: test each one.
            self._rids = rids if visible is None else [rid for rid in rids if rid < visible]
            self._pos = 0
            self.probes += 1
            self.ctx.meter.charge(
                self.ctx.cost_params.index_probe_io
                * self.ctx.cost_params.random_io
                * self.ctx.cost_params.io_page
            )

    def _rids_for_sarg(self) -> Sequence[int]:
        sarg = self.plan.sarg
        if sarg is None:
            raise ExecutionError("sarg-mode index scan without a sarg")
        params = self.ctx.params
        if isinstance(sarg, Comparison):
            value = operand_value(sarg.operand, params)
            if value is None:
                return []  # a comparison with NULL holds for no row
            if sarg.op == "=":
                return self.index.lookup(value)
            if not isinstance(self.index, SortedIndex):
                raise ExecutionError("range sarg over a non-sorted index")
            if sarg.op == "<":
                return self.index.range_scan(high=value, high_inclusive=False)
            if sarg.op == "<=":
                return self.index.range_scan(high=value)
            if sarg.op == ">":
                return self.index.range_scan(low=value, low_inclusive=False)
            if sarg.op == ">=":
                return self.index.range_scan(low=value)
            raise ExecutionError(f"non-sargable comparison {sarg.op!r}")
        if isinstance(sarg, Between):
            if not isinstance(self.index, SortedIndex):
                raise ExecutionError("BETWEEN sarg over a non-sorted index")
            low = operand_value(sarg.low, params)
            high = operand_value(sarg.high, params)
            # ``range_scan`` reads a ``None`` bound as "open-ended"; in SQL
            # a NULL bound makes the predicate false for every row.
            if low is None or high is None:
                return []
            return self.index.range_scan(low=low, high=high)
        raise ExecutionError(f"unsupported sarg {sarg!r}")

    def probe(self, keys: list, room: int) -> list[list[tuple]]:
        """Correlated mode: each key's matching rows, one list per key.

        Only the last key's scan stops at ``room``; its rid list stays
        positioned for ``next_batch``.  Earlier keys are read whole, so keys
        sized by a stale ``fan`` overshoot ``room`` rather than lose rows.
        One bulk charge (``len(keys)`` probes, one fetch per scanned rid).
        """
        lookup = self.index.lookup
        visible, scan, poll = self._visible, self._scan, self._poll
        groups: list[list[tuple]] = []
        found: list[tuple] = []
        scanned = pos = 0
        rids: Sequence[int] = []
        last = len(keys) - 1
        for i, key in enumerate(keys):
            rids = lookup(key)
            # Rids are ascending per key: the last one decides.
            if visible is not None and rids and rids[-1] >= visible:
                rids = [rid for rid in rids if rid < visible]
            limit = max(1, room - len(found)) if i == last else len(rids)
            matches, pos = scan(rids, 0, len(rids), limit, poll)
            scanned += pos
            groups.append(matches)
            found += matches
        self._rids, self._pos = rids, pos
        self.probes += len(keys)
        p = self.ctx.cost_params
        self.ctx.meter.charge(
            len(keys) * (p.index_probe_io * p.random_io * p.io_page)
            + scanned * self._fetch_charge
        )
        self.emit_batch(found)
        return groups

    def next_batch(self, max_rows: int) -> Optional[list[tuple]]:
        """Rid-list drain (both modes; in correlated mode, the rest of the
        last probed key's matches)."""
        self.require_open()
        assert self._scan is not None
        rids = self._rids
        pos = self._pos
        # Position state lives in ``_rids``/``_pos``; a probe replaces both.
        out, self._pos = self._scan(rids, pos, len(rids), max_rows, self._poll)
        if self._pos > pos:
            self.ctx.meter.charge((self._pos - pos) * self._fetch_charge)
        if not out:
            if self.plan.correlation is None:
                self.finish()
            return None
        return self.emit_batch(out)

    def profile_extras(self) -> dict:
        return {
            "index": self.plan.index_name,
            "probes": self.probes,
            "correlated": self.plan.correlation is not None,
        }


class MVScanExec(Operator):
    """Scan of a temp materialized view, with residual filters."""

    def __init__(self, plan: MVScan, ctx: ExecutionContext):
        super().__init__(plan, ctx)
        self.mv = ctx.temp_mvs.get(plan.mv_name)
        self._pos = 0
        self._scan = None

    def open(self) -> None:
        super().open()
        self._scan = compile_scan(
            self.plan.filters, self.plan.layout, self.ctx.params
        )
        self._pos = 0

    def next_batch(self, max_rows: int) -> Optional[list[tuple]]:
        self.require_open()
        assert self._scan is not None
        rows = self.mv.rows
        start = self._pos
        out, self._pos = self._scan(rows, start, len(rows), max_rows, self._poll)
        if self._pos > start:
            self.ctx.meter.charge(
                (self._pos - start) * self.ctx.cost_params.cpu_temp_scan
            )
        if not out:
            self.finish()
            return None
        return self.emit_batch(out)

    def profile_extras(self) -> dict:
        return {"mv": self.plan.mv_name, "mv_rows": len(self.mv.rows)}
