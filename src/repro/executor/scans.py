"""Scan operators: table scan, index scan (sarg or correlated), MV scan."""

from __future__ import annotations

from itertools import islice
from typing import Any, Iterator, Optional

from repro.common.errors import ExecutionError
from repro.executor.base import ExecutionContext, Operator
from repro.expr.evaluate import compile_conjunction
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
        self._iter: Optional[Iterator[tuple]] = None
        self._filter = None
        p = ctx.cost_params
        rows = max(1, self.table.row_count)
        self._charge_per_row = (
            self.table.page_count * p.io_page / rows + p.cpu_row
        )

    def open(self) -> None:
        super().open()
        self._filter = compile_conjunction(
            self.plan.filters, self.plan.layout, self.ctx.params
        )
        # Snapshot isolation: rows are append-only and rids positional, so
        # capping the scan at the pinned watermark yields exactly the rows
        # visible at the snapshot's epoch — concurrent commits append past
        # the cap without being observed.
        visible = (
            self.ctx.snapshot.visible_rows(self.table.name)
            if self.ctx.snapshot is not None
            else None
        )
        if visible is None:
            self._iter = iter(self.table.rows)
        else:
            self._iter = islice(iter(self.table.rows), visible)

    def next_batch(self, max_rows: int) -> Optional[list[tuple]]:
        """One filter lookup per row inside a tight local loop, one bulk
        meter charge per batch (``scanned × per-row``)."""
        self.require_open()
        assert self._iter is not None and self._filter is not None
        match = self._filter
        out: list[tuple] = []
        append = out.append
        interruptible = self.ctx.interruptible
        scanned = 0
        rejected = 0
        for row in self._iter:
            scanned += 1
            if match(row):
                append(row)
                if len(out) >= max_rows:
                    break
            else:
                # Selective filters can reject long stretches without
                # filling a batch; poll on a stride so cancel latency
                # stays bounded.
                rejected += 1
                if interruptible and rejected % 256 == 0:
                    self.ctx.check_interrupt()
        if scanned:
            self.ctx.meter.charge(scanned * self._charge_per_row)
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
    join; the NLJN calls :meth:`rebind` with each outer join-key value and
    reads the matches.
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
        self._rids: list[int] = []
        self._pos = 0
        self._filter = None
        self.probes = 0  #: index probes issued (1 sarg, or 1 per rebind)
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

    def _visible_rids(self, rids: Iterator[int]) -> list[int]:
        visible = self._visible
        if visible is None:
            return list(rids)
        return [rid for rid in rids if rid < visible]

    def open(self) -> None:
        super().open()
        self._filter = compile_conjunction(
            self.plan.filters, self.plan.layout, self.ctx.params
        )
        if self.plan.correlation is None:
            self._rids = self._visible_rids(self._rids_for_sarg())
            self._pos = 0
            self.probes += 1
            self.ctx.meter.charge(
                self.ctx.cost_params.index_probe_io
                * self.ctx.cost_params.random_io
                * self.ctx.cost_params.io_page
            )

    def _rids_for_sarg(self) -> Iterator[int]:
        sarg = self.plan.sarg
        if sarg is None:
            raise ExecutionError("sarg-mode index scan without a sarg")
        params = self.ctx.params
        if isinstance(sarg, Comparison):
            value = operand_value(sarg.operand, params)
            if sarg.op == "=":
                yield from self.index.lookup(value)
                return
            if not isinstance(self.index, SortedIndex):
                raise ExecutionError("range sarg over a non-sorted index")
            if sarg.op == "<":
                yield from self.index.range_scan(high=value, high_inclusive=False)
            elif sarg.op == "<=":
                yield from self.index.range_scan(high=value)
            elif sarg.op == ">":
                yield from self.index.range_scan(low=value, low_inclusive=False)
            elif sarg.op == ">=":
                yield from self.index.range_scan(low=value)
            else:
                raise ExecutionError(f"non-sargable comparison {sarg.op!r}")
            return
        if isinstance(sarg, Between):
            if not isinstance(self.index, SortedIndex):
                raise ExecutionError("BETWEEN sarg over a non-sorted index")
            low = operand_value(sarg.low, params)
            high = operand_value(sarg.high, params)
            yield from self.index.range_scan(low=low, high=high)
            return
        raise ExecutionError(f"unsupported sarg {sarg!r}")

    def rebind(self, key: Any) -> None:
        """Correlated mode: position on the matches for one probe key."""
        p = self.ctx.cost_params
        self.probes += 1
        self.ctx.meter.charge(p.index_probe_io * p.random_io * p.io_page)
        self._rids = self._visible_rids(iter(self.index.lookup(key)))
        self._pos = 0
        self.eof_seen = False

    def next_batch(self, max_rows: int) -> Optional[list[tuple]]:
        """Rid-list drain (both modes; correlated rebinds keep working
        because position state lives in ``_rids``/``_pos``)."""
        self.require_open()
        assert self._filter is not None
        match = self._filter
        rids = self._rids
        pos = self._pos
        n = len(rids)
        fetch = self.table.fetch
        out: list[tuple] = []
        interruptible = self.ctx.interruptible
        scanned = 0
        rejected = 0
        while pos < n and len(out) < max_rows:
            rid = rids[pos]
            pos += 1
            scanned += 1
            row = fetch(rid)
            if match(row):
                out.append(row)
            else:
                rejected += 1
                if interruptible and rejected % 256 == 0:
                    self.ctx.check_interrupt()
        self._pos = pos
        if scanned:
            self.ctx.meter.charge(scanned * self._fetch_charge)
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
        self._iter: Optional[Iterator[tuple]] = None
        self._filter = None

    def open(self) -> None:
        super().open()
        self._filter = compile_conjunction(
            self.plan.filters, self.plan.layout, self.ctx.params
        )
        self._iter = iter(self.mv.rows)

    def next_batch(self, max_rows: int) -> Optional[list[tuple]]:
        self.require_open()
        assert self._iter is not None and self._filter is not None
        match = self._filter
        out: list[tuple] = []
        append = out.append
        interruptible = self.ctx.interruptible
        scanned = 0
        rejected = 0
        for row in self._iter:
            scanned += 1
            if match(row):
                append(row)
                if len(out) >= max_rows:
                    break
            else:
                rejected += 1
                if interruptible and rejected % 256 == 0:
                    self.ctx.check_interrupt()
        if scanned:
            self.ctx.meter.charge(scanned * self.ctx.cost_params.cpu_temp_scan)
        if not out:
            self.finish()
            return None
        return self.emit_batch(out)

    def profile_extras(self) -> dict:
        return {"mv": self.plan.mv_name, "mv_rows": len(self.mv.rows)}
