"""The optimizer's cost model.

Costs are unit-less "timerons": a weighted sum of modeled page I/Os and
per-row CPU work.  Two design constraints come straight from the paper:

1. **Costs are explicit functions of input cardinalities.**  Validity-range
   computation (§2.2) re-evaluates operator costs at perturbed input
   cardinalities while pruning, so every join method exposes a
   ``*_cost(outer_card, inner_card, ...)`` function rather than baking
   cardinalities in.
2. **Costs are piecewise and non-smooth.**  The paper motivates numerical
   root finding with cost functions that are "not smooth, not even always
   continuous" (e.g. a 10% cardinality increase turning a two-stage hash
   join into a three-stage one).  The sort, temp, and hash-join costs here
   have exactly those memory-spill discontinuities.

The executor's work meter charges the *same constants* (see
:mod:`repro.executor.meter`), which keeps measured execution time consistent
with modeled cost — the property that makes the reproduced figures
meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from math import ceil, log, log2
from typing import Optional


@dataclass(frozen=True)
class CostParams:
    """Tunable constants of the cost model (and the work meter)."""

    #: Cost of one sequential page read/write.
    io_page: float = 1.0
    #: Random-I/O penalty multiplier (index fetches).
    random_io: float = 2.0
    #: CPU cost of processing one row in a scan or filter.
    cpu_row: float = 0.010
    #: CPU cost of emitting one join/aggregation output row.
    cpu_emit: float = 0.004
    #: CPU cost of inserting one row into a hash table.
    cpu_hash_build: float = 0.030
    #: CPU cost of probing a hash table once.
    cpu_hash_probe: float = 0.015
    #: CPU cost per row per merge level of a sort.
    cpu_sort: float = 0.006
    #: CPU cost of writing one row to a TEMP.
    cpu_temp_insert: float = 0.006
    #: CPU cost of reading one row back from a TEMP / buffered input.
    cpu_temp_scan: float = 0.002
    #: CPU cost of one CHECK counter tick (the paper's "only overhead").
    cpu_check: float = 0.0005
    #: CPU cost of one aggregation update.
    cpu_agg: float = 0.012
    #: I/O cost of traversing an index to its leaf (per probe); low because
    #: hot index pages live in the buffer pool.
    index_probe_io: float = 0.05
    #: Base I/O cost of fetching one matched row via an unclustered index,
    #: scaled by the buffer-pool miss fraction of the fetched table: probing
    #: a table much larger than the pool pays nearly the full random I/O,
    #: probing a cached table almost nothing.  This size dependence is what
    #: makes a misestimated nested-loop join over a big inner catastrophic,
    #: as in the paper's testbed.
    fetch_io: float = 0.15
    #: Fraction of fetches that miss even for a fully cached table.
    fetch_min_miss: float = 0.15
    #: Modeled buffer-pool size in pages.
    buffer_pool_pages: int = 512
    #: Rows per modeled page (flat approximation for intermediate results).
    rows_per_page: float = 64.0
    #: Pages of sort memory before a sort spills.
    sort_mem_pages: int = 128
    #: Pages of hash-join memory before the build spills.
    hash_mem_pages: int = 128
    #: Pages of temp-buffer memory before a TEMP spills.
    temp_mem_pages: int = 128
    #: Fixed cost charged per (re-)optimizer invocation.
    reopt_fixed: float = 2.0
    #: Cost per plan candidate enumerated during (re-)optimization.
    reopt_per_plan: float = 0.02

    def scaled_memory(self, factor: float) -> "CostParams":
        """A copy with all memory limits scaled (tests force spills this way)."""
        return replace(
            self,
            sort_mem_pages=max(1, int(self.sort_mem_pages * factor)),
            hash_mem_pages=max(1, int(self.hash_mem_pages * factor)),
            temp_mem_pages=max(1, int(self.temp_mem_pages * factor)),
        )


DEFAULT_COST_PARAMS = CostParams()


class CostModel:
    """Evaluates operator costs.  All ``*_cost`` functions are pure."""

    def __init__(self, params: CostParams = DEFAULT_COST_PARAMS):
        self.params = params

    # ------------------------------------------------------------------ pages

    def pages_for(self, card: float) -> float:
        """Modeled page count of an intermediate result of ``card`` rows."""
        return max(1.0, card / self.params.rows_per_page)

    # ------------------------------------------------------------------ scans

    def table_scan_cost(self, table_pages: float, table_rows: float) -> float:
        """Full scan: sequential I/O plus per-row predicate CPU."""
        p = self.params
        return table_pages * p.io_page + table_rows * p.cpu_row

    def fetch_cost_per_row(self, table_pages: float) -> float:
        """Cost of fetching one row via an index, buffer-pool aware."""
        p = self.params
        miss = p.fetch_min_miss + (1.0 - p.fetch_min_miss) * min(
            1.0, table_pages / p.buffer_pool_pages
        )
        return p.fetch_io * miss * p.random_io * p.io_page + p.cpu_row

    def index_probe_cost(
        self, matches_per_probe: float, table_pages: float
    ) -> float:
        """One equality probe of an index plus fetching the matched rows."""
        p = self.params
        return (
            p.index_probe_io * p.random_io * p.io_page
            + matches_per_probe * self.fetch_cost_per_row(table_pages)
        )

    def index_range_scan_cost(
        self, matched_rows: float, leaf_pages: float, table_pages: float
    ) -> float:
        """A range (or equality) sarg access: leaf traversal + row fetches."""
        p = self.params
        touched_leaves = max(1.0, leaf_pages * min(1.0, matched_rows / 256.0))
        return (
            p.index_probe_io * p.random_io * p.io_page
            + touched_leaves * p.io_page
            + matched_rows * self.fetch_cost_per_row(table_pages)
        )

    def mv_scan_cost(self, card: float) -> float:
        """Scanning a temp MV: it is in memory, so CPU only."""
        return card * self.params.cpu_temp_scan

    # ------------------------------------------------------- materializations

    def sort_cost(self, card: float) -> float:
        """Sort: n·log2(n) CPU, plus spill I/O when beyond sort memory.

        The spill term is a step function of the input cardinality — one of
        the discontinuities that defeats analytic root finding (paper §2.2).
        The validity probe evaluates it at every probe point of a merge
        join, so it spells out ``max(0.0, card)``, ``max(1.0, ...)`` and
        :meth:`pages_for` as conditionals (the same floating-point
        operations, without the calls).
        """
        if not card > 0.0:
            return 0.0
        p = self.params
        levels = log2(card + 1)
        cpu = card * (levels if levels > 1.0 else 1.0) * p.cpu_sort
        pages = card / p.rows_per_page
        pages = pages if pages > 1.0 else 1.0
        if pages > p.sort_mem_pages:
            # External sort: write + read runs once per extra merge pass.
            passes = ceil(log(pages / p.sort_mem_pages, 8)) + 1
            return cpu + 2.0 * pages * p.io_page * passes
        return cpu

    def temp_cost(self, card: float) -> float:
        """Materializing ``card`` rows into a TEMP."""
        p = self.params
        card = max(0.0, card)
        cost = card * p.cpu_temp_insert
        pages = self.pages_for(card)
        if pages > p.temp_mem_pages:
            cost += pages * p.io_page  # spilled to disk
        return cost

    def temp_rescan_cost(self, card: float) -> float:
        """One rescan of a TEMP of ``card`` rows."""
        p = self.params
        cost = max(0.0, card) * p.cpu_temp_scan
        pages = self.pages_for(card)
        if pages > p.temp_mem_pages:
            cost += pages * p.io_page
        return cost

    # ------------------------------------------------------------------ joins

    def hash_join_cost(
        self, outer_card: float, inner_card: float, output_card: float
    ) -> float:
        """Hash join with the inner as build side.

        Multi-stage behaviour: when the build exceeds hash memory, both
        inputs are partitioned to disk and re-read (the paper's 2-stage →
        3-stage discontinuity).
        """
        p = self.params
        outer_card = max(0.0, outer_card)
        inner_card = max(0.0, inner_card)
        cost = (
            inner_card * p.cpu_hash_build
            + outer_card * p.cpu_hash_probe
            + max(0.0, output_card) * p.cpu_emit
        )
        build_pages = self.pages_for(inner_card)
        if build_pages > p.hash_mem_pages:
            probe_pages = self.pages_for(outer_card)
            stages = math.ceil(build_pages / p.hash_mem_pages)
            spill_fraction = min(1.0, (stages - 1) / stages + 0.5)
            cost += 2.0 * (build_pages + probe_pages) * spill_fraction * p.io_page
        return cost

    def nljn_index_cost(
        self,
        outer_card: float,
        matches_per_probe: float,
        output_card: float,
        table_pages: float,
    ) -> float:
        """Index nested-loop join: one index probe per outer row."""
        p = self.params
        outer_card = max(0.0, outer_card)
        return (
            outer_card * self.index_probe_cost(matches_per_probe, table_pages)
            + max(0.0, output_card) * p.cpu_emit
        )

    def nljn_rescan_cost(
        self, outer_card: float, inner_card: float, output_card: float
    ) -> float:
        """Naive nested-loop join: materialize the inner once (TEMP), then
        rescan it per outer row."""
        p = self.params
        outer_card = max(0.0, outer_card)
        inner_card = max(0.0, inner_card)
        return (
            self.temp_cost(inner_card)
            + outer_card * self.temp_rescan_cost(inner_card)
            + outer_card * p.cpu_row
            + max(0.0, output_card) * p.cpu_emit
        )

    def merge_join_cost(
        self,
        outer_card: float,
        inner_card: float,
        output_card: float,
        sort_outer: bool,
        sort_inner: bool,
    ) -> float:
        """Sort-merge join, including any sort enforcers on its inputs.

        The enforcers are charged here so that the method's cost remains a
        pure function of the (shared) input-edge cardinalities, which is what
        the validity-range analysis differentiates.
        """
        p = self.params
        outer_card = max(0.0, outer_card)
        inner_card = max(0.0, inner_card)
        cost = (outer_card + inner_card) * p.cpu_row + max(0.0, output_card) * p.cpu_emit
        if sort_outer:
            cost += self.sort_cost(outer_card)
        if sort_inner:
            cost += self.sort_cost(inner_card)
        return cost

    # ----------------------------------------------------------- edge kernels

    def edge_kernel(self, description: tuple, position: int, other_card: float):
        """The total cost of a join as a function of the cardinality of input
        edge ``position`` (0 outer, 1 inner) alone, the other edge held at
        ``other_card`` — what the validity-range probe (§2.2, Fig. 5)
        evaluates.  ``description`` is what the enumerator keeps of a
        candidate's cost function:

        * ``("hash", base, sel)``
        * ``("merge", base, sel, sort_outer, sort_inner)``
        * ``("rescan", base, sel)`` — rescan nested loop over a TEMP
        * ``("index", outer_cost, probe_cost, sel)`` — index nested loop

        with ``base`` the two inputs' cost and ``sel`` the effective join
        selectivity (output cardinality ``outer * inner * sel``).  A kernel
        computes every term of the fixed side once and otherwise performs
        the floating-point operations of the two-variable formula in the
        same order (``x if x > 0.0 else 0.0`` is ``max(0.0, x)``), so its
        values are bit-identical to ``base + <method>_cost(cl, cr, cl * cr *
        sel)``; tests/test_cost_kernels.py holds them to ``==``.
        """
        kernel_for = getattr(self, f"_{description[0]}_kernel")
        return kernel_for(*description[1:], position, other_card)

    def _hash_kernel(self, base, sel, position, other):
        p = self.params
        build, probe, emit = p.cpu_hash_build, p.cpu_hash_probe, p.cpu_emit
        rpp, mem, io = p.rows_per_page, p.hash_mem_pages, p.io_page
        fixed = max(0.0, other)
        fixed_pages = self.pages_for(fixed)
        if not position:  # the probe side varies, the build is fixed
            build_cpu = fixed * build
            spill = None
            if fixed_pages > mem:
                stages = math.ceil(fixed_pages / mem)
                spill = min(1.0, (stages - 1) / stages + 0.5)

            def kernel(c: float) -> float:
                outer = c if c > 0.0 else 0.0
                out = c * other * sel
                cost = build_cpu + outer * probe + (out if out > 0.0 else 0.0) * emit
                if spill is not None:
                    pages = outer / rpp
                    cost += 2.0 * (fixed_pages + (pages if pages > 1.0 else 1.0)) * spill * io
                return base + cost

            return kernel
        probe_cpu = fixed * probe

        def kernel(c: float) -> float:
            inner = c if c > 0.0 else 0.0
            out = other * c * sel
            cost = inner * build + probe_cpu + (out if out > 0.0 else 0.0) * emit
            pages = inner / rpp
            pages = pages if pages > 1.0 else 1.0
            if pages > mem:
                stages = math.ceil(pages / mem)
                spill = min(1.0, (stages - 1) / stages + 0.5)
                cost += 2.0 * (pages + fixed_pages) * spill * io
            return base + cost

        return kernel

    def _merge_kernel(self, base, sel, sort_outer, sort_inner, position, other):
        p = self.params
        cpu_row, emit = p.cpu_row, p.cpu_emit
        fixed = max(0.0, other)
        sorts = (sort_outer, sort_inner)
        sort_varying = self.sort_cost if sorts[position] else None
        fixed_sort = self.sort_cost(fixed) if sorts[1 - position] else None
        # The formula adds the outer's enforcer before the inner's.
        fixed_first = bool(position)

        def kernel(c: float) -> float:
            varying = c if c > 0.0 else 0.0
            out = c * other * sel
            cost = (varying + fixed) * cpu_row + (out if out > 0.0 else 0.0) * emit
            if fixed_first and fixed_sort is not None:
                cost += fixed_sort
            if sort_varying is not None:
                cost += sort_varying(varying)
            if not fixed_first and fixed_sort is not None:
                cost += fixed_sort
            return base + cost

        return kernel

    def _rescan_kernel(self, base, sel, position, other):
        cpu_row, emit = self.params.cpu_row, self.params.cpu_emit
        temp_cost, temp_rescan_cost = self.temp_cost, self.temp_rescan_cost
        fixed = max(0.0, other)
        if not position:  # the outer varies, the TEMP'd inner is fixed
            temp = temp_cost(fixed)
            rescan = temp_rescan_cost(fixed)

            def kernel(c: float) -> float:
                outer = c if c > 0.0 else 0.0
                out = c * other * sel
                return base + (
                    temp + outer * rescan + outer * cpu_row
                    + (out if out > 0.0 else 0.0) * emit
                )

            return kernel
        outer_cpu = fixed * cpu_row

        def kernel(c: float) -> float:
            inner = c if c > 0.0 else 0.0
            out = other * c * sel
            return base + (
                temp_cost(inner) + fixed * temp_rescan_cost(inner) + outer_cpu
                + (out if out > 0.0 else 0.0) * emit
            )

        return kernel

    def _index_kernel(self, outer_cost, probe_cost, sel, position, other):
        emit = self.params.cpu_emit
        if not position:
            return lambda c: outer_cost + c * probe_cost + c * other * sel * emit
        probes = outer_cost + other * probe_cost
        return lambda c: probes + other * c * sel * emit

    # ------------------------------------------------------------- aggregates

    def group_by_cost(self, input_card: float, output_card: float) -> float:
        p = self.params
        return max(0.0, input_card) * p.cpu_agg + max(0.0, output_card) * p.cpu_emit

    def distinct_cost(self, input_card: float, output_card: float) -> float:
        p = self.params
        return max(0.0, input_card) * p.cpu_hash_probe + max(0.0, output_card) * p.cpu_emit

    def project_cost(self, card: float) -> float:
        return max(0.0, card) * self.params.cpu_emit

    # ----------------------------------------------------------------- recost

    def recost(self, plan, cards: Optional[dict] = None) -> dict:
        """Every node's cumulative cost, ``{node: cost}``, with the nodes
        named in ``cards`` (``op_id -> rows``) producing those rows.

        Every other node produces its ``est_card`` times the product of its
        children's growth ratios.  Each node is priced as the enumerator
        priced it, with the same floating-point operations, so at the
        estimates every node recosts to its ``est_cost`` exactly:

        * a join evaluates its ``cost_desc`` with ``base`` replaced by its
          recosted inputs — a merge join's below their sort enforcers, a
          rescan nested loop's inner below its TEMP (looking through
          CHECKs), and an index nested loop charges its inner IXSCAN
          ``outer rows × probe cost``;
        * SORT, TEMP, GRPBY, DISTINCT and PROJECT add their ``*_cost``,
          HAVING ``input rows × cpu_row``; CHECK, BUFCHECK, RETURN and
          ANTIJOIN add nothing;
        * a leaf keeps its ``est_cost``.
        """
        cards = cards or {}
        cpu_row, cpu_emit = self.params.cpu_row, self.params.cpu_emit
        local = {
            "SORT": lambda rows_in, rows: self.sort_cost(rows_in),
            "TEMP": lambda rows_in, rows: self.temp_cost(rows_in),
            "GRPBY": self.group_by_cost,
            "DISTINCT": self.distinct_cost,
            "PROJECT": lambda rows_in, rows: self.project_cost(rows_in),
            "HAVING": lambda rows_in, rows: rows_in * cpu_row,
        }
        cost: dict = {}
        out: dict = {}

        def under(op):
            """The input of the SORT / TEMP at ``op``, CHECKs looked through."""
            while op.KIND in ("CHECK", "BUFCHECK"):
                op = op.children[0]
            return op.children[0] if op.KIND in ("SORT", "TEMP") else op

        def visit(op) -> float:
            """Recost ``op``'s subtree; returns its growth ratio."""
            ratio = 1.0
            for child in op.children:
                ratio *= visit(child)
            if op.op_id in cards:
                rows = cards[op.op_id]
                ratio = rows / op.est_card if op.est_card > 0.0 else 1.0
            else:
                rows = op.est_card * ratio
            out[op] = rows
            if not op.children:
                cost[op] = op.est_cost
            elif len(op.children) > 1:
                outer, inner = op.children
                kind, _base, *consts = op.cost_desc
                rows_o, rows_i = out[outer], out[inner]
                if kind == "index":
                    cost[inner] = rows_o * consts[0]
                    cost[op] = cost[outer] + cost[inner] + rows * cpu_emit
                elif kind == "hash":
                    join = self.hash_join_cost(rows_o, rows_i, rows)
                    cost[op] = cost[outer] + cost[inner] + join
                elif kind == "merge":
                    _sel, sort_o, sort_i = consts
                    join = self.merge_join_cost(rows_o, rows_i, rows, sort_o, sort_i)
                    cost[op] = (
                        cost[under(outer) if sort_o else outer]
                        + cost[under(inner) if sort_i else inner]
                    ) + join
                else:  # rescan
                    join = self.nljn_rescan_cost(rows_o, rows_i, rows)
                    cost[op] = cost[outer] + cost[under(inner)] + join
            else:
                (child,) = op.children
                add = local.get(op.KIND)
                cost[op] = cost[child] + add(out[child], rows) if add else cost[child]
            return ratio

        visit(plan)
        return cost

    # ---------------------------------------------------------- optimization

    def reoptimization_cost(self, plans_enumerated: int) -> float:
        """Cost charged for one (re-)optimizer invocation (context switch +
        plan enumeration) — the small gap in the paper's Figure 12."""
        p = self.params
        return p.reopt_fixed + plans_enumerated * p.reopt_per_plan
