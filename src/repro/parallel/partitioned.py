"""Partitioned execution with *local* checking (paper §7).

The paper notes that in shared-nothing/SMP systems a CHECK's cardinality
counter would need global synchronization, and proposes the alternative of
**local checking**: "between global synchronization points each node may
change its plan, thus giving each node the chance to execute a different
partial QEP".

This module simulates that design on the single-node engine:

* one table of the query is horizontally partitioned into N fragments;
* the same statement runs once per fragment, each as its own statement
  through ``Database.execute`` — so a fragment whose local data violates a
  check range re-optimizes *locally*, without touching the other
  fragments' plans;
* fragment results are merged at the global synchronization point
  (concatenation for SPJ, partial re-aggregation for COUNT/SUM/MIN/MAX).

Because the fragments of a skewed table have different cardinalities, it is
common for only *some* fragments to re-optimize — each node genuinely runs
a different plan, which is the paper's point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.common.errors import ExecutionError
from repro.core.config import PopConfig
from repro.core.database import Database
from repro.core.driver import PopReport
from repro.plan.logical import Aggregate, Query, TableRef


@dataclass
class PartitionedResult:
    """Merged rows plus per-fragment execution accounting."""

    rows: list
    fragment_reports: list
    total_units: float

    @property
    def partitions(self) -> int:
        return len(self.fragment_reports)

    @property
    def local_reoptimizations(self) -> list:
        """Re-optimization count per fragment — unequal entries mean the
        fragments ended up running different plans (local checking)."""
        return [report.reoptimizations for report in self.fragment_reports]

    @property
    def distinct_final_plans(self) -> int:
        from repro.plan.explain import join_order

        return len({join_order(r.final_plan) for r in self.fragment_reports})


class PartitionedExecutor:
    """Runs statements with one table hash-partitioned across N fragments."""

    def __init__(self, db: Database, partitions: int = 4):
        if partitions < 2:
            raise ValueError("partitioned execution needs at least 2 fragments")
        self.db = db
        self.partitions = partitions

    # ----------------------------------------------------------- fragmenting

    def _fragment_names(self, table: str) -> list[str]:
        return [f"__frag{i}_{table}" for i in range(self.partitions)]

    def _create_fragments(self, table_name: str) -> list[str]:
        catalog = self.db.catalog
        base = catalog.table(table_name)
        names = self._fragment_names(table_name)
        buckets: list[list[tuple]] = [[] for _ in names]
        for rid, row in base.scan():
            buckets[rid % self.partitions].append(row)
        base_indexes = catalog.indexes_on(table_name)
        for name, rows in zip(names, buckets):
            catalog.create_table(name, base.schema)
            catalog.table(name).load_raw(rows)
            for index in base_indexes:
                kind = "sorted" if index.supports_range else "hash"
                catalog.create_index(
                    f"{index.name}__{name}", name, index.column, kind
                )
        self.db.runstats(tables=names)
        return names

    def _drop_fragments(self, names: list[str]) -> None:
        for name in names:
            self.db.catalog.drop_table(name)

    # -------------------------------------------------------------- rewriting

    @staticmethod
    def _rewrite(query: Query, alias: str, fragment_table: str) -> Query:
        tables = [
            TableRef(alias=t.alias, table=fragment_table if t.alias == alias else t.table)
            for t in query.tables
        ]
        return Query(
            tables=tables,
            select=list(query.select),
            local_predicates=list(query.local_predicates),
            join_predicates=list(query.join_predicates),
            group_by=list(query.group_by),
            having=[],  # applied globally after re-aggregation
            order_by=[],  # applied globally after the merge
            limit=None,  # applied globally after the merge
            distinct=False,  # deduplicated globally
        )

    # ---------------------------------------------------------------- merging

    @staticmethod
    def _validate(query: Query) -> None:
        for item in query.select:
            if isinstance(item, Aggregate) and item.func == "avg":
                raise ExecutionError(
                    "AVG is not decomposable over partitions; select SUM and "
                    "COUNT instead and divide in the application"
                )

    def _merge_aggregates(self, query: Query, fragment_rows: list[list[tuple]]):
        n_keys = len(query.group_by)
        groups: dict[tuple, list] = {}
        agg_items = [
            item for item in query.select if isinstance(item, Aggregate)
        ]
        for rows in fragment_rows:
            for row in rows:
                key = row[:n_keys]
                partials = groups.get(key)
                if partials is None:
                    groups[key] = list(row[n_keys:])
                    continue
                for i, item in enumerate(agg_items):
                    value = row[n_keys + i]
                    if value is None:
                        continue
                    if partials[i] is None:
                        partials[i] = value
                    elif item.func in ("count", "sum"):
                        partials[i] += value
                    elif item.func == "min":
                        partials[i] = min(partials[i], value)
                    elif item.func == "max":
                        partials[i] = max(partials[i], value)
        if not groups and not query.group_by:
            # Scalar aggregation over an empty result still yields one row.
            return [tuple(0 if a.func == "count" else None for a in agg_items)]
        return [key + tuple(partials) for key, partials in groups.items()]

    def _finalize(self, query: Query, rows: list) -> list:
        if query.having:
            from repro.expr.evaluate import compile_slot_filter

            names = query.output_names
            rows = compile_slot_filter(
                [(names.index(p.column), p.op, p.value) for p in query.having]
            )(rows)
        if query.distinct:
            seen = set()
            deduped = []
            for row in rows:
                if row not in seen:
                    seen.add(row)
                    deduped.append(row)
            rows = deduped
        if query.order_by:
            names = query.output_names
            for item in reversed(query.order_by):
                slot = names.index(item.column)
                rows.sort(
                    key=lambda r, s=slot: (r[s] is None, r[s]),
                    reverse=not item.ascending,
                )
        if query.limit is not None:
            rows = rows[: query.limit]
        return rows

    # -------------------------------------------------------------------- run

    def run(
        self,
        statement,
        partition_table: str,
        params: Optional[dict[str, Any]] = None,
        pop: Optional[PopConfig] = None,
    ) -> PartitionedResult:
        """Execute ``statement`` with ``partition_table`` split N ways."""
        query = self.db._to_query(statement)
        self._validate(query)
        aliases = [
            t.alias for t in query.tables if t.table == partition_table.lower()
        ]
        if len(aliases) != 1:
            raise ExecutionError(
                f"partition table {partition_table!r} must appear exactly once"
            )
        alias = aliases[0]
        fragments = self._create_fragments(partition_table.lower())
        reports: list[PopReport] = []
        fragment_rows: list[list[tuple]] = []
        try:
            for fragment in fragments:
                local_query = self._rewrite(query, alias, fragment)
                result = self.db.execute(local_query, params=params, pop=pop)
                reports.append(result.report)
                fragment_rows.append(result.rows)
        finally:
            self._drop_fragments(fragments)
        if query.has_aggregates:
            merged = self._merge_aggregates(query, fragment_rows)
        else:
            merged = [row for rows in fragment_rows for row in rows]
        merged = self._finalize(query, merged)
        return PartitionedResult(
            rows=merged,
            fragment_reports=reports,
            total_units=sum(r.total_units for r in reports),
        )
