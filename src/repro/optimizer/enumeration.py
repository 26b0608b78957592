"""System-R style dynamic-programming plan enumeration.

For every connected subset of the query's tables the enumerator keeps the
cheapest plan per interesting order.  Join candidates are generated for all
partitions of a subset (bushy by default, left-deep for wide queries) and all
enabled join methods, plus MV-scan candidates when a temporary materialized
view from a previous partial execution matches the subset (paper §2.3: reuse
is a cost-based *choice*, never forced).

Validity-range narrowing (paper §2.2) is recorded at pruning and evaluated
for the chosen plan: whenever a kept candidate is compared with a not-cheaper
*structurally equivalent* one — same pair of input-edge row sets,
commutations included — pruning notes the loser's cost function on the
winner, and once the DP has picked the final plan the Fig. 5 sensitivity
probe narrows the per-edge validity ranges of exactly the join operators in
it.  Narrowing depends only on the winner, its alternatives and the subset
estimates, so the ranges are the ones narrowing inside the prune loop would
give; the probes for sub-plans nobody returns are never run.  Join-order
changes never narrow ranges, exactly as the paper prescribes (the
conservatism that avoids guessing unobservable correlations).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.common.errors import OptimizerError
from repro.expr.evaluate import RowLayout
from repro.expr.predicates import (
    Between,
    Comparison,
    Predicate,
    predicate_set_id,
)
from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.costmodel import CostModel
from repro.optimizer.joingraph import JoinGraph
from repro.optimizer.validity import narrow_validity_range
from repro.plan.logical import Aggregate, Query
from repro.plan.physical import (
    Distinct,
    GroupBy,
    HashJoin,
    HavingFilter,
    IndexScan,
    MergeJoin,
    MVScan,
    NLJoin,
    PlanOp,
    Project,
    Return,
    Sort,
    TableScan,
    Temp,
)
from repro.plan.properties import PlanProperties
from repro.storage.catalog import Catalog, TempMVRegistry

#: ``join_enumeration="auto"`` enumerates bushy trees up to this many tables,
#: left-deep ones beyond.
AUTO_BUSHY_LIMIT = 8
#: Interesting-order plans kept per table subset.
MAX_PLANS_PER_SUBSET = 4


@dataclass
class OptimizerOptions:
    """Switches controlling enumeration (several map to paper experiments)."""

    enable_hash_join: bool = True
    enable_merge_join: bool = True
    enable_index_nljn: bool = True
    enable_rescan_nljn: bool = True
    #: Consider temp MVs from previous partial executions (paper §2.3).
    consider_mvs: bool = True
    #: Price MV scans at zero (forces reuse — the "always" ablation policy).
    mv_cost_zero: bool = False
    #: Newton–Raphson iteration cap of the validity probe (paper: 3).
    validity_iterations: int = 3
    #: Commit Fig. 5 step-(g) bounds when the probe converged but the cap hit.
    commit_without_inversion: bool = True
    #: Compute validity ranges at all (ablation switch).
    compute_validity_ranges: bool = True
    #: "bushy", "leftdeep", or "auto" (bushy up to AUTO_BUSHY_LIMIT tables).
    join_enumeration: str = "auto"


@dataclass(slots=True)
class Candidate:
    """One physical alternative for a table subset during DP."""

    #: The operator tree.  A join candidate's is made by ``build`` when
    #: pruning keeps it; candidates pruning drops never have one.
    plan: Optional[PlanOp]
    cost: float
    order: tuple
    #: Identity of the two input edges as (outer tables, inner tables);
    #: ``None`` for leaf candidates (scans, MV scans).
    edge_subsets: Optional[tuple] = None
    #: Total cost as a function of (outer_card, inner_card), as a
    #: ``(kind, *constants)`` description that ``CostModel.edge_kernel``
    #: restricts to one edge and the built node carries as
    #: ``JoinOp.cost_desc``; None for leaves.
    cost_desc: Optional[tuple] = None
    #: The kept candidates this join reads (outer first); empty for leaves.
    inputs: tuple = ()
    build: Optional[Callable[[], PlanOp]] = None
    #: Set by pruning when this candidate is kept: ``(cost_desc, commuted)``
    #: of every not-cheaper structurally equivalent candidate, ``commuted``
    #: when that one takes the two edges in the opposite argument order.
    alternatives: Sequence[tuple] = ()


@dataclass(slots=True)
class _Partition:
    """What the joins of one (outer tables, inner tables) split of a subset
    share whichever pair of kept input plans they read, computed once."""

    edge_subsets: tuple
    subset: frozenset
    #: Join predicates between the two sides; empty for a cross product.
    preds: list
    card_out: float
    #: Ids of every predicate applied once ``subset`` is joined.
    applied: frozenset
    #: Merge-join sort keys (outer, inner), one column per join predicate.
    merge_keys: tuple
    #: ``(alias, filtered cardinality, [(predicate, index, cost of one
    #: probe)])`` when the inner is one base table with an index on a join
    #: column, else None.
    index_inner: Optional[tuple]
    _costs: dict = field(default_factory=dict)

    def method_cost(self, method: Callable[..., float], *args) -> float:
        """``method(*args)``, evaluated once per argument tuple: the kept
        plans of an input subset mostly share their cardinality."""
        key = (method.__name__, args)
        cost = self._costs.get(key)
        if cost is None:
            cost = self._costs[key] = method(*args)
        return cost


def order_satisfies(provided: tuple, required: tuple) -> bool:
    """True when ``provided`` output order covers ``required`` as a prefix."""
    return provided[: len(required)] == tuple(required)


class PlanEnumerator:
    """Runs the DP for one query and produces the final physical plan."""

    def __init__(
        self,
        catalog: Catalog,
        query: Query,
        estimator: CardinalityEstimator,
        cost_model: CostModel,
        options: Optional[OptimizerOptions] = None,
        temp_mvs: Optional[TempMVRegistry] = None,
    ):
        self.catalog = catalog
        #: The calling statement's temp MVs (§2.3 reuse candidates).
        self.temp_mvs = temp_mvs if temp_mvs is not None else ()
        self.query = query
        self.estimator = estimator
        self.cost_model = cost_model
        self.options = options if options is not None else OptimizerOptions()
        self.graph = JoinGraph(query)
        #: Number of candidate plans constructed (drives re-optimization cost).
        self.plans_enumerated = 0
        #: Total Fig. 5 Newton–Raphson iterations spent narrowing validity
        #: ranges (observability: the sensitivity analysis's share of work).
        self.newton_iterations = 0
        self._allow_cross = not self.graph.fully_connected

    # ================================================================ leaves

    def _table_layout(self, alias: str) -> RowLayout:
        table = self.catalog.table(self.query.table_for(alias).table)
        return RowLayout([f"{alias}.{c}" for c in table.schema.names()])

    def _leaf_properties(self, alias: str) -> PlanProperties:
        preds = self.query.local_predicates_for(alias)
        return PlanProperties(
            tables=frozenset({alias}), predicates=predicate_set_id(preds)
        )

    def _sargable(self, pred: Predicate, column: str, supports_range: bool) -> bool:
        """Can ``pred`` be evaluated through an index on ``column``?"""
        if isinstance(pred, Comparison) and pred.column.column == column:
            if pred.op == "=":
                return True
            return supports_range and pred.op in ("<", "<=", ">", ">=")
        if isinstance(pred, Between) and pred.column.column == column:
            return supports_range
        return False

    def access_paths(self, alias: str) -> list[Candidate]:
        """Scan alternatives for one base table."""
        table_name = self.query.table_for(alias).table
        table = self.catalog.table(table_name)
        stats = self.estimator.statistics(alias)
        pages = float(stats.page_count) if stats is not None else float(table.page_count)
        base_rows = self.estimator.base_cardinality(alias)
        preds = self.query.local_predicates_for(alias)
        layout = self._table_layout(alias)
        props = self._leaf_properties(alias)
        card = self.estimator.filtered_cardinality(alias)

        candidates = [
            Candidate(
                plan=TableScan(
                    alias, table_name, preds, props, layout,
                    est_card=card,
                    est_cost=self.cost_model.table_scan_cost(pages, base_rows),
                ),
                cost=self.cost_model.table_scan_cost(pages, base_rows),
                order=(),
            )
        ]
        self.plans_enumerated += 1

        for index in self.catalog.indexes_on(table_name):
            sarg = next(
                (
                    p
                    for p in preds
                    if self._sargable(p, index.column, index.supports_range)
                ),
                None,
            )
            if sarg is None:
                continue
            sarg_sel = self.estimator.single_predicate_selectivity(alias, sarg)
            matched = max(1.0, base_rows * sarg_sel)
            residual = [p for p in preds if p is not sarg]
            cost = self.cost_model.index_range_scan_cost(
                matched, float(index.leaf_pages), pages
            )
            order = (
                (f"{alias}.{index.column}",) if index.supports_range else ()
            )
            plan = IndexScan(
                alias, table_name, index.name, sarg, residual,
                props.with_order(order), layout,
                est_card=card, est_cost=cost,
            )
            candidates.append(Candidate(plan=plan, cost=cost, order=order))
            self.plans_enumerated += 1

        candidates.extend(self._mv_candidates(frozenset({alias})))
        return candidates

    # ================================================================ MV reuse

    def _mv_candidates(self, subset: frozenset) -> list[Candidate]:
        """MV-scan alternatives for ``subset`` from temp MVs (paper §2.3)."""
        if not self.options.consider_mvs:
            return []
        required = predicate_set_id(self.estimator.predicates_for_subset(subset))
        candidates = []
        for mv in self.temp_mvs:
            if mv.tables != subset or not (mv.predicate_ids <= required):
                continue
            residual_ids = required - mv.predicate_ids
            residual = [
                p
                for p in self.estimator.predicates_for_subset(subset)
                if p.pred_id in residual_ids
            ]
            if residual:
                # Residual predicates must be evaluable over the MV's columns.
                mv_cols = set(mv.columns)
                if any(
                    c.qualified not in mv_cols for p in residual for c in p.columns()
                ):
                    continue
                card = max(0.001, mv.cardinality * 0.5)
            else:
                card = float(mv.cardinality)
            cost = (
                0.0
                if self.options.mv_cost_zero
                else self.cost_model.mv_scan_cost(mv.cardinality)
            )
            props = PlanProperties(
                tables=subset, predicates=required, order=tuple(mv.order)
            )
            plan = MVScan(
                mv.name, props, RowLayout(list(mv.columns)),
                est_card=card, est_cost=cost, filters=residual,
            )
            candidates.append(
                Candidate(plan=plan, cost=cost, order=tuple(mv.order))
            )
            self.plans_enumerated += 1
        return candidates

    # ================================================================= joins

    def _join_shape(
        self, left: Candidate, inner_layout: RowLayout, part: _Partition
    ) -> tuple[PlanProperties, RowLayout]:
        """Output properties and row layout of a join of ``part``.

        Hash/nested-loop joins stream the outer (build/materialize the
        inner), so they deliver rows in the outer's order.
        """
        props = PlanProperties(
            tables=part.subset,
            predicates=part.applied,
            order=left.plan.properties.order,
        )
        return props, left.plan.layout.concat(inner_layout)

    def _join_candidates(
        self, left: Candidate, right: Candidate, part: _Partition
    ) -> list[Candidate]:
        """All join methods for ``left JOIN right`` (left is the outer).

        A candidate carries its cost and a ``build`` recipe; the operator
        tree is only made for the candidates pruning keeps.
        """
        cm = self.cost_model
        preds = part.preds
        card_l = left.plan.est_card
        card_r = right.plan.est_card
        card_out = part.card_out
        # Effective join selectivity: keeps out(cl, cr) consistent with the
        # subset estimate at the current operating point.
        sel_eff = card_out / max(1e-9, card_l * card_r)
        edge_subsets = part.edge_subsets
        inputs = (left, right)
        base_cost = left.cost + right.cost
        out: list[Candidate] = []

        # ---------------------------------------------------------- hash join
        if self.options.enable_hash_join and preds:
            total = base_cost + part.method_cost(
                cm.hash_join_cost, card_l, card_r, card_out
            )
            hash_desc = ("hash", base_cost, sel_eff)

            def build_hsjn(_total=total) -> PlanOp:
                props, layout = self._join_shape(left, right.plan.layout, part)
                return HashJoin(
                    left.plan, right.plan, preds, props, layout,
                    est_card=card_out, est_cost=_total, cost_desc=hash_desc,
                )

            out.append(
                Candidate(
                    None, total, left.order, edge_subsets,
                    hash_desc, inputs, build_hsjn,
                )
            )

        # --------------------------------------------------------- merge join
        if self.options.enable_merge_join and preds:
            key_l, key_r = part.merge_keys
            sort_l = not order_satisfies(left.order, key_l)
            sort_r = not order_satisfies(right.order, key_r)
            total = base_cost + part.method_cost(
                cm.merge_join_cost, card_l, card_r, card_out, sort_l, sort_r
            )
            merge_desc = ("merge", base_cost, sel_eff, sort_l, sort_r)

            def build_msjn(_total=total) -> PlanOp:
                outer_plan = left.plan
                inner_plan = right.plan
                if sort_l:
                    outer_plan = Sort(
                        left.plan, key_l, left.plan.properties.with_order(key_l),
                        est_cost=left.cost + cm.sort_cost(card_l),
                    )
                if sort_r:
                    inner_plan = Sort(
                        right.plan, key_r, right.plan.properties.with_order(key_r),
                        est_cost=right.cost + cm.sort_cost(card_r),
                    )
                props, layout = self._join_shape(left, right.plan.layout, part)
                return MergeJoin(
                    outer_plan, inner_plan, preds, props.with_order(key_l), layout,
                    est_card=card_out, est_cost=_total, cost_desc=merge_desc,
                )

            out.append(
                Candidate(
                    None, total, key_l, edge_subsets, merge_desc, inputs, build_msjn,
                )
            )

        # -------------------------------------------------- rescan nested loop
        # ``preds`` are applied as join filters; empty = cross product.
        if self.options.enable_rescan_nljn and (preds or self._allow_cross):
            total = base_cost + part.method_cost(
                cm.nljn_rescan_cost, card_l, card_r, card_out
            )
            rescan_desc = ("rescan", base_cost, sel_eff)

            def build_rescan(_total=total) -> PlanOp:
                temp = Temp(right.plan, est_cost=right.cost + cm.temp_cost(card_r))
                props, layout = self._join_shape(left, right.plan.layout, part)
                return NLJoin(
                    left.plan, temp, preds, props, layout,
                    est_card=card_out, est_cost=_total, method="rescan",
                    cost_desc=rescan_desc,
                )

            out.append(
                Candidate(
                    None, total, left.order, edge_subsets,
                    rescan_desc, inputs, build_rescan,
                )
            )

        self.plans_enumerated += len(out)
        return out

    def _index_inner(self, inner_alias: str, preds: list) -> Optional[tuple]:
        """``_Partition.index_inner`` for a partition whose inner is the
        base table ``inner_alias``."""
        if not self.options.enable_index_nljn:
            return None
        inner_table_name = self.query.table_for(inner_alias).table
        base_rows = self.estimator.base_cardinality(inner_alias)
        stats = self.estimator.statistics(inner_alias)
        inner_pages = float(
            stats.page_count
            if stats is not None
            else self.catalog.table(inner_table_name).page_count
        )
        probes = []
        for pred in preds:
            inner_col = pred.side_for(inner_alias)
            index = self.catalog.index_on_column(inner_table_name, inner_col.column)
            if index is None:
                continue
            ndv = stats.ndv(inner_col.column) if stats is not None else None
            fetched_per_probe = base_rows / float(ndv) if ndv else 1.0
            probe_cost = self.cost_model.index_probe_cost(fetched_per_probe, inner_pages)
            probes.append((pred, index, probe_cost))
        if not probes:
            return None
        return inner_alias, self.estimator.filtered_cardinality(inner_alias), probes

    def _index_nljn_candidates(self, left: Candidate, part: _Partition) -> list[Candidate]:
        """Index nested-loop joins: probe an inner index once per outer row."""
        inner_alias, card_r, probes = part.index_inner
        preds = part.preds
        out: list[Candidate] = []
        card_l = left.plan.est_card
        card_out = part.card_out
        sel_eff = card_out / max(1e-9, card_l * card_r)
        emit_cost = card_out * self.cost_model.params.cpu_emit

        for pred, index, probe_cost in probes:
            inner_total_cost = card_l * probe_cost
            total = left.cost + inner_total_cost + emit_cost
            desc = ("index", left.cost, probe_cost, sel_eff)

            def build_nljn(
                _pred=pred, _index=index, _inner_cost=inner_total_cost, _total=total,
                _desc=desc,
            ) -> PlanOp:
                inner_layout = self._table_layout(inner_alias)
                inner_plan = IndexScan(
                    inner_alias, self.query.table_for(inner_alias).table, _index.name,
                    sarg=None, filters=list(self.query.local_predicates_for(inner_alias)),
                    properties=self._leaf_properties(inner_alias),
                    layout=inner_layout,
                    est_card=card_out, est_cost=_inner_cost,
                    correlation=_pred.other_side(inner_alias),
                )
                props, layout = self._join_shape(left, inner_layout, part)
                return NLJoin(
                    left.plan, inner_plan,
                    [_pred] + [p for p in preds if p is not _pred], props, layout,
                    est_card=card_out, est_cost=_total, method="index",
                    cost_desc=_desc,
                )

            out.append(
                Candidate(
                    None, total, left.order, part.edge_subsets, desc, (left,), build_nljn,
                )
            )
        self.plans_enumerated += len(out)
        return out

    # =============================================================== pruning

    def _keep_best(self, candidates: list[Candidate], subset: frozenset) -> list[Candidate]:
        """Dominance-prune a subset's candidates and record what narrowing
        the kept ones' validity ranges will need.

        A candidate is kept when no cheaper candidate provides (a prefix of)
        its output order.  Every kept *join* candidate remembers the cost
        function of each more expensive structurally equivalent alternative
        (same pair of input-edge subsets) — not the alternative's plan tree,
        which is dropped here; :meth:`_narrow_against` reads them if the
        candidate ends up in the returned plan.
        """
        if not candidates:
            return []
        candidates.sort(key=lambda c: c.cost)
        kept: list[Candidate] = []
        for cand in candidates:
            if any(
                k.cost <= cand.cost and order_satisfies(k.order, cand.order)
                for k in kept
            ):
                continue
            kept.append(cand)
            if len(kept) >= MAX_PLANS_PER_SUBSET:
                break
        for cand in kept:
            if cand.plan is None:
                cand.plan = cand.build()  # type: ignore[misc]

        if self.options.compute_validity_ranges:
            for winner in kept:
                if winner.cost_desc is None or winner.edge_subsets is None:
                    continue
                edges = winner.edge_subsets
                # Same pair of input edges, either way round: structurally
                # equivalent.  Any other pair is a join-order change.
                equivalent = (edges, edges[::-1])
                winner.alternatives = [
                    (alt.cost_desc, alt.edge_subsets != edges)
                    for alt in candidates
                    if alt.cost >= winner.cost
                    and alt.edge_subsets in equivalent
                    and alt is not winner
                    and alt.cost_desc is not None
                ]
        return kept

    def _narrow_against(self, winner: Candidate) -> None:
        """Narrow ``winner``'s edge validity ranges with the Fig. 5 probe
        against each alternative pruning recorded for it."""
        if not winner.alternatives:
            return
        kernel = self.cost_model.edge_kernel
        est_l, est_r = (
            self.estimator.subset_cardinality(e) for e in winner.edge_subsets
        )
        for i, (est, other) in enumerate(((est_l, est_r), (est_r, est_l))):
            cost_opt = kernel(winner.cost_desc, i, other)
            for alt_desc, commuted in winner.alternatives:
                self.newton_iterations += narrow_validity_range(
                    winner.plan.validity_ranges[i],
                    est,
                    cost_opt,
                    # A commuted alternative takes this edge in the other slot.
                    kernel(alt_desc, 1 - i if commuted else i, other),
                    max_iterations=self.options.validity_iterations,
                    commit_without_inversion=self.options.commit_without_inversion,
                )

    # ============================================================== main DP

    def _partitions(self, subset: tuple) -> list[tuple[frozenset, frozenset, list]]:
        """(outer, inner, join predicates between them) for every partition
        of ``subset`` to consider."""
        n = len(self.query.tables)
        mode = self.options.join_enumeration
        if mode == "auto":
            mode = "bushy" if n <= AUTO_BUSHY_LIMIT else "leftdeep"
        subset_set = frozenset(subset)
        parts: list[tuple[frozenset, frozenset]] = []
        if mode == "leftdeep":
            for alias in subset:
                left = subset_set - {alias}
                right = frozenset({alias})
                parts.append((left, right))
                parts.append((right, left))
        else:
            elements = list(subset)
            for r in range(1, len(elements)):
                for combo in itertools.combinations(elements, r):
                    left = frozenset(combo)
                    parts.append((left, subset_set - left))
        between = self.graph.predicates_between
        return [
            (l, r, preds)
            for l, r, preds in ((l, r, between(l, r)) for l, r in parts)
            if preds or self._allow_cross
        ]

    def _partition(
        self, left_tables, right_tables, subset, preds, card_out, applied
    ) -> _Partition:
        """The shared state of ``left_tables JOIN right_tables``."""
        outer_alias = [next(iter(p.tables() & left_tables)) for p in preds]
        return _Partition(
            (left_tables, right_tables), subset, preds, card_out, applied,
            merge_keys=(
                tuple(p.side_for(a).qualified for p, a in zip(preds, outer_alias)),
                tuple(p.other_side(a).qualified for p, a in zip(preds, outer_alias)),
            ),
            index_inner=(
                self._index_inner(next(iter(right_tables)), preds)
                if len(right_tables) == 1
                else None
            ),
        )

    def run(self) -> PlanOp:
        """Execute the DP and return the full physical plan (Return at root)."""
        aliases = self.query.aliases
        if not aliases:
            raise OptimizerError("query has no tables")
        table: dict[frozenset, list[Candidate]] = {}
        for alias in aliases:
            table[frozenset({alias})] = self._keep_best(
                self.access_paths(alias), frozenset({alias})
            )

        for size in range(2, len(aliases) + 1):
            for combo in itertools.combinations(aliases, size):
                subset = frozenset(combo)
                if not self._allow_cross and not self.graph.is_connected_subset(combo):
                    continue
                candidates: list[Candidate] = []
                card_out = self.estimator.subset_cardinality(subset)
                applied = predicate_set_id(self.estimator.predicates_for_subset(subset))
                for left_tables, right_tables, preds in self._partitions(combo):
                    left_plans = table.get(left_tables)
                    right_plans = table.get(right_tables)
                    if not left_plans or not right_plans:
                        continue
                    part = self._partition(
                        left_tables, right_tables, subset, preds, card_out, applied
                    )
                    for pl in left_plans:
                        for pr in right_plans:
                            candidates.extend(self._join_candidates(pl, pr, part))
                        if part.index_inner is not None:
                            candidates.extend(self._index_nljn_candidates(pl, part))
                candidates.extend(self._mv_candidates(subset))
                if not candidates:
                    raise OptimizerError(
                        f"no plan for subset {sorted(subset)} "
                        "(disconnected join graph with cross products disabled?)"
                    )
                table[subset] = self._keep_best(candidates, subset)

        full = frozenset(aliases)
        best = min(table[full], key=lambda c: c.cost)
        # Sensitivity analysis only for the plan that survives: the joins
        # reachable from ``best`` are exactly the joins of the returned plan.
        chosen = [best]
        while chosen:
            cand = chosen.pop()
            self._narrow_against(cand)
            chosen.extend(cand.inputs)
        return self._finalize(best)

    # ============================================================ finalization

    def _finalize(self, best: Candidate) -> PlanOp:
        """Add aggregation / distinct / order-by / projection / return."""
        cm = self.cost_model
        query = self.query
        plan = best.plan

        if query.has_aggregates:
            group_keys = tuple(query.group_by)
            out_card = self.estimator.group_by_cardinality(plan.est_card, group_keys)
            layout = RowLayout(
                [k.qualified for k in group_keys]
                + [a.alias for a in query.select if isinstance(a, Aggregate)]
            )
            aggs = tuple(a for a in query.select if isinstance(a, Aggregate))
            plan = GroupBy(
                plan, group_keys, aggs,
                plan.properties.unordered(), layout,
                est_card=out_card,
                est_cost=plan.est_cost + cm.group_by_cost(plan.est_card, out_card),
            )

        if query.having:
            # Post-aggregation filter; a default selectivity per conjunct.
            out_card = max(1.0, plan.est_card * (0.33 ** len(query.having)))
            plan = HavingFilter(
                plan, query.having,
                est_card=out_card,
                est_cost=plan.est_cost + plan.est_card * cm.params.cpu_row,
            )

        output_columns = query.output_names
        if tuple(plan.layout.columns) != tuple(output_columns):
            plan = Project(
                plan, output_columns,
                est_cost=plan.est_cost + cm.project_cost(plan.est_card),
            )

        if query.distinct and not query.has_aggregates:
            # DISTINCT deduplicates the *projected* rows.
            out_card = self.estimator.distinct_cardinality(plan.est_card)
            plan = Distinct(
                plan, plan.properties.unordered(),
                est_card=out_card,
                est_cost=plan.est_cost + cm.distinct_cost(plan.est_card, out_card),
            )

        if query.order_by:
            keys = tuple(item.column for item in query.order_by)
            ascending = tuple(item.ascending for item in query.order_by)
            if not order_satisfies(plan.properties.order, keys) or not all(ascending):
                plan = Sort(
                    plan, keys, plan.properties.with_order(keys),
                    est_cost=plan.est_cost + cm.sort_cost(plan.est_card),
                    ascending=ascending,
                )

        return Return(plan, limit=query.limit)
