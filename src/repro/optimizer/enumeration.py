"""System-R style dynamic-programming plan enumeration.

For every connected subset of the query's tables the enumerator keeps the
cheapest plan per interesting order.  Join candidates are generated for all
partitions of a subset (bushy by default, left-deep for wide queries) and all
enabled join methods, plus MV-scan candidates when a temporary materialized
view from a previous partial execution matches the subset (paper §2.3: reuse
is a cost-based *choice*, never forced).

The DP names table subsets by alias bitmasks (``JoinGraph.bit``): a split is
skipped before its join predicates are looked up when either side has no
plan.  A split's join methods are priced once per pair of input
cardinalities (merge once per sort-flag pair too), not once per pair of kept
input plans.  A join candidate is a plain tuple, ``(cost, order, cost
description, inputs, partition, probe)``; pruning makes a
:class:`Candidate` only of the few it keeps, and no operator tree exists
for a join until the DP is done: :meth:`PlanEnumerator.run` builds
(:meth:`PlanEnumerator._build_join`) the joins of the returned plan and
nothing else.

Validity-range narrowing (paper §2.2) runs for those joins only.  A kept
join holds on to its subset's candidates, grouped by their pair of
input-edge row sets; when the join turns out to be in the returned plan,
:meth:`PlanEnumerator._alternatives` derives from them every not-cheaper
*structurally equivalent* candidate — its own group and the commuted one —
once per distinct cost function, and the Fig. 5 sensitivity probe narrows
the join's per-edge validity ranges against them, evaluating the winner's
cost at each probe point once.  Narrowing depends only on the winner, the
distinct cost functions of its alternatives and the subset estimates (a
bound is a min or a max, so a repeated cost function cannot move it), so
the ranges are the ones narrowing inside the prune loop against every
alternative would give; the probes for sub-plans nobody returns are never
run.  Join-order changes never narrow ranges, exactly as the paper
prescribes (the conservatism that avoids guessing unobservable
correlations).
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Optional

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

#: The DP enumerates bushy trees up to this many tables, left-deep ones
#: beyond.
AUTO_BUSHY_LIMIT = 8
#: Interesting-order plans kept per table subset.
MAX_PLANS_PER_SUBSET = 4
#: A candidate tuple's cost (join and leaf tuples both start with it).
_COST = operator.itemgetter(0)


@dataclass
class OptimizerOptions:
    """Switches controlling enumeration (several map to paper experiments)."""

    enable_hash_join: bool = True
    enable_merge_join: bool = True
    enable_index_nljn: bool = True
    enable_rescan_nljn: bool = True
    #: Price MV scans at zero (forces reuse — the "always" ablation policy).
    mv_cost_zero: bool = False
    #: Newton–Raphson iteration cap of the validity probe (paper: 3).
    validity_iterations: int = 3


@dataclass(slots=True)
class Candidate:
    """One plan pruning kept for a table subset during DP.

    The DP generates candidates as plain tuples: a join is ``(cost, order,
    cost_desc, inputs, part, probe)`` and a leaf (scan, MV scan) is
    ``(cost, order, plan)``.  Only the ones pruning keeps become a
    ``Candidate``.
    """

    #: The operator tree.  A leaf's is made with it; a join's is made by
    #: :meth:`PlanEnumerator._build_join` once the join is in the returned
    #: plan, and never otherwise.
    plan: Optional[PlanOp]
    cost: float
    order: tuple
    #: Estimated output rows: the leaf plan's ``est_card``, a join's
    #: ``part.card_out``.
    card: float
    #: Total cost as a function of (outer_card, inner_card), as a
    #: ``(kind, *constants)`` description that ``CostModel.edge_kernel``
    #: restricts to one edge and the built node carries as
    #: ``JoinOp.cost_desc``; None for leaves.
    cost_desc: Optional[tuple] = None
    #: The kept candidates this join reads (outer first); empty for leaves.
    inputs: tuple = ()
    #: The split this join was made for; None for leaves.
    part: Optional["_Partition"] = None
    #: ``(predicate, index, cost of one probe)`` of an index nested-loop
    #: join (one of ``part.index_inner``'s probes); None otherwise.
    probe: Optional[tuple] = None
    #: A join's subset's candidate tuples by pair of input-edge subsets,
    #: as pruning saw them: what :meth:`PlanEnumerator._alternatives`
    #: reads.  None for leaves.
    groups: Optional[dict] = None


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
        #: ``_index_inner`` results by (inner alias, predicates); an
        #: enumerator runs once, so they live for one :meth:`run`.
        self._index_inners: dict = {}

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

    def access_paths(self, alias: str) -> list[tuple]:
        """Scan alternatives for one base table, as ``(cost, order, plan)``
        leaf tuples."""
        table_name = self.query.table_for(alias).table
        table = self.catalog.table(table_name)
        stats = self.estimator.statistics(alias)
        pages = float(stats.page_count) if stats is not None else float(table.page_count)
        base_rows = self.estimator.base_cardinality(alias)
        preds = self.query.local_predicates_for(alias)
        layout = self._table_layout(alias)
        props = self._leaf_properties(alias)
        card = self.estimator.filtered_cardinality(alias)

        cost = self.cost_model.table_scan_cost(pages, base_rows)
        candidates = [
            (cost, (), TableScan(
                alias, table_name, preds, props, layout, est_card=card, est_cost=cost,
            ))
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
            candidates.append((cost, order, plan))
            self.plans_enumerated += 1

        candidates.extend(self._mv_candidates(frozenset({alias})))
        return candidates

    # ================================================================ MV reuse

    def _mv_candidates(self, subset: frozenset) -> list[tuple]:
        """MV-scan alternatives for ``subset`` from temp MVs (paper §2.3), as
        ``(cost, order, plan)`` leaf tuples."""
        if not self.temp_mvs:
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
            candidates.append((cost, tuple(mv.order), plan))
            self.plans_enumerated += 1
        return candidates

    # ================================================================= joins

    def _join_candidates(
        self, part: _Partition, left_plans: list, right_plans: list
    ) -> list[tuple]:
        """Every join of ``part`` over each pair of kept input plans (the
        left one is the outer), as ``(cost, order, cost_desc, inputs, part,
        probe)`` tuples.

        The kept plans of one subset mostly share their cardinality, so each
        method's two-variable cost is evaluated once per pair of input
        cardinalities (merge once per sort-flag pair too).
        """
        cm = self.cost_model
        options = self.options
        preds = part.preds
        card_out = part.card_out
        hash_on = options.enable_hash_join and bool(preds)
        merge_on = options.enable_merge_join and bool(preds)
        # ``preds`` are applied as join filters; empty = cross product.
        rescan_on = options.enable_rescan_nljn and (bool(preds) or self._allow_cross)
        key_l, key_r = part.merge_keys
        hash_costs: dict = {}
        merge_costs: dict = {}
        rescan_costs: dict = {}
        if part.index_inner is not None:
            _, card_idx, probes = part.index_inner
            emit_cost = card_out * cm.params.cpu_emit
        else:
            probes = ()
        out: list[tuple] = []
        for left in left_plans:
            card_l = left.card
            sort_l = not order_satisfies(left.order, key_l)
            for right in right_plans:
                card_r = right.card
                cards = (card_l, card_r)
                # Effective join selectivity: keeps out(cl, cr) consistent
                # with the subset estimate at the current operating point
                # (the conditional is ``max(1e-9, pairs)`` without a call).
                pairs = card_l * card_r
                sel_eff = card_out / (pairs if pairs > 1e-9 else 1e-9)
                base_cost = left.cost + right.cost
                inputs = (left, right)
                if hash_on:
                    cost = hash_costs.get(cards)
                    if cost is None:
                        cost = hash_costs[cards] = cm.hash_join_cost(
                            card_l, card_r, card_out
                        )
                    out.append((
                        base_cost + cost, left.order, ("hash", base_cost, sel_eff),
                        inputs, part, None,
                    ))
                if merge_on:
                    sort_r = not order_satisfies(right.order, key_r)
                    key = (card_l, card_r, sort_l, sort_r)
                    cost = merge_costs.get(key)
                    if cost is None:
                        cost = merge_costs[key] = cm.merge_join_cost(
                            card_l, card_r, card_out, sort_l, sort_r
                        )
                    out.append((
                        base_cost + cost, key_l,
                        ("merge", base_cost, sel_eff, sort_l, sort_r), inputs, part, None,
                    ))
                if rescan_on:
                    cost = rescan_costs.get(cards)
                    if cost is None:
                        cost = rescan_costs[cards] = cm.nljn_rescan_cost(
                            card_l, card_r, card_out
                        )
                    out.append((
                        base_cost + cost, left.order, ("rescan", base_cost, sel_eff),
                        inputs, part, None,
                    ))
            # Index nested loop: probe an inner index once per outer row.
            if probes:
                sel_eff = card_out / max(1e-9, card_l * card_idx)
                for probe in probes:
                    probe_cost = probe[2]
                    out.append((
                        left.cost + card_l * probe_cost + emit_cost, left.order,
                        ("index", left.cost, probe_cost, sel_eff), (left,), part, probe,
                    ))
        self.plans_enumerated += len(out)
        return out

    def _build_join(self, cand: Candidate) -> PlanOp:
        """The operator tree of a kept join, its inputs' trees built.

        Hash/nested-loop joins stream the outer (build/materialize the
        inner), so they deliver rows in the outer's order.
        """
        cm = self.cost_model
        part = cand.part
        desc = cand.cost_desc
        left_cand = cand.inputs[0]
        left = left_cand.plan
        props = PlanProperties(
            tables=part.subset, predicates=part.applied, order=left.properties.order
        )
        if desc[0] == "index":
            pred, index, probe_cost = cand.probe
            inner_alias = part.index_inner[0]
            inner_layout = self._table_layout(inner_alias)
            inner = IndexScan(
                inner_alias, self.query.table_for(inner_alias).table, index.name,
                sarg=None, filters=list(self.query.local_predicates_for(inner_alias)),
                properties=self._leaf_properties(inner_alias),
                layout=inner_layout,
                est_card=part.card_out, est_cost=left.est_card * probe_cost,
                correlation=pred.other_side(inner_alias),
            )
            return NLJoin(
                left, inner, [pred] + [p for p in part.preds if p is not pred],
                props, left.layout.concat(inner_layout),
                est_card=part.card_out, est_cost=cand.cost, method="index",
                cost_desc=desc,
            )
        right_cand = cand.inputs[1]
        right = right_cand.plan
        layout = left.layout.concat(right.layout)
        if desc[0] == "hash":
            return HashJoin(
                left, right, part.preds, props, layout,
                est_card=part.card_out, est_cost=cand.cost, cost_desc=desc,
            )
        if desc[0] == "rescan":
            temp = Temp(right, est_cost=right_cand.cost + cm.temp_cost(right.est_card))
            return NLJoin(
                left, temp, part.preds, props, layout,
                est_card=part.card_out, est_cost=cand.cost, method="rescan",
                cost_desc=desc,
            )
        sort_l, sort_r = desc[3:]
        key_l, key_r = part.merge_keys
        outer, inner = left, right
        if sort_l:
            outer = Sort(
                left, key_l, left.properties.with_order(key_l),
                est_cost=left_cand.cost + cm.sort_cost(left.est_card),
            )
        if sort_r:
            inner = Sort(
                right, key_r, right.properties.with_order(key_r),
                est_cost=right_cand.cost + cm.sort_cost(right.est_card),
            )
        return MergeJoin(
            outer, inner, part.preds, props.with_order(key_l), layout,
            est_card=part.card_out, est_cost=cand.cost, cost_desc=desc,
        )

    def _index_inner(self, inner_alias: str, preds: list) -> Optional[tuple]:
        """``_Partition.index_inner`` for a partition whose inner is the
        base table ``inner_alias``, worked out once per (alias, predicates)
        in a run."""
        if not self.options.enable_index_nljn:
            return None
        key = (inner_alias, tuple(preds))
        if key in self._index_inners:
            return self._index_inners[key]
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
        found = (
            (inner_alias, self.estimator.filtered_cardinality(inner_alias), probes)
            if probes
            else None
        )
        self._index_inners[key] = found
        return found

    # =============================================================== pruning

    def _keep_best(self, groups: dict) -> list[Candidate]:
        """Dominance-prune a subset's candidates.

        ``groups`` maps each pair of input-edge subsets to the join tuples
        made for it, in enumeration order (``None`` to the leaf tuples of
        the scans and MV scans, last).  A candidate is kept when no cheaper
        candidate provides (a prefix of) its output order; the costs are
        visited in ascending order (stable: ties in enumeration order), so
        that is when no kept candidate's order has the candidate's as a
        prefix.  A kept join keeps ``groups`` for :meth:`_alternatives`.
        """
        kept: list[Candidate] = []
        covered: set = set()  # every prefix of a kept candidate's order
        for entry in sorted(itertools.chain.from_iterable(groups.values()), key=_COST):
            cost, order = entry[0], entry[1]
            if order in covered:
                continue
            if len(entry) == 3:
                plan = entry[2]
                kept.append(Candidate(plan, cost, order, plan.est_card))
            else:
                _, _, desc, inputs, part, probe = entry
                kept.append(Candidate(
                    None, cost, order, part.card_out, desc, inputs, part, probe, groups,
                ))
            if len(kept) >= MAX_PLANS_PER_SUBSET:
                break
            covered.update(order[:i] for i in range(len(order) + 1))
        return kept

    def _alternatives(self, winner: Candidate) -> list[tuple]:
        """``(cost_desc, commuted)`` of every candidate of ``winner``'s subset
        that is not cheaper and structurally equivalent to it (the same pair
        of input edges, or the commuted pair), each distinct pair once;
        ``commuted`` when that one takes the two edges in the opposite
        argument order.  Any other pair of edges is a join-order change."""
        edges = winner.part.edge_subsets
        cost, desc = winner.cost, winner.cost_desc
        recorded: dict = {}
        for commuted, group in (
            (False, winner.groups[edges]), (True, winner.groups.get(edges[::-1], ())),
        ):
            for alt in group:
                # Each join tuple has a description of its own, so this
                # identity test leaves out the winner alone.
                if alt[0] >= cost and alt[2] is not desc:
                    recorded[(alt[2], commuted)] = None
        return list(recorded)

    def _narrow_against(self, winner: Candidate) -> None:
        """Narrow ``winner``'s edge validity ranges with the Fig. 5 probe
        against each of its :meth:`_alternatives`.  Every probe of an edge
        starts at the same points, so the winner's cost at a point is
        computed once for all of them."""
        alternatives = self._alternatives(winner)
        if not alternatives:
            return
        kernel = self.cost_model.edge_kernel
        ranges = winner.plan.validity_ranges
        iterations = self.options.validity_iterations
        est_l, est_r = (
            self.estimator.subset_cardinality(e) for e in winner.part.edge_subsets
        )
        for i, (est, other) in enumerate(((est_l, est_r), (est_r, est_l))):
            cost_opt = functools.cache(kernel(winner.cost_desc, i, other))
            for alt_desc, commuted in alternatives:
                self.newton_iterations += narrow_validity_range(
                    ranges[i],
                    est,
                    cost_opt,
                    # A commuted alternative takes this edge in the other slot.
                    kernel(alt_desc, 1 - i if commuted else i, other),
                    iterations,
                )

    def _materialize(self, cand: Candidate) -> PlanOp:
        """``cand``'s operator tree: a join's is built, inputs first, and
        its validity ranges narrowed, the first time it is asked for."""
        if cand.plan is None:
            for child in cand.inputs:
                self._materialize(child)
            cand.plan = self._build_join(cand)
            self._narrow_against(cand)
        return cand.plan

    # ============================================================== main DP

    def _partitions(self, subset: tuple) -> list[tuple[int, int]]:
        """(outer, inner) alias masks of every partition of ``subset`` to
        consider: all of them up to :data:`AUTO_BUSHY_LIMIT` tables, beyond
        that only those that split off one table."""
        bits = [self.graph.bit[alias] for alias in subset]
        full = sum(bits)
        parts: list[tuple[int, int]] = []
        if len(self.query.tables) > AUTO_BUSHY_LIMIT:
            for bit in bits:
                parts.append((full ^ bit, bit))
                parts.append((bit, full ^ bit))
        else:
            for r in range(1, len(bits)):
                for combo in itertools.combinations(bits, r):
                    left = sum(combo)
                    parts.append((left, full ^ left))
        return parts

    def _partition(
        self, left_tables, right_tables, subset, preds, card_out, applied
    ) -> _Partition:
        """The shared state of ``left_tables JOIN right_tables``."""
        keys_l, keys_r = [], []
        for p in preds:
            outer, inner = (
                (p.left, p.right) if p.left.table in left_tables else (p.right, p.left)
            )
            keys_l.append(outer.qualified)
            keys_r.append(inner.qualified)
        return _Partition(
            (left_tables, right_tables), subset, preds, card_out, applied,
            merge_keys=(tuple(keys_l), tuple(keys_r)),
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
        bit = self.graph.bit
        between = self.graph.predicates_between
        # The DP table and the table subset of each entry, by alias mask.
        table: dict[int, list[Candidate]] = {}
        subsets: dict[int, frozenset] = {}
        for alias in aliases:
            subsets[bit[alias]] = frozenset({alias})
            table[bit[alias]] = self._keep_best({None: self.access_paths(alias)})

        for size in range(2, len(aliases) + 1):
            for combo in itertools.combinations(aliases, size):
                if not self._allow_cross and not self.graph.is_connected_subset(combo):
                    continue
                subset = frozenset(combo)
                card_out = self.estimator.subset_cardinality(subset)
                applied = predicate_set_id(self.estimator.predicates_for_subset(subset))
                groups: dict = {}
                for left_mask, right_mask in self._partitions(combo):
                    left_plans = table.get(left_mask)
                    right_plans = table.get(right_mask)
                    if not left_plans or not right_plans:
                        continue
                    preds = between(left_mask, right_mask)
                    if not preds and not self._allow_cross:
                        continue
                    part = self._partition(
                        subsets[left_mask], subsets[right_mask], subset, preds,
                        card_out, applied,
                    )
                    groups.setdefault(part.edge_subsets, []).extend(
                        self._join_candidates(part, left_plans, right_plans)
                    )
                mvs = self._mv_candidates(subset)
                if mvs:
                    groups[None] = mvs
                if not any(groups.values()):
                    raise OptimizerError(
                        f"no plan for subset {sorted(subset)} "
                        "(disconnected join graph with cross products disabled?)"
                    )
                mask = self.graph.mask(combo)
                subsets[mask] = subset
                table[mask] = self._keep_best(groups)

        best = min(table[self.graph.mask(aliases)], key=lambda c: c.cost)
        # Trees and sensitivity analysis only for the plan that survives:
        # the joins reachable from ``best`` are the joins of the returned
        # plan.
        self._materialize(best)
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
