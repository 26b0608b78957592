"""Cardinality estimation for plans.

The estimator combines base-table statistics, the selectivity model of
:mod:`repro.stats.selectivity` (with its deliberate independence and
default-selectivity assumptions), and POP's runtime cardinality feedback.
It is the only reader of table statistics during planning, so a
statement's statistics overrides (``stats_overrides``) reach every
estimate and cost the optimizer derives.

Cardinalities are computed per *edge signature* (tables joined, predicates
applied), which makes estimates independent of join order — the standard
System-R property — and lets one feedback observation correct every plan
alternative that produces the same edge.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.feedback import CardinalityFeedback
from repro.expr.predicates import JoinPredicate, Predicate, predicate_set_id
from repro.plan.logical import Query
from repro.stats.selectivity import SelectivityEstimator
from repro.storage.catalog import Catalog


class CardinalityEstimator:
    """Estimates output cardinalities of query sub-plans."""

    def __init__(
        self,
        catalog: Catalog,
        query: Query,
        feedback: Optional[CardinalityFeedback] = None,
        selectivity: Optional[SelectivityEstimator] = None,
        stats_overrides: Optional[dict] = None,
    ):
        self.catalog = catalog
        self.query = query
        self.feedback = feedback if feedback is not None else CardinalityFeedback()
        self.selectivity = selectivity if selectivity is not None else SelectivityEstimator()
        self._cache: dict = {}
        # Pre-index query structure.
        self._locals = {
            ref.alias: query.local_predicates_for(ref.alias) for ref in query.tables
        }
        self._table_of = {ref.alias: ref.table.lower() for ref in query.tables}
        #: Table name -> the statistics the statement plans with instead of
        #: the catalog's (``None`` = dropped).
        self.stats_overrides = stats_overrides or {}

    # ------------------------------------------------------------ base tables

    def statistics(self, alias: str):
        """The statistics of the table under ``alias``: the statement's
        override when it has one, else the catalog's (``None`` when
        RUNSTATS never ran)."""
        table = self._table_of[alias]
        if table in self.stats_overrides:
            return self.stats_overrides[table]
        return self.catalog.statistics(table)

    def base_cardinality(self, alias: str) -> float:
        """Row count of the base table under ``alias`` (stats, else actual)."""
        stats = self.statistics(alias)
        if stats is not None:
            return float(stats.row_count)
        return float(self.catalog.table(self._table_of[alias]).row_count)

    def local_selectivity(self, alias: str) -> float:
        """Combined selectivity of all local predicates on ``alias``
        (independence assumption)."""
        preds = self._locals[alias]
        return self.selectivity.conjunction_selectivity(preds, self.statistics(alias))

    def single_predicate_selectivity(self, alias: str, pred: Predicate) -> float:
        return self.selectivity.local_selectivity(pred, self.statistics(alias))

    def filtered_cardinality(self, alias: str) -> float:
        """Cardinality of ``alias`` after its local predicates, with feedback."""
        signature = (
            frozenset({alias}),
            predicate_set_id(self._locals[alias]),
        )
        estimate = max(
            0.001, self.base_cardinality(alias) * self.local_selectivity(alias)
        )
        return self.feedback.adjust(signature, estimate)

    # ---------------------------------------------------------------- subsets

    def predicates_for_subset(self, subset: frozenset) -> list[Predicate]:
        """All predicates fully applied once ``subset`` has been joined."""
        preds: list[Predicate] = []
        for alias in sorted(subset):
            preds.extend(self._locals[alias])
        for jp in self.query.join_predicates:
            if jp.tables() <= subset:
                preds.append(jp)
        return preds

    def subset_signature(self, subset: frozenset) -> tuple:
        return (frozenset(subset), predicate_set_id(self.predicates_for_subset(subset)))

    def join_predicate_selectivity(self, pred: JoinPredicate) -> float:
        left_stats = self.statistics(pred.left.table)
        right_stats = self.statistics(pred.right.table)
        return self.selectivity.join_selectivity(pred, left_stats, right_stats)

    def subset_cardinality(self, subset: frozenset) -> float:
        """Estimated cardinality of joining every alias in ``subset``.

        The estimate multiplies filtered base cardinalities by the
        selectivity of each internal join predicate — independent of join
        order.  Runtime feedback for the subset's edge signature overrides
        (exact) or clamps (lower bound) the model value.
        """
        key = frozenset(subset)
        if key in self._cache:
            return self._cache[key]
        estimate = 1.0
        for alias in sorted(key):
            base = self.base_cardinality(alias) * self.local_selectivity(alias)
            # Per-alias feedback refines the leaf factors too.
            leaf_sig = (frozenset({alias}), predicate_set_id(self._locals[alias]))
            base = self.feedback.adjust(leaf_sig, max(0.001, base))
            estimate *= base
        for jp in self.query.join_predicates:
            if jp.tables() <= key:
                estimate *= self.join_predicate_selectivity(jp)
        estimate = max(0.001, estimate)
        result = self.feedback.adjust(self.subset_signature(key), estimate)
        self._cache[key] = result
        return result

    # -------------------------------------------------------------- operators

    def matches_per_probe(self, outer_subset: frozenset, inner_alias: str,
                          join_preds: Sequence[JoinPredicate]) -> float:
        """Average inner rows matched per outer row in an index NLJN."""
        outer_card = self.subset_cardinality(outer_subset)
        joined = self.subset_cardinality(outer_subset | {inner_alias})
        if outer_card <= 0:
            return 0.0
        return joined / outer_card

    def group_by_cardinality(self, input_card: float, group_keys) -> float:
        """Distinct-group estimate: product of key NDVs, capped by input."""
        if not group_keys:
            return 1.0 if input_card > 0 else 0.0
        ndv_product = 1.0
        for key in group_keys:
            stats = self.statistics(key.table)
            ndv = None
            if stats is not None:
                ndv = stats.ndv(key.column)
            ndv_product *= float(ndv) if ndv else 100.0
        return max(1.0, min(input_card, ndv_product))

    def distinct_cardinality(self, input_card: float) -> float:
        return max(1.0, input_card * 0.9)
