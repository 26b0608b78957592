"""Parameter-aware estimation and validity-range re-evaluation.

Two pieces the plan cache is built on:

* :class:`PeekingSelectivity` — *bind-value peeking*: a selectivity
  estimator that resolves parameter markers to their currently bound values
  before consulting statistics, instead of falling back to the fixed default
  selectivities of :mod:`repro.stats.selectivity`.  Optimizing a
  parameterized statement with peeking tailors the plan (and its validity
  ranges) to the actual parameter values, exactly like industrial plan
  caches do on the first execution of a prepared statement.

* :func:`evaluate_plan_validity` — the cache's *admission test* (paper §3
  applied at optimization time instead of runtime): walk a previously
  optimized plan, re-estimate every guarded edge's cardinality under the
  *new* parameter values, and test the fresh estimates against the plan's
  validity ranges and CHECK ranges.  Inside every range, the pruning
  argument of §2.2 still holds — no structurally equivalent alternative the
  optimizer considered can beat this plan — so optimization can be skipped
  outright.  Any violated range means a better plan may exist and the
  caller must fall back to the optimizer.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Optional

from repro.expr.expressions import Literal, ParameterMarker
from repro.expr.predicates import Between, Comparison, Or, Predicate
from repro.optimizer.cardinality import CardinalityEstimator
from repro.plan.physical import PlanOp, relational_edge
from repro.stats.selectivity import SelectivityEstimator


class PeekingSelectivity(SelectivityEstimator):
    """Selectivity with bind-value peeking.

    Wraps a base estimator (the database's configured one, or the stock
    model) and substitutes bound parameter values for markers before
    delegating, so marker predicates are estimated from statistics like
    literal predicates.  Markers without a bound value keep the default
    selectivity — same behavior as the base model.
    """

    def __init__(
        self,
        params: Optional[dict[str, Any]] = None,
        base: Optional[SelectivityEstimator] = None,
    ):
        base = base if base is not None else SelectivityEstimator()
        super().__init__(base.defaults)
        self.base = base
        self.params = dict(params or {})

    # Only local predicates can carry markers; join selectivity delegates.

    def local_selectivity(self, pred: Predicate, stats) -> float:
        return self.base.local_selectivity(self.peek(pred), stats)

    def join_selectivity(self, pred, left_stats, right_stats) -> float:
        return self.base.join_selectivity(pred, left_stats, right_stats)

    def peek(self, pred: Predicate) -> Predicate:
        """``pred`` with every bound marker replaced by its value."""
        if isinstance(pred, Comparison):
            operand = self._peek_operand(pred.operand)
            if operand is not pred.operand:
                return replace(pred, operand=operand)
            return pred
        if isinstance(pred, Between):
            low = self._peek_operand(pred.low)
            high = self._peek_operand(pred.high)
            if low is not pred.low or high is not pred.high:
                return replace(pred, low=low, high=high)
            return pred
        if isinstance(pred, Or):
            return Or(tuple(self.peek(child) for child in pred.children))
        return pred

    def _peek_operand(self, operand):
        if isinstance(operand, ParameterMarker) and operand.name in self.params:
            return Literal(self.params[operand.name])
        return operand


def fresh_edge_estimate(
    child: PlanOp, estimator: CardinalityEstimator
) -> Optional[float]:
    """Re-estimate the cardinality of the edge ``child`` produces, or None
    when the edge is not re-estimable (see
    :func:`~repro.plan.physical.relational_edge`)."""
    if not relational_edge(child):
        return None
    tables = child.properties.tables
    if not tables:
        return None
    if len(tables) == 1:
        return estimator.filtered_cardinality(next(iter(tables)))
    return estimator.subset_cardinality(frozenset(tables))


@dataclass(frozen=True)
class RangeEvaluation:
    """One validity/CHECK range tested at a fresh estimate."""

    op_id: Optional[int]
    kind: str
    #: CHECK flavor for checkpoint ranges, "" for plain edge ranges.
    flavor: str
    #: Sorted aliases of the edge's signature (what rows flow through it).
    edge: tuple
    low: float
    high: float
    fresh_estimate: float
    inside: bool

    def to_dict(self) -> dict:
        return {
            "op_id": self.op_id,
            "kind": self.kind,
            "flavor": self.flavor,
            "edge": list(self.edge),
            "low": self.low,
            "high": self.high,
            "fresh_estimate": self.fresh_estimate,
            "inside": self.inside,
        }


@dataclass
class AdmissionReport:
    """Outcome of re-evaluating one plan's ranges at new parameters."""

    evaluations: list

    @property
    def admitted(self) -> bool:
        """True when every evaluated range contains its fresh estimate."""
        return all(e.inside for e in self.evaluations)

    @property
    def violations(self) -> list:
        return [e for e in self.evaluations if not e.inside]

    def __len__(self) -> int:
        return len(self.evaluations)


def evaluate_plan_validity(
    plan: PlanOp, estimator: CardinalityEstimator
) -> AdmissionReport:
    """Test every non-trivial range of ``plan`` at fresh estimates.

    Covers both the per-edge validity ranges narrowed during pruning
    (present on every plan, checkpoints placed or not) and the CHECK /
    BUFCHECK ranges the placement pass copied out of them.  Ranges over
    edges the subset model cannot re-estimate are skipped — conservative in
    the paper's sense: a skipped range neither admits nor rejects, it
    simply was never narrowed for a re-estimable relational edge.
    """
    evaluations: list[RangeEvaluation] = []

    def evaluate(op: PlanOp, rng, child: PlanOp, flavor: str) -> None:
        if rng.is_trivial:
            return
        fresh = fresh_edge_estimate(child, estimator)
        if fresh is None:
            return
        evaluations.append(
            RangeEvaluation(
                op_id=op.op_id,
                kind=op.KIND,
                flavor=flavor,
                edge=tuple(sorted(child.properties.tables)),
                low=rng.low,
                high=rng.high,
                fresh_estimate=fresh,
                inside=rng.contains(fresh),
            )
        )

    for op in plan.walk():
        check_range = getattr(op, "check_range", None)
        if check_range is not None:
            evaluate(op, check_range, op.children[0], getattr(op, "flavor", ""))
            continue  # a CHECK's own validity ranges are never narrowed
        for i, rng in enumerate(op.validity_ranges):
            evaluate(op, rng, op.children[i], "")
    return AdmissionReport(evaluations)
