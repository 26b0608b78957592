"""Top-level optimizer facade.

Wraps the cardinality estimator and the DP enumerator into a single call and
reports enumeration statistics (used to charge re-optimization overhead, the
small gap in the paper's Figure 12).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.feedback import CardinalityFeedback
from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.costmodel import DEFAULT_COST_PARAMS, CostModel, CostParams
from repro.optimizer.enumeration import OptimizerOptions, PlanEnumerator
from repro.plan.logical import Query
from repro.plan.physical import PlanOp, number_plan
from repro.stats.selectivity import SelectivityEstimator
from repro.storage.catalog import Catalog, TempMVRegistry


@dataclass
class OptimizationResult:
    """A physical plan plus how much work optimization did."""

    plan: PlanOp
    plans_enumerated: int
    estimator: CardinalityEstimator
    #: Fig. 5 sensitivity-probe iterations spent on validity ranges.
    newton_iterations: int = 0


class Optimizer:
    """Cost-based query optimizer with POP hooks.

    The ``feedback`` argument injects actual cardinalities observed during
    previous partial executions of the same statement, and ``temp_mvs`` its
    promoted intermediate results (both are the POP §2.1 feedback loop).
    The optimizer holds no switches: each :meth:`optimize` call gets its
    own ``options``.
    """

    def __init__(
        self,
        catalog: Catalog,
        cost_params: CostParams = DEFAULT_COST_PARAMS,
        selectivity: Optional[SelectivityEstimator] = None,
    ):
        self.catalog = catalog
        self.cost_model = CostModel(cost_params)
        self.selectivity = selectivity

    def optimize(
        self,
        query: Query,
        feedback: Optional[CardinalityFeedback] = None,
        selectivity: Optional[SelectivityEstimator] = None,
        options: Optional[OptimizerOptions] = None,
        temp_mvs: Optional[TempMVRegistry] = None,
        stats_overrides: Optional[dict] = None,
    ) -> OptimizationResult:
        """Produce the cheapest plan for ``query`` under current knowledge.

        ``selectivity`` overrides the optimizer's configured selectivity
        model for this one call — the plan cache passes a bind-value peeking
        estimator here so parameterized statements are planned for their
        actual first-execution values.  ``options`` are this call's
        switches (the defaults when omitted), ``temp_mvs`` is the calling
        statement's registry of reusable intermediate results (none when
        omitted), and ``stats_overrides`` maps table names to the
        statistics this call plans with instead of the catalog's (a
        statement's ``stats`` faults).
        """
        estimator = CardinalityEstimator(
            self.catalog,
            query,
            feedback=feedback,
            selectivity=selectivity if selectivity is not None else self.selectivity,
            stats_overrides=stats_overrides,
        )
        enumerator = PlanEnumerator(
            self.catalog, query, estimator, self.cost_model, options, temp_mvs
        )
        plan = enumerator.run()
        number_plan(plan)
        return OptimizationResult(
            plan=plan,
            plans_enumerated=enumerator.plans_enumerated,
            estimator=estimator,
            newton_iterations=enumerator.newton_iterations,
        )
