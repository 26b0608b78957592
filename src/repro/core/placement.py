"""Checkpoint placement (paper §4).

The placement post-pass runs over the optimizer's chosen plan and inserts
CHECK operators according to the enabled flavors:

* **LC** above every materialization point (SORT, TEMP; with
  ``PopConfig.lc_above_hash_build`` also the build edge of hash joins, which
  Figure 14 tracks as its own category);
* **LCEM** — a TEMP/CHECK pair on the outer of every nested-loop join that
  has no materialized outer yet (the paper's heuristic: if the optimizer
  picked NLJN, it believes the outer is small, so materializing it is cheap
  — and if it is not, that is precisely the error worth catching);
* **ECB** — a BUFCHECK valve on NLJN outers (instead of LCEM when enabled);
* **ECWC** — CHECK pushed *below* materialization points, reacting during
  the build instead of after it;
* **ECDC** — CHECK on pipelined join edges of SPJ queries, relying on the
  driver's anti-join compensation.

Guards from the paper: no checkpoints on cheap queries; a CHECK is placed
only where an alternative plan exists above it — operationally, where the
consumer's validity range for the edge was actually narrowed during pruning
(``require_alternatives``); no CHECK above an exact-cardinality MV scan
or on an edge whose rows are not its signature's (``relational_edge``).

:func:`optimize_and_place` is the one place a statement is planned —
optimizer call, then this pass — for the driver's attempts and, through
:meth:`repro.core.database.Database.plan`, for everything else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.config import PopConfig
from repro.core.flavors import ECB, ECDC, ECWC, LC, LCEM
from repro.optimizer.costmodel import CostModel
from repro.plan.physical import (
    BufCheck,
    Check,
    HashJoin,
    JoinOp,
    MVScan,
    NLJoin,
    PlanOp,
    Sort,
    Temp,
    number_plan,
    relational_edge,
)
from repro.plan.properties import ValidityRange

#: Cap on an ECB valve's buffer, in rows.
ECB_BUFFER_CAP = 100_000


@dataclass
class PlacementResult:
    """The rewritten plan and the checkpoints that were inserted."""

    plan: PlanOp
    checkpoints: list

    @property
    def count(self) -> int:
        return len(self.checkpoints)


def _is_materialization(op: PlanOp) -> bool:
    return isinstance(op, (Sort, Temp))


def _is_exact_mv(op: PlanOp) -> bool:
    return isinstance(op, MVScan) and not op.filters


def _effective_range(
    consumer: PlanOp, edge_index: int, child: PlanOp, config: PopConfig
) -> Optional[ValidityRange]:
    """The check range for the edge ``child -> consumer``; None = no check."""
    if config.adhoc_threshold_factor is not None:
        k = config.adhoc_threshold_factor
        est = max(child.est_card, 1.0)
        return ValidityRange(low=est / k, high=est * k)
    rng = consumer.validity_ranges[edge_index].copy()
    if rng.is_trivial and config.require_alternatives:
        return None
    return rng


class CheckpointPlacer:
    """Performs the placement rewrite for one plan."""

    def __init__(
        self,
        config: PopConfig,
        cost_model: CostModel,
        is_spj: bool,
        tracer=None,
        metrics=None,
    ):
        self.config = config
        self.cost_model = cost_model
        self.is_spj = is_spj
        self.tracer = tracer
        self.metrics = metrics
        self.checkpoints: list[PlanOp] = []

    def place(self, root: PlanOp) -> PlacementResult:
        if not self.config.enabled or root.est_cost < self.config.min_cost_for_checkpoints:
            number_plan(root)
            return PlacementResult(root, [])
        new_root = self._rewrite(root)
        number_plan(new_root)
        self._report_placements()
        return PlacementResult(new_root, self.checkpoints)

    def _report_placements(self) -> None:
        """Emit one event/count per placed checkpoint (after numbering)."""
        if self.tracer is None and self.metrics is None:
            return
        for check in self.checkpoints:
            flavor = getattr(check, "flavor", "ECB")
            rng = check.check_range
            if self.metrics is not None:
                self.metrics.inc("checkpoints.placed", flavor=flavor)
            if self.tracer is not None:
                self.tracer.event(
                    "checkpoint.placed",
                    op_id=check.op_id,
                    flavor=flavor,
                    low=rng.low,
                    high=rng.high,
                    below=check.children[0].KIND,
                )

    # ------------------------------------------------------------- internals

    def _add(self, check: PlanOp) -> PlanOp:
        self.checkpoints.append(check)
        return check

    def _rewrite(self, node: PlanOp) -> PlanOp:
        for i, child in enumerate(node.children):
            new_child = self._rewrite(child)
            wrapped = self._wrap_edge(node, i, new_child)
            node.children[i] = wrapped
        return node

    def _wrap_edge(self, consumer: PlanOp, i: int, child: PlanOp) -> PlanOp:
        """Insert at most one checkpoint construct on one plan edge."""
        flavors = self.config.flavors
        config = self.config
        if isinstance(child, (Check, BufCheck)) or _is_exact_mv(child):
            return child
        if not relational_edge(child):  # above an aggregate it would count groups
            return child

        # --- LC above materialization points --------------------------------
        if _is_materialization(child):
            rng = _effective_range(consumer, i, child, config)
            result = child
            if ECWC in flavors and rng is not None:
                # Eager check without compensation: below the materialization.
                inner = child.children[0]
                if not isinstance(inner, (Check, BufCheck)):
                    child.children[0] = self._add(Check(inner, rng, ECWC))
            if LC in flavors and rng is not None:
                result = self._add(Check(child, rng, LC))
            return result

        # --- hash-join build edge as an LC point (Fig. 14 category) ---------
        if (
            config.lc_above_hash_build
            and LC in flavors
            and isinstance(consumer, HashJoin)
            and i == 1
        ):
            rng = _effective_range(consumer, i, child, config)
            if rng is not None:
                return self._add(Check(child, rng, LC))

        # --- NLJN outers: ECB valve or LCEM pair ----------------------------
        if isinstance(consumer, NLJoin) and i == 0:
            rng = _effective_range(consumer, i, child, config)
            if rng is not None:
                if ECB in flavors:
                    if rng.high != float("inf"):
                        buf = int(min(ECB_BUFFER_CAP, rng.high + 1))
                    else:
                        buf = int(min(ECB_BUFFER_CAP, max(1.0, rng.low)))
                    return self._add(BufCheck(child, rng, max(1, buf)))
                if LCEM in flavors:
                    temp = Temp(
                        child,
                        est_cost=child.est_cost
                        + self.cost_model.temp_cost(child.est_card),
                    )
                    return self._add(Check(temp, rng, LCEM))

        # --- ECDC on pipelined join edges of SPJ queries --------------------
        if (
            ECDC in flavors
            and self.is_spj
            and isinstance(consumer, JoinOp)
            and i == 0
        ):
            rng = _effective_range(consumer, i, child, config)
            if rng is not None:
                return self._add(Check(child, rng, ECDC))

        return child


def place_checkpoints(
    root: PlanOp,
    config: PopConfig,
    cost_model: CostModel,
    is_spj: bool = True,
    tracer=None,
    metrics=None,
) -> PlacementResult:
    """Convenience wrapper around :class:`CheckpointPlacer`."""
    placer = CheckpointPlacer(
        config, cost_model, is_spj, tracer=tracer, metrics=metrics
    )
    return placer.place(root)


def optimize_and_place(
    optimizer,
    query,
    config: PopConfig,
    *,
    meter=None,
    tracer=None,
    metrics=None,
    span=None,
    **optimize_args,
):
    """Plan ``query``: the optimizer's cheapest plan, then CHECK placement.

    Returns ``(OptimizationResult, PlacementResult)``.  ``optimize_args``
    (``feedback``, ``selectivity``, ``options``, ``temp_mvs``,
    ``stats_overrides``) go to
    :meth:`repro.optimizer.optimizer.Optimizer.optimize` unchanged; a
    disabled ``config`` (``NO_POP``) places nothing.

    The rest is the driver's accounting, all off by default: ``meter`` is
    charged the enumeration's re-optimization cost; ``tracer`` gets an
    ``optimizer.optimize`` and a ``pop.place_checkpoints`` span under
    ``span``; ``metrics`` the ``optimizer.*`` counters.
    """
    cost_model = optimizer.cost_model
    opt_span = (
        tracer.start_span("optimizer.optimize", parent=span)
        if tracer is not None
        else None
    )
    opt = optimizer.optimize(query, **optimize_args)
    if meter is not None:
        meter.charge(
            cost_model.reoptimization_cost(opt.plans_enumerated), "optimize"
        )
    if tracer is not None:
        tracer.end_span(
            opt_span,
            plans_enumerated=opt.plans_enumerated,
            newton_iterations=opt.newton_iterations,
            est_cost=opt.plan.est_cost,
        )
    if metrics is not None:
        metrics.inc("optimizer.invocations")
        metrics.inc("optimizer.plans_enumerated", opt.plans_enumerated)
        metrics.inc("optimizer.newton_iterations", opt.newton_iterations)

    place_span = (
        tracer.start_span("pop.place_checkpoints", parent=span)
        if tracer is not None
        else None
    )
    placement = place_checkpoints(
        opt.plan,
        config,
        cost_model,
        is_spj=not (query.has_aggregates or query.distinct),
        tracer=tracer,
        metrics=metrics,
    )
    if tracer is not None:
        tracer.end_span(place_span, checkpoints=placement.count)
    return opt, placement
