"""Harvesting partial-execution state after a CHECK fires (paper §2.1/§2.3).

Two things are collected from the interrupted operator tree:

1. **Cardinality feedback** — exact counts for every operator that reached
   end-of-stream (or completed a materialization build), and lower bounds
   for operators interrupted mid-stream, keyed by edge signature.
2. **Temp MVs** — every completed SORT/TEMP materialization is promoted to a
   temporary materialized view with its exact cardinality as its
   statistic, so re-optimization can *choose* to reuse it.
"""

from __future__ import annotations

from typing import Optional

from repro.core.feedback import CardinalityFeedback
from repro.executor.base import ExecutionContext, Operator, ReoptimizationSignal
from repro.executor.scans import IndexScanExec
from repro.plan.physical import Sort, relational_edge


def _feedback_eligible(op: Operator) -> bool:
    if not relational_edge(op.plan):
        # Above an aggregate the signature is the join's but the rows
        # are not: neither feedback nor a temp MV for that edge.
        return False
    if isinstance(op, IndexScanExec) and op.plan.correlation is not None:
        # A correlated inner's total match count is not the cardinality of
        # any relational edge.
        return False
    return True


def harvest_execution_state(
    ctx: ExecutionContext,
    signal: Optional[ReoptimizationSignal],
    feedback: CardinalityFeedback,
    *,
    promote: bool,
) -> list[str]:
    """Record feedback and, when ``promote``, promote intermediates into
    the statement's registry (``ctx.temp_mvs``); returns new MV names."""
    registered: list[str] = []
    temp_mvs = ctx.temp_mvs
    existing = {
        (mv.tables, mv.predicate_ids): mv.cardinality for mv in temp_mvs
    }
    for op in ctx.operators:
        if not _feedback_eligible(op):
            continue
        signature = op.plan.properties.signature
        materialized = op.materialized_rows
        if materialized is not None:
            feedback.record(signature, len(materialized), exact=True)
            if promote:
                key = (op.plan.properties.tables, op.plan.properties.predicates)
                if existing.get(key, -1) < len(materialized):
                    order = op.plan.keys if isinstance(op.plan, Sort) else ()
                    mv = temp_mvs.register(
                        tables=op.plan.properties.tables,
                        predicate_ids=op.plan.properties.predicates,
                        columns=tuple(op.plan.layout.columns),
                        rows=materialized,
                        order=tuple(order),
                    )
                    existing[key] = mv.cardinality
                    registered.append(mv.name)
        elif op.eof_seen:
            feedback.record(signature, op.rows_out, exact=True)
        elif op.rows_out > 0:
            feedback.record(signature, op.rows_out, exact=False)

    if signal is not None and relational_edge(signal.check_op):
        # A CHECK above an aggregate counts groups, not the join's rows.
        feedback.record(
            signal.check_op.properties.signature,
            signal.observed,
            exact=signal.complete,
        )
    return registered
