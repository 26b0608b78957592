"""Plan interpretation: building operator trees and running them."""

from __future__ import annotations

from typing import Optional

from repro.common.errors import ExecutionError
from repro.executor.aggregate import DistinctExec, GroupByExec
from repro.executor.base import ExecutionContext, Operator
from repro.executor.check import BufCheckExec, CheckExec
from repro.executor.joins import HashJoinExec, MergeJoinExec, NLJoinExec
from repro.executor.misc import AntiJoinExec, HavingFilterExec, ProjectExec, ReturnExec
from repro.executor.scans import IndexScanExec, MVScanExec, TableScanExec
from repro.executor.sort import SortExec
from repro.executor.temp import TempExec
from repro.plan.physical import (
    AntiJoin,
    BufCheck,
    Check,
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


def build_executor(plan: PlanOp, ctx: ExecutionContext) -> Operator:
    """Recursively instantiate the operator tree for a physical plan."""
    if isinstance(plan, TableScan):
        return TableScanExec(plan, ctx)
    if isinstance(plan, IndexScan):
        return IndexScanExec(plan, ctx)
    if isinstance(plan, MVScan):
        return MVScanExec(plan, ctx)
    if isinstance(plan, NLJoin):
        outer = build_executor(plan.outer, ctx)
        inner = build_executor(plan.inner, ctx)
        return NLJoinExec(plan, ctx, outer, inner)
    if isinstance(plan, HashJoin):
        outer = build_executor(plan.outer, ctx)
        inner = build_executor(plan.inner, ctx)
        return HashJoinExec(plan, ctx, outer, inner)
    if isinstance(plan, MergeJoin):
        outer = build_executor(plan.outer, ctx)
        inner = build_executor(plan.inner, ctx)
        return MergeJoinExec(plan, ctx, outer, inner)
    if isinstance(plan, Sort):
        return SortExec(plan, ctx, build_executor(plan.children[0], ctx))
    if isinstance(plan, Temp):
        return TempExec(plan, ctx, build_executor(plan.children[0], ctx))
    if isinstance(plan, GroupBy):
        return GroupByExec(plan, ctx, build_executor(plan.children[0], ctx))
    if isinstance(plan, Distinct):
        return DistinctExec(plan, ctx, build_executor(plan.children[0], ctx))
    if isinstance(plan, HavingFilter):
        return HavingFilterExec(plan, ctx, build_executor(plan.children[0], ctx))
    if isinstance(plan, Project):
        return ProjectExec(plan, ctx, build_executor(plan.children[0], ctx))
    if isinstance(plan, Return):
        return ReturnExec(plan, ctx, build_executor(plan.children[0], ctx))
    if isinstance(plan, Check):
        return CheckExec(plan, ctx, build_executor(plan.children[0], ctx))
    if isinstance(plan, BufCheck):
        return BufCheckExec(plan, ctx, build_executor(plan.children[0], ctx))
    if isinstance(plan, AntiJoin):
        return AntiJoinExec(plan, ctx, build_executor(plan.children[0], ctx))
    raise ExecutionError(f"no executor for plan operator {plan.KIND}")


def run_plan(
    plan: PlanOp,
    ctx: ExecutionContext,
    sink: Optional[list] = None,
) -> list[tuple]:
    """Build and drain a plan; returns the rows (appended to ``sink``).

    Re-optimization signals propagate to the caller with the operator tree
    left in place inside ``ctx.operators`` for harvesting; every operator is
    still closed (``close`` is idempotent and does not discard harvested
    materializations), so no error path leaks open state.

    A cancel token or wall-clock deadline is polled at the root after
    ``open`` and after every emitted batch via
    :meth:`ExecutionContext.check_interrupt`.

    Teardown ordering matters on abort paths: every registered operator
    is closed (a ``close`` that itself fails must not stop the remaining
    closes — spill-backed operators close their run files there), and the
    spill manager is released exactly once in a nested ``finally`` so a
    cancellation mid-spill can never leak pages.  A close-time failure is
    re-raised only when the plan otherwise completed; an in-flight
    exception (signal, error, cancel, timeout) is never masked by one.
    """
    root = build_executor(plan, ctx)
    # The single profiler mount point; costs nothing when none is set.
    if ctx.profiler is not None:
        ctx.profiler.arm(ctx)
    rows = sink if sink is not None else []
    interruptible = ctx.interruptible
    completed = False
    try:
        root.open()
        if interruptible:
            ctx.check_interrupt()
        batch_size = ctx.batch_size
        while True:
            batch = root.next_batch(batch_size)
            if batch is None:
                break
            rows.extend(batch)
            if interruptible:
                ctx.check_interrupt()
        completed = True
    finally:
        close_failure = None
        try:
            for op in ctx.operators:
                try:
                    op.close()
                except Exception as exc:  # teardown must visit every operator
                    if close_failure is None:
                        close_failure = exc
        finally:
            # Spill files are attempt-scoped: success and every abort path
            # (signal, error, cancel, timeout — even a failing close above)
            # release them here.
            ctx.release_spill()
        if completed and close_failure is not None:
            raise close_failure
    return rows
