"""Progress estimation from work-unit-weighted operator budgets.

The cost model prices a plan in the same work units the
:class:`~repro.executor.meter.WorkMeter` charges at runtime, so the plan's
root estimated cost *is* a budget for the attempt: fraction done is simply
units spent over units budgeted.  That budget is wrong exactly when the
cardinality estimates are wrong — which is the one thing POP measures — so
it is refined at every CHECK-point evaluation: observing ``act`` rows where
the optimizer estimated ``est`` rescales the not-yet-spent remainder by
``act/est`` (the still-pending operators sit above the mismeasured edge and
their budgets scale roughly linearly with its cardinality).  A completed
attempt snaps the budget to the true spend.

Progress is a view of the :class:`~repro.core.driver.PopReport`, computed
when it is read: each attempt's plan, its ``checkpoint_events`` and its
``units_at_start`` (the meter reading when execution began) are all the
replay needs.  Nothing is observed while the statement runs.
"""

from __future__ import annotations

from typing import Iterator, Optional

#: Refinement ratios are clamped so one wildly mis-estimated (or empty)
#: edge cannot swing the ETA by more than two orders of magnitude at once;
#: later checkpoints re-refine from the already-adjusted budget.
_MIN_RATIO = 1.0 / 64.0
_MAX_RATIO = 64.0


def _edge_estimate(plan, op_id: int) -> Optional[float]:
    """The estimated cardinality of the edge CHECK ``op_id`` guards."""
    for op in plan.walk():
        if op.op_id == op_id:
            if op.children:
                return float(op.children[0].est_card)
            return float(op.est_card)
    return None


def _update(units: float, base: float, budget: float, event: str) -> dict:
    """One history entry: the meter at ``units`` against ``budget`` units
    counted from ``base``."""
    spent = max(units - base, 0.0)
    return {
        "units": units,
        "fraction": min(spent / budget, 1.0) if budget else 0.0,
        "eta_work_units": max(budget - spent, 0.0),
        "event": event,
    }


def _replay(report) -> Iterator[tuple[dict, bool]]:
    """Every progress update of ``report`` with whether it refined the
    budget.

    Progress restarts against each attempt's plan (a re-optimized round is
    a fresh promise about the remaining work, not a continuation of the
    abandoned one), so ``fraction`` is monotone within an attempt but may
    drop across re-optimization.  An interrupted attempt ends where the
    next one began planning, after its harvest; the last, completed one
    ends at the statement's total.
    """
    attempts = report.attempts
    for i, attempt in enumerate(attempts):
        base = attempt.units_at_start
        budget = max(float(attempt.plan.est_cost), 1e-9)
        yield _update(base, base, budget, "begin"), False
        for event in attempt.checkpoint_events:
            est = _edge_estimate(attempt.plan, event.op_id)
            refined = est is not None and est > 0
            if refined:
                spent = max(event.units_at_event - base, 0.0)
                ratio = max(float(event.observed), 1.0) / max(est, 1.0)
                ratio = min(max(ratio, _MIN_RATIO), _MAX_RATIO)
                remaining = max(budget - spent, 0.0)
                budget = max(spent + remaining * ratio, spent, 1e-9)
            yield _update(event.units_at_event, base, budget, "checkpoint"), refined
        if i + 1 < len(attempts):
            following = attempts[i + 1]
            end = following.units_at_start - following.optimization_units
            yield _update(end, base, budget, "interrupted"), False
        else:
            end = report.total_units
            yield _update(end, base, max(end - base, 1e-9), "end"), False


def progress_history(report) -> list[dict]:
    """Every progress update of the statement ``report`` describes, as a
    dict — ``units`` (absolute meter reading), ``fraction``,
    ``eta_work_units`` and the ``event`` kind (``begin``, ``checkpoint``,
    ``interrupted`` or ``end``)."""
    return [entry for entry, _ in _replay(report)]


def render_progress(report, width: int = 40) -> str:
    """ASCII progress bar plus the refinement history (CLI ``\\progress``)."""
    replay = list(_replay(report))
    last = replay[-1][0]
    filled = int(round(last["fraction"] * width))
    bar = "#" * filled + "." * (width - filled)
    lines = [
        f"[{bar}] {last['fraction'] * 100.0:.1f}%"
        f"  eta={last['eta_work_units']:.1f} units"
        f"  attempts={len(report.attempts)}"
        f" refinements={sum(refined for _, refined in replay)}"
    ]
    for entry, _ in replay:
        lines.append(
            f"  {entry['event']:<11} units={entry['units']:<10.1f}"
            f" fraction={entry['fraction']:.3f}"
            f" eta={entry['eta_work_units']:.1f}"
        )
    return "\n".join(lines)
