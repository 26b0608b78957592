"""Shared experiment-execution helpers used by the figure benchmarks."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.core.config import NO_POP, PopConfig
from repro.core.database import Database
from repro.core.driver import PopReport
from repro.plan.explain import join_order


@dataclass
class RunOutcome:
    """Units and plan facts from one statement execution."""

    units: float
    reoptimizations: int
    rows: int
    final_join_order: str
    report: PopReport


def run_once(db: Database, statement, **execute_args) -> RunOutcome:
    """:meth:`Database.execute` (same keyword arguments, e.g. ``params``,
    ``pop``, ``profile``, ``optimizer_options``) plus a summary."""
    result = db.execute(statement, **execute_args)
    report = result.report
    return RunOutcome(
        units=report.total_units,
        reoptimizations=report.reoptimizations,
        rows=len(result.rows),
        final_join_order=join_order(report.final_plan),
        report=report,
    )


def run_pair(
    db: Database,
    statement,
    params: Optional[dict[str, Any]] = None,
    pop: Optional[PopConfig] = None,
) -> tuple[RunOutcome, RunOutcome]:
    """Run a statement without POP (the static baseline) and with POP."""
    baseline = run_once(db, statement, params=params, pop=NO_POP)
    progressive = run_once(db, statement, params=params, pop=pop)
    return baseline, progressive


def speedup_factor(baseline_units: float, pop_units: float) -> float:
    """Positive = speedup, negative = regression factor (paper Fig. 16)."""
    if pop_units <= 0 or baseline_units <= 0:
        return 0.0
    ratio = baseline_units / pop_units
    if ratio >= 1.0:
        return ratio
    return -1.0 / ratio
