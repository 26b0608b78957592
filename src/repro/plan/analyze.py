"""EXPLAIN ANALYZE: plans annotated with estimated vs actual cardinalities.

POP's entire premise is the gap between estimate and reality; this renderer
makes that gap visible per operator after execution.  ``actual`` shows the
row count the operator emitted, suffixed ``+`` when the operator was
interrupted before end-of-stream (the count is then a lower bound — exactly
the distinction POP's feedback store makes).  Operators that reached
end-of-stream additionally show their q-error ``q=max(est/act, act/est)``,
the same per-operator statistic the metrics layer aggregates into the
``estimate.error.qerror`` histogram (see :mod:`repro.obs`).
"""

from __future__ import annotations

from repro.obs.profile import qerror
from repro.plan.physical import PlanOp


def explain_analyze_plan(
    root: PlanOp, actual_cards: dict, profiles: dict | None = None
) -> str:
    """Render a plan with per-operator estimated vs actual cardinalities.

    ``profiles`` (op_id -> :class:`repro.obs.OpProfile`, optional) extends
    each operator line with its *exclusive* runtime — self work units and
    self wall milliseconds, children's time subtracted — plus its spill
    page share when it degraded to disk.
    """
    lines: list[str] = []

    def visit(op: PlanOp, depth: int) -> None:
        indent = "  " * depth
        actual = actual_cards.get(op.op_id)
        qerror_text = ""
        if actual is None:
            actual_text = "not executed"
        else:
            rows, complete = actual
            actual_text = f"{rows}" if complete else f"{rows}+"
            if complete:
                qerror_text = f" q={qerror(op.est_card, rows):.1f}"
        profile_text = ""
        prof = None
        if profiles is not None:
            # Profiles follow the checkpoint-event convention of storing
            # operators without an assigned op_id (the RETURN root) as -1.
            prof = profiles.get(op.op_id if op.op_id is not None else -1)
        if prof is not None:
            profile_text = (
                f" self={prof.self_units:.2f}u"
                f" wall={prof.self_wall * 1e3:.2f}ms"
            )
            if prof.spill_pages:
                profile_text += f" spill={prof.spill_pages:.1f}p"
        err = ""
        if actual is not None and op.est_card > 0 and actual[0] > 0:
            ratio = actual[0] / op.est_card
            if ratio >= 2.0 or ratio <= 0.5:
                err = f"  <-- {ratio:.1f}x of estimate"
        lines.append(
            f"{indent}{op.describe()}  "
            f"{{est={op.est_card:.1f} actual={actual_text}{qerror_text}"
            f"{profile_text}}}{err}"
        )
        for child in op.children:
            visit(child, depth + 1)

    visit(root, 0)
    return "\n".join(lines)


def explain_analyze(report) -> str:
    """Render every attempt of a :class:`~repro.core.driver.PopReport`.

    Each optimize+execute round shows its plan with actual row counts, plus
    the checkpoint that ended it (if any).  Attempts that ran under the
    live profiler additionally show per-operator exclusive time and spill
    pages (see :func:`explain_analyze_plan`).
    """
    sections: list[str] = []
    for i, attempt in enumerate(report.attempts):
        header = f"--- attempt {i}"
        if attempt.reoptimized:
            header += (
                f" (re-optimized at CHECK[{attempt.signal_flavor}]"
                f" op={attempt.signal_op_id},"
                f" observed={attempt.signal_observed:.0f},"
                f" reason={attempt.signal_reason})"
            )
        else:
            header += " (completed)"
        sections.append(header + " ---")
        profiles = None
        if getattr(attempt, "profiles", None):
            profiles = {p.op_id: p for p in attempt.profiles}
        sections.append(
            explain_analyze_plan(attempt.plan, attempt.actual_cards, profiles)
        )
    return "\n".join(sections)
