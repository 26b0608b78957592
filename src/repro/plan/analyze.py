"""EXPLAIN ANALYZE: each attempt's record rendered as its plan.

POP's entire premise is the gap between estimate and reality; this renderer
makes that gap visible per operator after execution, reading nothing but
the attempt's record (:class:`repro.obs.OpRecord`).  ``actual`` shows the
row count the operator emitted, suffixed ``+`` when the operator was
interrupted before end-of-stream (the count is then a lower bound — exactly
the distinction POP's feedback store makes).  ``q=max(est/act, act/est)``
appears exactly where the record has a q-error, the same values the
metrics layer aggregates into the ``estimate.error.qerror`` histogram (see
:mod:`repro.obs`).
"""

from __future__ import annotations

from repro.obs.profile import OpRecord


def _misestimate_flag(record: OpRecord) -> str:
    """``<-- Nx of estimate`` for an actual at least 2x off its estimate.

    A lower bound (``+``) proves only an over-run, so it is flagged only
    when it is already at least twice the estimate.
    """
    if not record.rows_out or record.est_card <= 0:
        return ""
    ratio = record.rows_out / record.est_card
    if ratio >= 2.0 or (record.eof and ratio <= 0.5):
        return f"  <-- {ratio:.1f}x of estimate"
    return ""


def explain_analyze_plan(root: OpRecord) -> str:
    """Render one attempt's record, estimated vs actual per operator.

    A profiled record extends each operator line with its *exclusive*
    runtime — self work units and self wall milliseconds, children's time
    subtracted — plus its spill page share when it degraded to disk, for
    a spilled hash join its Grace recursion depth and block nested-loop
    chunks, and ``groupjoin`` on a GROUP BY that folded its hash join's
    matches.
    """
    lines: list[str] = []

    def visit(record: OpRecord, depth: int) -> None:
        if record.rows_out is None:
            text = "not executed"
        else:
            text = f"{record.rows_out}" if record.eof else f"{record.rows_out}+"
        if record.qerror is not None:
            text += f" q={record.qerror:.1f}"
        prof = record.profile
        if prof is not None:
            text += f" self={prof.self_units:.2f}u wall={prof.self_wall * 1e3:.2f}ms"
            if record.spill_pages:
                text += f" spill={record.spill_pages:.1f}p"
            extras = prof.extras or {}
            if "grace_depth" in extras:  # how far a Grace hash join degraded
                text += (
                    f" grace_depth={extras['grace_depth']}"
                    f" block_chunks={extras['block_chunks']}"
                )
            if extras.get("groupjoin"):  # folded its hash join's matches
                text += " groupjoin"
        lines.append(
            f"{'  ' * depth}{record.label}  "
            f"{{est={record.est_card:.1f} actual={text}}}"
            f"{_misestimate_flag(record)}"
        )
        for child in record.children:
            visit(child, depth + 1)

    visit(root, 0)
    return "\n".join(lines)


def explain_analyze(report) -> str:
    """Render every attempt of a :class:`~repro.core.driver.PopReport`.

    Each optimize+execute round shows its record, plus the checkpoint that
    ended it (if any).
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
        sections.append(explain_analyze_plan(attempt.record))
    return "\n".join(sections)
