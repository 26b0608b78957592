"""Finding objects and their rendering.

Every analysis rule — plan-semantics rules over :class:`~repro.plan.physical.PlanOp`
trees and engine-contract rules over the source tree — reports through the
same structured :class:`Finding` record, so downstream consumers (the CLI,
CI, the tests) handle one shape.  There is one severity: a
finding fails its gate, or it is not reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional


@dataclass(frozen=True)
class Finding:
    """One diagnostic produced by an analysis rule.

    Plan findings carry ``op_id``/``op_kind``; source findings carry
    ``file``/``line``.  ``rule`` is the stable registry id the finding can
    be asserted by.
    """

    rule: str
    message: str
    op_id: Optional[int] = None
    op_kind: Optional[str] = None
    file: Optional[str] = None
    line: Optional[int] = None
    #: Free-form structured context (estimates, bounds, names).
    data: dict = field(default_factory=dict, compare=False)

    @property
    def where(self) -> str:
        """Human-readable location: operator or file position."""
        if self.file is not None:
            return f"{self.file}:{self.line}" if self.line is not None else self.file
        if self.op_id is not None or self.op_kind is not None:
            return f"{self.op_kind or 'op'}#{self.op_id if self.op_id is not None else '?'}"
        return "-"


def sort_findings(findings: Iterable[Finding]) -> list[Finding]:
    """Stable order: rule id, then location."""
    return sorted(
        findings,
        key=lambda f: (
            f.rule,
            f.file or "",
            f.line if f.line is not None else -1,
            f.op_id if f.op_id is not None else -1,
        ),
    )


def render_text(findings: Iterable[Finding]) -> str:
    """Aligned human-readable listing with a one-line count tail."""
    ordered = sort_findings(findings)
    if not ordered:
        return "no findings"
    loc_width = max(len(f.where) for f in ordered)
    rule_width = max(len(f.rule) for f in ordered)
    lines = [
        f"{f.where.ljust(loc_width)}  {f.rule.ljust(rule_width)}  {f.message}"
        for f in ordered
    ]
    lines.append(f"{len(ordered)} finding(s)")
    return "\n".join(lines)
