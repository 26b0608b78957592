"""The plan-semantics linter: registry, context, and entry points.

The linter runs a set of pluggable *rules* over a physical plan tree and
returns structured :class:`~repro.analysis.findings.Finding` objects.  It
goes beyond :func:`repro.plan.validate.validate_plan`'s structural checks:
rules see the whole tree with parent links, and — when a
:class:`LintContext` is supplied — the catalog, the cost model, the POP
configuration, and the cardinality-feedback store, which is what lets them
audit validity-range semantics, CHECK placement safety (paper §4), cost
monotonicity, and feedback consistency of re-optimized plans.

Rules are plain functions ``rule(root, parents, ctx) -> iterable[Finding]``
registered with the :func:`plan_rule` decorator; ``parents`` maps each node
to its parent (``None`` for the root).  ``lint_plan`` runs every registered
rule (or a requested subset) and never raises on findings;
``assert_plan_clean`` is the strict-mode wrapper that raises
:class:`PlanLintError` when any error-severity finding exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from repro.analysis.findings import Finding, has_errors, sort_findings
from repro.common.errors import ReproError
from repro.plan.physical import PlanOp


class PlanLintError(ReproError):
    """Strict mode: a linted plan produced error-severity findings."""

    def __init__(self, findings: Sequence[Finding], where: str = "plan"):
        errors = [f for f in findings if f.severity == "error"]
        super().__init__(
            f"{where}: {len(errors)} plan-lint error(s): "
            + "; ".join(f"[{f.rule}] {f.message}" for f in errors[:5])
            + (" ..." if len(errors) > 5 else "")
        )
        self.findings = list(findings)


@dataclass
class LintContext:
    """Everything a rule may consult beyond the plan tree itself.

    All fields are optional; rules degrade gracefully (context-dependent
    checks are skipped when their input is absent), so ``lint_plan(root)``
    with no context still runs every purely structural rule.
    """

    #: :class:`repro.storage.catalog.Catalog` — table stats.
    catalog: Optional[object] = None
    #: The statement's :class:`repro.storage.catalog.TempMVRegistry`; MV
    #: scans are checked against it (skipped when absent).
    temp_mvs: Optional[object] = None
    #: :class:`repro.optimizer.costmodel.CostModel` — monotonicity probes.
    cost_model: Optional[object] = None
    #: :class:`repro.core.config.PopConfig` in effect for this plan.
    config: Optional[object] = None
    #: :class:`repro.core.feedback.CardinalityFeedback` — set when linting a
    #: re-optimized plan, enabling the feedback-consistency rule.
    feedback: Optional[object] = None
    #: Which attempt produced this plan (0 = initial optimization).
    attempt: int = 0
    #: Fingerprint recorded when this plan was admitted from the plan cache
    #: (:mod:`repro.cache`); enables the ``cache-plan-immutable`` rule.
    cached_fingerprint: Optional[str] = None


#: A rule callable: (root, parents, ctx) -> iterable of findings.
PlanRuleFn = Callable[[PlanOp, dict, LintContext], Iterable[Finding]]


@dataclass(frozen=True)
class PlanRule:
    """A registered rule with its catalog metadata."""

    rule_id: str
    fn: PlanRuleFn = field(compare=False)
    doc: str = field(default="", compare=False)
    #: Paper section the invariant comes from ("" for engine-specific ones).
    paper_ref: str = field(default="", compare=False)


#: Registry of plan rules in registration order (rule_id -> PlanRule).
PLAN_RULES: dict[str, PlanRule] = {}


def plan_rule(rule_id: str, paper_ref: str = "") -> Callable[[PlanRuleFn], PlanRuleFn]:
    """Register a plan rule under ``rule_id`` (decorator)."""

    def register(fn: PlanRuleFn) -> PlanRuleFn:
        if rule_id in PLAN_RULES:
            raise ValueError(f"duplicate plan rule id {rule_id!r}")
        PLAN_RULES[rule_id] = PlanRule(
            rule_id=rule_id,
            fn=fn,
            doc=(fn.__doc__ or "").strip().splitlines()[0] if fn.__doc__ else "",
            paper_ref=paper_ref,
        )
        return fn

    return register


def parent_map(root: PlanOp) -> dict:
    """Map every node (by identity) to its parent; the root maps to None."""
    parents: dict[int, Optional[PlanOp]] = {id(root): None}
    for op in root.walk():
        for child in op.children:
            parents[id(child)] = op
    return parents


def ancestors(op: PlanOp, parents: dict) -> Iterable[PlanOp]:
    """The chain of ancestors from ``op``'s parent up to the root."""
    current = parents.get(id(op))
    while current is not None:
        yield current
        current = parents.get(id(current))


def lint_plan(
    root: PlanOp,
    context: Optional[LintContext] = None,
    rules: Optional[Sequence[str]] = None,
) -> list[Finding]:
    """Run plan rules over ``root`` and return all findings (never raises).

    ``rules`` restricts the run to the given rule ids; unknown ids raise
    ``KeyError`` so typos in CI configurations fail loudly.
    """
    # Importing the rules module registers the built-in rule set; done
    # lazily to keep the registry import-cycle free.
    from repro.analysis import rules as _builtin  # noqa: F401

    ctx = context if context is not None else LintContext()
    selected = (
        [PLAN_RULES[rule_id] for rule_id in rules]
        if rules is not None
        else list(PLAN_RULES.values())
    )
    parents = parent_map(root)
    findings: list[Finding] = []
    for rule in selected:
        findings.extend(rule.fn(root, parents, ctx))
    return sort_findings(findings)


def assert_plan_clean(
    root: PlanOp,
    context: Optional[LintContext] = None,
    where: str = "plan",
) -> list[Finding]:
    """Lint and raise :class:`PlanLintError` on error-severity findings.

    Returns the (possibly warn/info-only) findings otherwise — strict-mode
    callers forward them to tracing.
    """
    findings = lint_plan(root, context)
    if has_errors(findings):
        raise PlanLintError(findings, where=where)
    return findings
