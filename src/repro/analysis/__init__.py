"""Static analysis for the POP engine (see ``docs/static_analysis.md``).

Two faces:

* the **plan-semantics linter** (:mod:`repro.analysis.plan_lint`,
  :mod:`repro.analysis.rules`) — pluggable rules over physical plan trees
  auditing the invariants progressive optimization rests on: validity-range
  well-formedness, CHECK placement safety, cost monotonicity, ordering
  claims, reuse consistency, feedback consistency;
* the **engine contract checker** (:mod:`repro.analysis.contract`) — an
  ``ast``-based lint of the ``repro`` source tree enforcing the iterator
  contract, determinism (no stray ``random``/``time``), no float ``==`` in
  the cost model, and no bare ``except``;
* the **concurrency contract analyzer** (:mod:`repro.analysis.concurrency`)
  — lock-order, guarded-state, wait-while-holding, and
  callback-under-lock verification against the policy declared in
  :mod:`repro.common.locking` (``python -m repro.analysis --concurrency``).

``python -m repro.analysis`` runs both and exits non-zero on
error-severity findings; the CLI's ``\\lint`` and the strict mode of
:class:`~repro.core.driver.PopDriver` reuse the same rules.
"""

from repro.analysis.findings import (
    ERROR,
    INFO,
    SEVERITIES,
    WARN,
    Finding,
    count_by_severity,
    has_errors,
    render_jsonl,
    render_text,
    sort_findings,
)
from repro.analysis.concurrency import (
    CONCURRENCY_RULES,
    ConcurrencyPolicy,
    check_concurrency_module,
    check_concurrency_tree,
    run_concurrency_checks,
    static_lock_graph,
)
from repro.analysis.plan_lint import (
    PLAN_RULES,
    LintContext,
    PlanLintError,
    PlanRule,
    assert_plan_clean,
    lint_plan,
    plan_rule,
)

__all__ = [
    "ERROR",
    "WARN",
    "INFO",
    "SEVERITIES",
    "Finding",
    "count_by_severity",
    "has_errors",
    "render_jsonl",
    "render_text",
    "sort_findings",
    "LintContext",
    "PlanLintError",
    "PlanRule",
    "PLAN_RULES",
    "plan_rule",
    "lint_plan",
    "assert_plan_clean",
    "CONCURRENCY_RULES",
    "ConcurrencyPolicy",
    "check_concurrency_module",
    "check_concurrency_tree",
    "run_concurrency_checks",
    "static_lock_graph",
]
