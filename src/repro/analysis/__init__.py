"""Static analysis for the POP engine (see ``docs/static_analysis.md``).

Three faces:

* the **plan-semantics linter** (:mod:`repro.analysis.plan_lint`) — one
  list of rules over physical plan trees auditing the invariants
  progressive optimization rests on: validity-range well-formedness, CHECK
  placement safety, cost monotonicity, ordering claims, reuse consistency,
  feedback consistency;
* the **engine contract checker** (:mod:`repro.analysis.contract`) — an
  ``ast``-based lint of the ``repro`` source tree enforcing the iterator
  contract, determinism (no stray ``random``/``time``), no float ``==`` in
  the cost model, and no bare ``except``;
* the **concurrency contract analyzer** (:mod:`repro.analysis.concurrency`)
  — lock-order, guarded-state, wait-while-holding, and
  callback-under-lock verification against the policy declared in
  :mod:`repro.common.locking` (``python -m repro.analysis --concurrency``).

The two source-tree faces read and parse the tree through one pass
(:func:`repro.analysis.contract.read_source_tree`).  ``python -m
repro.analysis`` runs the contract checker (plus, on request, the plan
linter over every workload plan) and exits non-zero on error-severity
findings; the CLI's ``\\lint`` and the strict mode of
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
    run_concurrency_checks,
    static_lock_graph,
)
from repro.analysis.plan_lint import (
    PLAN_RULES,
    LintContext,
    PlanLintError,
    assert_plan_clean,
    lint_plan,
    lint_statement,
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
    "PLAN_RULES",
    "lint_plan",
    "lint_statement",
    "assert_plan_clean",
    "CONCURRENCY_RULES",
    "ConcurrencyPolicy",
    "check_concurrency_module",
    "run_concurrency_checks",
    "static_lock_graph",
]
