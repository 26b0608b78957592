"""Static analysis for the POP engine (see ``docs/static_analysis.md``).

Three faces:

* the **plan-semantics linter** (:mod:`repro.analysis.plan_lint`) — one
  list of rules over physical plan trees (today: the ordering claims the
  enumerator's merge-join admission and final-sort elision rely on);
* the **engine contract checker** (:mod:`repro.analysis.contract`) — an
  ``ast``-based lint of the ``repro`` source tree enforcing two source
  contracts no test observes (``close()`` safety, no float equality in
  cost and cache arithmetic);
* the **concurrency contract analyzer** (:mod:`repro.analysis.concurrency`)
  — lock-order, wait-while-holding, guarded-state and locked-helper
  verification against the policy declared in :mod:`repro.common.locking`
  (``python -m repro.analysis --concurrency``).

Every check stays only while it catches a seeded defect nothing else
catches; the catch table in ``docs/static_analysis.md`` records which.
The two source-tree faces read and parse the tree through one pass
(:func:`repro.analysis.contract.read_source_tree`).  ``python -m
repro.analysis`` runs the contract checker (plus, on request, the plan
linter over every workload plan) and exits non-zero on any finding; the
CLI's ``\\lint`` reuses the same rules.
"""

from repro.analysis.concurrency import (
    CONCURRENCY_RULES,
    ConcurrencyPolicy,
    check_concurrency_module,
    run_concurrency_checks,
)
from repro.analysis.findings import Finding, render_text, sort_findings
from repro.analysis.plan_lint import PLAN_RULES, lint_plan, lint_statement

__all__ = [
    "Finding",
    "render_text",
    "sort_findings",
    "PLAN_RULES",
    "lint_plan",
    "lint_statement",
    "CONCURRENCY_RULES",
    "ConcurrencyPolicy",
    "check_concurrency_module",
    "run_concurrency_checks",
]
