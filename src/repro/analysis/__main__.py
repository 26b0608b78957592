"""``python -m repro.analysis`` — the non-interactive analysis gate.

Runs the engine contract checker over the ``repro`` source tree and, on
request, the plan-semantics linter over every plan the optimizer
and checkpoint placer produce for the TPC-H and/or DMV workloads.

Exit status: 0 when there is no finding, 1 otherwise — suitable as a
blocking CI job.
``--concurrency`` instead runs only the concurrency contract analyzer
(:mod:`repro.analysis.concurrency`) and exits 2 on findings, so the CI
``concurrency-gate`` step is distinguishable from the general gate.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from repro.analysis.contract import run_contract_checks
from repro.analysis.findings import Finding, render_text
from repro.analysis.plan_lint import lint_statement, rule_listing


def lint_workload_plans(which: str) -> list[Finding]:
    """Plan every workload query as ``Database.execute`` would; lint each."""
    from repro.core.config import PopConfig
    from repro.workloads import small_workload_databases

    findings: list[Finding] = []
    config = PopConfig()
    for label, db, queries in small_workload_databases(which):
        for name, sql in queries:
            findings.extend(
                dataclasses.replace(f, message=f"{label}/{name}: {f.message}")
                for f in lint_statement(db, sql, config)
            )
    return findings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Static analysis gate: engine contracts + plan linting.",
    )
    parser.add_argument(
        "--root",
        default=None,
        help="source root to contract-check (default: the repro package)",
    )
    parser.add_argument(
        "--plans",
        choices=("none", "tpch", "dmv", "all"),
        default="none",
        help="also lint every optimizer/placement plan of these workloads",
    )
    parser.add_argument(
        "--concurrency",
        action="store_true",
        help="run only the concurrency contract analyzer (exit code 2 on "
        "findings): lock order, waits, guarded state, locked helpers",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the plan and concurrency rule catalog and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        print("\n".join(rule_listing()))
        return 0

    findings: list[Finding] = []
    if args.concurrency:
        from repro.analysis.concurrency import run_concurrency_checks

        findings = run_concurrency_checks(args.root)
    else:
        findings.extend(run_contract_checks(args.root))
        if args.plans != "none":
            findings.extend(lint_workload_plans(args.plans))

    print(render_text(findings))
    if not findings:
        return 0
    return 2 if args.concurrency else 1


if __name__ == "__main__":
    sys.exit(main())
