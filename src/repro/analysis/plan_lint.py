"""The plan-semantics linter: one list of rules over physical plan trees.

A rule is a plain function ``rule(root) -> iterable[Finding]``;
:data:`PLAN_RULES` lists every rule with its id and paper reference.
``lint_plan`` runs them all and never raises on findings.  A rule stays
only while it catches a seeded defect nothing else in the test suite
catches: the catch table in ``docs/static_analysis.md`` records which one.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.concurrency import CONCURRENCY_RULES
from repro.analysis.findings import Finding, sort_findings
from repro.optimizer.enumeration import order_satisfies
from repro.plan.physical import MergeJoin, PlanOp, Sort


def _finding(rule: str, op: PlanOp, message: str, **data) -> Finding:
    return Finding(
        rule=rule, message=message, op_id=op.op_id, op_kind=op.KIND, data=data
    )


# ------------------------------------------------------------ order claims


def rule_ordering(root: PlanOp) -> Iterator[Finding]:
    """Claimed output orders must match Sort keys and MSJN requirements."""
    for op in root.walk():
        if isinstance(op, Sort):
            if not order_satisfies(op.properties.order, op.keys):
                yield _finding(
                    "ordering", op,
                    f"SORT on {list(op.keys)} claims output order "
                    f"{list(op.properties.order)}",
                    keys=op.keys, claimed=op.properties.order,
                )
        elif isinstance(op, MergeJoin):
            for side, child in (("outer", op.outer), ("inner", op.inner)):
                tables = child.properties.tables
                if not all(pred.tables() & tables for pred in op.join_predicates):
                    continue  # a join key this input does not carry
                required = tuple(
                    pred.side_for(next(iter(pred.tables() & tables))).qualified
                    for pred in op.join_predicates
                )
                if not order_satisfies(child.properties.order, required):
                    yield _finding(
                        "ordering", op,
                        f"MSJOIN {side} input claims order "
                        f"{list(child.properties.order)} but the merge "
                        f"requires {list(required)}",
                        side=side, required=required,
                        claimed=child.properties.order,
                    )


# ------------------------------------------------------------ entry points

#: Every plan rule as (rule id, paper reference, rule function), in the
#: order ``--list-rules`` prints them.
PLAN_RULES = (
    ("ordering", "interesting orders (§2.2 context)", rule_ordering),
)


def lint_plan(root: PlanOp) -> list[Finding]:
    """Run every plan rule over ``root`` and return all findings (never raises)."""
    return sort_findings(
        finding for _rule_id, _ref, rule in PLAN_RULES for finding in rule(root)
    )


def lint_statement(db, sql: str, config) -> list[Finding]:
    """Plan ``sql`` as ``Database.execute`` would under ``config``; lint the
    placed plan."""
    _opt, placement = db.plan(sql, pop=config)
    return lint_plan(placement.plan)


def rule_listing() -> list[str]:
    """One line per plan rule and concurrency rule: id, paper ref, doc."""
    lines = []
    for rule_id, ref, rule in PLAN_RULES:
        doc = rule.__doc__.strip().splitlines()[0]
        lines.append(f"{rule_id:25s}{f' [{ref}]' if ref else '':25s} {doc}")
    for rule_id, doc in CONCURRENCY_RULES.items():
        lines.append(f"{rule_id:25s}{'':25s} {doc}")
    return lines
