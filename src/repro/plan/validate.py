"""Structural validation of physical plans.

``validate_plan`` walks a plan tree and checks the invariants every
well-formed QEP must satisfy — layout propagation, property composition,
join-key resolvability, checkpoint sanity — and returns the message of
every violation (empty for a well-formed plan).  The plan-semantics linter
(:mod:`repro.analysis`) builds its ``structure`` rule on it; the test suite
runs it over every plan the optimizer and the placement pass produce for
both workloads.
"""

from __future__ import annotations

from typing import Callable

from repro.plan.physical import (
    AntiJoin,
    BufCheck,
    Check,
    Distinct,
    GroupBy,
    HavingFilter,
    JoinOp,
    MVScan,
    NLJoin,
    PlanOp,
    Project,
    Return,
    Sort,
    TableScan,
    Temp,
)


#: Records one violation of ``op``.
FailFn = Callable[[PlanOp, str], None]


def validate_plan(root: PlanOp) -> list[str]:
    """Every structural violation in the subtree rooted at ``root``."""
    violations: list[str] = []

    def fail(op: PlanOp, message: str) -> None:
        violations.append(f"{op.describe()} (op_id={op.op_id}): {message}")

    for op in root.walk():
        _check_common(op, fail)
        if isinstance(op, JoinOp):
            _check_join(op, fail)
        elif isinstance(
            op, (Sort, Temp, Check, BufCheck, AntiJoin, HavingFilter)
        ):
            _check_transparent(op, fail)
        elif isinstance(op, (GroupBy, Distinct, Project)):
            _check_reshaping(op, fail)
        elif isinstance(op, Return):
            if len(op.children) != 1:
                fail(op, "RETURN must have exactly one child")
    return violations


def _check_common(op: PlanOp, fail: FailFn) -> None:
    if op.est_card < 0:
        fail(op, f"negative cardinality estimate {op.est_card}")
    if op.est_cost < -1e-6:
        fail(op, f"negative cost estimate {op.est_cost}")
    if len(op.validity_ranges) != len(op.children):
        fail(op, "one validity range per input edge expected")
    for rng in op.validity_ranges:
        if rng.low > rng.high:
            fail(op, f"inverted validity range {rng}")
    if not op.children and not isinstance(op, (TableScan, MVScan)) and not hasattr(
        op, "index_name"
    ):
        fail(op, "only scans may be leaves")


def _check_join(op: JoinOp, fail: FailFn) -> None:
    if len(op.children) != 2:
        fail(op, "joins take exactly two children")
        return
    expected = op.outer.layout.concat(op.inner.layout)
    if op.layout.columns != expected.columns:
        fail(op, "join layout must be outer ++ inner")
    merged_tables = op.outer.properties.tables | op.inner.properties.tables
    if op.properties.tables != merged_tables:
        fail(op, "join properties must union the children's tables")
    # Every join key must be resolvable in the combined layout.
    for pred in op.join_predicates:
        for col in pred.columns():
            if not op.layout.has(col):
                fail(op, f"join key {col} missing from layout")
    if isinstance(op, NLJoin) and op.method == "index":
        corr = getattr(op.inner, "correlation", None)
        if corr is None:
            fail(op, "index NLJN inner must be a correlated index scan")
        elif not op.outer.layout.has(corr):
            fail(op, f"correlation column {corr} missing from the outer")


def _check_transparent(op: PlanOp, fail: FailFn) -> None:
    """Operators that pass rows through unchanged keep the child's layout."""
    child = op.children[0]
    if op.layout.columns != child.layout.columns:
        fail(op, "layout must match the child's")
    if isinstance(op, (Check, BufCheck)):
        rng = op.check_range
        if rng.low > rng.high:
            fail(op, f"inverted check range {rng}")
    if isinstance(op, Sort):
        for key in op.keys:
            if not op.layout.has(key):
                fail(op, f"sort key {key} missing from layout")
        if len(op.ascending) != len(op.keys):
            fail(op, "one direction flag per sort key expected")
    if isinstance(op, HavingFilter):
        for pred in op.predicates:
            if not op.layout.has(pred.column):
                fail(op, f"HAVING column {pred.column} missing from layout")


def _check_reshaping(op: PlanOp, fail: FailFn) -> None:
    child = op.children[0]
    if isinstance(op, Project):
        for column in op.columns:
            if not child.layout.has(column):
                fail(op, f"projected column {column} missing from child")
    if isinstance(op, GroupBy):
        for key in op.group_keys:
            if not child.layout.has(key):
                fail(op, f"group key {key} missing from child")
        for agg in op.aggregates:
            if agg.argument is not None and not child.layout.has(agg.argument):
                fail(op, f"aggregate argument {agg.argument} missing from child")
        expected = tuple(
            [k.qualified for k in op.group_keys] + [a.alias for a in op.aggregates]
        )
        if op.layout.columns != expected:
            fail(op, "GROUP BY layout must be keys ++ aggregate aliases")
