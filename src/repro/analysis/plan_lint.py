"""The plan-semantics linter: one list of rules over physical plan trees.

Each rule audits one invariant POP's correctness rests on: plans are
well-formed QEPs, validity ranges are sane and bracket the estimates they
guard (§2.2), CHECK operators sit only where re-optimization is
side-effect safe (§3/§4, Table 1), operator costs respond sanely to the
cardinality perturbations the Newton–Raphson probe explores (§2.2/Fig. 5),
ordering claims match Sort/MSJN requirements, and re-optimized plans
actually use the exact feedback they were given (§2.1).  Each numeric
condition is checked by exactly one rule: estimates and costs by
``estimate-plausibility``, range bounds by ``validity-range``.

A rule is a plain function ``rule(root, ctx) -> iterable[Finding]``;
:data:`PLAN_RULES` lists every rule with its id and paper reference.
``lint_plan`` runs them all and never raises on findings;
``assert_plan_clean`` is the strict-mode wrapper that raises
:class:`PlanLintError` when any error-severity finding exists.  See
``docs/static_analysis.md`` for the catalog with paper citations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from repro.analysis.concurrency import CONCURRENCY_RULES
from repro.analysis.findings import ERROR, INFO, WARN, Finding, has_errors, sort_findings
from repro.common.errors import ReproError
from repro.core.flavors import ALL_FLAVORS, ECB, ECDC, NON_PIPELINED_FLAVORS
from repro.obs.profile import qerror
from repro.optimizer.enumeration import order_satisfies
from repro.plan.physical import (
    AntiJoin,
    BufCheck,
    Check,
    Distinct,
    GroupBy,
    HashJoin,
    HavingFilter,
    IndexScan,
    JoinOp,
    MergeJoin,
    MVScan,
    NLJoin,
    PlanOp,
    Project,
    Return,
    Sort,
    TableScan,
    Temp,
)


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


#: Relative slack for estimate-vs-bound comparisons (floating-point noise).
_SLACK = 1.001

#: Input-cardinality scale factors the monotonicity probe evaluates, in
#: increasing order — the same neighbourhood Fig. 5's probe explores.
_PROBE_FACTORS = (0.25, 0.5, 1.0, 2.0, 4.0, 10.0)


def _finding(
    rule: str, severity: str, op: PlanOp, message: str, **data
) -> Finding:
    return Finding(
        rule=rule,
        severity=severity,
        message=message,
        op_id=op.op_id,
        op_kind=op.KIND,
        data=data,
    )


# --------------------------------------------------------------- structure


def rule_structure(root: PlanOp, ctx: LintContext) -> Iterator[Finding]:
    """Layouts, properties, join keys and arities form a well-formed QEP."""
    for op in root.walk():
        for message in _structure_violations(op):
            yield _finding("structure", ERROR, op, message)


def _structure_violations(op: PlanOp) -> Iterator[str]:
    if len(op.validity_ranges) != len(op.children):
        yield "one validity range per input edge expected"
    if not op.children and not isinstance(op, (TableScan, IndexScan, MVScan)):
        yield "only scans may be leaves"
    if isinstance(op, JoinOp):
        yield from _join_violations(op)
    elif isinstance(op, (Sort, Temp, Check, BufCheck, AntiJoin, HavingFilter)):
        # Operators that pass rows through unchanged keep the child's layout.
        if op.layout.columns != op.children[0].layout.columns:
            yield "layout must match the child's"
        if isinstance(op, Sort):
            for key in op.keys:
                if not op.layout.has(key):
                    yield f"sort key {key} missing from layout"
            if len(op.ascending) != len(op.keys):
                yield "one direction flag per sort key expected"
        if isinstance(op, HavingFilter):
            for pred in op.predicates:
                if not op.layout.has(pred.column):
                    yield f"HAVING column {pred.column} missing from layout"
    elif isinstance(op, (GroupBy, Distinct, Project)):
        yield from _reshaping_violations(op)
    elif isinstance(op, Return) and len(op.children) != 1:
        yield "RETURN must have exactly one child"


def _join_violations(op: JoinOp) -> Iterator[str]:
    if len(op.children) != 2:
        yield "joins take exactly two children"
        return
    if op.layout.columns != op.outer.layout.concat(op.inner.layout).columns:
        yield "join layout must be outer ++ inner"
    if op.properties.tables != op.outer.properties.tables | op.inner.properties.tables:
        yield "join properties must union the children's tables"
    # Every join key must be resolvable in the combined layout.
    for pred in op.join_predicates:
        for col in pred.columns():
            if not op.layout.has(col):
                yield f"join key {col} missing from layout"
    if isinstance(op, NLJoin) and op.method == "index":
        corr = getattr(op.inner, "correlation", None)
        if corr is None:
            yield "index NLJN inner must be a correlated index scan"
        elif not op.outer.layout.has(corr):
            yield f"correlation column {corr} missing from the outer"


def _reshaping_violations(op: PlanOp) -> Iterator[str]:
    child = op.children[0]
    if isinstance(op, Project):
        for column in op.columns:
            if not child.layout.has(column):
                yield f"projected column {column} missing from child"
    if isinstance(op, GroupBy):
        for key in op.group_keys:
            if not child.layout.has(key):
                yield f"group key {key} missing from child"
        for agg in op.aggregates:
            if agg.argument is not None and not child.layout.has(agg.argument):
                yield f"aggregate argument {agg.argument} missing from child"
        expected = tuple(
            [k.qualified for k in op.group_keys] + [a.alias for a in op.aggregates]
        )
        if op.layout.columns != expected:
            yield "GROUP BY layout must be keys ++ aggregate aliases"


# ---------------------------------------------------------- validity ranges


def _range_defect(rng) -> Optional[str]:
    """Why ``rng`` is not an interval of cardinalities, or ``None``."""
    if math.isnan(rng.low) or math.isnan(rng.high):
        return "has a NaN bound"
    if rng.low < 0 or math.isinf(rng.low):
        return (
            f"lower bound {rng.low} is not a finite non-negative cardinality"
        )
    if rng.low > rng.high:
        return "is inverted"
    return None


def rule_validity_range(root: PlanOp, ctx: LintContext) -> Iterator[Finding]:
    """Validity and check ranges must be well-formed intervals in [0, inf]."""
    for op in root.walk():
        for i, rng in enumerate(op.validity_ranges):
            defect = _range_defect(rng)
            if defect is not None:
                yield _finding(
                    "validity-range", ERROR, op,
                    f"edge[{i}] validity range {rng} {defect}",
                )
        if isinstance(op, (Check, BufCheck)):
            defect = _range_defect(op.check_range)
            if defect is not None:
                yield _finding(
                    "validity-range", ERROR, op,
                    f"check range {op.check_range} {defect}",
                )
        if isinstance(op, BufCheck) and op.buffer_size < 1:
            yield _finding(
                "validity-range", ERROR, op,
                f"BUFCHECK valve size {op.buffer_size} must be >= 1",
            )


def rule_range_brackets_estimate(
    root: PlanOp, ctx: LintContext
) -> Iterator[Finding]:
    """A range guarding an edge must bracket that edge's estimate.

    Validity ranges are carved out *around* the optimizer's estimate (the
    plan is optimal at its own estimate by construction); a CHECK whose
    range excludes the guarded estimate would trigger unconditionally.
    """
    for op in root.walk():
        if isinstance(op, (Check, BufCheck)):
            est = op.children[0].est_card
            rng = op.check_range
            if rng.low > rng.high:
                continue  # already an error under validity-range
            if not (rng.low <= est * _SLACK and est <= rng.high * _SLACK):
                yield _finding(
                    "range-brackets-estimate", ERROR, op,
                    f"check range {rng} does not bracket the guarded "
                    f"estimate {est:.1f}",
                    low=rng.low, high=rng.high, est_card=est,
                )
        elif isinstance(op, JoinOp):
            for i, rng in enumerate(op.validity_ranges):
                if rng.is_trivial or rng.low > rng.high:
                    continue
                child = op.children[i]
                if getattr(child, "correlation", None) is not None:
                    # Correlated index-NLJN inner: the child's estimate is
                    # per-probe, while the range is over the whole edge's
                    # subset cardinality — incomparable (and uncheckable).
                    continue
                est = child.est_card
                if not (rng.low <= est * _SLACK and est <= rng.high * _SLACK):
                    yield _finding(
                        "range-brackets-estimate", WARN, op,
                        f"edge[{i}] validity range {rng} does not bracket "
                        f"the input estimate {est:.1f}",
                        edge=i, low=rng.low, high=rng.high, est_card=est,
                    )


# ------------------------------------------------------- placement safety


def _blocks_pipeline(parent: PlanOp, child: PlanOp) -> bool:
    """True when no row of ``child`` can reach ``parent``'s output until
    ``child``'s stream has been fully consumed (or ``parent`` buffers it)."""
    if parent.IS_MATERIALIZATION or isinstance(parent, (GroupBy, Distinct)):
        return True
    # The build (inner) side of a hash join is fully consumed during open.
    return isinstance(parent, HashJoin) and child is parent.children[1]


def _open_evaluated(check: Check) -> bool:
    """LC pattern: a CHECK directly above a materialization point is
    evaluated once, before any row flows onward (CheckExec.open)."""
    return check.children[0].IS_MATERIALIZATION


def rule_check_placement(root: PlanOp, ctx: LintContext) -> Iterator[Finding]:
    """Non-compensating CHECKs must not guard a fully pipelined path.

    A CHECK of a non-pipelined-safe flavor (LC, LCEM, ECWC) that fires after
    rows have reached the application cannot be compensated; the driver
    turns that into a hard ExecutionError.  Statically, such a CHECK is safe
    only if it is evaluated before rows flow (directly above a
    materialization point) or if a blocking operator separates it from the
    plan root.
    """
    #: Operators no blocking operator separates from the root; the preorder
    #: walk visits every parent before its children.
    pipelined = {id(root)}
    for op in root.walk():
        if id(op) in pipelined:
            pipelined.update(
                id(child) for child in op.children
                if not _blocks_pipeline(op, child)
            )
        if isinstance(op, BufCheck) or not isinstance(op, Check):
            continue  # a BUFCHECK valve buffers: safe by construction (§3.2)
        if (
            op.flavor in NON_PIPELINED_FLAVORS
            and not _open_evaluated(op)
            and id(op) in pipelined
        ):
            yield _finding(
                "check-placement", ERROR, op,
                f"non-compensating CHECK[{op.flavor}] on a fully "
                "pipelined path to the root (rows could reach the "
                "application before the check decides)",
                flavor=op.flavor,
            )
        if op.flavor == ECDC:
            collapsing = [
                a.KIND
                for a in root.walk()
                if isinstance(a, (GroupBy, Distinct, HavingFilter))
            ]
            if collapsing:
                yield _finding(
                    "check-placement", WARN, op,
                    "ECDC checkpoint in a non-SPJ plan: multiset "
                    "compensation assumes select-project-join semantics "
                    f"(§3.3); plan aggregates via {sorted(set(collapsing))}",
                )
        child = op.children[0]
        if isinstance(child, MVScan) and not child.filters:
            yield _finding(
                "check-placement", WARN, op,
                f"CHECK guards exact MV scan {child.mv_name!r}: its "
                "cardinality is a catalog fact, the check cannot add "
                "information",
            )


# -------------------------------------------------------- cost monotonicity


def rule_cost_monotone(root: PlanOp, ctx: LintContext) -> Iterator[Finding]:
    """Operator costs must stay finite, non-negative, and monotone in input
    cardinality across the neighbourhood Newton–Raphson explores.

    The validity-range probe re-costs plans at perturbed edge cardinalities;
    a cost function that turns negative, NaN, or *decreases* as an input
    grows silently corrupts every bound derived from it.  Each input edge
    is probed through ``CostModel.recost``, the optimizer's own arithmetic.
    """
    if ctx.cost_model is None:
        return
    recost = ctx.cost_model.recost
    for op in root.walk():
        for i, child in enumerate(op.children):
            edge = ("outer", "inner")[i] if isinstance(op, JoinOp) else "input"
            base = max(child.est_card, 1.0)
            previous: Optional[float] = None
            for factor in _PROBE_FACTORS:
                card = base * factor
                cost = recost(op, {child.op_id: card})[op]
                if math.isnan(cost) or math.isinf(cost) or cost < -1e-9:
                    yield _finding(
                        "cost-monotone", ERROR, op,
                        f"{edge} cost at cardinality {card:.1f} is "
                        f"{cost!r} (must be finite and non-negative)",
                        edge=edge, cardinality=card, cost=cost,
                    )
                    break
                if previous is not None and cost < previous * (1.0 - 1e-9) - 1e-9:
                    yield _finding(
                        "cost-monotone", ERROR, op,
                        f"{edge} cost decreases as input grows: "
                        f"{previous:.4f} -> {cost:.4f} at cardinality "
                        f"{card:.1f}",
                        edge=edge, cardinality=card,
                        cost=cost, previous=previous,
                    )
                    break
                previous = cost


# ------------------------------------------------------------ order claims


def rule_ordering(root: PlanOp, ctx: LintContext) -> Iterator[Finding]:
    """Claimed output orders must match Sort keys and MSJN requirements."""
    for op in root.walk():
        if isinstance(op, Sort):
            if not order_satisfies(op.properties.order, op.keys):
                yield _finding(
                    "ordering", ERROR, op,
                    f"SORT on {list(op.keys)} claims output order "
                    f"{list(op.properties.order)}",
                    keys=op.keys, claimed=op.properties.order,
                )
        elif isinstance(op, MergeJoin):
            for side, child in (("outer", op.outer), ("inner", op.inner)):
                tables = child.properties.tables
                required = []
                resolvable = True
                for pred in op.join_predicates:
                    pred_tables = pred.tables() & tables
                    if not pred_tables:
                        resolvable = False
                        break
                    required.append(pred.side_for(next(iter(pred_tables))).qualified)
                if not resolvable:
                    continue  # structure rule reports unresolvable keys
                if not order_satisfies(child.properties.order, tuple(required)):
                    yield _finding(
                        "ordering", ERROR, op,
                        f"MSJOIN {side} input claims order "
                        f"{list(child.properties.order)} but the merge "
                        f"requires {required}",
                        side=side, required=tuple(required),
                        claimed=child.properties.order,
                    )


# ---------------------------------------------------- temp/MV reuse contract


def _resettable(op: PlanOp) -> bool:
    """Can the executor rescan this subtree per outer row (TempExec.reset)?"""
    if isinstance(op, Temp):
        return True
    if isinstance(op, Check):
        return _resettable(op.children[0])
    return False


def rule_reuse_consistency(root: PlanOp, ctx: LintContext) -> Iterator[Finding]:
    """Rescan NLJN inners must be materialized; MV scans must match the
    registered temp MV's signature and exact cardinality."""
    for op in root.walk():
        if isinstance(op, NLJoin) and op.method == "rescan":
            if not _resettable(op.inner):
                yield _finding(
                    "reuse-consistency", ERROR, op,
                    f"rescan NLJN inner is {op.inner.KIND}, not a "
                    "materialized (TEMP) subtree the executor can reset",
                    inner=op.inner.KIND,
                )
        if isinstance(op, MVScan):
            if ctx.temp_mvs is None:
                continue
            mv = next(
                (m for m in ctx.temp_mvs if m.name == op.mv_name), None
            )
            if mv is None:
                yield _finding(
                    "reuse-consistency", WARN, op,
                    f"MV scan references {op.mv_name!r}, which is not "
                    "registered for this statement (another statement's?)",
                    mv_name=op.mv_name,
                )
                continue
            if op.properties.tables != mv.tables:
                yield _finding(
                    "reuse-consistency", ERROR, op,
                    f"MV scan tables {sorted(op.properties.tables)} != "
                    f"registered MV tables {sorted(mv.tables)}",
                )
            if not (mv.predicate_ids <= op.properties.predicates):
                yield _finding(
                    "reuse-consistency", ERROR, op,
                    "MV scan properties drop predicates already applied "
                    "inside the MV",
                )
            if not op.filters and abs(op.est_card - mv.cardinality) > 0.5:
                yield _finding(
                    "reuse-consistency", WARN, op,
                    f"filterless MV scan estimates {op.est_card:.1f} rows "
                    f"but the MV's exact cardinality is {mv.cardinality}",
                    est_card=op.est_card, exact=mv.cardinality,
                )


# --------------------------------------------------- estimate plausibility


def rule_estimate_plausibility(
    root: PlanOp, ctx: LintContext
) -> Iterator[Finding]:
    """Estimates and costs must be finite, non-negative, and in bounds.

    The bounds are combinatorial: a scan returns at most its table, a join
    at most the cross product of its inputs, a collapsing operator at most
    its input.
    """
    for op in root.walk():
        # Written so that NaN fails the comparison too.
        bad_card = not 0.0 <= op.est_card < math.inf
        bad_cost = not -1e-6 <= op.est_cost < math.inf
        if bad_card:
            yield _finding(
                "estimate-plausibility", ERROR, op,
                f"cardinality estimate {op.est_card!r} is not a finite "
                "non-negative number",
            )
        if bad_cost:
            yield _finding(
                "estimate-plausibility", ERROR, op,
                f"cost estimate {op.est_cost!r} is not a finite "
                "non-negative number",
            )
        if bad_card or bad_cost:
            continue
        if isinstance(op, (TableScan, IndexScan)) and ctx.catalog is not None:
            if isinstance(op, IndexScan) and op.correlation is not None:
                continue  # per-probe estimate, not a table-level edge
            if ctx.catalog.has_table(op.table):
                rows = ctx.catalog.table(op.table).row_count
                if op.est_card > rows * _SLACK + 1.0:
                    yield _finding(
                        "estimate-plausibility", WARN, op,
                        f"scan of {op.table!r} estimates {op.est_card:.1f} "
                        f"rows, more than the table holds ({rows})",
                        est_card=op.est_card, row_count=rows,
                    )
        elif isinstance(op, JoinOp):
            if getattr(op.inner, "correlation", None) is not None:
                continue  # per-probe inner estimate: no cross-product bound
            bound = op.outer.est_card * op.inner.est_card
            if op.est_card > bound * _SLACK + 1.0:
                yield _finding(
                    "estimate-plausibility", WARN, op,
                    f"join estimates {op.est_card:.1f} rows, above the "
                    f"cross-product bound {bound:.1f}",
                    est_card=op.est_card, bound=bound,
                )
        elif isinstance(op, (GroupBy, Distinct, HavingFilter)):
            child_card = op.children[0].est_card
            if op.est_card > child_card * _SLACK + 1.0:
                yield _finding(
                    "estimate-plausibility", WARN, op,
                    f"{op.KIND} estimates {op.est_card:.1f} output rows "
                    f"from {child_card:.1f} input rows",
                    est_card=op.est_card, input_card=child_card,
                )


# ------------------------------------------------------------------ flavors


def rule_flavor(root: PlanOp, ctx: LintContext) -> Iterator[Finding]:
    """Checkpoint flavors must be known, ECB must use the valve, and dead
    (never-triggering) checkpoints are reported."""
    for op in root.walk():
        if isinstance(op, BufCheck):
            if op.flavor != ECB:
                yield _finding(
                    "flavor", ERROR, op,
                    f"BUFCHECK carries flavor {op.flavor!r}, expected ECB",
                )
        elif isinstance(op, Check):
            if op.flavor not in ALL_FLAVORS:
                yield _finding(
                    "flavor", ERROR, op,
                    f"unknown checkpoint flavor {op.flavor!r}",
                )
            elif op.flavor == ECB:
                yield _finding(
                    "flavor", ERROR, op,
                    "ECB requires the BUFCHECK valve, not a plain CHECK "
                    "(rows would pipeline past an undecided check)",
                )
            elif ctx.config is not None and op.flavor not in ctx.config.flavors:
                yield _finding(
                    "flavor", WARN, op,
                    f"checkpoint flavor {op.flavor} is not enabled in the "
                    f"active configuration {sorted(ctx.config.flavors)}",
                )
        if isinstance(op, (Check, BufCheck)) and op.check_range.is_trivial:
            yield _finding(
                "flavor", INFO, op,
                "checkpoint range is [0, inf): it can never trigger",
            )


# ---------------------------------------------------------------- numbering


def rule_numbering(root: PlanOp, ctx: LintContext) -> Iterator[Finding]:
    """op_ids must be assigned, unique, and in preorder (number_plan).

    Checkpoint events, traces, EXPLAIN ANALYZE actuals, and forced-trigger
    configuration all key on op_id; a stale numbering silently misroutes
    them.
    """
    ops = list(root.walk())
    ids = [op.op_id for op in ops]
    if all(op_id is None for op_id in ids):
        yield Finding(
            rule="numbering", severity=INFO,
            message="plan is not numbered (number_plan has not run)",
        )
        return
    seen: dict[int, PlanOp] = {}
    for index, op in enumerate(ops):
        if op.op_id is None:
            yield _finding(
                "numbering", ERROR, op, "operator has no op_id assigned"
            )
            continue
        if op.op_id in seen:
            yield _finding(
                "numbering", ERROR, op,
                f"duplicate op_id {op.op_id} (also on "
                f"{seen[op.op_id].KIND})",
            )
            continue
        seen[op.op_id] = op
        if op.op_id != index:
            yield _finding(
                "numbering", WARN, op,
                f"op_id {op.op_id} is not the preorder position {index} "
                "(plan rewritten after numbering?)",
            )


# ------------------------------------------------------ feedback consistency


def rule_feedback_consistency(
    root: PlanOp, ctx: LintContext
) -> Iterator[Finding]:
    """Re-optimized plans must honour exact observed cardinalities.

    When the driver re-optimizes, edges observed to end-of-stream carry
    exact counts; the estimator is contractually bound to use them outright
    (feedback wins over the model).  An estimate that disagrees with exact
    feedback for the same edge signature means the feedback loop is broken.
    """
    if ctx.feedback is None:
        return
    for op in root.walk():
        if not isinstance(op, (TableScan, IndexScan, MVScan, JoinOp)):
            continue
        if isinstance(op, IndexScan) and op.correlation is not None:
            continue  # per-probe estimate; no edge signature
        entry = ctx.feedback.lookup(op.properties.signature)
        if entry is None or not entry.exact:
            continue
        if qerror(op.est_card, entry.cardinality) > 1.05:
            yield _finding(
                "feedback-consistency", WARN, op,
                f"estimate {op.est_card:.1f} ignores exact feedback "
                f"{entry.cardinality:.1f} for the same edge signature",
                est_card=op.est_card, feedback=entry.cardinality,
            )


# ------------------------------------------------------------ entry points

#: Every plan rule as (rule id, paper reference, rule function), in the
#: order ``--list-rules`` prints them.
PLAN_RULES = (
    ("structure", "well-formed QEP", rule_structure),
    ("validity-range", "§2.2", rule_validity_range),
    ("range-brackets-estimate", "§2.2", rule_range_brackets_estimate),
    ("check-placement", "§3/§4, Table 1", rule_check_placement),
    ("cost-monotone", "§2.2/Fig. 5", rule_cost_monotone),
    ("ordering", "interesting orders (§2.2 context)", rule_ordering),
    ("reuse-consistency", "§2.3", rule_reuse_consistency),
    ("estimate-plausibility", "§2.1 (estimates vs statistics)",
     rule_estimate_plausibility),
    ("flavor", "§3, Table 1", rule_flavor),
    ("numbering", "", rule_numbering),
    ("feedback-consistency", "§2.1", rule_feedback_consistency),
)


def lint_plan(root: PlanOp, context: Optional[LintContext] = None) -> list[Finding]:
    """Run every plan rule over ``root`` and return all findings (never raises)."""
    ctx = context if context is not None else LintContext()
    return sort_findings(
        finding for _rule_id, _ref, rule in PLAN_RULES for finding in rule(root, ctx)
    )


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


def lint_statement(db, sql: str, config) -> list[Finding]:
    """Plan ``sql`` as ``Database.execute`` would under ``config``; lint the
    placed plan against the database's catalog and cost model."""
    _opt, placement = db.plan(sql, pop=config)
    context = LintContext(
        catalog=db.catalog, cost_model=db.optimizer.cost_model, config=config
    )
    return lint_plan(placement.plan, context)


def rule_listing() -> list[str]:
    """One line per plan rule and concurrency rule: id, paper ref, doc."""
    lines = []
    for rule_id, ref, rule in PLAN_RULES:
        doc = rule.__doc__.strip().splitlines()[0]
        lines.append(f"{rule_id:25s}{f' [{ref}]' if ref else '':25s} {doc}")
    for rule_id, doc in CONCURRENCY_RULES.items():
        lines.append(f"{rule_id:25s}{'':25s} {doc}")
    return lines
