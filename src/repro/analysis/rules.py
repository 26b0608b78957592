"""The built-in plan-semantics rule catalog.

Each rule audits one invariant POP's correctness rests on.  Structural
well-formedness is delegated to :func:`repro.plan.validate.validate_plan`;
everything else here is semantic: validity ranges must bracket the
estimates they guard (§2.2), CHECK operators may only sit where
re-optimization is side-effect safe (§3/§4, Table 1), operator costs must
respond sanely to the cardinality perturbations the Newton–Raphson probe
explores (§2.2/Fig. 5), ordering claims must match Sort/MSJN requirements,
and re-optimized plans must actually use the exact feedback they were given
(§2.1).

See ``docs/static_analysis.md`` for the full catalog with paper citations.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional

from repro.analysis.findings import ERROR, INFO, WARN, Finding
from repro.analysis.plan_lint import LintContext, ancestors, plan_rule
from repro.core.flavors import ALL_FLAVORS, ECB, ECDC, NON_PIPELINED_FLAVORS
from repro.optimizer.enumeration import order_satisfies
from repro.plan.physical import (
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
    Sort,
    TableScan,
    Temp,
)
from repro.plan.validate import validate_plan

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


def _bad_number(value: float) -> bool:
    return math.isnan(value) or math.isinf(value)


# --------------------------------------------------------------- structure


@plan_rule("structure", paper_ref="well-formed QEP")
def rule_structure(root: PlanOp, parents: dict, ctx: LintContext) -> Iterator[Finding]:
    """Structural invariants (layouts, properties, keys) via validate_plan."""
    for violation in validate_plan(root):
        yield Finding(rule="structure", severity=ERROR, message=violation)


# ---------------------------------------------------------- validity ranges


@plan_rule("validity-range", paper_ref="§2.2")
def rule_validity_range(
    root: PlanOp, parents: dict, ctx: LintContext
) -> Iterator[Finding]:
    """Validity and check ranges must be well-formed intervals in [0, inf]."""
    for op in root.walk():
        for i, rng in enumerate(op.validity_ranges):
            for bound_name, bound in (("low", rng.low), ("high", rng.high)):
                if math.isnan(bound):
                    yield _finding(
                        "validity-range", ERROR, op,
                        f"edge[{i}] validity {bound_name} bound is NaN",
                    )
            if math.isinf(rng.low):
                yield _finding(
                    "validity-range", ERROR, op,
                    f"edge[{i}] validity lower bound is infinite",
                )
            if rng.low < 0:
                yield _finding(
                    "validity-range", ERROR, op,
                    f"edge[{i}] validity lower bound {rng.low} is negative",
                )
        if isinstance(op, (Check, BufCheck)):
            rng = op.check_range
            if math.isnan(rng.low) or math.isnan(rng.high):
                yield _finding(
                    "validity-range", ERROR, op, "check range bound is NaN"
                )
            elif rng.low < 0 or math.isinf(rng.low):
                yield _finding(
                    "validity-range", ERROR, op,
                    f"check range lower bound {rng.low} is not a finite "
                    "non-negative cardinality",
                )
        if isinstance(op, BufCheck) and op.buffer_size < 1:
            yield _finding(
                "validity-range", ERROR, op,
                f"BUFCHECK valve size {op.buffer_size} must be >= 1",
            )


@plan_rule("range-brackets-estimate", paper_ref="§2.2")
def rule_range_brackets_estimate(
    root: PlanOp, parents: dict, ctx: LintContext
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
                continue  # already an error under validity-range/structure
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


@plan_rule("check-placement", paper_ref="§3/§4, Table 1")
def rule_check_placement(
    root: PlanOp, parents: dict, ctx: LintContext
) -> Iterator[Finding]:
    """Non-compensating CHECKs must not guard a fully pipelined path.

    A CHECK of a non-pipelined-safe flavor (LC, LCEM, ECWC) that fires after
    rows have reached the application cannot be compensated; the driver
    turns that into a hard ExecutionError.  Statically, such a CHECK is safe
    only if it is evaluated before rows flow (directly above a
    materialization point) or if a blocking operator separates it from the
    plan root.
    """
    for op in root.walk():
        if isinstance(op, BufCheck):
            continue  # the valve buffers: safe by construction (§3.2)
        if not isinstance(op, Check):
            continue
        if op.flavor in NON_PIPELINED_FLAVORS:
            if _open_evaluated(op):
                continue
            current: PlanOp = op
            blocked = False
            for ancestor in ancestors(op, parents):
                if _blocks_pipeline(ancestor, current):
                    blocked = True
                    break
                current = ancestor
            if not blocked:
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


def _sort_enforced(child: PlanOp) -> bool:
    """Does a merge join read ``child`` through a sort enforcer (possibly
    under the CHECK placed above it)?"""
    while isinstance(child, (Check, BufCheck)):
        child = child.children[0]
    return isinstance(child, Sort)


def _local_cost_fns(op: PlanOp, ctx: LintContext) -> list:
    """(edge label, cost-of-scaled-input-cardinality) probes for one op.

    The probe isolates how the operator's own cost responds to its *input*
    edges — the quantity validity-range analysis differentiates.  A unary
    operator's output cardinality is held at the optimizer's estimate.
    """
    cm = ctx.cost_model
    out_card = op.est_card
    if isinstance(op, Sort):
        return [("input", cm.sort_cost)]
    if isinstance(op, Temp):
        return [("input", cm.temp_cost)]
    if isinstance(op, (Check, BufCheck)):
        return [("input", cm.check_cost)]
    if isinstance(op, Project):
        return [("input", cm.project_cost)]
    if isinstance(op, MVScan):
        return [("input", cm.mv_scan_cost)]
    if isinstance(op, GroupBy):
        return [("input", lambda c: cm.group_by_cost(c, min(c, out_card)))]
    if isinstance(op, Distinct):
        return [("input", lambda c: cm.distinct_cost(c, min(c, out_card)))]
    if isinstance(op, JoinOp):
        # The optimizer's own edge kernels (what the Fig. 5 probe runs), at
        # the effective selectivity of the estimate.
        outer, inner = op.outer.est_card, op.inner.est_card
        sel = out_card / max(1e-9, outer * inner)
        if isinstance(op, HashJoin):
            description = ("hash", 0.0, sel, 1.0)
        elif isinstance(op, MergeJoin):
            description = (
                "merge", 0.0, sel, _sort_enforced(op.outer), _sort_enforced(op.inner)
            )
        elif op.method == "rescan":
            description = ("rescan", 0.0, sel)
        else:
            pages = cm.pages_for(inner)
            if ctx.catalog is not None:
                table_name = getattr(op.inner, "table", None)
                if table_name is not None and ctx.catalog.has_table(table_name):
                    pages = ctx.catalog.table(table_name).page_count
            description = ("index", 0.0, cm.index_probe_cost(inner, pages), sel)
            return [("outer", cm.edge_kernel(description, 0, inner))]
        return [
            ("outer", cm.edge_kernel(description, 0, inner)),
            ("inner", cm.edge_kernel(description, 1, outer)),
        ]
    return []


@plan_rule("cost-monotone", paper_ref="§2.2/Fig. 5")
def rule_cost_monotone(
    root: PlanOp, parents: dict, ctx: LintContext
) -> Iterator[Finding]:
    """Operator costs must stay finite, non-negative, and monotone in input
    cardinality across the neighbourhood Newton–Raphson explores.

    The validity-range probe re-costs plans at perturbed edge cardinalities;
    a cost function that turns negative, NaN, or *decreases* as an input
    grows silently corrupts every bound derived from it.
    """
    if ctx.cost_model is None:
        return
    for op in root.walk():
        for edge, cost_fn in _local_cost_fns(op, ctx):
            base = max(op.children[0].est_card if op.children else op.est_card, 1.0)
            if isinstance(op, (HashJoin, MergeJoin, NLJoin)):
                base = max(
                    (op.outer if edge == "outer" else op.inner).est_card, 1.0
                )
            previous: Optional[float] = None
            for factor in _PROBE_FACTORS:
                card = base * factor
                cost = cost_fn(card)
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


@plan_rule("ordering", paper_ref="interesting orders (§2.2 context)")
def rule_ordering(root: PlanOp, parents: dict, ctx: LintContext) -> Iterator[Finding]:
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


@plan_rule("reuse-consistency", paper_ref="§2.3")
def rule_reuse_consistency(
    root: PlanOp, parents: dict, ctx: LintContext
) -> Iterator[Finding]:
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


@plan_rule("estimate-plausibility", paper_ref="§2.1 (estimates vs statistics)")
def rule_estimate_plausibility(
    root: PlanOp, parents: dict, ctx: LintContext
) -> Iterator[Finding]:
    """Estimates must be finite and respect hard combinatorial bounds."""
    for op in root.walk():
        if _bad_number(op.est_card):
            yield _finding(
                "estimate-plausibility", ERROR, op,
                f"cardinality estimate is {op.est_card!r}",
            )
            continue
        if _bad_number(op.est_cost):
            yield _finding(
                "estimate-plausibility", ERROR, op,
                f"cost estimate is {op.est_cost!r}",
            )
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


@plan_rule("flavor", paper_ref="§3, Table 1")
def rule_flavor(root: PlanOp, parents: dict, ctx: LintContext) -> Iterator[Finding]:
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


@plan_rule("numbering")
def rule_numbering(root: PlanOp, parents: dict, ctx: LintContext) -> Iterator[Finding]:
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


@plan_rule("feedback-consistency", paper_ref="§2.1")
def rule_feedback_consistency(
    root: PlanOp, parents: dict, ctx: LintContext
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
        observed = max(entry.cardinality, 1.0)
        estimated = max(op.est_card, 1.0)
        qerror = max(observed / estimated, estimated / observed)
        if qerror > 1.05:
            yield _finding(
                "feedback-consistency", WARN, op,
                f"estimate {op.est_card:.1f} ignores exact feedback "
                f"{entry.cardinality:.1f} for the same edge signature",
                est_card=op.est_card, feedback=entry.cardinality,
            )


# ------------------------------------------------------- cache immutability


@plan_rule("cache-plan-immutable", paper_ref="§3/§6 (plan reuse)")
def rule_cache_plan_immutable(
    root: PlanOp, parents: dict, ctx: LintContext
) -> Iterator[Finding]:
    """Cached plans are re-executed verbatim, never mutated in place.

    When the driver admits a plan from the plan cache it records the
    entry's fingerprint in the lint context; the plan about to execute must
    still hash to it.  A mismatch means something rewrote a shared cached
    structure (checkpoint placement, compensation wrapping, ...) — which
    would corrupt every later reuse of the entry.
    """
    if ctx.cached_fingerprint is None:
        return
    from repro.optimizer.fingerprint import plan_fingerprint

    actual = plan_fingerprint(root)
    if actual != ctx.cached_fingerprint:
        yield _finding(
            "cache-plan-immutable", ERROR, root,
            "plan admitted from the plan cache no longer matches its "
            "cached fingerprint — a cached plan was mutated in place",
            expected=ctx.cached_fingerprint, actual=actual,
        )


def rule_catalog() -> list[tuple[str, str, str]]:
    """(rule id, paper reference, one-line doc) for docs and --list-rules."""
    from repro.analysis.plan_lint import PLAN_RULES

    return [
        (rule.rule_id, rule.paper_ref, rule.doc) for rule in PLAN_RULES.values()
    ]
