"""The POP driver: the optimize → check → execute → re-optimize loop.

This is the paper's Figure 3 architecture.  One :meth:`PopDriver.run` call
performs the initial optimization, inserts checkpoints, executes, and — each
time a CHECK fires — harvests feedback and intermediate results, re-invokes
the optimizer, and re-executes, oscillating up to the configured
re-optimization limit.  The final attempt always runs without checkpoints so
termination is guaranteed (paper §7's heuristic).

Rows already pipelined to the application before an ECDC check fired are
compensated with an anti-join on the next attempt, so the application never
observes duplicates (paper §3.3).

Every attempt — first plan, cache hit, re-optimized round, guard retry,
safe-plan fallback — goes through the same four phases, ``_plan`` →
``_execute`` → ``_finish`` → ``_settle``, over one
:class:`StatementContext`, which ``Database.execute`` builds.  That context
owns everything scoped to the statement (meter, feedback, compensation set,
guard, temp-MV registry, the statement's own ``OptimizerOptions`` and
statistics overrides, its observers).  The rule it enforces: nothing
reachable from two statements — the catalog and its statistics,
``Optimizer.options`` — is written while a statement runs; what statements
do share (plan cache, learned feedback, metrics) is shared on purpose and
guards itself.
"""

from __future__ import annotations

import traceback
from collections import Counter
from dataclasses import InitVar, dataclass, field, replace
from typing import Any, Optional

from repro.analysis.plan_lint import LintContext, assert_plan_clean
from repro.common.errors import ExecutionError, ReproError, failure_class
from repro.core.config import NO_POP, PopConfig
from repro.core.feedback import CardinalityFeedback
from repro.core.intermediates import harvest_execution_state
from repro.core.placement import optimize_and_place
from repro.executor.base import (
    CheckpointEvent,
    ExecutionContext,
    ReoptimizationSignal,
)
from repro.executor.meter import WorkMeter
from repro.executor.runtime import run_plan
from repro.governor import estimate_plan_memory
from repro.obs import OpRecord, ProfileCollector, record_attempt, wall_clock
from repro.optimizer.enumeration import OptimizerOptions
from repro.optimizer.optimizer import Optimizer
from repro.optimizer.parametric import PeekingSelectivity
from repro.plan.explain import explain_plan, join_order
from repro.plan.logical import Query
from repro.plan.physical import (
    AntiJoin,
    MVScan,
    PlanOp,
    Return,
    find_ops,
    number_plan,
)
from repro.resilience import RAISE, ExecutionGuard, FaultInjector, FaultPlan
from repro.storage.catalog import TempMVRegistry

#: Harvest configuration for completed runs: feedback only, no temp MVs.
_FEEDBACK_ONLY = PopConfig(reuse_policy="never")


@dataclass
class AttemptReport:
    """What happened during one optimize+execute round."""

    plan: PlanOp
    checkpoints_placed: int
    optimization_units: float
    #: The meter reading when execution began (progress is replayed from
    #: it, see :mod:`repro.obs.progress`).
    units_at_start: float
    execution_units: float
    checkpoint_events: list = field(default_factory=list)
    #: Set when this attempt ended in a re-optimization signal.
    signal_op_id: Optional[int] = None
    signal_flavor: Optional[str] = None
    signal_observed: Optional[float] = None
    signal_complete: Optional[bool] = None
    #: Always ``"cardinality"``: a CHECK's one trigger is its validity range.
    signal_reason: Optional[str] = None
    rows_emitted: int = 0
    #: The attempt's per-operator record, a tree in the plan's shape:
    #: estimated vs actual rows, EOF, q-error and spill share always, the
    #: profiler's measurements when it was armed (set by ``_finish``).
    record: Optional[OpRecord] = None
    #: Set when this attempt ended in a classified failure (guard path).
    failure: Optional[str] = None
    failure_class: Optional[str] = None
    #: True for the conservative safe plan run after the guard gave up.
    fallback: bool = False
    #: True when this attempt re-executed a cached plan (optimizer skipped).
    cache_hit: bool = False
    #: Fingerprint of the reused cached plan.
    cache_fingerprint: Optional[str] = None
    #: The admission test that justified reuse: one dict per evaluated
    #: validity/CHECK range (all ``inside`` by construction on a hit).
    cache_admission: Optional[list] = None
    #: Memory-governor accounting: whether any operator degraded to disk,
    #: how much (in modeled pages / spill files), and which operator kinds.
    spilled: bool = False
    spill_pages: float = 0.0
    spill_files: int = 0
    spill_bytes: int = 0
    spill_categories: dict = field(default_factory=dict)
    #: Times the governor renegotiated this statement's reservation down
    #: during the attempt, and the reservation size when it ended.
    renegotiations: int = 0
    reservation_pages: Optional[float] = None

    @property
    def reoptimized(self) -> bool:
        return self.signal_op_id is not None

    @property
    def profiled(self) -> bool:
        """True when this attempt ran under the live profiler."""
        return self.record is not None and self.record.profile is not None

    # Renderings of ``plan``, computed when read.

    @property
    def plan_text(self) -> str:
        return explain_plan(self.plan)

    @property
    def join_order(self) -> str:
        return join_order(self.plan)

    @property
    def reused_mvs(self) -> list:
        """Names of the temp MVs the plan scans (paper §2.3)."""
        return [op.mv_name for op in find_ops(self.plan, MVScan)]


@dataclass
class PopReport:
    """Full account of one statement execution under POP."""

    attempts: list
    total_units: float
    wall_seconds: float
    pop_enabled: bool
    #: Resilience accounting (zeros when no guard/faults were configured).
    retries: int = 0
    backoff_units: float = 0.0
    breaker_tripped: bool = False
    fallback_used: bool = False
    fallback_reason: Optional[str] = None
    faults_injected: int = 0

    @property
    def reoptimizations(self) -> int:
        return sum(1 for a in self.attempts if a.reoptimized)

    @property
    def spilled(self) -> bool:
        """True when any attempt degraded to disk under memory pressure."""
        return any(a.spilled for a in self.attempts)

    @property
    def spill_pages(self) -> float:
        return sum(a.spill_pages for a in self.attempts)

    @property
    def spill_files(self) -> int:
        return sum(a.spill_files for a in self.attempts)

    @property
    def spill_bytes(self) -> int:
        return sum(a.spill_bytes for a in self.attempts)

    @property
    def renegotiations(self) -> int:
        return sum(a.renegotiations for a in self.attempts)

    @property
    def cache_hit(self) -> bool:
        """True when any attempt re-executed a cached plan."""
        return any(a.cache_hit for a in self.attempts)

    @property
    def profiled(self) -> bool:
        """True when any attempt carried the live profiler."""
        return any(a.profiled for a in self.attempts)

    def profiled_records(self) -> list:
        """The operator records of every profiled attempt, in attempt
        order; their ``profile.self_units`` reconcile with the attempts'
        execution units (the profile-smoke CI gate: within 1%)."""
        return [r for a in self.attempts if a.profiled for r in a.record.walk()]

    @property
    def final_plan(self) -> PlanOp:
        return self.attempts[-1].plan

    @property
    def checkpoint_events(self) -> list:
        events: list[CheckpointEvent] = []
        for attempt in self.attempts:
            events.extend(attempt.checkpoint_events)
        return events

    def summary(self) -> str:
        lines = [
            f"POP {'on' if self.pop_enabled else 'off'}: "
            f"{len(self.attempts)} attempt(s), "
            f"{self.reoptimizations} re-optimization(s), "
            f"{self.total_units:.1f} work units",
        ]
        for i, a in enumerate(self.attempts):
            if a.reoptimized:
                tag = (
                    f" -> reopt at CHECK[{a.signal_flavor}] op={a.signal_op_id} "
                    f"observed={a.signal_observed:.0f}"
                )
            elif a.failure is not None:
                tag = f" -> failed[{a.failure_class}]"
            else:
                tag = " -> completed"
            label = "fallback" if a.fallback else f"attempt {i}"
            lines.append(
                f"  {label}: {a.join_order} "
                f"(exec {a.execution_units:.1f}u, opt {a.optimization_units:.1f}u)"
                + tag
            )
        if self.spilled:
            lines.append(
                f"  memory: spilled {self.spill_pages:.1f} page(s) across "
                f"{self.spill_files} file(s), "
                f"{self.renegotiations} renegotiation(s)"
            )
        if self.profiled:
            records = self.profiled_records()
            self_units = sum(r.profile.self_units for r in records)
            lines.append(
                f"  profile: {len(records)} operator(s), "
                f"{self_units:.1f}u self time attributed"
            )
        if self.retries or self.breaker_tripped or self.fallback_used:
            detail = f"  resilience: {self.retries} retry(ies)"
            if self.backoff_units:
                detail += f", {self.backoff_units:.1f}u backoff"
            if self.breaker_tripped:
                detail += ", breaker tripped"
            if self.fallback_used:
                detail += f", safe-plan fallback ({self.fallback_reason})"
            lines.append(detail)
        return "\n".join(lines)


@dataclass
class StatementContext:
    """Everything scoped to one statement.

    Built once, by ``Database.execute`` (the only caller of
    :meth:`PopDriver.run`), and confined to the statement's thread; the
    attempt phases read and advance it instead of passing a dozen
    arguments around.  The inputs are ``Database.execute``'s and are
    documented there; the fields after ``profile`` are the driver's.
    """

    query: Query
    config: PopConfig
    #: This statement's optimizer switches: the per-call options, else the
    #: shared ``Optimizer.options``; ``__post_init__`` applies the reuse
    #: policy to a copy.
    options: OptimizerOptions
    params: Optional[dict] = None
    meter: Optional[WorkMeter] = None
    #: May be pre-seeded (cross-query learning, §7); everything observed
    #: during the statement is added to it.
    feedback: CardinalityFeedback = field(default_factory=CardinalityFeedback)
    #: Becomes ``injector`` and, like ``config.resilience``, puts every
    #: attempt under the ``guard``.
    faults: InitVar[Optional[FaultPlan]] = None
    #: Engaged only together with ``statement``, the parameterized form
    #: whose bound query is ``query``.
    plan_cache: Any = None
    statement: Any = None
    #: The SQL text (it labels the reservation) and the database's memory
    #: governor, which admits the statement once attempt 0 has its plan.
    sql: Optional[str] = None
    governor: Any = None
    cancel: Any = None
    snapshot: Any = None
    tracer: Any = None
    metrics: Any = None
    profile: bool = False
    #: Sized from attempt 0's plan; every later attempt keeps it.
    reservation: Any = field(init=False, default=None)
    injector: Optional[FaultInjector] = field(init=False, default=None)
    guard: Optional[ExecutionGuard] = field(init=False, default=None)
    #: Bind-value peeking: cached-path statements are optimized at their
    #: actual parameter values, so plans and validity ranges are tailored
    #: to them (and the admission test has teeth).
    peek: Optional[PeekingSelectivity] = field(init=False, default=None)
    #: Table name -> the statistics this statement plans with instead of
    #: the catalog's (``stats`` faults); the catalog is never written.
    stats_overrides: dict = field(init=False, default_factory=dict)
    #: The ``pop.statement`` span every attempt span hangs under.
    span: Optional[int] = field(init=False, default=None)
    #: Intermediate results promoted by this statement's interrupted
    #: attempts (paper §2.3); dropped with the context.
    temp_mvs: TempMVRegistry = field(init=False, default_factory=TempMVRegistry)
    #: Rows already handed to the application by interrupted attempts; the
    #: next plan anti-joins against them (paper §3.3).
    compensation: Counter = field(init=False, default_factory=Counter)
    delivered: list = field(init=False, default_factory=list)
    attempts: list = field(init=False, default_factory=list)
    #: ``attempt`` indexes reports; ``reopt_round`` consumes the
    #: re-optimization budget.  Guard retries advance only the former, so
    #: a transient crash never eats a CHECK's re-planning round.
    attempt: int = field(init=False, default=0)
    reopt_round: int = field(init=False, default=0)

    def __post_init__(self, faults: Optional[FaultPlan]) -> None:
        if self.meter is None:
            self.meter = WorkMeter(track_categories=self.metrics is not None)
        self.options = replace(
            self.options,
            consider_mvs=self.config.reuse_policy != "never",
            mv_cost_zero=self.config.reuse_policy == "always",
        )
        if faults is not None:
            self.injector = FaultInjector(faults)
        if self.config.resilience is not None or faults is not None:
            self.guard = ExecutionGuard(
                self.config.resilience,
                meter=self.meter,
                tracer=self.tracer,
                metrics=self.metrics,
                injector=self.injector,
            )

    @property
    def fallback(self) -> bool:
        """True once the guard asked for the safe plan: every attempt from
        then on runs it."""
        return self.guard is not None and self.guard.fallback_reason is not None

    @property
    def caching(self) -> bool:
        return self.plan_cache is not None and self.statement is not None

    @property
    def can_reopt(self) -> bool:
        """Whether a CHECK firing in the current attempt may re-optimize;
        the last permitted round and the safe plan run without CHECKs, so
        termination is guaranteed (paper §7)."""
        return (
            not self.fallback
            and self.config.enabled
            and self.reopt_round < self.config.max_reoptimizations
        )


@dataclass
class PlannedAttempt:
    """What the plan phase hands to the execute phase."""

    span: Optional[int]
    plan: PlanOp
    checkpoints: int
    optimization_units: float
    #: The plan-cache ``LookupResult`` when the plan is a reused one.
    cached: Any = None


@dataclass
class AttemptRun:
    """One execution of a planned attempt and how it ended."""

    ctx: ExecutionContext
    report: AttemptReport
    sink: list
    renegotiations_before: int
    signal: Optional[ReoptimizationSignal] = None
    error: Optional[ReproError] = None

    @property
    def interrupted(self) -> bool:
        return self.signal is not None or self.error is not None

    def release(self) -> None:
        """Let go of the operator tree, so the attempt's buffers (sorted
        rows, hash tables, group tables, TEMP rows) are freed by reference
        count when the attempt is settled, not by a later cycle collection.

        Two cycles would otherwise keep them: ``ctx.operators`` against
        ``Operator.ctx``, and a caught signal or error, whose traceback
        pins every frame it unwound — the operators and their half-built
        buffers among the locals, and this object in ``_execute``'s.  The
        traceback keeps its file and line entries; only the finished
        frames' locals go.
        """
        self.ctx.operators.clear()
        for exc in (self.signal, self.error):
            if exc is not None:
                traceback.clear_frames(exc.__traceback__)


class PopDriver:
    """Runs statements with progressive optimization."""

    def __init__(self, optimizer: Optimizer):
        self.optimizer = optimizer

    # ------------------------------------------------------------------- run

    def run(self, sc: StatementContext) -> tuple[list[tuple], PopReport]:
        """Execute the statement ``sc`` describes; returns (rows, report)."""
        started = wall_clock()
        self._open_statement(sc)
        try:
            self._run_attempts(sc)
        finally:
            if sc.reservation is not None:
                sc.governor.release(sc.reservation)
        report = self._close_statement(sc, wall_clock() - started)
        if sc.governor is not None and report.spilled:
            sc.governor.record_spill(report)
        return sc.delivered, report

    def _open_statement(self, sc: StatementContext) -> None:
        tracer, metrics = sc.tracer, sc.metrics
        if tracer is not None:
            tracer.bind_meter(sc.meter)
            sc.span = tracer.start_span(
                "pop.statement",
                pop=sc.config.enabled,
                tables=len(sc.query.tables),
                reopt_limit=sc.config.max_reoptimizations,
                guarded=sc.guard is not None,
            )
        if metrics is not None:
            metrics.inc("pop.statements")
        if sc.statement is not None and sc.statement.params:
            sc.peek = PeekingSelectivity(
                sc.statement.params, base=self.optimizer.selectivity
            )
        if sc.injector is not None:
            sc.stats_overrides = sc.injector.stats_overrides(
                self.optimizer.catalog, tracer, metrics
            )

    def _close_statement(self, sc: StatementContext, wall: float) -> PopReport:
        meter, guard, attempts = sc.meter, sc.guard, sc.attempts
        report = PopReport(
            attempts=attempts,
            total_units=meter.snapshot(),
            wall_seconds=wall,
            pop_enabled=sc.config.enabled,
            faults_injected=(
                len(sc.injector.fired) if sc.injector is not None else 0
            ),
        )
        if guard is not None:
            report.retries = guard.retries
            report.backoff_units = guard.backoff_units_charged
            report.breaker_tripped = guard.breaker_tripped
            report.fallback_used = guard.fallback_reason is not None
            report.fallback_reason = guard.fallback_reason
        if sc.metrics is not None:
            sc.metrics.inc("pop.attempts", len(attempts))
            for category, units in meter.by_category().items():
                sc.metrics.set_gauge("work.units", units, category=category)
        if sc.tracer is not None:
            sc.tracer.end_span(
                sc.span,
                attempts=len(attempts),
                reoptimizations=report.reoptimizations,
                total_units=report.total_units,
                rows=len(sc.delivered),
                retries=report.retries,
                fallback=report.fallback_used,
            )
        return report

    def _run_attempts(self, sc: StatementContext) -> None:
        """Figure 3's loop: one attempt after another until one completes.

        A CHECK firing, a guard retry and the safe-plan fallback all come
        back through here; they differ only in what ``_plan`` produces.
        """
        while True:
            planned = self._plan(sc)
            if sc.governor is not None and sc.reservation is None:
                # Admit on the plan that will run, before any execution
                # context: the wall deadline starts after the wait.
                cost_params = self.optimizer.cost_model.params
                sc.reservation = sc.governor.admit(
                    estimate_plan_memory(planned.plan, cost_params),
                    label=(sc.sql or "query")[:60],
                    cancel=sc.cancel,
                )
            run = self._execute(sc, planned)
            try:
                self._finish(sc, run)
                if self._settle(sc, planned, run):
                    return
            finally:
                # Everything that reads the operators — harvesting and
                # the attempt's record — has run.
                run.release()

    # ------------------------------------------------------------ phase: plan

    def _plan(self, sc: StatementContext) -> PlannedAttempt:
        """Choose this attempt's plan: the safe plan when the guard asked
        for it, else a cached plan on a first-round hit, else a freshly
        optimized one with CHECKs placed."""
        span = None
        if sc.tracer is not None:
            attrs = {"fallback": True} if sc.fallback else {}
            span = sc.tracer.start_span(
                "pop.attempt", parent=sc.span, attempt=sc.attempt, **attrs
            )
        units_before = sc.meter.snapshot()
        cached = None
        if sc.caching and sc.attempt == 0:
            # Only the very first round probes: later rounds exist because
            # runtime knowledge invalidated the plan in hand, which a
            # cached plan cannot survive either.
            cached = self._cache_lookup(sc, span)
        if sc.fallback:
            plan, checkpoints = self._plan_safe(sc), 0
        elif cached is not None:
            plan, checkpoints = cached.entry.plan, cached.entry.checkpoints
        else:
            plan, checkpoints = self._optimize_and_place(sc, span)
        if sc.compensation:
            # Cached plans are never reached here: compensation is empty
            # on the first round, the only one that probes the cache.
            plan = self._wrap_compensation(plan)
        planned = PlannedAttempt(
            span=span,
            plan=plan,
            checkpoints=checkpoints,
            optimization_units=sc.meter.snapshot() - units_before,
            cached=cached,
        )
        if sc.config.strict_analysis:
            self._lint_attempt_plan(sc, planned)
        return planned

    def _optimize_and_place(self, sc: StatementContext, span) -> tuple[PlanOp, int]:
        """Optimize under everything learned so far, then place CHECKs."""
        _opt, placement = optimize_and_place(
            self.optimizer,
            sc.query,
            sc.config if sc.can_reopt else NO_POP,
            feedback=sc.feedback,
            selectivity=sc.peek,
            options=sc.options,
            temp_mvs=sc.temp_mvs,
            stats_overrides=sc.stats_overrides,
            meter=sc.meter,
            tracer=sc.tracer,
            metrics=sc.metrics,
            span=span,
        )
        return placement.plan, placement.count

    def _plan_safe(self, sc: StatementContext) -> PlanOp:
        """The conservative safe plan (guaranteed to complete).

        No CHECKs are placed, so nothing can signal; the optimizer is
        restricted to robust join flavors (hash and sort-merge — no nested
        loops whose worst case is quadratic) and ignores both the feedback
        and the temp MVs of the thrashing attempts, but plans with the
        statement's statistics overrides like every attempt.  The
        restriction is a copy of the statement's options: the shared ones
        are not touched.
        No tracer or metrics are passed: the fallback's optimizer call is
        not part of the ``optimizer.*`` spans and counters.
        """
        safe_options = replace(
            sc.options,
            enable_index_nljn=False,
            enable_rescan_nljn=False,
            enable_hash_join=True,
            enable_merge_join=True,
            consider_mvs=False,
            mv_cost_zero=False,
        )
        _opt, placement = optimize_and_place(
            self.optimizer, sc.query, NO_POP,
            options=safe_options, stats_overrides=sc.stats_overrides,
            meter=sc.meter,
        )
        return placement.plan

    def _cache_lookup(self, sc: StatementContext, span):
        """Probe the plan cache; returns the hit LookupResult or None.

        The admission test (a handful of per-edge estimates per variant) is
        charged to the meter under its own category — visibly cheaper than
        the plan enumeration it replaces.
        """
        lookup = sc.plan_cache.lookup(
            sc.statement.shape,
            sc.query,
            sc.statement.params,
            self.optimizer.catalog,
            feedback=sc.feedback,
            base_selectivity=self.optimizer.selectivity,
        )
        sc.meter.charge(
            self.optimizer.cost_model.params.reopt_per_plan
            * max(lookup.examined, 1),
            "plan_cache",
        )
        metrics = sc.metrics
        if metrics is not None:
            metrics.inc("plan_cache.hits" if lookup.hit else "plan_cache.misses")
            if lookup.admission_rejects:
                metrics.inc(
                    "plan_cache.admission_rejects", lookup.admission_rejects
                )
            if lookup.mutation_discards:
                metrics.inc(
                    "plan_cache.invalidations",
                    lookup.mutation_discards,
                    reason="mutated",
                )
        if sc.tracer is not None:
            sc.tracer.event(
                "plan_cache.hit" if lookup.hit else "plan_cache.miss",
                span=span,
                examined=lookup.examined,
                admission_rejects=lookup.admission_rejects,
                fingerprint=(
                    lookup.entry.fingerprint if lookup.hit else None
                ),
                ranges_evaluated=(
                    len(lookup.admission) if lookup.admission else 0
                ),
            )
        return lookup if lookup.hit else None

    def _lint_attempt_plan(
        self, sc: StatementContext, planned: PlannedAttempt
    ) -> None:
        """Strict mode: lint the plan this attempt is about to execute.

        Raises :class:`repro.analysis.PlanLintError` on error-severity
        findings; warn/info findings flow to tracing.  Re-optimized plans
        (attempt > 0) are additionally checked for consistency with the
        exact feedback harvested so far — except the safe plan, which was
        optimized without it.
        """
        attempt = sc.attempt
        reoptimized = attempt > 0 and not sc.fallback
        context = LintContext(
            catalog=self.optimizer.catalog,
            temp_mvs=sc.temp_mvs,
            cost_model=self.optimizer.cost_model,
            config=sc.config,
            feedback=sc.feedback if reoptimized else None,
        )
        findings = assert_plan_clean(
            planned.plan, context, where=f"attempt {attempt} plan"
        )
        for finding in findings:
            if sc.tracer is not None:
                sc.tracer.event(
                    "analysis.finding", attempt=attempt, **finding.to_dict()
                )
            if sc.metrics is not None:
                sc.metrics.inc(
                    "analysis.findings",
                    rule=finding.rule,
                    severity=finding.severity,
                )

    @staticmethod
    def _wrap_compensation(plan: PlanOp) -> PlanOp:
        """Insert the ECDC anti-join between RETURN and the rest of the plan."""
        if not isinstance(plan, Return):
            raise ExecutionError("plan root is not RETURN")
        plan.children[0] = AntiJoin(plan.children[0], compensation_key="ecdc")
        number_plan(plan)
        return plan

    # --------------------------------------------------------- phase: execute

    def _execute(
        self, sc: StatementContext, planned: PlannedAttempt
    ) -> AttemptRun:
        """Run the planned attempt; how it ended is data on the result."""
        tracer, meter = sc.tracer, sc.meter
        plan, cached = planned.plan, planned.cached
        ctx = self._execution_context(sc)
        reservation = sc.reservation
        renegotiations = (
            reservation.renegotiations if reservation is not None else 0
        )
        if tracer is not None:
            attrs = (
                {"fallback": True}
                if sc.fallback
                else {"cached": cached is not None}
            )
            ctx.exec_span_id = tracer.start_span(
                "pop.execute",
                parent=planned.span,
                checkpoints=planned.checkpoints,
                **attrs,
            )
        report = AttemptReport(
            plan=plan,
            checkpoints_placed=planned.checkpoints,
            optimization_units=planned.optimization_units,
            units_at_start=meter.snapshot(),
            execution_units=0.0,
            fallback=sc.fallback,
            cache_hit=cached is not None,
            cache_fingerprint=(
                cached.entry.fingerprint if cached is not None else None
            ),
            cache_admission=(
                [e.to_dict() for e in cached.admission.evaluations]
                if cached is not None
                else None
            ),
        )
        run = AttemptRun(ctx, report, [], renegotiations)
        try:
            run_plan(plan, ctx, run.sink)
        except ReoptimizationSignal as signal:
            run.signal = signal
        except ReproError as exc:
            run.error = exc
        return run

    def _execution_context(self, sc: StatementContext) -> ExecutionContext:
        """The attempt's executor context, wired to the statement's state.

        The safe plan runs without deadlines — it must be guaranteed to
        complete, so the guard hands out none once it asked for it (and has
        disarmed the injector) — but the ``cancel`` token still applies: a
        disconnected client has no use for a safe plan's rows, so
        cancellation beats completion.
        """
        config, meter, guard = sc.config, sc.meter, sc.guard
        ctx = ExecutionContext(
            self.optimizer.catalog,
            params=sc.params,
            cost_params=self.optimizer.cost_model.params,
            meter=meter,
            dry_run_checks=config.dry_run,
            force_trigger_op_ids=(
                set(config.force_trigger_op_ids) if sc.attempt == 0 else set()
            ),
            tracer=sc.tracer,
            metrics=sc.metrics,
            fault_injector=sc.injector,
            work_deadline=(
                guard.deadline_for_attempt(meter) if guard is not None else None
            ),
            cancel=sc.cancel,
            # Statement-scoped wall deadline: set once on the first
            # attempt, shared by every retry/re-optimization round.
            wall_deadline=(
                guard.wall_deadline_for_statement()
                if guard is not None
                else None
            ),
            memory=sc.governor.policy if sc.governor is not None else None,
            reservation=sc.reservation,
            # One collector per attempt so re-optimized rounds stay
            # separately attributable (None keeps the executor's
            # profiling sites at a single comparison).
            profiler=ProfileCollector(meter) if sc.profile else None,
            batch_size=config.batch_size,
            snapshot=sc.snapshot,
            temp_mvs=sc.temp_mvs,
        )
        ctx.compensation = sc.compensation
        return ctx

    # ---------------------------------------------------------- phase: finish

    def _finish(self, sc: StatementContext, run: AttemptRun) -> None:
        """Complete the attempt's report — the same accounting whether it
        completed, signalled re-optimization, failed, or was the fallback.

        Spill statistics survive the spill manager's cleanup (files are
        already deleted by ``run_plan``'s ``finally`` when this runs), so
        degradation stays reportable without leaking disk.
        """
        ctx, report, metrics = run.ctx, run.report, sc.metrics
        report.execution_units = sc.meter.snapshot() - report.units_at_start
        report.checkpoint_events = ctx.checkpoint_events
        report.record = record_attempt(report.plan, ctx)
        report.rows_emitted = ctx.rows_returned
        if run.signal is not None:
            signal = run.signal
            report.signal_op_id = signal.check_op.op_id
            report.signal_flavor = getattr(signal.check_op, "flavor", "?")
            report.signal_observed = float(signal.observed)
            report.signal_complete = signal.complete
            report.signal_reason = "cardinality"
        elif run.error is not None:
            report.failure = str(run.error)
            report.failure_class = failure_class(run.error)
        summary = ctx.spill_summary()
        if summary is not None and summary["files"]:
            report.spilled = True
            report.spill_pages = summary["pages"]
            report.spill_files = summary["files"]
            report.spill_bytes = summary["bytes"]
            report.spill_categories = summary["categories"]
            if metrics is not None:
                metrics.inc("governor.spilled_attempts")
        if sc.reservation is not None:
            report.reservation_pages = sc.reservation.pages
            report.renegotiations = (
                sc.reservation.renegotiations - run.renegotiations_before
            )
        sc.attempts.append(report)

    # ---------------------------------------------------------- phase: settle

    def _settle(
        self, sc: StatementContext, planned: PlannedAttempt, run: AttemptRun
    ) -> bool:
        """Act on how the attempt ended; True when the statement is done.

        Routes the attempt's rows, harvests what it learned, settles the
        plan cache, and lets the guard decide what an interrupted attempt
        is followed by: another round, the safe plan, or the error itself.
        """
        guard, config = sc.guard, sc.config
        if run.signal is not None:
            self._announce_reoptimization(sc, planned, run)
        elif run.error is not None:
            decision = guard.on_failure(run.error) if guard is not None else RAISE
            if decision == RAISE:
                self._observe_attempt(sc, planned, run)
                raise run.error
        self._route_rows(sc, run)
        harvested = None
        if run.signal is not None:
            harvested = harvest_execution_state(
                run.ctx, run.signal, sc.feedback, config
            )
        elif not run.report.fallback:
            # Exact cardinalities only, no MV promotion: what a retry
            # re-plans with, and what cross-query learning absorbs (§7).
            harvest_execution_state(
                run.ctx, None, sc.feedback, _FEEDBACK_ONLY
            )
        if not run.interrupted and sc.caching and planned.cached is None:
            # A reused plan needs no check here: ``PlanCache.lookup``
            # re-fingerprints every candidate, so one mutated while it ran
            # is dropped before it can run again.
            self._cache_install(sc, run.report)
        self._observe_attempt(sc, planned, run, harvested)
        if not run.interrupted:
            return True
        sc.attempt += 1
        if run.signal is not None:
            sc.reopt_round += 1
            if guard is not None:
                guard.on_reoptimize(run.report.join_order, sc.attempt)
        return False

    def _route_rows(self, sc: StatementContext, run: AttemptRun) -> None:
        """Hand the attempt's rows to the application exactly once.

        Rows an interrupted attempt had already pipelined out — before a
        late CHECK fired or before a failure — must not be re-delivered:
        they join the ECDC compensation set the next plan anti-joins
        against (paper §3.3).
        """
        if run.interrupted:
            if not run.ctx.rows_returned:
                return
            # Only compensating flavors may fire after rows went out.
            if run.signal is not None and run.report.signal_flavor != "ECDC":
                raise ExecutionError(
                    f"non-compensating checkpoint {run.report.signal_flavor} "
                    "fired after rows were returned"
                ) from run.signal
            sc.compensation.update(run.sink)
            if sc.metrics is not None:
                sc.metrics.inc("pop.compensation_rows", len(run.sink))
        sc.delivered.extend(run.sink)

    def _announce_reoptimization(
        self, sc: StatementContext, planned: PlannedAttempt, run: AttemptRun
    ) -> None:
        """Emit the re-optimization, and drop the cached variant it refutes."""
        tracer, metrics, report = sc.tracer, sc.metrics, run.report
        if tracer is not None:
            tracer.event(
                "pop.reoptimize",
                span=run.ctx.exec_span_id,
                op_id=report.signal_op_id,
                flavor=report.signal_flavor,
                observed=report.signal_observed,
                complete=report.signal_complete,
                reason=report.signal_reason,
            )
        if metrics is not None:
            metrics.inc("pop.reoptimizations", reason=report.signal_reason)
        if planned.cached is None:
            return
        # Runtime proved the cached plan's ranges stale for this parameter
        # regime — drop the variant (POP feedback invalidation) and
        # re-optimize from scratch.
        fingerprint = planned.cached.entry.fingerprint
        sc.plan_cache.discard(sc.statement.shape, fingerprint)
        if metrics is not None:
            metrics.inc("plan_cache.invalidations", reason="reoptimized")
        if tracer is not None:
            tracer.event(
                "plan_cache.invalidate",
                span=run.ctx.exec_span_id,
                fingerprint=fingerprint,
                reason="reoptimized",
            )

    def _cache_install(self, sc: StatementContext, report: AttemptReport) -> None:
        """After a successful attempt on a freshly optimized plan: cache it.

        Plans referencing statement-scoped state are never installed: temp
        MVs are dropped when the statement ends and compensating anti-joins
        only make sense for this statement's already-delivered rows.
        """
        metrics, plan = sc.metrics, report.plan
        if report.fallback or find_ops(plan, (AntiJoin, MVScan)):
            return
        entry, evicted = sc.plan_cache.install(
            sc.statement.shape,
            plan,
            tables={t.table for t in sc.query.tables},
            params=sc.statement.params,
            checkpoints=report.checkpoints_placed,
        )
        if metrics is not None:
            if entry is not None:
                metrics.inc("plan_cache.installs")
            if evicted:
                metrics.inc("plan_cache.evictions", evicted)
        if sc.tracer is not None and entry is not None:
            sc.tracer.event(
                "plan_cache.install",
                fingerprint=entry.fingerprint,
                evicted=evicted,
                checkpoints=entry.checkpoints,
            )

    def _observe_attempt(
        self,
        sc: StatementContext,
        planned: PlannedAttempt,
        run: AttemptRun,
        harvested_mvs: Optional[list] = None,
    ) -> None:
        """Flush one attempt's observability state (no-op when unconfigured)."""
        tracer, metrics = sc.tracer, sc.metrics
        ctx, report = run.ctx, run.report
        if metrics is not None:
            for record in report.record.walk():
                if record.rows_out:
                    metrics.inc("executor.rows", record.rows_out, op=record.kind)
                if record.qerror is not None:
                    metrics.observe("estimate.error.qerror", record.qerror)
                prof = record.profile
                if prof is not None and prof.self_units:
                    metrics.observe("profile.self_units", prof.self_units, op=record.kind)
            if report.reused_mvs:
                metrics.inc("pop.mv_reuses", len(report.reused_mvs))
        if tracer is not None:
            ctx.finalize_operator_spans()
            if harvested_mvs is not None:
                tracer.event(
                    "pop.harvest",
                    span=planned.span,
                    temp_mvs=len(harvested_mvs),
                    names=list(harvested_mvs),
                )
            tracer.end_span(
                ctx.exec_span_id,
                rows=ctx.rows_returned,
                interrupted=run.interrupted,
            )
            tracer.end_span(
                planned.span,
                join_order=report.join_order,
                execution_units=report.execution_units,
                optimization_units=report.optimization_units,
                reused_mvs=list(report.reused_mvs),
                interrupted=run.interrupted,
            )
