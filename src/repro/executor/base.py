"""Executor infrastructure: the open/next_batch/close operator protocol,
the execution context, and the re-optimization signal.

Rows are plain tuples, pulled in batches (lists of 1..``max_rows`` rows);
``None`` is the end-of-stream sentinel.  Every operator counts the
individual rows it emits and remembers whether it reached end-of-stream —
those counters are the raw material POP harvests as cardinality feedback
after a CHECK fires (paper §2.1: "actual cardinalities measured during the
initial run help the re-optimization step avoid the same mistake").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.common.errors import (
    ExecutionCancelled,
    ExecutionError,
    ExecutionTimeout,
)
from repro.core.config import DEFAULT_BATCH_SIZE, check_batch_size
from repro.executor.meter import WorkMeter
from repro.obs import wall_clock
from repro.optimizer.costmodel import DEFAULT_COST_PARAMS, CostModel, CostParams
from repro.plan.physical import PlanOp
from repro.storage.catalog import Catalog, TempMVRegistry


@dataclass
class CheckpointEvent:
    """Log record of one checkpoint evaluation (drives Figure 14)."""

    op_id: int
    flavor: str
    observed: float
    low: float
    high: float
    complete: bool  #: whether the child stream had reached EOF
    units_at_event: float  #: work-meter reading when the check evaluated
    triggered: bool  #: would this evaluation trigger re-optimization?


class ReoptimizationSignal(Exception):
    """Raised by a CHECK whose range is violated; caught by the POP driver.

    ``observed`` is the row count at the moment of violation; ``complete``
    tells the driver whether it is an exact cardinality (child stream
    exhausted — LC flavors) or only a lower bound (eager flavors).
    """

    def __init__(
        self,
        check_op: PlanOp,
        observed: float,
        complete: bool,
    ):
        super().__init__(
            f"check {check_op.op_id} violated (cardinality): observed={observed} "
            f"range={getattr(check_op, 'check_range', None)} complete={complete}"
        )
        self.check_op = check_op
        self.observed = observed
        self.complete = complete


class ExecutionContext:
    """Shared state of one execution attempt."""

    def __init__(
        self,
        catalog: Catalog,
        params: Optional[dict[str, Any]] = None,
        cost_params: CostParams = DEFAULT_COST_PARAMS,
        meter: Optional[WorkMeter] = None,
        dry_run_checks: bool = False,
        force_trigger_op_ids: Optional[set[int]] = None,
        tracer=None,
        metrics=None,
        fault_injector=None,
        memory=None,
        reservation=None,
        profiler=None,
        cancel=None,
        wall_deadline: Optional[float] = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
        snapshot=None,
        temp_mvs: Optional[TempMVRegistry] = None,
    ):
        self.catalog = catalog
        #: The statement's temp MVs, which MV scans read (paper §2.3); a
        #: context built without one can run no MV scan.
        self.temp_mvs = temp_mvs if temp_mvs is not None else TempMVRegistry()
        self.params = params if params is not None else {}
        self.cost_params = cost_params
        self.cost_model = CostModel(cost_params)
        self.meter = meter if meter is not None else WorkMeter()
        #: Optional :class:`repro.obs.Tracer`; ``None`` disables tracing and
        #: reduces every instrumentation site to one comparison.
        self.tracer = tracer
        #: Optional :class:`repro.obs.MetricsRegistry` (same contract).
        self.metrics = metrics
        #: Optional :class:`repro.obs.ProfileCollector`; armed by the
        #: runtime over the built operator tree, consulted by operator
        #: ``open``/``close`` behind single ``is None`` checks (same
        #: zero-overhead-off contract as the tracer).
        self.profiler = profiler
        #: Span id of the enclosing ``pop.execute`` span, set by the driver;
        #: operator spans and checkpoint events attach to it.
        self.exec_span_id: Optional[int] = None
        #: When True, CHECK violations are logged, not raised (Fig. 14 mode).
        self.dry_run_checks = dry_run_checks
        #: CHECKs whose op_id is listed fire even inside their range
        #: (the "dummy re-optimization" of Fig. 12).
        self.force_trigger_op_ids = force_trigger_op_ids or set()
        #: The single sanctioned fault-injection mount point: a
        #: :class:`repro.resilience.FaultInjector` (or ``None``), which
        #: :meth:`grant_pages` fires before each grant; no other executor
        #: code references it (a tier-1 test pins where a due fault fires).
        self.fault_injector = fault_injector
        #: Optional :class:`repro.common.cancel.CancelToken`.  Checked in
        #: :meth:`Operator.emit_batch` (one attribute read when absent) and
        #: at every :meth:`check_interrupt` site, so client disconnects and
        #: ``\\kill`` unwind mid-query through the normal teardown path.
        self.cancel = cancel
        #: Absolute wall-clock deadline for the whole *statement*
        #: (``ResiliencePolicy.deadline_seconds``, shared across attempts);
        #: checked at :meth:`check_interrupt` sites ->
        #: :class:`~repro.common.errors.ExecutionTimeout`.
        self.wall_deadline = wall_deadline
        #: True when any interrupt source is armed: operators consult this
        #: once per blocking loop instead of re-deriving it per batch.
        self.interruptible = cancel is not None or wall_deadline is not None
        #: Optional :class:`repro.core.config.MemoryPolicy`.  ``None``
        #: means full grants and no spilling.
        self.memory = memory
        #: Optional :class:`repro.governor.Reservation` — this statement's
        #: slice of the shared budget, which comes with ``memory``.  Every
        #: grant is capped at its *current* size, so mid-query
        #: renegotiation takes effect at the next ``grant_pages`` call.
        self.reservation = reservation
        #: Rows per batch (>= 1): ``run_plan`` drains the root and blocking
        #: operators drain their children in :meth:`Operator.next_batch`
        #: pulls of this size.  Rows do not depend on it, and row counters,
        #: CHECK decisions and meter totals do not either up to the first
        #: ECDC signal: which rows an ECDC CHECK lets out before it fires
        #: does, and the next plan anti-joins them (docs/vectorized.md).
        #: Otherwise it only sets how much work passes between two
        #: cancellation/deadline polls.
        self.batch_size = check_batch_size(batch_size)
        #: Optional :class:`repro.txn.Snapshot` pinning this attempt to a
        #: commit epoch.  Scan operators cap themselves at the snapshot's
        #: per-table visible-row watermark (rids are positional, so
        #: ``rid < visible`` is exact); ``None`` means "read latest", the
        #: pre-transactional behavior.  Each attempt of a POP statement
        #: builds its own context, and all of them share the statement's
        #: snapshot, so every attempt sees one immutable row-set.
        self.snapshot = snapshot
        self._spill = None
        #: All operator instances, registered at construction time, so the
        #: POP driver can harvest counters and materializations afterwards.
        self.operators: list[Operator] = []
        self.checkpoint_events: list[CheckpointEvent] = []
        self.rows_returned = 0

    def register(self, op: "Operator") -> None:
        self.operators.append(op)

    @property
    def spill_enabled(self) -> bool:
        """Whether squeezed operators degrade to disk: whenever a
        :class:`MemoryPolicy` is attached."""
        return self.memory is not None

    @property
    def spill(self):
        """The attempt's :class:`repro.storage.spill.SpillManager`,
        created on first use (fully streaming attempts never touch disk)."""
        if self._spill is None:
            from repro.storage.spill import SpillManager

            self._spill = SpillManager(
                self.meter, self.cost_params, self.tracer, self.metrics
            )
        return self._spill

    def spill_summary(self) -> Optional[dict]:
        """This attempt's spill accounting, or ``None`` if nothing spilled
        (statistics survive :meth:`release_spill`)."""
        if self._spill is None:
            return None
        return self._spill.summary()

    def release_spill(self) -> None:
        """Delete every spill file of this attempt (idempotent).

        Called from ``run_plan``'s ``finally`` block — the success path
        and every abort path release their disk footprint here."""
        if self._spill is not None:
            self._spill.close_all()

    def check_interrupt(self) -> None:
        """Raise if this statement was cancelled or out-ran its wall budget.

        The cooperative interrupt point: called from the plan-root drain
        loop, from every blocking operator phase (sort-run builds, hash
        builds, TEMP fills, merge drains), and from CHECK evaluations, so
        a cancel or a blown wall deadline unwinds within one batch's worth
        of work and funnels through ``run_plan``'s teardown (operators
        closed, spill files released).  The cancel poll is one attribute
        read; the wall probe is one monotonic-clock sample, taken only
        when a wall deadline is armed.
        """
        cancel = self.cancel
        if cancel is not None and cancel.cancelled:
            raise ExecutionCancelled(
                f"statement cancelled: {cancel.reason or 'cancelled'}"
            )
        deadline = self.wall_deadline
        if deadline is not None and wall_clock() > deadline:
            raise ExecutionTimeout(
                f"wall-clock deadline exceeded ({deadline:.3f}s mark passed)"
            )

    def grant_pages(self, pages: float, category: str) -> float:
        """The effective memory grant for a ``pages``-page request.

        The grant is capped at the statement's current reservation (when
        the memory governor admitted it) and floored at the policy's
        ``min_grant_pages``; the operator spills the excess.  Operators
        read their reservation only here, so a ``mem_shrink`` fault fires
        here too, before the grant it is due at is sized.
        """
        injector = self.fault_injector
        if injector is not None:
            injector.before_grant(self, category)
        reservation = self.reservation
        if reservation is None or reservation.pages >= pages:
            return pages
        granted = min(pages, max(self.memory.min_grant_pages, reservation.pages))
        if self.metrics is not None:
            self.metrics.inc("governor.grants_squeezed", category=category)
        if self.tracer is not None:
            self.tracer.event(
                "governor.grant",
                span=self.exec_span_id,
                category=category,
                requested_pages=pages,
                granted_pages=granted,
            )
        return granted

    def log_checkpoint(self, event: CheckpointEvent) -> None:
        self.checkpoint_events.append(event)
        if self.metrics is not None:
            self.metrics.inc(
                "check.evaluations",
                flavor=event.flavor,
                triggered=event.triggered,
            )
        if self.tracer is not None:
            self.tracer.event(
                "check.evaluate",
                span=self.exec_span_id,
                op_id=event.op_id,
                flavor=event.flavor,
                observed=event.observed,
                low=event.low,
                high=event.high,
                complete=event.complete,
                triggered=event.triggered,
            )

    def finalize_operator_spans(self) -> None:
        """Close every operator's trace span with its final counters.

        A :class:`ReoptimizationSignal` unwinds the operator tree without
        calling ``close``; the driver invokes this after every attempt so
        interrupted operators still report rows-out and EOF state
        (``end_span`` is idempotent, so already-closed operators are safe).
        """
        if self.tracer is None:
            return
        for op in self.operators:
            op.end_span()


class Operator:
    """Base class for executor operators (Volcano-style iterators that
    hand over a batch of rows per pull)."""

    def __init__(self, plan: PlanOp, ctx: ExecutionContext):
        self.plan = plan
        self.ctx = ctx
        self.rows_out = 0
        self.eof_seen = False
        self._open = False
        self._span_id: Optional[int] = None
        #: What a compiled loop calls between windows of work: the
        #: context's interrupt poll, or ``None`` when no source is armed.
        self._poll = ctx.check_interrupt if ctx.interruptible else None
        ctx.register(self)

    # -- protocol ---------------------------------------------------------

    def open(self) -> None:
        """Prepare for iteration (children recursively)."""
        self._open = True
        profiler = self.ctx.profiler
        if profiler is not None:
            profiler.on_open(self)
        tracer = self.ctx.tracer
        if tracer is not None:
            # Span covers open → close; u1-u0 includes the subtree's work
            # (children open/iterate inside this interval).
            self._span_id = tracer.start_span(
                f"op.{self.plan.KIND}",
                parent=self.ctx.exec_span_id,
                op_id=self.plan.op_id,
                op=self.plan.describe(),
                est_card=self.plan.est_card,
            )

    def next_batch(self, max_rows: int) -> Optional[list[tuple]]:
        """The next batch of 1..``max_rows`` output rows, or ``None`` at
        end-of-stream.

        Partial batches are legal anywhere in the stream, so consumers must
        not infer EOF from a short batch — only from ``None``.
        Implementations keep row accounting exact whatever the width:
        ``rows_out`` counts individual rows, per-row meter charges are
        made as one ``n × per-row`` bulk charge per batch, and a consumer
        that must not over-pull (a CHECK about to cross its bound, a LIMIT,
        a nested-loop outer) caps its request (see docs/vectorized.md).
        Rows are returned via :meth:`emit_batch`.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release per-execution state.

        Must be idempotent and safe on a half-opened operator: the runtime
        closes every registered operator in a ``finally`` block, including
        after a mid-``open`` failure.  Overrides must delegate to
        ``super().close()`` and only touch attributes assigned in
        ``__init__`` (contract rule ``close-guarded``).
        """
        self._open = False
        profiler = self.ctx.profiler
        if profiler is not None:
            profiler.on_close(self)
        self.end_span()

    def end_span(self) -> None:
        """Finish this operator's trace span with final row counters."""
        tracer = self.ctx.tracer
        if tracer is not None and self._span_id is not None:
            tracer.end_span(
                self._span_id, rows_out=self.rows_out, eof=self.eof_seen
            )
            self._span_id = None

    # -- shared helpers ----------------------------------------------------

    def emit_batch(self, rows: list[tuple]) -> list[tuple]:
        """Count and return one output batch.

        The universal output funnel doubles as the cheapest cancellation
        probe: with no token attached the added cost is one ``is None``
        check; with one attached, a tripped token stops the pipeline at
        the very next emitted batch, wherever in the tree it happens.
        ``rows_out`` advances by the individual row count, so the
        cardinality feedback POP harvests does not depend on batch width.
        """
        self.emit_count(len(rows))
        return rows

    def emit_count(self, n: int) -> int:
        """Count ``n`` output rows and return ``n``: :meth:`emit_batch`'s
        accounting and cancellation poll for rows handed over without
        being built (a hash join's matches folded by the GROUP BY above
        it)."""
        cancel = self.ctx.cancel
        if cancel is not None and cancel.cancelled:
            raise ExecutionCancelled(
                f"statement cancelled: {cancel.reason or 'cancelled'}"
            )
        self.rows_out += n
        return n

    def finish(self) -> None:
        """Mark end-of-stream (rows_out is now the exact edge cardinality)."""
        self.eof_seen = True

    def require_open(self) -> None:
        if not self._open:
            raise ExecutionError(
                f"{type(self).__name__}.next_batch() before open()"
            )

    # -- harvesting hooks (overridden by materializing operators) ----------

    @property
    def materialized_rows(self) -> Optional[list[tuple]]:
        """Fully built intermediate result, if this operator holds one."""
        return None

    @property
    def materialized_count(self) -> Optional[int]:
        """Exact row count of a completed materialization, spilled or not
        (a CHECK above it evaluates once, at ``open``)."""
        return None

    def profile_extras(self) -> dict:
        """Operator-kind detail counters for the profiler.

        Called once per attempt, at the operator's first close and only
        when profiling (never on the hot path); overrides report whatever makes this operator's behavior
        explainable — probe counts, build sizes, spill state.  Must be
        safe on a half-opened operator (read only ``__init__``-assigned
        attributes), like ``close``.
        """
        return {}

