"""Deterministic, seeded fault injection for the executor and storage layer.

A :class:`FaultPlan` is a list of :class:`FaultSpec` records, either built by
hand or generated reproducibly from a seed (:meth:`FaultPlan.seeded` via
:func:`repro.common.rng.make_rng`).  A :class:`FaultInjector` carries one
plan through a statement execution:

* **mem_shrink** — apply memory pressure on the Nth ``next_batch`` pull
  anywhere in the operator tree: a statement the memory governor admitted
  has its reservation renegotiated down by the factor and its operators
  spill; an ungoverned statement holds no reservation, so the fault is
  recorded as fired and changes nothing;
* **stats** — corrupt (scale the row count of) or drop a table's
  statistics for one statement: the statement plans with overrides, the
  catalog is never written.

Execution faults trigger on a *global* pull counter that spans all
operators and all attempts of one statement, so a fault schedule is a pure
function of the seed, the batch width, and the (deterministic) execution it
perturbs.  A pull is one ``next_batch`` call, whatever it returns (a hash
join's ``next_matches`` under a groupjoin counts as one), or one key of an
index scan's ``probe`` (k keys, k pulls): wide batches make a
statement take fewer pulls, so a late ``trigger_at`` that a width-1 run
reaches may lie past the end of a width-1024 run and never fire.  Each
spec fires at most ``times`` times (default once).

The injector is mounted on :class:`~repro.executor.base.ExecutionContext`
as ``fault_injector`` and armed by ``run_plan`` — the single sanctioned
hook; the ``fault-isolation`` contract rule keeps injection out of every
other module.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from repro.common.rng import make_rng

#: Execution-time fault kind (triggers on the global pull counter).
MEM_SHRINK = "mem_shrink"
#: Statement-level fault kind (overrides the statistics a statement plans
#: with).
STATS = "stats"

EXEC_KINDS = (MEM_SHRINK,)
ALL_KINDS = EXEC_KINDS + (STATS,)

#: Payload choices for seeded generation: shrink factors and stats
#: row-count scale factors (0.0 means "drop the statistics").
_SHRINK_FACTORS = (0.5, 0.25, 0.1)
_STATS_SCALES = (100.0, 0.01, 0.0)


@dataclass(frozen=True)
class FaultSpec:
    """One fault to inject.

    ``trigger_at`` is the 1-based global ``next_batch``-pull index for
    execution kinds (how many pulls a statement makes depends on its batch
    width — see the module docstring) and ignored for ``stats`` faults;
    ``payload`` is the shrink factor or the stats scale (0.0 = drop); ``target_table`` names the table whose
    statistics a ``stats`` fault corrupts; ``times`` caps how often the
    spec may fire.
    """

    kind: str
    trigger_at: int = 0
    payload: float = 0.0
    target_table: Optional[str] = None
    times: int = 1

    def __post_init__(self) -> None:
        if self.kind not in ALL_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.kind == STATS and self.target_table is None:
            raise ValueError("stats fault needs a target_table")


@dataclass(frozen=True)
class FiredFault:
    """Log record of one fault firing (the chaos harness audits these
    against the ``fault.injected`` trace events)."""

    kind: str
    at_call: int  #: global pull index (0 for stats faults)
    op_kind: str  #: plan-operator KIND, or "catalog" for stats faults
    payload: float
    target_table: Optional[str] = None


@dataclass
class FaultPlan:
    """A reproducible fault schedule."""

    specs: list[FaultSpec] = field(default_factory=list)
    seed: Optional[int] = None

    @classmethod
    def seeded(
        cls,
        seed: int,
        n_faults: int = 3,
        kinds: Sequence[str] = EXEC_KINDS,
        tables: Sequence[str] = (),
        max_trigger: int = 2000,
    ) -> "FaultPlan":
        """Generate ``n_faults`` faults deterministically from ``seed``.

        Trigger points are drawn log-uniformly in ``[1, max_trigger]`` so
        early (open-phase) and late (pipelined-phase) pulls are both
        exercised.  ``stats`` faults are only drawn when ``tables`` names
        candidates.
        """
        rng = make_rng(seed)
        pool = [k for k in kinds if k != STATS or tables]
        if not pool:
            raise ValueError("no fault kinds to draw from")
        specs = []
        for _ in range(n_faults):
            kind = pool[rng.randrange(len(pool))]
            trigger = int(max_trigger ** rng.random())
            if kind == MEM_SHRINK:
                payload = _SHRINK_FACTORS[rng.randrange(len(_SHRINK_FACTORS))]
                specs.append(
                    FaultSpec(MEM_SHRINK, trigger_at=trigger, payload=payload)
                )
            else:  # STATS
                table = tables[rng.randrange(len(tables))]
                payload = _STATS_SCALES[rng.randrange(len(_STATS_SCALES))]
                specs.append(
                    FaultSpec(STATS, payload=payload, target_table=table)
                )
        return cls(specs=specs, seed=seed)

    @property
    def exec_specs(self) -> list[FaultSpec]:
        return [s for s in self.specs if s.kind != STATS]

    @property
    def stats_specs(self) -> list[FaultSpec]:
        return [s for s in self.specs if s.kind == STATS]


class FaultInjector:
    """Carries one :class:`FaultPlan` through a statement execution.

    The injector is armed over a freshly built operator tree by
    ``run_plan`` (it wraps each operator's ``next_batch``, a hash join's
    ``next_matches`` and a correlated index scan's ``probe`` with a
    counting prologue), fires due faults, and records every firing in
    :attr:`fired`.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.fired: list[FiredFault] = []
        self.call_count = 0
        # Mutable remaining-fire budget per exec spec, trigger-sorted so
        # one pass per call suffices.
        self._pending = sorted(
            ([spec, spec.times] for spec in plan.exec_specs),
            key=lambda entry: entry[0].trigger_at,
        )

    # -------------------------------------------------------------- arming

    def arm(self, ctx) -> None:
        """Wrap every operator registered in ``ctx`` with fault firing."""
        if not self._pending:
            return
        for op in ctx.operators:
            if getattr(op, "_fault_armed", False):
                continue
            op._fault_armed = True
            self._wrap(op, ctx)

    def _wrap(self, op, ctx) -> None:
        inner = op.next_batch

        def next_batch_with_faults(max_rows):
            self._before_pull(op, ctx)
            return inner(max_rows)

        op.next_batch = next_batch_with_faults
        next_matches = getattr(op, "next_matches", None)
        if next_matches is not None:
            def next_matches_with_faults(max_rows):
                self._before_pull(op, ctx)
                return next_matches(max_rows)

            op.next_matches = next_matches_with_faults
        probe = getattr(op, "probe", None)
        if probe is not None:
            def probe_with_faults(keys, room):
                for _ in keys:
                    self._before_pull(op, ctx)
                return probe(keys, room)

            op.probe = probe_with_faults

    # -------------------------------------------------------------- firing

    def _before_pull(self, op, ctx) -> None:
        if not self._pending:
            return
        self.call_count += 1
        count = self.call_count
        fire_now = []
        for entry in self._pending:
            if entry[0].trigger_at > count:
                break
            if entry[1] > 0:
                fire_now.append(entry)
        for entry in fire_now:
            entry[1] -= 1
            if entry[1] <= 0:
                self._pending.remove(entry)
            self._fire(entry[0], op, ctx, count)

    def _fire(self, spec: FaultSpec, op, ctx, count: int) -> None:
        record = FiredFault(
            kind=spec.kind,
            at_call=count,
            op_kind=op.plan.KIND,
            payload=spec.payload,
        )
        self.fired.append(record)
        self._observe(record, ctx.tracer, ctx.metrics)
        ctx.apply_memory_pressure(spec.payload)

    @staticmethod
    def _observe(record: FiredFault, tracer, metrics) -> None:
        if tracer is not None:
            tracer.event(
                "fault.injected",
                kind=record.kind,
                at_call=record.at_call,
                op=record.op_kind,
                payload=record.payload,
                table=record.target_table,
            )
        if metrics is not None:
            metrics.inc("resilience.faults_injected", kind=record.kind)

    # ------------------------------------------------------- stats faults

    def stats_overrides(self, catalog, tracer=None, metrics=None) -> dict:
        """The plan's ``stats`` faults as per-statement overrides of
        ``catalog``'s statistics: ``{table name: statistics}``, where
        ``None`` means dropped.  The caller's estimator reads them instead
        of the catalog, which is only read here, so the corruption never
        reaches another statement.  Faults on one table compound in plan
        order.
        """
        overrides: dict = {}
        for spec in self.plan.stats_specs:
            name = spec.target_table.lower()
            if not catalog.has_table(name):
                continue
            original = overrides.get(name, catalog.statistics(name))
            if spec.payload <= 0.0 or original is None:
                overrides[name] = None
            else:
                overrides[name] = replace(
                    original,
                    row_count=max(1, int(original.row_count * spec.payload)),
                )
            record = FiredFault(
                kind=STATS,
                at_call=0,
                op_kind="catalog",
                payload=spec.payload,
                target_table=spec.target_table,
            )
            self.fired.append(record)
            self._observe(record, tracer, metrics)
        return overrides
