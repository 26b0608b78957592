"""Deterministic, seeded fault injection for the executor and storage layer.

A :class:`FaultPlan` is a list of :class:`FaultSpec` records, either built by
hand or generated reproducibly from a seed (:meth:`FaultPlan.seeded` via
:func:`repro.common.rng.make_rng`).  A :class:`FaultInjector` carries one
plan through a statement execution:

* **mem_shrink** — apply memory pressure at the statement's Nth memory
  grant: a statement the memory governor admitted has its reservation
  renegotiated down by the factor just before that grant is sized, so the
  operator asking for it (and every later one) spills; an ungoverned
  statement holds no reservation, so the fault is recorded as fired and
  changes nothing;
* **stats** — corrupt (scale the row count of) or drop a table's
  statistics for one statement: the statement plans with overrides, the
  catalog is never written.

A shrink's clock is the statement's memory grants
(:meth:`~repro.executor.base.ExecutionContext.grant_pages`, the one place
an operator reads its reservation), counted over all its attempts.  Which
grants a plan asks for, and in which order, does not depend on the batch
width, so a fault schedule replays the same way at every width; a
``trigger_at`` past the statement's last grant never fires.  Each spec
fires once.

The injector is mounted on :class:`~repro.executor.base.ExecutionContext`
as ``fault_injector``; ``grant_pages`` is the one site that fires it, and
the ``fault-isolation`` contract rule keeps injection out of every other
module.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from repro.common.rng import make_rng

#: Execution-time fault kind (triggers on the statement's grant counter).
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
#: Seeded shrinks fire at one of the statement's first grants: the small
#: workloads' statements make 0-9 grants each.
_MAX_TRIGGER = 8


@dataclass(frozen=True)
class FaultSpec:
    """One fault to inject.

    ``trigger_at`` is the 1-based index of the statement's memory grant a
    ``mem_shrink`` fires before (see the module docstring) and ignored for
    ``stats`` faults; ``payload`` is the shrink factor or the stats scale
    (0.0 = drop); ``target_table`` names the table whose statistics a
    ``stats`` fault corrupts.
    """

    kind: str
    trigger_at: int = 0
    payload: float = 0.0
    target_table: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in ALL_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.kind == STATS and self.target_table is None:
            raise ValueError("stats fault needs a target_table")


@dataclass(frozen=True)
class FiredFault:
    """Log record of one fault firing (one ``fault.injected`` trace event)."""

    kind: str
    at: int  #: grant index (0 for stats faults)
    category: str  #: the grant's category (sort, hash, temp), or "catalog"
    payload: float
    target_table: Optional[str] = None


@dataclass
class FaultPlan:
    """A reproducible fault schedule."""

    specs: list[FaultSpec] = field(default_factory=list)

    @classmethod
    def seeded(
        cls,
        seed: int,
        n_faults: int = 3,
        kinds: Sequence[str] = EXEC_KINDS,
        tables: Sequence[str] = (),
    ) -> "FaultPlan":
        """Generate ``n_faults`` faults deterministically from ``seed``.

        Shrinks fire at a grant drawn uniformly from the first
        ``_MAX_TRIGGER``.  ``stats`` faults are only drawn when ``tables``
        names candidates.
        """
        rng = make_rng(seed)
        pool = [k for k in kinds if k != STATS or tables]
        if not pool:
            raise ValueError("no fault kinds to draw from")
        specs = []
        for _ in range(n_faults):
            kind = pool[rng.randrange(len(pool))]
            if kind == MEM_SHRINK:
                trigger = rng.randint(1, _MAX_TRIGGER)
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
        return cls(specs=specs)

    @property
    def exec_specs(self) -> list[FaultSpec]:
        return [s for s in self.specs if s.kind != STATS]

    @property
    def stats_specs(self) -> list[FaultSpec]:
        return [s for s in self.specs if s.kind == STATS]


class FaultInjector:
    """Carries one :class:`FaultPlan` through a statement execution.

    ``stats`` faults become the statement's statistics overrides before it
    plans (:meth:`stats_overrides`); ``mem_shrink`` faults fire from
    :meth:`before_grant`.  Every firing is recorded in :attr:`fired`.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.fired: list[FiredFault] = []
        #: Memory grants the statement asked for, over all its attempts.
        self.grants = 0
        self._due = sorted(plan.exec_specs, key=lambda spec: spec.trigger_at)

    def before_grant(self, ctx, category: str) -> None:
        """Count one ``grant_pages`` call of ``ctx`` and fire the shrinks
        due at it, before the grant is sized."""
        self.grants += 1
        due = self._due
        while due and due[0].trigger_at <= self.grants:
            spec = due.pop(0)
            record = FiredFault(spec.kind, self.grants, category, spec.payload)
            self.fired.append(record)
            self._observe(record, ctx.tracer, ctx.metrics)
            reservation = ctx.reservation
            if reservation is not None:
                reservation.shrink_to(reservation.pages * spec.payload)

    @staticmethod
    def _observe(record: FiredFault, tracer, metrics) -> None:
        if tracer is not None:
            tracer.event(
                "fault.injected",
                kind=record.kind,
                at=record.at,
                category=record.category,
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
                at=0,
                category="catalog",
                payload=spec.payload,
                target_table=spec.target_table,
            )
            self.fired.append(record)
            self._observe(record, tracer, metrics)
        return overrides
