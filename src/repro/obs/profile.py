"""Live per-operator profiling with exclusive (self) time attribution.

Every execution attempt can carry a :class:`ProfileCollector`; the runtime
arms it over the freshly built operator tree — the same opt-in shape as
tracing, metrics, and fault injection: ``ctx.profiler is None`` keeps the
executor's hot path at one comparison per open/close and zero allocations.

Attribution works by *frame accounting* rather than interval subtraction.
Operator intervals overlap arbitrarily (a parent's ``open`` spans its whole
subtree; an NLJN inner is re-opened per outer row), so subtracting child
open→close windows from the parent's cannot yield exclusive time.  Instead
the collector wraps each operator's
``open``/``next_batch``/``rebind``/``reset`` instance methods; every call
pushes a frame recording the work-meter and wall-clock readings on entry,
and child frames report their inclusive duration up to the enclosing frame
on exit:

    self = (exit - entry) - sum(inclusive durations of direct child frames)

Summed over all frames of an attempt this is a *partition* of the attempt's
execution work: ``sum(p.self_units) == execution_units`` up to float
rounding, which is the invariant the profile-smoke CI step cross-checks
against the :class:`~repro.executor.meter.WorkMeter` (within 1%).

Wall time uses :func:`repro.obs.trace.wall_clock`, the single sanctioned
clock source (contract rule ``profile-exclusive-time``); work units come
from the deterministic meter, so unit profiles are reproducible while wall
profiles reflect the host.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.obs.trace import wall_clock

#: Operator kinds whose emitted row count is not an estimable edge
#: cardinality, excluded from ``OpProfile.qerror`` and the driver's
#: ``estimate.error.qerror`` histogram: CHECK/BUFCHECK are transparent,
#: RETURN may be LIMIT-truncated, ANTIJOIN compensates.
QERROR_EXCLUDED = frozenset({"CHECK", "BUFCHECK", "RETURN", "ANTIJOIN"})


def qerror(estimated: float, actual: float) -> float:
    """``max(est/act, act/est)`` with both sides clamped to at least one row."""
    est = max(float(estimated), 1.0)
    act = max(float(actual), 1.0)
    return max(est / act, act / est)


#: Instance methods wrapped for frame accounting.  ``close`` is excluded on
#: purpose: the runtime closes operators in a flat ``finally`` loop where
#: per-operator cleanup charges nothing, and wrapping it would complicate
#: the idempotence the ``close-guarded`` contract rule demands.
_WRAPPED_METHODS = ("open", "next_batch", "rebind", "reset")

#: Spill-manager category -> operator KIND that spills under it.
_SPILL_KINDS = {"sort": "SORT", "hash": "HSJOIN", "temp": "TEMP"}


@dataclass
class OpProfile:
    """Accounting for one operator instance of one execution attempt."""

    op_id: int
    kind: str
    label: str  #: ``plan.describe()`` at arm time
    est_card: float
    rows_in: int = 0  #: sum of direct children's rows_out
    rows_out: int = 0
    eof: bool = False  #: reached end-of-stream (rows_out is then exact)
    opens: int = 0  #: ``open`` invocations (NLJN inners re-open per row)
    #: wrapped method invocations (open+next_batch+rebind+reset)
    calls: int = 0
    self_units: float = 0.0  #: exclusive work units (children subtracted)
    total_units: float = 0.0  #: inclusive work units (subtree)
    self_wall: float = 0.0  #: exclusive wall seconds
    total_wall: float = 0.0  #: inclusive wall seconds
    spill_pages: float = 0.0  #: this operator's share of spilled pages
    qerror: Optional[float] = None  #: max(est/act, act/est), EOF only
    extras: dict = field(default_factory=dict)  #: per-kind detail counters
    _active: int = 0  #: frames of this operator currently on the stack
    _extras_done: bool = False  #: extras captured (first close wins)

    def to_dict(self) -> dict:
        """JSON-ready record (one line of the profile JSONL export)."""
        return {
            "op_id": self.op_id,
            "kind": self.kind,
            "label": self.label,
            "est_card": self.est_card,
            "rows_in": self.rows_in,
            "rows_out": self.rows_out,
            "eof": self.eof,
            "opens": self.opens,
            "calls": self.calls,
            "self_units": self.self_units,
            "total_units": self.total_units,
            "self_wall": self.self_wall,
            "total_wall": self.total_wall,
            "spill_pages": self.spill_pages,
            "qerror": self.qerror,
            "extras": dict(self.extras),
        }


class ProfileCollector:
    """Per-attempt profile accumulator; armed by ``run_plan``.

    One collector profiles one execution attempt (the driver creates a
    fresh one per attempt so re-optimized rounds stay distinguishable).
    ``arm`` is idempotent per operator, mirroring the fault injector.
    """

    def __init__(self, meter, clock: Callable[[], float] = wall_clock):
        self.meter = meter
        self.clock = clock
        self.profiles: list[OpProfile] = []
        self._by_op: dict[int, OpProfile] = {}  # id(operator) -> profile
        #: Frame stack shared by every wrapped method:
        #: ``[profile, units_enter, wall_enter, child_units, child_wall]``.
        self._stack: list[list] = []
        self.armed_units: Optional[float] = None
        #: on_open/on_close invocations — lets tests assert the obs-off
        #: fast path never reaches the hooks.
        self.hook_calls = 0
        self.finalized = False

    # ---------------------------------------------------------------- arming

    def arm(self, ctx) -> None:
        """Wrap every operator registered in ``ctx`` (idempotent per op)."""
        if self.armed_units is None:
            self.armed_units = self.meter.units
        for op in ctx.operators:
            if id(op) in self._by_op:
                continue
            prof = OpProfile(
                op_id=op.plan.op_id or -1,
                kind=op.plan.KIND,
                label=op.plan.describe(),
                est_card=float(op.plan.est_card),
            )
            self._by_op[id(op)] = prof
            self.profiles.append(prof)
            for name in _WRAPPED_METHODS:
                if hasattr(op, name):
                    self._wrap(op, name, prof)

    def _wrap(self, op, name: str, prof: OpProfile) -> None:
        inner = getattr(op, name)
        meter = self.meter
        clock = self.clock
        stack = self._stack

        def profiled(*args):
            prof.calls += 1
            prof._active += 1
            frame = [prof, meter.units, clock(), 0.0, 0.0]
            stack.append(frame)
            try:
                return inner(*args)
            finally:
                stack.pop()
                du = meter.units - frame[1]
                dt = clock() - frame[2]
                prof._active -= 1
                prof.self_units += du - frame[3]
                prof.self_wall += dt - frame[4]
                if prof._active == 0:
                    # Outermost frame of this operator only, so re-entrant
                    # chains (e.g. CHECK.reset -> TEMP.reset) never double
                    # count inclusive time.
                    prof.total_units += du
                    prof.total_wall += dt
                if stack:
                    parent = stack[-1]
                    parent[3] += du
                    parent[4] += dt

        setattr(op, name, profiled)

    # ----------------------------------------------------------------- hooks

    def on_open(self, op) -> None:
        """Lifecycle hook from :meth:`repro.executor.base.Operator.open`."""
        self.hook_calls += 1
        prof = self._by_op.get(id(op))
        if prof is not None:
            prof.opens += 1

    def on_close(self, op) -> None:
        """Lifecycle hook from :meth:`repro.executor.base.Operator.close`.

        Extras are captured on the *first* close: the base ``close`` runs
        before subclass cleanup clears build tables and buffers, so the
        detail counters still reflect the execution.
        """
        self.hook_calls += 1
        prof = self._by_op.get(id(op))
        if prof is not None:
            prof.rows_out = op.rows_out
            prof.eof = op.eof_seen
            if not prof._extras_done:
                prof._extras_done = True
                prof.extras = op.profile_extras()

    # -------------------------------------------------------------- finalize

    def finalize(self, ctx) -> None:
        """Fold post-run state into the profiles (idempotent).

        Fills rows in/out, EOF flags, q-error for operators that reached
        end-of-stream, per-operator ``profile_extras`` detail, and the
        spill attribution (pages split evenly among the spilled operators
        of each spill category — statistics survive spill cleanup).
        """
        if self.finalized:
            return
        self.finalized = True
        by_op_id: dict[int, OpProfile] = {}
        for op in ctx.operators:
            prof = self._by_op.get(id(op))
            if prof is None:
                continue
            prof.rows_out = op.rows_out
            prof.eof = op.eof_seen
            if not prof._extras_done:
                prof._extras_done = True
                prof.extras = op.profile_extras()
            by_op_id[prof.op_id] = prof
        for op in ctx.operators:
            prof = self._by_op.get(id(op))
            if prof is None:
                continue
            prof.rows_in = sum(
                by_op_id[child.op_id].rows_out
                for child in op.plan.children
                if child.op_id in by_op_id
            )
            if prof.eof and prof.kind not in QERROR_EXCLUDED:
                prof.qerror = qerror(prof.est_card, prof.rows_out)
        summary = ctx.spill_summary()
        if summary:
            for category, pages in summary.get("categories", {}).items():
                kind = _SPILL_KINDS.get(category)
                spillers = [
                    self._by_op[id(op)]
                    for op in ctx.operators
                    if id(op) in self._by_op
                    and op.plan.KIND == kind
                    and getattr(op, "spilled", False)
                ]
                if not spillers:
                    continue
                share = pages / len(spillers)
                for prof in spillers:
                    prof.spill_pages += share

    # ------------------------------------------------------------- reporting

    def total_self_units(self) -> float:
        """Sum of exclusive units — must reconcile with execution units."""
        return sum(p.self_units for p in self.profiles)

    def total_self_wall(self) -> float:
        return sum(p.self_wall for p in self.profiles)

    def by_op_id(self) -> dict[int, OpProfile]:
        return {p.op_id: p for p in self.profiles}

    def records(self) -> list[dict]:
        return [p.to_dict() for p in self.profiles]

    def to_jsonl(self) -> str:
        """One JSON object per operator, driver-attempt order."""
        return "\n".join(json.dumps(r, sort_keys=True) for r in self.records())


def write_profiles_jsonl(path: str, attempts: list) -> int:
    """Write every profiled attempt of a report to ``path`` (JSONL).

    Each line carries its attempt index so multi-round POP executions stay
    attributable.  Returns the number of lines written; writes nothing and
    returns 0 when no attempt was profiled (no empty artifact files).
    """
    lines: list[str] = []
    for i, attempt in enumerate(attempts):
        for prof in attempt.profiles or ():
            record = prof.to_dict()
            record["attempt"] = i
            lines.append(json.dumps(record, sort_keys=True))
    if not lines:
        return 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return len(lines)


def render_profile_table(profiles) -> str:
    """Fixed-width per-operator profile table (CLI ``\\profile last``)."""
    headers = (
        "op", "kind", "est", "out", "q", "self_u", "total_u",
        "self_ms", "spill_p",
    )
    rows = []
    for p in profiles:
        rows.append(
            (
                str(p.op_id),
                p.kind,
                f"{p.est_card:.0f}",
                f"{p.rows_out}" if p.eof else f"{p.rows_out}+",
                f"{p.qerror:.1f}" if p.qerror is not None else "-",
                f"{p.self_units:.2f}",
                f"{p.total_units:.2f}",
                f"{p.self_wall * 1e3:.2f}",
                f"{p.spill_pages:.1f}" if p.spill_pages else "-",
            )
        )
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
