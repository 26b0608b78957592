"""Per-operator records of execution attempts, and the live profiler.

Every attempt ends with one record, a tree of :class:`OpRecord` in its
plan's shape built by :func:`record_attempt`: estimated vs actual rows,
EOF, q-error and spill share for every operator, profiled or not.  EXPLAIN
ANALYZE, the driver's per-operator metrics and the JSONL export all read
it.

An attempt can also carry a :class:`ProfileCollector`; the runtime arms it
over the freshly built operator tree — the same opt-in shape as tracing
and metrics: ``ctx.profiler is None`` keeps the
executor's hot path at one comparison per open/close and zero allocations.
What it measures (an :class:`OpProfile` per operator) hangs off the
record.

Attribution works by *frame accounting* rather than interval subtraction.
Operator intervals overlap arbitrarily (a parent's ``open`` spans its whole
subtree; an NLJN inner is re-opened per outer row), so subtracting child
open→close windows from the parent's cannot yield exclusive time.  Instead
the collector wraps each operator's
``open``/``next_batch``/``next_matches``/``probe``/``reset`` instance
methods; every call pushes a frame recording the work-meter and wall-clock readings on entry,
and child frames report their inclusive duration up to the enclosing frame
on exit:

    self = (exit - entry) - sum(inclusive durations of direct child frames)

Summed over all frames of an attempt this is a *partition* of the attempt's
execution work: ``sum(p.self_units) == execution_units`` up to float
rounding, which is the invariant the profile-smoke CI step cross-checks
against the :class:`~repro.executor.meter.WorkMeter` (within 1%).

Wall time uses :func:`repro.obs.trace.wall_clock`, the single sanctioned
clock source; work units come
from the deterministic meter, so unit profiles are reproducible while wall
profiles reflect the host.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Optional

from repro.obs.trace import wall_clock

#: Operator kinds whose emitted row count is not an estimable edge
#: cardinality, never given an ``OpRecord.qerror`` (so never in the
#: driver's ``estimate.error.qerror`` histogram): CHECK/BUFCHECK are
#: transparent, RETURN may be LIMIT-truncated, ANTIJOIN compensates.
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
_WRAPPED_METHODS = ("open", "next_batch", "next_matches", "probe", "reset")

#: Spill-manager category -> operator KIND that spills under it.
_SPILL_KINDS = {"sort": "SORT", "hash": "HSJOIN", "temp": "TEMP"}


@dataclass
class OpProfile:
    """What only the armed profiler measures for one operator instance."""

    opens: int = 0  #: ``open`` invocations (NLJN inners re-open per row)
    #: wrapped method invocations (open+next_batch+next_matches+probe+reset)
    calls: int = 0
    self_units: float = 0.0  #: exclusive work units (children subtracted)
    total_units: float = 0.0  #: inclusive work units (subtree)
    self_wall: float = 0.0  #: exclusive wall seconds
    total_wall: float = 0.0  #: inclusive wall seconds
    extras: Optional[dict] = None  #: ``profile_extras()`` at first close
    _active: int = 0  #: frames of this operator currently on the stack

    def to_dict(self) -> dict:
        return {k: v for k, v in vars(self).items() if not k.startswith("_")}


@dataclass
class OpRecord:
    """One operator of one execution attempt; an attempt's record is the
    tree of these in its plan's shape (see :func:`record_attempt`).

    ``rows_out`` is ``None`` for a plan node that never got an operator
    (the attempt failed while building its tree).  ``profile`` is set only
    when the attempt ran under the live profiler.
    """

    plan: Any  #: the plan node; read only to render ``label``
    op_id: Optional[int]
    kind: str
    est_card: float
    rows_in: int  #: sum of direct children's rows_out
    children: list
    rows_out: Optional[int] = None
    eof: bool = False  #: reached end-of-stream (rows_out is then exact)
    #: ``max(est/act, act/est)`` of an exact count: EOF only (the feedback
    #: store's eligibility rule), never for QERROR_EXCLUDED kinds
    qerror: Optional[float] = None
    spill_pages: float = 0.0  #: this operator's share of the attempt's spill
    profile: Optional[OpProfile] = None

    @property
    def label(self) -> str:
        """``plan.describe()``, computed only when rendered or exported."""
        return self.plan.describe()

    def walk(self):
        """Preorder traversal of the subtree rooted here."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> dict:
        """JSON-ready form of this subtree, children nested."""
        out = {
            "op_id": self.op_id,
            "kind": self.kind,
            "label": self.label,
            "est_card": self.est_card,
            "rows_in": self.rows_in,
            "rows_out": self.rows_out,
            "eof": self.eof,
            "qerror": self.qerror,
            "spill_pages": self.spill_pages,
        }
        if self.profile is not None:
            out.update(self.profile.to_dict())
        out["children"] = [child.to_dict() for child in self.children]
        return out


def record_attempt(plan, ctx) -> OpRecord:
    """The record of the attempt that ran ``plan`` in ``ctx``.

    Built once, after the attempt ended however it ended, from the plan and
    the operators still registered in ``ctx``: rows in/out and EOF, the
    q-error, the spill attribution (each spill category's pages split
    evenly among the operators of its kind that spilled — statistics
    survive spill cleanup) and, when ``ctx.profiler`` was armed, each
    operator's :class:`OpProfile`.
    """
    spill_share: dict[int, float] = {}  # id(operator) -> pages
    summary = ctx.spill_summary()
    if summary:
        for category, pages in summary["categories"].items():
            kind = _SPILL_KINDS.get(category)
            spillers = [
                op
                for op in ctx.operators
                if op.plan.KIND == kind and getattr(op, "spilled", False)
            ]
            for op in spillers:
                spill_share[id(op)] = pages / len(spillers)
    operators = {id(op.plan): op for op in ctx.operators}
    return _record(plan, operators, spill_share, ctx.profiler)


def _record(node, operators: dict, spill_share: dict, profiler) -> OpRecord:
    # A module-level recursion, not a closure: a self-referencing closure
    # is a cycle that would keep the operators alive past the attempt.
    children = [
        _record(child, operators, spill_share, profiler)
        for child in node.children
    ]
    record = OpRecord(
        plan=node,
        op_id=node.op_id,
        kind=node.KIND,
        est_card=float(node.est_card),
        rows_in=sum(child.rows_out or 0 for child in children),
        children=children,
    )
    op = operators.get(id(node))
    if op is None:
        return record
    record.rows_out, record.eof = op.rows_out, op.eof_seen
    if record.eof and record.kind not in QERROR_EXCLUDED:
        record.qerror = qerror(record.est_card, record.rows_out)
    record.spill_pages = spill_share.get(id(op), 0.0)
    if profiler is not None:
        record.profile = profiler.profile_of(op)
    return record


class ProfileCollector:
    """Per-attempt profile accumulator; armed by ``run_plan``.

    One collector profiles one execution attempt (the driver creates a
    fresh one per attempt so re-optimized rounds stay distinguishable).
    ``arm`` is idempotent per operator.
    """

    def __init__(self, meter):
        self.meter = meter
        self._by_op: dict[int, OpProfile] = {}  # id(operator) -> profile
        #: Frame stack shared by every wrapped method:
        #: ``[profile, units_enter, wall_enter, child_units, child_wall]``.
        self._stack: list[list] = []

    # ---------------------------------------------------------------- arming

    def arm(self, ctx) -> None:
        """Wrap every operator registered in ``ctx`` (idempotent per op)."""
        for op in ctx.operators:
            if id(op) in self._by_op:
                continue
            prof = self._by_op[id(op)] = OpProfile()
            for name in _WRAPPED_METHODS:
                if hasattr(op, name):
                    self._wrap(op, name, prof)

    def profile_of(self, op) -> Optional[OpProfile]:
        """The profile of an armed operator (``None`` if never armed)."""
        return self._by_op.get(id(op))

    def _wrap(self, op, name: str, prof: OpProfile) -> None:
        inner = getattr(op, name)
        meter = self.meter
        clock = wall_clock
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
        prof = self._by_op.get(id(op))
        if prof is not None:
            prof.opens += 1

    def on_close(self, op) -> None:
        """Lifecycle hook from :meth:`repro.executor.base.Operator.close`.

        Extras are captured on the *first* close: the base ``close`` runs
        before subclass cleanup clears build tables and buffers, so the
        detail counters still reflect the execution.  ``run_plan`` closes
        every registered operator, so every armed one gets here.
        """
        prof = self._by_op.get(id(op))
        if prof is not None and prof.extras is None:
            prof.extras = op.profile_extras()


def write_profiles_jsonl(path: str, attempts: list) -> int:
    """Write the record of every profiled attempt to ``path`` (JSONL).

    One line per profiled attempt: its record's nested ``to_dict()`` plus
    the attempt index, so multi-round POP executions stay attributable.
    Returns the number of lines written; writes nothing and returns 0 when
    no attempt was profiled (no empty artifact files).
    """
    lines = [
        json.dumps({"attempt": i, **attempt.record.to_dict()}, sort_keys=True)
        for i, attempt in enumerate(attempts)
        if attempt.profiled
    ]
    if not lines:
        return 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return len(lines)
