"""Per-database memory governor: admission control, grant arbitration,
and mid-query renegotiation over one shared page budget.

The paper (§6) treats memory as a first-class runtime condition alongside
cardinality: a plan chosen for one memory situation must survive a
different one.  This module supplies the *database-level* half of that
story; the *operator-level* half (spilling sort / Grace hash join /
file-backed TEMP) lives in :mod:`repro.executor` and degrades against the
grants arbitrated here.

Life of a statement under the governor, all of it in the POP driver
(:mod:`repro.core.driver`), to which ``Database.execute`` hands it:

1. **Plan** — attempt 0 gets its plan (cached, or optimized and placed).
2. **Admit** — :meth:`MemoryGovernor.admit` reserves
   :func:`estimate_plan_memory` of that plan, clamped to
   ``[min_reservation_pages, budget_pages]``.  If it does not fit, the
   governor first tries to *reclaim* pages from running statements
   (renegotiation, below), then queues the request (bounded depth, bounded
   wait), and finally sheds it with a classified
   :class:`~repro.common.errors.AdmissionRejected`.  Later attempts keep
   the reservation.
3. **Grants** — operators ask
   :meth:`~repro.executor.base.ExecutionContext.grant_pages` for their
   working memory; the context caps every grant at the statement's
   current reservation, and squeezed operators spill instead of dying.
4. **Renegotiate** — the governor may shrink a *running* statement's
   reservation down to the ``min_reservation_pages`` floor to admit new
   work (or when a chaos fault applies memory pressure).  A shrink lowers
   :attr:`Reservation.pages`, and the affected operators see the smaller
   limit on their next grant.
5. **Release** — ``run`` returns the pages in a ``finally`` (waking the
   admission queue), then calls :meth:`MemoryGovernor.record_spill`.

Thread-safe: one lock/condition guards all budget state, because the
whole point is many concurrent statements contending for one budget.
The ``governor`` condition ranks first in the repo-wide lock order (see
:mod:`repro.common.locking`).
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.common.errors import AdmissionRejected, ExecutionCancelled
from repro.core.config import MemoryPolicy
from repro.obs import wall_clock
from repro.plan.physical import HashJoin, PlanOp, Sort, Temp

__all__ = [
    "MemoryGovernor",
    "Reservation",
    "estimate_plan_memory",
]


def estimate_plan_memory(plan: PlanOp, cost_params) -> float:
    """Estimated working-memory pages of ``plan``, the plan that will run
    as placed: an LCEM TEMP (a TEMP with a CHECK above it, on a nested-loop
    join's outer) takes a ``temp`` grant at run time, so it counts.

    Sums, over the memory-consuming operators, the smaller of the modeled
    input footprint and the operator's configured memory ceiling:

    * ``SORT``: input pages, capped at ``sort_mem_pages``;
    * ``HSJOIN``: build-side (inner) pages, capped at ``hash_mem_pages``;
    * ``TEMP``: input pages, capped at ``temp_mem_pages``.

    The operators ask ``grant_pages`` for the full ceiling, capped at the
    reservation; this sum only sizes the reservation.  Streaming operators
    need none.  Returns 0.0 for a fully streaming plan; callers clamp to
    the policy's reservation floor.
    """

    def pages(card: float) -> float:
        return max(1.0, card / cost_params.rows_per_page)

    total = 0.0
    for op in plan.walk():
        if isinstance(op, Sort):
            total += min(pages(op.children[0].est_card), float(cost_params.sort_mem_pages))
        elif isinstance(op, HashJoin):
            total += min(pages(op.inner.est_card), float(cost_params.hash_mem_pages))
        elif isinstance(op, Temp):
            total += min(pages(op.children[0].est_card), float(cost_params.temp_mem_pages))
    return total


class Reservation:
    """One admitted statement's slice of the shared budget.

    ``pages`` is the *current* reservation — the governor may shrink it
    while the statement runs (never below the policy floor).  Operators
    cap their grants at ``pages``, so they see a mid-query renegotiation
    on their next grant.
    """

    def __init__(self, governor: "MemoryGovernor", res_id: int, pages: float, label: str):
        self.governor = governor
        self.res_id = res_id
        self.label = label
        self.pages = pages  # guarded-by: governor._cond
        self.initial_pages = pages
        self.released = False  # guarded-by: governor._cond
        #: Times the governor shrank this reservation mid-query.
        self.renegotiations = 0  # guarded-by: governor._cond

    def shrink_to(self, new_pages: float) -> float:
        """Voluntarily renegotiate down (e.g. a fault applying pressure).

        Returns the pages actually freed; the reservation never drops
        below the governor's floor.
        """
        return self.governor._renegotiate(self, new_pages)

    def release(self) -> None:
        """Return the pages to the budget (idempotent)."""
        self.governor.release(self)

    def _shrink_locked(self, new_pages: float) -> None:
        """Governor-internal (``_cond`` held): record the shrink."""
        self.pages = new_pages
        self.renegotiations += 1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Reservation {self.label} pages={self.pages:.1f}>"


class MemoryGovernor:
    """Owns the shared page budget for one :class:`~repro.core.database.Database`."""

    def __init__(self, policy: MemoryPolicy, metrics=None, tracer=None):
        self.policy = policy
        self.metrics = metrics
        self.tracer = tracer
        self._cond = threading.Condition()
        self._running: list[Reservation] = []  # guarded-by: _cond
        self._queue_depth = 0  # guarded-by: _cond
        self._seq = 0  # guarded-by: _cond
        #: High-water mark of simultaneously reserved pages — the gauge
        #: the concurrency suite audits against ``budget_pages``.
        self.peak_pages = 0.0  # guarded-by: _cond
        self.admitted_total = 0  # guarded-by: _cond
        self.rejected_total = 0  # guarded-by: _cond
        self.queued_total = 0  # guarded-by: _cond
        self.renegotiation_total = 0  # guarded-by: _cond
        #: Cumulative spill accounting reported back by finished statements.
        self.spill_bytes_total = 0  # guarded-by: _cond
        self.spill_pages_total = 0.0  # guarded-by: _cond
        self.spill_files_total = 0  # guarded-by: _cond

    # -------------------------------------------------------------- admission

    def used_pages(self) -> float:
        with self._cond:
            return self._used_locked()

    def _used_locked(self) -> float:
        return sum(r.pages for r in self._running)

    def admit(
        self, requested_pages: float, label: str = "stmt", cancel=None
    ) -> Reservation:
        """Admit a statement, blocking in the bounded queue if needed.

        Raises :class:`AdmissionRejected` when the queue is full or the
        wait times out — *before* any execution work has been done.  A
        ``cancel`` token (:class:`~repro.common.cancel.CancelToken`) makes
        the queue wait interruptible: the wait is sliced so a session
        cancel (client disconnect, ``\\kill``) raises
        :class:`ExecutionCancelled` within ~50ms instead of holding a
        queue slot for the full admission timeout.
        """
        p = self.policy
        ask = min(max(requested_pages, p.min_reservation_pages), p.budget_pages)
        deadline = wall_clock() + p.queue_timeout_seconds
        waited = False
        while True:
            if cancel is not None and cancel.cancelled:
                raise ExecutionCancelled(
                    f"statement cancelled while awaiting admission: "
                    f"{cancel.reason or 'cancelled'}"
                )
            shed_exc: Optional[AdmissionRejected] = None
            with self._cond:
                reservation = self._try_admit_locked(ask, label)
                if reservation is None:
                    remaining = deadline - wall_clock()
                    if self._queue_depth >= p.max_queue_depth or remaining <= 0:
                        self.rejected_total += 1
                        if self.metrics is not None:
                            self.metrics.inc("governor.rejected")
                        if self.tracer is not None:
                            self.tracer.event(
                                "governor.shed",
                                label=label,
                                requested_pages=ask,
                                budget_pages=p.budget_pages,
                                queue_depth=self._queue_depth,
                            )
                        reason = (
                            "admission queue full"
                            if remaining > 0
                            else "admission wait timed out"
                        )
                        shed_exc = AdmissionRejected(
                            f"memory governor shed statement {label!r}: {reason} "
                            f"(requested={ask:.1f} pages, budget={p.budget_pages:.1f} pages, "
                            f"queue_depth={self._queue_depth})",
                            requested_pages=ask,
                            budget_pages=p.budget_pages,
                            queue_depth=self._queue_depth,
                        )
                    else:
                        if not waited:
                            waited = True
                            self.queued_total += 1
                            if self.metrics is not None:
                                self.metrics.inc("governor.queued")
                        self._queue_depth += 1
                        self._publish_gauges_locked()
                        # Sliced wait when a cancel token is present: wake
                        # periodically to re-check it at the loop top.
                        wait_for = (
                            remaining if cancel is None else min(remaining, 0.05)
                        )
                        try:
                            self._cond.wait(timeout=wait_for)
                        finally:
                            self._queue_depth -= 1
            if reservation is not None:
                if waited and self.metrics is not None:
                    self.metrics.inc("governor.queue_exits")
                return reservation
            if shed_exc is not None:
                raise shed_exc

    def _try_admit_locked(self, ask: float, label: str) -> Optional[Reservation]:
        """Fit ``ask`` pages, reclaiming from running statements if needed."""
        available = self.policy.budget_pages - self._used_locked()
        if available < ask:
            self._reclaim_locked(ask - available)
            available = self.policy.budget_pages - self._used_locked()
        if available < ask:
            return None
        self._seq += 1
        reservation = Reservation(self, self._seq, ask, label)
        self._running.append(reservation)
        self.admitted_total += 1
        used = self._used_locked()
        self.peak_pages = max(self.peak_pages, used)
        if self.metrics is not None:
            self.metrics.inc("governor.admitted")
            self.metrics.set_gauge("governor.peak_pages", self.peak_pages)
        self._publish_gauges_locked()
        if self.tracer is not None:
            self.tracer.event(
                "governor.admit", label=label, pages=ask, used_pages=used
            )
        return reservation

    # ---------------------------------------------------------- renegotiation

    def _reclaim_locked(self, needed: float) -> float:
        """Shrink running reservations toward the floor to free ``needed``
        pages (mid-query renegotiation).  Returns the pages freed."""
        floor = self.policy.min_reservation_pages
        freed = 0.0
        # Largest reservations first: fewest statements disturbed.
        for reservation in sorted(self._running, key=lambda r: -r.pages):
            if freed >= needed:
                break
            give = min(reservation.pages - floor, needed - freed)
            if give <= 0:
                continue
            reservation._shrink_locked(reservation.pages - give)
            freed += give
            self.renegotiation_total += 1
            if self.metrics is not None:
                self.metrics.inc("governor.renegotiations")
            if self.tracer is not None:
                self.tracer.event(
                    "governor.renegotiate",
                    label=reservation.label,
                    new_pages=reservation.pages,
                    freed=give,
                )
        return freed

    def _renegotiate(self, reservation: Reservation, new_pages: float) -> float:
        """Shrink one reservation to ``new_pages`` (floored); wake waiters."""
        with self._cond:
            target = max(self.policy.min_reservation_pages, new_pages)
            freed = reservation.pages - target
            if freed <= 0:
                return 0.0
            reservation._shrink_locked(target)
            self.renegotiation_total += 1
            if self.metrics is not None:
                self.metrics.inc("governor.renegotiations")
            self._publish_gauges_locked()
            self._cond.notify_all()
        return freed

    # ---------------------------------------------------------------- release

    def release(self, reservation: Reservation) -> None:
        with self._cond:
            if reservation.released:
                return
            reservation.released = True
            self._running.remove(reservation)
            self._publish_gauges_locked()
            if self.tracer is not None:
                self.tracer.event(
                    "governor.release",
                    label=reservation.label,
                    pages=reservation.pages,
                )
            self._cond.notify_all()

    def record_spill(self, report) -> None:
        """Fold one finished statement's spill accounting (its
        :class:`~repro.core.driver.PopReport`) into the totals surfaced by
        the ``\\memory`` CLI command."""
        with self._cond:
            self.spill_files_total += report.spill_files
            self.spill_bytes_total += report.spill_bytes
            self.spill_pages_total += report.spill_pages

    # ------------------------------------------------------------- reporting

    def _publish_gauges_locked(self) -> None:
        if self.metrics is not None:
            self.metrics.set_gauge("governor.used_pages", self._used_locked())
            self.metrics.set_gauge("governor.queue_depth", self._queue_depth)

    def snapshot(self) -> dict:
        """Point-in-time view for the CLI and tests."""
        with self._cond:
            return {
                "budget_pages": self.policy.budget_pages,
                "used_pages": self._used_locked(),
                "peak_pages": self.peak_pages,
                "queue_depth": self._queue_depth,
                "reservations": [
                    {
                        "label": r.label,
                        "pages": r.pages,
                        "initial_pages": r.initial_pages,
                        "renegotiations": r.renegotiations,
                    }
                    for r in self._running
                ],
                "admitted_total": self.admitted_total,
                "rejected_total": self.rejected_total,
                "queued_total": self.queued_total,
                "renegotiation_total": self.renegotiation_total,
                "spill_files_total": self.spill_files_total,
                "spill_bytes_total": self.spill_bytes_total,
                "spill_pages_total": self.spill_pages_total,
            }
