"""Execution guard: retry/backoff, deadlines, and safe-plan fallback.

The guard sits inside :meth:`repro.core.driver.PopDriver.run` and makes the
POP loop survive the faults :mod:`repro.resilience.faults` (or a hostile
environment) throws at it:

* **classification** — every :class:`~repro.common.errors.ReproError`
  escaping an attempt is classified via
  :func:`~repro.common.errors.failure_class`;
* **retry with backoff** — transient/resource failures are retried up to
  :data:`MAX_RETRIES` times; retry ``k`` first charges
  :func:`backoff_units` ``(k)`` to the
  :class:`~repro.executor.meter.WorkMeter` (category ``"backoff"``) so
  waiting costs work units, same as everything else in the deterministic
  clock;
* **deadlines** — each attempt gets a work-unit deadline
  (``policy.deadline_units``), and the whole statement gets a wall-clock
  deadline (``policy.deadline_seconds``, shared across retries so backoff
  cannot extend it); blowing either raises
  :class:`~repro.common.errors.ExecutionTimeout`, which routes to fallback;
* **safe-plan fallback** — once retries are exhausted or a deadline
  blows, the driver runs one conservative POP-disabled plan (robust join
  flavors only, no CHECKs, no fault injection, no deadline) that is
  guaranteed to complete.

Re-optimization itself is not the guard's business: the paper's §7 cap
(``PopConfig.max_reoptimizations``, the last round CHECK-free) is the one
rule that ends it.  A guarded statement therefore runs at most
``2 + max_reoptimizations + MAX_RETRIES`` attempts: the first plan, each
re-optimized round, each retry and the safe plan.

Every decision is emitted through :mod:`repro.obs` (events ``guard.retry``,
``guard.fallback``; counters ``resilience.*``).
"""

from __future__ import annotations

from typing import Optional

from repro.common.errors import RESOURCE, TIMEOUT, TRANSIENT, failure_class
from repro.core.config import ResiliencePolicy
from repro.obs import wall_clock

#: Guard decisions returned by :meth:`ExecutionGuard.on_failure`.
RETRY = "retry"
FALLBACK = "fallback"
RAISE = "raise"

#: Failure classes the guard will retry.
_RETRYABLE = (TRANSIENT, RESOURCE)

#: Transient/resource failures retried per statement before the fallback.
MAX_RETRIES = 2


def backoff_units(retry_index: int) -> float:
    """Backoff charged before retry number ``retry_index`` (0-based):
    50 work units, doubling per retry, capped at 800."""
    return min(800.0, 50.0 * 2.0**retry_index)


class ExecutionGuard:
    """Per-statement guard state for one :meth:`PopDriver.run` call."""

    def __init__(
        self,
        policy: Optional[ResiliencePolicy] = None,
        meter=None,
        tracer=None,
        metrics=None,
        injector=None,
    ):
        self.policy = policy if policy is not None else ResiliencePolicy()
        self.meter = meter
        self.tracer = tracer
        self.metrics = metrics
        self.retries = 0
        self.backoff_units_charged = 0.0
        self.fallback_reason: Optional[str] = None
        #: The statement's :class:`~repro.resilience.faults.FaultInjector`,
        #: disarmed when the statement falls back.
        self._injector = injector
        self._wall_deadline: Optional[float] = None

    # ------------------------------------------------------------- deadlines

    def deadline_for_attempt(self, meter) -> Optional[float]:
        """Absolute work-unit deadline for the next attempt, or None — and
        None for the safe plan, which must be guaranteed to complete."""
        if self.policy.deadline_units is None or self.fallback_reason is not None:
            return None
        return meter.snapshot() + self.policy.deadline_units

    def wall_deadline_for_statement(self) -> Optional[float]:
        """Absolute wall-clock deadline for this statement, or None.

        Computed once, on the first attempt, and returned unchanged for
        every retry: the wall deadline bounds the statement's *total*
        latency (the quantity a server client experiences), so backoff
        and re-optimization rounds spend it rather than reset it.  The
        safe-plan fallback gets None — fallback must be guaranteed to
        complete (see :meth:`request_fallback`).
        """
        if self.policy.deadline_seconds is None or self.fallback_reason is not None:
            return None
        if self._wall_deadline is None:
            self._wall_deadline = wall_clock() + self.policy.deadline_seconds
        return self._wall_deadline

    # ---------------------------------------------------------------- failure

    def on_failure(self, exc: BaseException) -> str:
        """Classify ``exc`` and decide: RETRY, FALLBACK, or RAISE.

        A RETRY decision has already charged its backoff to the meter by
        the time this returns, so retry cost is visible in the work-unit
        accounting (category ``"backoff"``).  Once the fallback was
        requested the answer is RAISE, and nothing is counted: a failing
        safe plan has nothing left to fall back to.
        """
        if self.fallback_reason is not None:
            return RAISE
        cls = failure_class(exc)
        if cls == TIMEOUT:
            if self.metrics is not None:
                self.metrics.inc("resilience.timeouts")
            return self._fallback_or_raise(f"deadline exceeded: {exc}")
        if cls in _RETRYABLE:
            if self.retries < MAX_RETRIES:
                backoff = backoff_units(self.retries)
                self.retries += 1
                self.backoff_units_charged += backoff
                if self.meter is not None:
                    self.meter.charge(backoff, "backoff")
                if self.tracer is not None:
                    # Memory failures carry their structured facts into the
                    # classification event, so a starved grant is diagnosable
                    # from trace output alone (category, requested pages,
                    # effective grant).
                    self.tracer.event(
                        "guard.retry",
                        retry=self.retries,
                        failure_class=cls,
                        backoff_units=backoff,
                        error=str(exc),
                        category=getattr(exc, "category", None),
                        requested_pages=getattr(exc, "requested_pages", None),
                        granted_pages=getattr(exc, "granted_pages", None),
                    )
                if self.metrics is not None:
                    self.metrics.inc("resilience.retries", failure_class=cls)
                return RETRY
            return self._fallback_or_raise(
                f"retries exhausted after {self.retries}: {exc}"
            )
        # user / fatal: not the guard's problem.
        return RAISE

    def _fallback_or_raise(self, why: str) -> str:
        if not self.policy.fallback_enabled:
            return RAISE
        self.request_fallback(why)
        return FALLBACK

    def request_fallback(self, why: str) -> None:
        """Record that the statement is falling back to the safe plan."""
        self.fallback_reason = why
        if self._injector is not None:
            # The fallback must be guaranteed to complete: no more faults.
            self._injector.disarm()
        if self.tracer is not None:
            self.tracer.event("guard.fallback", reason=why)
        if self.metrics is not None:
            self.metrics.inc("resilience.fallbacks")
