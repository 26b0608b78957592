"""POP configuration."""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional

from repro.core.flavors import DEFAULT_FLAVORS


#: Rows per executor batch when neither ``PopConfig.batch_size`` nor
#: ``REPRO_BATCH_SIZE`` says otherwise.
DEFAULT_BATCH_SIZE = 1024


def check_batch_size(value, source: str = "batch_size") -> int:
    """``value`` if it is a usable batch width, else a ``ValueError``
    naming ``source`` and the accepted range."""
    if not isinstance(value, int) or value < 1:
        raise ValueError(
            f"{source} must be an integer >= 1 (rows per next_batch pull), "
            f"got {value!r}"
        )
    return value


def _default_batch_size() -> int:
    """Batch width from the ``REPRO_BATCH_SIZE`` environment variable,
    :data:`DEFAULT_BATCH_SIZE` when it is unset.

    The env route exists so whole harnesses (chaos, server smoke, the
    benchmark) can set the width without threading a parameter through
    every config-construction site.
    """
    raw = os.environ.get("REPRO_BATCH_SIZE", "").strip()
    if not raw:
        return DEFAULT_BATCH_SIZE
    try:
        value = int(raw)
    except ValueError:
        value = raw
    return check_batch_size(value, "REPRO_BATCH_SIZE")


def _default_strict_analysis() -> bool:
    """Strict analysis from the ``REPRO_STRICT_ANALYSIS`` environment
    variable: on for exactly ``1``, ``true``, ``yes`` or ``on`` (any case),
    off for everything else, unset included.  An env route for the same
    reason ``REPRO_BATCH_SIZE`` is one."""
    raw = os.environ.get("REPRO_STRICT_ANALYSIS", "").strip().lower()
    return raw in ("1", "true", "yes", "on")


@dataclass
class ResiliencePolicy:
    """Knobs of the execution guard (:mod:`repro.resilience`).

    Attached to :class:`PopConfig` (``resilience=...``), the guard wraps
    every execution attempt: transient failures are retried with capped
    exponential backoff (charged to the work meter, so retries are visible
    in the same cost currency as everything else), a circuit breaker
    detects re-optimization thrash and runaway attempt counts, and — once
    tripped — the statement completes on a conservative POP-disabled
    safe plan that cannot signal re-optimization.
    """

    #: Transient failures retried per statement before the breaker trips.
    max_retries: int = 2
    #: Backoff charged to the meter before retry ``k`` is
    #: ``min(cap, base * factor**k)`` work units.
    backoff_base_units: float = 50.0
    backoff_factor: float = 2.0
    backoff_cap_units: float = 800.0
    #: Per-attempt work-unit deadline; ``None`` disables the deadline.
    #: Exceeding it raises :class:`~repro.common.errors.ExecutionTimeout`,
    #: which goes straight to the safe-plan fallback (no retry).
    deadline_units: Optional[float] = None
    #: Per-*statement* wall-clock deadline in seconds; ``None`` disables
    #: it.  Complements ``deadline_units``: the work-unit clock cannot see
    #: real time lost to a stalled operator (a blocked socket, a slow
    #: disk), so the wall deadline is the server's tail-latency backstop.
    #: Statement-scoped — retries do not extend it — and, like the
    #: work-unit deadline, never applied to the safe-plan fallback (which
    #: must be guaranteed to complete).  Exceeding it raises
    #: :class:`~repro.common.errors.ExecutionTimeout`.
    deadline_seconds: Optional[float] = None
    #: Breaker: trip when the same join order ends in a re-optimization
    #: signal this many times (thrash), ...
    breaker_same_plan_limit: int = 3
    #: ... or when one statement accumulates this many execution attempts
    #: (optimize+execute rounds, retries included).
    breaker_attempt_limit: int = 8
    #: When the breaker trips (or retries are exhausted), fall back to the
    #: safe plan instead of raising.  Disable to surface the failure.
    fallback_enabled: bool = True

    def backoff_units(self, retry_index: int) -> float:
        """Backoff charge before retry number ``retry_index`` (0-based)."""
        return min(
            self.backoff_cap_units,
            self.backoff_base_units * self.backoff_factor**retry_index,
        )


@dataclass
class MemoryPolicy:
    """Memory-governor policy (:mod:`repro.governor`).

    Activated by :meth:`repro.core.database.Database.enable_memory_governor`.
    When absent (the default) the engine keeps its legacy behavior: every
    operator gets its full modeled grant and a squeeze below the minimum
    raises :class:`~repro.common.errors.ResourceExhausted`.

    With a policy in place the degradation ladder replaces the hard
    failure: operators whose footprint exceeds their grant *spill* to
    disk (external-merge sort, Grace-partitioned hash join, file-backed
    TEMP) before the guard ever considers robust flavors or the safe
    plan.
    """

    #: Shared page budget owned by the governor; all concurrently running
    #: statements' reservations must fit inside it.
    budget_pages: float = 512.0
    #: Floor of any admission reservation: even a statement whose plan
    #: needs less reserves this much (and renegotiation never shrinks a
    #: running reservation below it).
    min_reservation_pages: float = 16.0
    #: Statements allowed to wait for pages when the budget is saturated;
    #: beyond this depth admission sheds with
    #: :class:`~repro.common.errors.AdmissionRejected`.
    max_queue_depth: int = 8
    #: Wall-clock cap on one statement's admission wait.
    queue_timeout_seconds: float = 30.0
    #: Minimum per-operator working grant: a squeezed operator always
    #: keeps this many pages in memory and spills the rest.
    min_grant_pages: float = 8.0
    #: Fan-out of one Grace hash-join partitioning pass.
    spill_partitions: int = 8
    #: Recursive re-partitioning depth cap; a partition still too big at
    #: this depth falls back to block nested-loop within the partition.
    max_recursion_depth: int = 3

    def __post_init__(self) -> None:
        if self.budget_pages <= 0:
            raise ValueError("budget_pages must be positive")
        if self.min_reservation_pages <= 0:
            raise ValueError("min_reservation_pages must be positive")
        if self.min_grant_pages <= 0:
            raise ValueError("min_grant_pages must be positive")
        if self.spill_partitions < 2:
            raise ValueError("spill_partitions must be at least 2")
        if self.max_queue_depth < 0:
            raise ValueError("max_queue_depth must be non-negative")
        if self.max_recursion_depth < 0:
            raise ValueError("max_recursion_depth must be non-negative")
        # Grace partitioning takes one base-``spill_partitions`` digit of a
        # 32-bit key hash per depth (executor/joins.py::_route).
        if self.spill_partitions ** (self.max_recursion_depth + 1) > 2**32:
            raise ValueError(
                "spill_partitions ** (max_recursion_depth + 1) must not "
                "exceed 2**32"
            )


@dataclass
class PopConfig:
    """Controls progressive optimization for one statement.

    The defaults mirror the paper's prototype defaults (§4): only the
    conservative LC and LCEM flavors are placed; eager flavors are opt-in;
    re-optimization is capped at three rounds; checkpoints are skipped for
    cheap queries and for edges with no plan alternative.
    """

    enabled: bool = True
    #: Which checkpoint flavors the placement pass may use.
    flavors: frozenset = DEFAULT_FLAVORS
    #: Termination heuristic (§7): at most this many re-optimizations.
    max_reoptimizations: int = 3
    #: Queries with estimated cost below this get no checkpoints (§4).
    min_cost_for_checkpoints: float = 25.0
    #: Only place a CHECK when its validity range was actually narrowed,
    #: i.e. an alternative plan exists above the checkpoint (§4).
    require_alternatives: bool = True
    #: Also place an LC on the build edge of hash joins (Figure 14 counts
    #: these as their own category of re-optimization opportunity).
    lc_above_hash_build: bool = False
    #: Intermediate-result reuse policy: "cost" (paper: optimizer decides),
    #: "never", or "always" (ablation modes).
    reuse_policy: str = "cost"
    #: When set, replaces validity-range check ranges with the ad hoc
    #: interval [est/K, est*K] (the KD98-style threshold the paper argues
    #: against; used by the ablation bench).
    adhoc_threshold_factor: Optional[float] = None
    #: Log checkpoint evaluations without ever triggering (Fig. 14 mode).
    dry_run: bool = False
    #: Checkpoint op_ids that trigger even inside their range (Fig. 12's
    #: "dummy re-optimization"), applied to the first execution attempt.
    force_trigger_op_ids: frozenset = frozenset()
    #: Allow the validity-range-aware plan cache (:mod:`repro.cache`) to
    #: serve this statement, when the database has one enabled.  Ablation
    #: modes that change plan semantics disable caching regardless (see
    #: :func:`repro.cache.cache_usable`).
    plan_cache: bool = True
    #: Strict analysis: run the plan-semantics linter (:mod:`repro.analysis`)
    #: on every plan the driver is about to execute — including re-optimized
    #: plans, where feedback consistency is also audited — and fail the
    #: statement on error-severity findings.  Defaults from the
    #: ``REPRO_STRICT_ANALYSIS`` environment variable, else off.
    strict_analysis: bool = field(default_factory=_default_strict_analysis)
    #: Execution-guard policy (:mod:`repro.resilience`): retry/backoff for
    #: transient failures, work-unit deadline, circuit breaker, safe-plan
    #: fallback.  ``None`` disables the guard entirely (the default — no
    #: behavior change and zero overhead).
    resilience: Optional[ResiliencePolicy] = None
    #: Rows per executor batch (>= 1; docs/vectorized.md).  Rows, CHECK
    #: decisions, re-opt counts, and meter totals do not depend on it —
    #: only how much work passes between two cancellation/deadline polls.
    #: Defaults from the ``REPRO_BATCH_SIZE`` environment variable, else
    #: :data:`DEFAULT_BATCH_SIZE`.
    batch_size: int = field(default_factory=_default_batch_size)

    def __post_init__(self) -> None:
        if self.reuse_policy not in ("cost", "never", "always"):
            raise ValueError(f"unknown reuse policy {self.reuse_policy!r}")
        check_batch_size(self.batch_size)
        self.flavors = frozenset(self.flavors)


#: A disabled-POP configuration (the paper's "without POP" baseline).
NO_POP = PopConfig(enabled=False)
