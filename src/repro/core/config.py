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


@dataclass
class ResiliencePolicy:
    """The statement's wall-clock deadline (``PopConfig.resilience``).

    Set once per statement, when its first attempt starts executing (after
    admission), and shared by every re-optimized round; exceeding it
    raises :class:`~repro.common.errors.ExecutionTimeout`.  The server
    runs every statement under one.
    """

    #: Per-*statement* wall-clock deadline in seconds; ``None`` disables
    #: it.  The work-unit clock cannot see real time lost to a stalled
    #: operator (a blocked socket, a slow disk), so the wall deadline is
    #: the server's tail-latency backstop.
    deadline_seconds: Optional[float] = None
    #: Only ``False`` is accepted: the safe-plan fallback was removed, so
    #: an over-deadline statement always raises.
    fallback_enabled: bool = False

    def __post_init__(self) -> None:
        if self.fallback_enabled:
            raise ValueError(
                "fallback_enabled must be False: the safe-plan fallback was "
                "removed, a failed attempt raises its classified error"
            )


@dataclass
class MemoryPolicy:
    """Memory-governor policy (:mod:`repro.governor`).

    Activated by :meth:`repro.core.database.Database.enable_memory_governor`.
    When absent (the default) every operator gets its full modeled grant.
    With a policy in place each statement's grants are capped at its
    reservation, and operators whose footprint exceeds their grant
    *spill* to disk (external-merge sort, Grace-partitioned hash join,
    file-backed TEMP).
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
    #: The statement's wall-clock deadline; ``None`` (the default) runs
    #: without one.
    resilience: Optional[ResiliencePolicy] = None
    #: Rows per executor batch (>= 1; docs/vectorized.md).  Rows do not
    #: depend on it, and neither do CHECK decisions, re-opt counts and
    #: meter totals up to the first ECDC signal (which rows an ECDC CHECK
    #: lets out before it fires does, and the next plan anti-joins them);
    #: it sets how much work passes between two cancellation/deadline polls.
    #: Defaults from the ``REPRO_BATCH_SIZE`` environment variable, else
    #: :data:`DEFAULT_BATCH_SIZE`.
    batch_size: int = field(default_factory=_default_batch_size)

    def __post_init__(self) -> None:
        if self.reuse_policy not in ("cost", "never", "always"):
            raise ValueError(f"unknown reuse policy {self.reuse_policy!r}")
        check_batch_size(self.batch_size)
        self.flavors = frozenset(self.flavors)

    def checks_key(self) -> str:
        """The part of the plan-cache key that decides CHECK placement.

        A cached plan carries the CHECKs its statement placed, so a
        statement may only reuse plans placed under the same rules:
        ``none`` when it places no CHECKs at all (POP off, or a cap of
        zero makes the first round the last), else the placement options.
        """
        if not self.enabled or self.max_reoptimizations < 1:
            return "none"
        return (
            f"flavors={','.join(sorted(self.flavors))} "
            f"min_cost={self.min_cost_for_checkpoints!r} "
            f"alternatives={self.require_alternatives} "
            f"hash_build={self.lc_above_hash_build}"
        )


#: A disabled-POP configuration (the paper's "without POP" baseline).
NO_POP = PopConfig(enabled=False)
