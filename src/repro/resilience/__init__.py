"""Fault injection, execution guards, and safe-plan fallback for POP.

Deterministic chaos engineering for the prototype: seeded fault schedules
(:class:`FaultPlan`), an injector that perturbs executor runtime and planning
statistics (:class:`FaultInjector`), and the execution guard that keeps the
POP loop live under those perturbations — a fixed retry budget with
backoff, work-unit and wall-clock deadlines, and a conservative safe-plan
fallback (:class:`ExecutionGuard`, configured by :class:`ResiliencePolicy`).
Re-optimization ends by the paper's §7 cap alone
(``PopConfig.max_reoptimizations``).

Its chaos scenarios (``faults``, ``stampede``, ``memory``) are exported here
for the one chaos command, ``python -m repro.chaos``.
"""

from repro.core.config import ResiliencePolicy
from repro.resilience.chaos import fault_campaign, run_memory, run_stampede
from repro.resilience.faults import (
    ALL_KINDS,
    EXEC_KINDS,
    ITERATOR,
    MEM_SHRINK,
    STALL,
    STATS,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    FiredFault,
)
from repro.resilience.guard import FALLBACK, RAISE, RETRY, ExecutionGuard

__all__ = [
    "ALL_KINDS",
    "EXEC_KINDS",
    "ITERATOR",
    "STALL",
    "MEM_SHRINK",
    "STATS",
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
    "FiredFault",
    "ExecutionGuard",
    "ResiliencePolicy",
    "RETRY",
    "FALLBACK",
    "RAISE",
    "fault_campaign",
    "run_stampede",
    "run_memory",
]
