"""Deterministic fault injection for POP.

Seeded fault schedules (:class:`FaultPlan`) and an injector that perturbs a
statement's planning statistics and, when the memory governor admitted it,
its memory reservation mid-execution (:class:`FaultInjector`).  Nothing
here retries or replaces a plan: a failed attempt raises its classified
error, and re-optimization ends by the paper's §7 cap alone
(``PopConfig.max_reoptimizations``).  :class:`ResiliencePolicy` holds the
statement's wall-clock deadline.

Its chaos scenarios (``faults``, ``stampede``, ``memory``) are exported here
for the one chaos command, ``python -m repro.chaos``.
"""

from repro.core.config import ResiliencePolicy
from repro.resilience.chaos import fault_campaign, run_memory, run_stampede
from repro.resilience.faults import (
    ALL_KINDS,
    EXEC_KINDS,
    MEM_SHRINK,
    STATS,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    FiredFault,
)

__all__ = [
    "ALL_KINDS",
    "EXEC_KINDS",
    "MEM_SHRINK",
    "STATS",
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
    "FiredFault",
    "ResiliencePolicy",
    "fault_campaign",
    "run_stampede",
    "run_memory",
]
