"""The repo-wide lock-order policy.

This module is the **single declaration** of the concurrency contract the
multi-session roadmap items (server sessions, exchange parallelism) will
lean on.  The static concurrency analyzer
(:mod:`repro.analysis.concurrency`) loads :data:`LOCK_ORDER` instead of
hard-coding module names, and reports any acquisition edge that
contradicts it.

Lock-order policy
-----------------

Locks must be acquired in ascending **rank** order; a thread holding a
lock may only acquire locks of strictly greater rank:

====  ===================  ================================  ==========
rank  lock                 owner                             kind
====  ===================  ================================  ==========
0     ``server.sessions``  ``SessionRegistry._lock``         lock
1     ``txn.epoch``        ``TransactionManager._epoch_lock``  lock
2     ``governor``         ``MemoryGovernor._cond``          condition
3     ``cache``            ``PlanCache._lock``               rlock
4     ``obs.metrics``      ``MetricsRegistry._lock``         lock
5     ``obs.trace``        ``Tracer._lock``                  lock
6     ``spill``            ``SpillManager._lock``            lock
====  ===================  ================================  ==========

Rationale: the server's session registry sits at the outermost layer —
a registry sweep (idle reaper, drain, ``\\kill``) inspects sessions and
may touch per-session resources whose teardown reaches the governor, so
it must rank before everything the engine acquires; the transaction
manager's epoch lock sits just inside the session layer (a session
teardown may roll back its transaction) and outside the engine — commit
holds it across conflict validation, the WAL append+fsync, and the
atomic install, but never while acquiring an engine lock: governor
admission for WAL/checkpoint buffers happens *before* the epoch lock is
taken (``Condition.wait`` under it would be a wait-while-holding
violation), and plan-cache invalidation plus obs publication happen
*after* it is released; the governor publishes gauges and trace events
while holding its condition (admission must be atomic with its
observability), so the obs locks rank *after* it; the plan cache may
someday record metrics under its lock, so it also ranks before obs;
spill bookkeeping is a leaf — it must never call back into obs or the
governor while locked (the analyzer enforces this: ``SpillManager``
takes its metrics/meter charges *outside* its lock).

Three further disciplines ride on the same declaration (the analyzer
checks the first two):

* **guarded state** — mutable attributes of the shared classes carry a
  ``# guarded-by: <lock-attr>`` comment; the analyzer flags any access
  outside a ``with`` on that lock (or outside a ``*_locked`` helper,
  the documented "caller holds the lock" naming convention);
* **no waits while holding** — ``Condition.wait`` may not be reachable
  while any *other* policy lock is held;
* **no callbacks under locks** — user/operator callbacks are never
  invoked with a policy lock held; collect them under the lock,
  dispatch after release (see ``TransactionManager._notify_invalidation``).
  A tier-1 test holds this one for commit's invalidation callbacks.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "LockSpec",
    "LOCK_ORDER",
    "RECEIVER_HINTS",
]


@dataclass(frozen=True)
class LockSpec:
    """One named lock in the repo-wide acquisition order."""

    #: Policy-level name ("governor", "obs.metrics", ...): the identity
    #: the analyzer's findings name the lock by.
    name: str
    #: Class the lock attribute lives on.
    cls: str
    #: Attribute holding the lock object.
    attr: str
    #: "lock" | "rlock" | "condition" — re-acquisition is legal only for
    #: "rlock"; "condition" is the only kind ``wait`` applies to.
    kind: str
    #: Position in the global acquisition order (lower acquired first).
    rank: int
    #: Module the class is defined in (documentation; matching is by
    #: ``(cls, attr)`` so fixtures and refactors stay robust).
    module: str = ""


#: The declared acquisition order (see the module docstring's table).
LOCK_ORDER: tuple[LockSpec, ...] = (
    LockSpec("server.sessions", "SessionRegistry", "_lock", "lock", 0,
             "server/session.py"),
    LockSpec("txn.epoch", "TransactionManager", "_epoch_lock", "lock", 1,
             "txn/manager.py"),
    LockSpec("governor", "MemoryGovernor", "_cond", "condition", 2,
             "governor/__init__.py"),
    LockSpec("cache", "PlanCache", "_lock", "rlock", 3, "cache/plan_cache.py"),
    LockSpec("obs.metrics", "MetricsRegistry", "_lock", "lock", 4,
             "obs/metrics.py"),
    LockSpec("obs.trace", "Tracer", "_lock", "lock", 5, "obs/trace.py"),
    LockSpec("spill", "SpillManager", "_lock", "lock", 6, "storage/spill.py"),
)

#: Identifier -> class-name hints the analyzer uses to resolve receivers
#: (``self.metrics.inc(...)``, a local ``reservation``) without whole-
#: program type inference.  Keep in sync with the constructor parameter
#: names of the shared classes.
RECEIVER_HINTS: dict[str, str] = {
    "registry": "SessionRegistry",
    "_registry": "SessionRegistry",
    "sessions": "SessionRegistry",
    "txm": "TransactionManager",
    "txn_manager": "TransactionManager",
    "_txn_manager": "TransactionManager",
    "governor": "MemoryGovernor",
    "plan_cache": "PlanCache",
    "cache": "PlanCache",
    "metrics": "MetricsRegistry",
    "tracer": "Tracer",
    "reservation": "Reservation",
    "manager": "SpillManager",
    "_manager": "SpillManager",
    "spill_manager": "SpillManager",
}
