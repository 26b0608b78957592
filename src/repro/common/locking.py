"""The repo-wide lock-order policy, and the runtime lock-order witness.

This module is the **single declaration** of the concurrency contract the
multi-session roadmap items (server sessions, exchange parallelism) will
lean on.  Everything else derives from here:

* the static concurrency analyzer (:mod:`repro.analysis.concurrency`)
  loads :data:`LOCK_ORDER` instead of hard-coding module names, and
  reports any acquisition edge that contradicts it;
* the shared classes construct their locks through :func:`maybe_witness`,
  so the opt-in runtime witness (``REPRO_LOCK_WITNESS=1``) can record the
  acquisition orders that *actually* happen under the chaos scenarios and
  cross-check them against the static lock graph.

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
  The runtime witness holds this one: a callback under a lock shows as
  an acquisition edge the static graph does not have.

A finding can be waived on its line with ``# concurrency-ok: <reason>``;
the reason is mandatory and CI reviewers treat waivers as diffs to argue
about.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from typing import Optional

__all__ = [
    "LockSpec",
    "LOCK_ORDER",
    "RECEIVER_HINTS",
    "WAIVER_TOKEN",
    "lock_rank",
    "LockOrderWitness",
    "maybe_witness",
    "enable_witness",
    "disable_witness",
    "active_witness",
    "witness_env_requested",
]

#: Environment flag that arms the witness for a whole process (the chaos
#: CI jobs set it; unit tests use :func:`enable_witness` directly).
WITNESS_ENV = "REPRO_LOCK_WITNESS"

#: Line-comment token that waives a concurrency finding (reason required).
WAIVER_TOKEN = "# concurrency-ok:"


@dataclass(frozen=True)
class LockSpec:
    """One named lock in the repo-wide acquisition order."""

    #: Policy-level name ("governor", "obs.metrics", ...): the identity
    #: both the static lock graph and the runtime witness key edges on.
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


def lock_rank(name: str) -> int:
    """Rank of a policy lock by name (raises KeyError for unknown names)."""
    for spec in LOCK_ORDER:
        if spec.name == name:
            return spec.rank
    raise KeyError(name)


# ---------------------------------------------------------------- witness


class _HeldStack(threading.local):
    """Per-thread stack of policy-lock names currently held."""

    def __init__(self) -> None:
        self.names: list[str] = []


@dataclass
class WaitViolation:
    """A ``Condition.wait`` observed while other policy locks were held."""

    waiting_on: str
    held: tuple[str, ...] = field(default_factory=tuple)


class LockOrderWitness:
    """Records the lock-acquisition edges that actually happen at runtime.

    Wrap each shared lock with :meth:`wrap` (or construct it through
    :func:`maybe_witness`); whenever a thread acquires lock ``B`` while
    already holding lock ``A``, the ordered edge ``(A, B)`` is recorded.
    Every chaos scenario's teardown audit (``Baseline.audit`` in
    :mod:`repro.common.chaosutil`) cross-checks the recorded edges against
    the static analyzer's lock graph: an observed edge the static graph
    does not contain is a static-analysis false negative, surfaced as a
    failed run instead of staying invisible.
    """

    def __init__(self) -> None:
        self._held = _HeldStack()
        # The witness's own mutex is a leaf: it is never held while a
        # policy lock is acquired, so it is deliberately not in LOCK_ORDER.
        self._mutex = threading.Lock()
        self._edges: set[tuple[str, str]] = set()
        self._waits: list[WaitViolation] = []

    # ------------------------------------------------------------- record

    def _record_acquire(self, name: str) -> None:
        held = self._held.names
        new_edges = [(h, name) for h in held if h != name]
        with self._mutex:
            self._edges.update(new_edges)
        held.append(name)

    def _record_release(self, name: str) -> None:
        held = self._held.names
        for i in range(len(held) - 1, -1, -1):
            if held[i] == name:
                del held[i]
                break

    def _record_wait(self, name: str) -> None:
        others = tuple(h for h in self._held.names if h != name)
        if others:
            with self._mutex:
                self._waits.append(WaitViolation(name, others))

    # ------------------------------------------------------------ surface

    def edges(self) -> set[tuple[str, str]]:
        """All observed ``(held, acquired)`` pairs, deduplicated."""
        with self._mutex:
            return set(self._edges)

    def wait_violations(self) -> list[WaitViolation]:
        with self._mutex:
            return list(self._waits)

    def wrap(self, lock, name: str):
        """A witnessing proxy around ``lock`` reporting under ``name``."""
        return _WitnessedLock(lock, name, self)


class _WitnessedLock:
    """Context-manager/Condition proxy that reports to a witness.

    Delegates everything to the wrapped lock; only the bookkeeping is
    added.  Supports the surface the repro classes use: ``with``,
    ``acquire``/``release``, and (for conditions) ``wait`` /
    ``notify`` / ``notify_all``.
    """

    def __init__(self, lock, name: str, witness: LockOrderWitness):
        self._lock = lock
        self._name = name
        self._witness = witness

    def __enter__(self):
        result = self._lock.__enter__()
        self._witness._record_acquire(self._name)
        return result

    def __exit__(self, exc_type, exc, tb):
        self._witness._record_release(self._name)
        return self._lock.__exit__(exc_type, exc, tb)

    def acquire(self, *args, **kwargs):
        acquired = self._lock.acquire(*args, **kwargs)
        if acquired:
            self._witness._record_acquire(self._name)
        return acquired

    def release(self):
        self._witness._record_release(self._name)
        return self._lock.release()

    def wait(self, timeout: Optional[float] = None):
        self._witness._record_wait(self._name)
        return self._lock.wait(timeout)

    def wait_for(self, predicate, timeout: Optional[float] = None):
        self._witness._record_wait(self._name)
        return self._lock.wait_for(predicate, timeout)

    def notify(self, n: int = 1):
        return self._lock.notify(n)

    def notify_all(self):
        return self._lock.notify_all()


_active: Optional[LockOrderWitness] = None


def witness_env_requested() -> bool:
    return os.environ.get(WITNESS_ENV, "").strip() not in ("", "0")


def enable_witness() -> LockOrderWitness:
    """Arm (or return the already-armed) process-global witness."""
    global _active
    if _active is None:
        _active = LockOrderWitness()
    return _active


def disable_witness() -> None:
    global _active
    _active = None


def active_witness() -> Optional[LockOrderWitness]:
    """The armed witness, auto-arming when the environment requests it."""
    if _active is None and witness_env_requested():
        enable_witness()
    return _active


def maybe_witness(lock, name: str):
    """Wrap ``lock`` for witnessing when a witness is armed.

    The shared classes construct their locks through this hook; with no
    witness armed (the default) the lock is returned unchanged, so the
    production path pays nothing.
    """
    witness = active_witness()
    if witness is None:
        return lock
    return witness.wrap(lock, name)
