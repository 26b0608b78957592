"""Per-connection sessions and the registry that owns them.

The session layer is the server's unit of isolation and accounting:

* every connection gets a :class:`Session` with a server-unique id, a
  state machine (``idle -> running -> idle`` per statement, ``closing``
  / ``closed`` on the way out), a per-session plan cache and metrics
  registry (sessions cannot poison each other's cached plans or blur
  each other's counters), and at most **one** in-flight statement;
* the :class:`SessionRegistry` is the single structure every server
  sweep walks — the idle reaper, graceful drain, ``\\kill`` targeting,
  and the ``sessions`` wire op all read it.

Locking
-------

All mutable session state (state machine, activity stamps, the in-flight
cancel token) is guarded by the *registry's* lock — the sweeps need a
consistent view across sessions, so per-session locks would buy nothing
and cost an ordering headache.  That lock is ``server.sessions``, rank 0
in the repo-wide order (:mod:`repro.common.locking`): it is the outermost
layer, and nothing in the engine ever acquires it.  Cancellation honors
that: :meth:`Session.cancel` flips a lock-free
:class:`~repro.common.cancel.CancelToken` under the registry lock —
the token acquires nothing, so no edge toward the engine's locks exists.

The per-session ``send_lock`` (serializing socket writes between the
reader thread's control responses and a worker thread's statement
response) is a deliberate **non-policy leaf**: it is only ever held
around ``socket.sendall`` and nothing is acquired under it, so it stays
out of ``LOCK_ORDER``: it can take no part in a lock-order cycle.
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.common.cancel import CancelToken
from repro.common.errors import ProtocolError, ServerOverloaded

#: Session states.  ``RUNNING`` covers queued *and* executing — the state
#: flips at enqueue time, which is what enforces one statement in flight.
IDLE = "idle"
RUNNING = "running"
CLOSING = "closing"
CLOSED = "closed"


class Session:
    """One connected client: identity, state machine, scoped resources."""

    def __init__(
        self,
        registry: "SessionRegistry",
        session_id: int,
        sock,
        now: float,
        plan_cache=None,
        metrics=None,
    ):
        self.registry = registry
        self.session_id = session_id
        self.sock = sock
        #: Session-scoped plan cache (``None`` = no caching): cached plans
        #: and their validity ranges never leak across sessions.
        self.plan_cache = plan_cache
        #: Session-scoped metrics registry fed to ``Database.execute``.
        self.metrics = metrics
        # Serializes reader-thread control responses with worker-thread
        # statement responses.  Leaf by construction (held only around
        # sendall, acquires nothing) — deliberately not in LOCK_ORDER.
        self.send_lock = threading.Lock()
        self.state = IDLE  # guarded-by: registry._lock
        self.last_activity = now  # guarded-by: registry._lock
        self.cancel_token: Optional[CancelToken] = None  # guarded-by: registry._lock
        self.statements = 0  # guarded-by: registry._lock
        self.cancel_reason: Optional[str] = None  # guarded-by: registry._lock
        #: The session's open transaction (a :class:`repro.txn.Transaction`
        #: handle), ``None`` outside ``begin``..``commit``/``rollback``.
        #: Teardown pops it under the registry lock and rolls it back
        #: outside (abort-on-disconnect).
        self.txn = None  # guarded-by: registry._lock

    # --------------------------------------------------------------- writes

    def send(self, data: bytes) -> bool:
        """Write a frame; ``False`` if the peer is gone (never raises)."""
        try:
            with self.send_lock:
                self.sock.sendall(data)
            return True
        except OSError:
            return False

    # -------------------------------------------------------- state machine

    def touch(self, now: float) -> None:
        """Stamp activity — called on *complete* frames only, so trickled
        bytes (slowloris) never keep a session alive."""
        with self.registry._lock:
            self.last_activity = now

    def begin_statement(self, now: float) -> CancelToken:
        """idle -> running; returns the statement's fresh cancel token.

        Raises :class:`ProtocolError` when a statement is already in
        flight (the protocol is strictly one-at-a-time per session) or
        the session is on its way out.
        """
        with self.registry._lock:
            if self.state == RUNNING:
                raise ProtocolError(
                    "one statement may be in flight per session; await the "
                    "previous response"
                )
            if self.state in (CLOSING, CLOSED):
                raise ProtocolError("session is closing")
            token = CancelToken()
            self.state = RUNNING
            self.cancel_token = token
            self.last_activity = now
            self.statements += 1
        return token

    def end_statement(self, now: float) -> None:
        """running -> idle (no-op when the session is closing)."""
        with self.registry._lock:
            if self.state == RUNNING:
                self.state = IDLE
            self.cancel_token = None
            self.last_activity = now

    def cancel(self, reason: str) -> bool:
        """Cancel the in-flight statement, if any; ``True`` if one was.

        Safe from any thread: the token flip is lock-free, the registry
        lock only makes token/state reads consistent.
        """
        with self.registry._lock:
            token = self.cancel_token
            was_running = self.state == RUNNING
            if token is not None:
                token.cancel(reason)
                self.cancel_reason = reason
        return was_running

    def mark_closing(self) -> None:
        with self.registry._lock:
            if self.state != CLOSED:
                self.state = CLOSING

    # ----------------------------------------------------------- transactions

    def set_txn(self, txn) -> None:
        """Install the session's open transaction (reader thread only).

        Raises :class:`ProtocolError` when one is already open — the wire
        protocol has no nested transactions.
        """
        with self.registry._lock:
            if self.txn is not None:
                raise ProtocolError(
                    "a transaction is already open on this session"
                )
            self.txn = txn

    def take_txn(self):
        """Detach and return the open transaction (``None`` when absent).

        The registry lock covers only the handoff; the caller runs the
        commit/rollback *outside* it (rank 0 must never be held into the
        epoch lock's critical section longer than necessary)."""
        with self.registry._lock:
            txn = self.txn
            self.txn = None
        return txn

    def txn_snapshot(self):
        """The open transaction's pinned snapshot, or ``None``."""
        with self.registry._lock:
            txn = self.txn
        return txn.snapshot if txn is not None else None

    # ------------------------------------------------------------ reporting

    def describe_locked(self) -> dict:
        """Wire-facing summary (caller holds the registry lock)."""
        return {
            "session": self.session_id,
            "state": self.state,
            "statements": self.statements,
            "txn_open": self.txn is not None,
            "idle_seconds": None,  # filled in by the registry sweep
        }


class SessionRegistry:
    """Every live session, under the rank-0 ``server.sessions`` lock."""

    def __init__(self, max_sessions: int):
        self.max_sessions = max_sessions
        # Rank 0 in the repo-wide order: outermost, engine never takes it.
        self._lock = threading.Lock()
        self._sessions: dict[int, Session] = {}  # guarded-by: _lock
        self._next_id = 0  # guarded-by: _lock
        self.accepted_total = 0  # guarded-by: _lock
        self.shed_total = 0  # guarded-by: _lock
        self.peak_sessions = 0  # guarded-by: _lock

    # ------------------------------------------------------------ admission

    def register(self, sock, now: float, plan_cache=None, metrics=None) -> Session:
        """Admit a connection, or shed it with :class:`ServerOverloaded`
        when the session limit is reached (bounded accept, no accept
        queue: refusal is immediate and classified)."""
        with self._lock:
            if len(self._sessions) >= self.max_sessions:
                self.shed_total += 1
                raise ServerOverloaded(
                    f"session limit reached ({self.max_sessions})",
                    queue_depth=len(self._sessions),
                    limit=self.max_sessions,
                )
            self._next_id += 1
            session = Session(
                self, self._next_id, sock, now,
                plan_cache=plan_cache, metrics=metrics,
            )
            self._sessions[session.session_id] = session
            self.accepted_total += 1
            self.peak_sessions = max(self.peak_sessions, len(self._sessions))
        return session

    def remove(self, session: Session) -> None:
        with self._lock:
            session.state = CLOSED
            self._sessions.pop(session.session_id, None)

    # -------------------------------------------------------------- lookups

    def get(self, session_id) -> Optional[Session]:
        with self._lock:
            return self._sessions.get(session_id)

    def sessions(self) -> list[Session]:
        """A stable snapshot to iterate without holding the lock."""
        with self._lock:
            return list(self._sessions.values())

    def count(self) -> int:
        with self._lock:
            return len(self._sessions)

    def running_count(self) -> int:
        """Sessions with a statement in flight (queued or executing)."""
        with self._lock:
            return sum(1 for s in self._sessions.values() if s.state == RUNNING)

    def idle_victims(self, now: float, idle_timeout: float) -> list[Session]:
        """Sessions idle past the timeout (running sessions are bounded by
        the statement deadline instead, so the reaper skips them)."""
        with self._lock:
            return [
                s
                for s in self._sessions.values()
                if s.state == IDLE and now - s.last_activity > idle_timeout
            ]

    # ---------------------------------------------------------------- sweeps

    def cancel_all(self, reason: str) -> int:
        """Cancel every in-flight statement (drain expiry, hard stop)."""
        cancelled = 0
        for session in self.sessions():
            if session.cancel(reason):
                cancelled += 1
        return cancelled

    def snapshot(self, now: Optional[float] = None) -> dict:
        with self._lock:
            rows = []
            for s in self._sessions.values():
                entry = s.describe_locked()
                if now is not None:
                    entry["idle_seconds"] = round(now - s.last_activity, 3)
                rows.append(entry)
            return {
                "live": len(self._sessions),
                "max_sessions": self.max_sessions,
                "peak_sessions": self.peak_sessions,
                "accepted_total": self.accepted_total,
                "shed_total": self.shed_total,
                "sessions": rows,
            }
