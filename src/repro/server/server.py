"""The multi-session server runtime (the tentpole of the server layer).

:class:`ReproServer` wraps one :class:`~repro.core.database.Database` in a
thread-pool socket server speaking the line-delimited JSON protocol of
:mod:`repro.server.protocol`.  The robustness story, end to end:

* **Session layer** — every connection becomes a
  :class:`~repro.server.session.Session` with its own id, plan cache, and
  metrics registry; at most one statement in flight per session.
* **Cooperative cancellation** — each statement runs under a fresh
  :class:`~repro.common.cancel.CancelToken` threaded through
  ``Database.execute`` into the executor's CHECK points, emit sites, and
  blocking-phase loops.  A client disconnect (reader sees EOF) or a
  ``kill`` op from another session flips the token; the statement unwinds
  with :class:`~repro.common.errors.ExecutionCancelled`, releasing every
  spill file and governor reservation on the way out.
* **Deadlines** — each statement runs under a wall-clock deadline
  (``ResiliencePolicy.deadline_seconds``): an over-deadline statement is
  shed with a classified ``timeout``; per-session idle timeouts are
  enforced by a reaper thread.  Activity is stamped on *complete* frames only, so slowloris
  trickle connections are reaped as idle.
* **Overload shedding** — two bounded admission points, both shedding
  with a classified :class:`~repro.common.errors.ServerOverloaded`:
  the session limit (refusal at accept) and the statement queue
  (refusal at enqueue).  Nothing waits unboundedly.
* **Graceful drain** — :meth:`shutdown` stops accepting, lets in-flight
  statements finish within the drain budget, cancels the stragglers,
  and joins every thread it spawned.
* **Session transactions** — when the database has :mod:`repro.txn`
  enabled, ``begin`` / ``commit`` / ``rollback`` ops manage one open
  transaction per session (inline on the reader thread, like the other
  control ops); statements inside it read at its pinned snapshot, and
  every teardown path rolls an open transaction back
  (abort-on-disconnect), so a dead client's staged writes never land.

Threads: one acceptor, one reader per connection, ``workers`` statement
workers, one reaper.  All are joined by :meth:`shutdown`; the chaos
harness audits the process thread count back to its baseline.
"""

from __future__ import annotations

import queue
import socket
import threading
from dataclasses import dataclass
from typing import Optional

from repro.cache import PlanCache, PlanCacheConfig
from repro.common.errors import (
    CANCELLED,
    ExecutionCancelled,
    ExecutionTimeout,
    ProtocolError,
    ReproError,
    ServerOverloaded,
    failure_class,
)
from repro.core.config import PopConfig, ResiliencePolicy
from repro.obs import MetricsRegistry, wall_clock
from repro.server.protocol import (
    FrameReader,
    encode_frame,
    error_response,
    ok_response,
    validate_request,
)
from repro.server.session import Session, SessionRegistry


def _close_socket(sock) -> None:
    """Shutdown+close, waking any thread blocked in ``recv`` (idempotent)."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass


#: Statement shapes held by each session's own validity-range-aware plan
#: cache.
SESSION_PLAN_CACHE_CAPACITY = 16
#: ``listen()`` backlog of the accepting socket.
ACCEPT_BACKLOG = 16


@dataclass
class ServerConfig:
    """Knobs of the server runtime."""

    host: str = "127.0.0.1"
    #: 0 = ephemeral; :meth:`ReproServer.start` returns the bound address.
    port: int = 0
    #: Hard session cap; connections beyond it are refused with a
    #: classified ``overloaded`` frame (bounded accept).
    max_sessions: int = 8
    #: Statement worker threads (shared across sessions).
    workers: int = 4
    #: Bounded statement queue; a full queue sheds with ``overloaded``.
    max_pending_statements: int = 16
    #: Per-statement wall-clock deadline (``None`` disables); expiry
    #: surfaces as a classified ``timeout``.
    statement_timeout_seconds: Optional[float] = 30.0
    #: Idle sessions (no complete frame) past this are reaped.
    idle_timeout_seconds: float = 60.0
    #: Reaper tick.
    reap_interval_seconds: float = 0.05
    #: How long :meth:`ReproServer.shutdown` waits for in-flight
    #: statements before cancelling them.
    drain_timeout_seconds: float = 5.0


class ReproServer:
    """Thread-pool socket server around one database (see module doc)."""

    def __init__(
        self,
        db,
        config: Optional[ServerConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.db = db
        self.config = config if config is not None else ServerConfig()
        #: Server-wide counters (``server.*``); per-session engine metrics
        #: live on each session instead.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.registry = SessionRegistry(self.config.max_sessions)
        self._statements: queue.Queue = queue.Queue(
            maxsize=self.config.max_pending_statements
        )
        self._threads: list[threading.Thread] = []
        self._listener: Optional[socket.socket] = None
        self._stop = threading.Event()
        self._draining = threading.Event()
        self.address: Optional[tuple] = None

    # ------------------------------------------------------------ lifecycle

    def start(self) -> tuple:
        """Bind, spawn the thread pool, and return ``(host, port)``."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.config.host, self.config.port))
        listener.listen(ACCEPT_BACKLOG)
        self._listener = listener
        self.address = listener.getsockname()[:2]
        self._spawn("repro-accept", self._accept_loop)
        for i in range(self.config.workers):
            self._spawn(f"repro-worker-{i}", self._worker_loop)
        self._spawn("repro-reaper", self._reaper_loop)
        return self.address

    def shutdown(self, drain: bool = True) -> None:
        """Stop the server (idempotent).

        With ``drain`` (the default, and what the SIGTERM path uses):
        stop accepting and enqueueing, wait up to
        ``drain_timeout_seconds`` for in-flight statements to finish and
        answer, then cancel whatever is left, close every session, and
        join all threads.  ``drain=False`` skips straight to cancel.
        """
        listener = self._listener
        if listener is None:
            return
        self._draining.set()
        _close_socket(listener)  # wakes the acceptor
        if drain:
            pause = threading.Event()
            deadline = wall_clock() + self.config.drain_timeout_seconds
            while (
                self.registry.running_count()
                or self._statements.unfinished_tasks
            ) and wall_clock() < deadline:
                pause.wait(0.02)
        cancelled = self.registry.cancel_all("server shutdown")
        if cancelled:
            self.metrics.inc("server.shutdown_cancelled", cancelled)
        self._stop.set()
        for session in self.registry.sessions():
            _close_socket(session.sock)
        for thread in self._threads:
            thread.join(timeout=10.0)
        self._listener = None

    def _spawn(self, name: str, target, *args) -> None:
        thread = threading.Thread(target=target, args=args, name=name)
        self._threads.append(thread)
        thread.start()

    # ------------------------------------------------------------ acceptor

    def _accept_loop(self) -> None:
        listener = self._listener
        while not self._stop.is_set():
            try:
                sock, _addr = listener.accept()
            except OSError:
                break  # listener closed by shutdown
            self._admit_connection(sock)

    def _admit_connection(self, sock) -> None:
        if self._draining.is_set():
            self._refuse(sock, ServerOverloaded("server is draining"))
            return
        plan_cache = PlanCache(
            PlanCacheConfig(capacity=SESSION_PLAN_CACHE_CAPACITY)
        )
        try:
            session = self.registry.register(
                sock,
                wall_clock(),
                plan_cache=plan_cache,
                metrics=MetricsRegistry(),
            )
        except ServerOverloaded as exc:
            self.metrics.inc("server.shed", kind="session")
            self._refuse(sock, exc)
            return
        if self.db.txn_manager is not None:
            # Commit-coalesced invalidation for the per-session cache;
            # deregistered by the teardown funnel.
            self.db.txn_manager.add_invalidation_callback(
                plan_cache.invalidate_tables
            )
        self.metrics.inc("server.sessions_accepted")
        session.send(
            encode_frame(
                ok_response({"server": "repro", "session": session.session_id})
            )
        )
        self._spawn(
            f"repro-session-{session.session_id}", self._reader_loop, session
        )

    @staticmethod
    def _refuse(sock, exc: BaseException) -> None:
        try:
            sock.sendall(encode_frame(error_response(exc)))
        except OSError:
            pass
        _close_socket(sock)

    # -------------------------------------------------------------- readers

    def _reader_loop(self, session: Session) -> None:
        """Per-connection thread: frames in, dispatch, teardown.

        Teardown is the cancellation point the tentpole hinges on: any
        exit — clean EOF, abrupt disconnect, protocol violation, reaper
        closing the socket — cancels the session's in-flight statement,
        so a mid-query disconnect unwinds the executor and releases its
        spill files and reservation.
        """
        reader = FrameReader(session.sock)
        reason = "client disconnected"
        try:
            while not self._stop.is_set():
                try:
                    request = reader.read_frame()
                except ProtocolError as exc:
                    # Framing is corrupt: classify, answer, hang up.
                    self.metrics.inc("server.protocol_errors")
                    session.send(encode_frame(error_response(exc)))
                    reason = "protocol error"
                    break
                except OSError:
                    break  # socket torn down (reaper, shutdown, peer reset)
                if request is None:
                    break  # clean EOF
                session.touch(wall_clock())
                if not self._dispatch(session, request):
                    reason = "session closed"
                    break
        finally:
            session.mark_closing()
            session.cancel(reason)
            self._abort_session_txn(session)
            self.registry.remove(session)
            _close_socket(session.sock)
            self.metrics.inc("server.sessions_closed")

    def _abort_session_txn(self, session: Session) -> None:
        """Teardown-funnel step: roll back the session's open transaction.

        Every exit path funnels through here (clean close, abrupt
        disconnect, protocol violation, reaper, drain), so a disconnected
        client's staged writes are always discarded — and the per-session
        cache's invalidation callback is detached so the manager never
        calls into a dead session."""
        manager = self.db.txn_manager
        if manager is None:
            return
        manager.remove_invalidation_callback(
            session.plan_cache.invalidate_tables
        )
        txn = session.take_txn()
        if txn is None:
            return
        try:
            manager.rollback(txn)
        except ReproError:
            pass  # already finished: commit/rollback raced the teardown
        self.metrics.inc("server.txn_aborted")

    def _dispatch(self, session: Session, request: dict) -> bool:
        """Handle one frame inline (control ops) or enqueue it (execute).

        Returns ``False`` when the session asked to close.  Control ops
        run on the reader thread even while a statement is executing —
        that is what makes ``kill`` and ``stats`` responsive under load.
        """
        try:
            op = validate_request(request)
            if op == "execute":
                self._enqueue_execute(session, request)
            elif op == "ping":
                session.send(encode_frame(ok_response({"pong": True}, request)))
            elif op == "sessions":
                snap = self.registry.snapshot(now=wall_clock())
                session.send(encode_frame(ok_response(snap, request)))
            elif op == "stats":
                session.send(
                    encode_frame(ok_response({"stats": self.stats()}, request))
                )
            elif op == "kill":
                payload = self._kill(session, request)
                session.send(encode_frame(ok_response(payload, request)))
            elif op in ("begin", "commit", "rollback"):
                payload = self._txn_op(session, op)
                session.send(encode_frame(ok_response(payload, request)))
            elif op == "close":
                session.send(
                    encode_frame(ok_response({"closed": True}, request))
                )
                return False
        except ServerOverloaded as exc:
            self.metrics.inc("server.shed", kind="statement")
            session.send(encode_frame(error_response(exc, request)))
        except ProtocolError as exc:
            # Semantic problem with a well-framed request: answer and
            # keep the connection (unlike framing corruption).
            session.send(encode_frame(error_response(exc, request)))
        except ReproError as exc:
            # Classified engine errors from inline ops (e.g. a commit's
            # TransactionConflict -> ``conflict``): answer, keep the
            # connection — the client owns the retry.
            self.metrics.inc(
                "server.statement_errors", **{"class": failure_class(exc)}
            )
            session.send(encode_frame(error_response(exc, request)))
        return True

    def _txn_op(self, session: Session, op: str) -> dict:
        """Session transaction lifecycle, inline on the reader thread.

        ``begin`` pins a snapshot every later statement of the session
        reads at; ``commit`` / ``rollback`` detach the handle first and
        finish it outside the registry lock.  A commit-time
        :class:`~repro.common.errors.TransactionConflict` propagates to
        the dispatcher's classified-error path (``error_class:
        "conflict"``) with the transaction already aborted.
        """
        manager = self.db.txn_manager
        if manager is None:
            raise ProtocolError("transactions are not enabled on this server")
        if op == "begin":
            txn = manager.begin()
            try:
                session.set_txn(txn)
            except ProtocolError:
                manager.rollback(txn)
                raise
            self.metrics.inc("server.txn_begins")
            return {"txn": txn.txn_id, "epoch": txn.begin_epoch}
        txn = session.take_txn()
        if txn is None:
            raise ProtocolError(f"no open transaction to {op}")
        if op == "commit":
            epoch = manager.commit(txn)
            self.metrics.inc("server.txn_commits")
            return {"committed": True, "txn": txn.txn_id, "epoch": epoch}
        manager.rollback(txn)
        self.metrics.inc("server.txn_rollbacks")
        return {"rolled_back": True, "txn": txn.txn_id}

    def _enqueue_execute(self, session: Session, request: dict) -> None:
        if self._draining.is_set():
            raise ServerOverloaded("server is draining")
        sql = request.get("sql")
        if not isinstance(sql, str) or not sql.strip():
            raise ProtocolError("execute requires a non-empty 'sql' string")
        params = request.get("params")
        if params is not None and not isinstance(params, dict):
            raise ProtocolError("'params' must be an object when present")
        token = session.begin_statement(wall_clock())
        try:
            self._statements.put_nowait((session, request, token))
        except queue.Full:
            session.end_statement(wall_clock())
            raise ServerOverloaded(
                "statement queue full "
                f"(limit {self.config.max_pending_statements})",
                queue_depth=self.config.max_pending_statements,
                limit=self.config.max_pending_statements,
            ) from None

    # -------------------------------------------------------------- workers

    def _worker_loop(self) -> None:
        while True:
            try:
                session, request, token = self._statements.get(timeout=0.05)
            except queue.Empty:
                if self._stop.is_set():
                    return
                continue
            response = self._run_statement(session, request, token)
            # Flip back to idle *before* sending: a client that has its
            # answer may submit the next statement immediately.  Drain
            # still waits for the answer to hit the wire because the
            # queue's unfinished-task count stays up until task_done().
            session.end_statement(wall_clock())
            session.send(encode_frame(response))
            self._statements.task_done()

    def _run_statement(self, session: Session, request: dict, token) -> dict:
        self.metrics.inc("server.statements")
        if token.cancelled:
            # Cancelled while queued (disconnect or kill beat the worker).
            self.metrics.inc("server.cancelled")
            return error_response(
                ExecutionCancelled(
                    f"statement cancelled before execution: "
                    f"{token.reason or 'cancelled'}"
                ),
                request,
            )
        try:
            result = self.db.execute(
                request["sql"],
                params=request.get("params") or None,
                pop=self._statement_config(),
                cancel=token,
                plan_cache=session.plan_cache,
                metrics=session.metrics,
                # Inside a session transaction every statement reads at the
                # transaction's pinned snapshot; otherwise Database.execute
                # pins per-statement (when transactions are enabled at all).
                snapshot=session.txn_snapshot(),
            )
        except ReproError as exc:
            cls = failure_class(exc)
            self.metrics.inc("server.statement_errors", **{"class": cls})
            if cls == CANCELLED:
                self.metrics.inc("server.cancelled")
            return error_response(exc, request)
        except Exception as exc:  # a statement must never kill a worker
            self.metrics.inc("server.statement_errors", **{"class": "fatal"})
            return error_response(exc, request)
        return ok_response(
            {
                "columns": result.columns,
                "rows": [list(row) for row in result.rows],
                "attempts": len(result.report.attempts),
                "spilled": result.report.spilled,
            },
            request,
        )

    def _statement_config(self) -> PopConfig:
        timeout = self.config.statement_timeout_seconds
        if timeout is None:
            return PopConfig()
        return PopConfig(resilience=ResiliencePolicy(deadline_seconds=timeout))

    # ----------------------------------------------------------- control ops

    def _kill(self, session: Session, request: dict) -> dict:
        target_id = request.get("session")
        if not isinstance(target_id, int):
            raise ProtocolError("kill requires an integer 'session' id")
        target = self.registry.get(target_id)
        if target is None:
            raise ProtocolError(f"no such session {target_id}")
        was_running = target.cancel(
            f"killed by session {session.session_id}"
        )
        self.metrics.inc("server.kills")
        return {"killed": target_id, "was_running": was_running}

    # --------------------------------------------------------------- reaper

    def _reaper_loop(self) -> None:
        interval = self.config.reap_interval_seconds
        while not self._stop.wait(interval):
            if self._draining.is_set():
                continue
            now = wall_clock()
            victims = self.registry.idle_victims(
                now, self.config.idle_timeout_seconds
            )
            for victim in victims:
                self.metrics.inc("server.idle_reaped")
                victim.send(
                    encode_frame(
                        error_response(
                            ExecutionTimeout(
                                "session idle past "
                                f"{self.config.idle_timeout_seconds:g}s; "
                                "closing"
                            )
                        )
                    )
                )
                victim.cancel("idle timeout")
                # Waking the reader (OSError out of recv) is what actually
                # removes the session — one teardown path for every exit.
                _close_socket(victim.sock)

    # ------------------------------------------------------------ reporting

    def stats(self) -> dict:
        """Point-in-time server stats for the ``stats`` op and tests."""
        snap = {
            "sessions": self.registry.snapshot(now=wall_clock()),
            "queue_depth": self._statements.qsize(),
            "draining": self._draining.is_set(),
            "statements_total": int(self.metrics.total("server.statements")),
            "cancelled_total": int(self.metrics.total("server.cancelled")),
            "shed_total": int(self.metrics.total("server.shed")),
            "idle_reaped_total": int(self.metrics.total("server.idle_reaped")),
        }
        governor = self.db.memory_governor
        if governor is not None:
            snap["governor"] = governor.snapshot()
        txn_manager = self.db.txn_manager
        if txn_manager is not None:
            snap["txn"] = txn_manager.snapshot_stats()
        return snap
