"""Exception hierarchy for the repro engine.

Every error raised by the library derives from :class:`ReproError` so that
applications can catch engine failures with a single ``except`` clause while
still being able to distinguish the individual failure classes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro engine."""


class CatalogError(ReproError):
    """A catalog object (table, index, column, statistic) is missing or invalid."""


class SchemaError(ReproError):
    """A schema definition is malformed (duplicate column, unknown type, ...)."""


class BindError(ReproError):
    """A SQL identifier could not be resolved against the catalog."""


class ParseError(ReproError):
    """The SQL text is syntactically invalid.

    Attributes
    ----------
    position:
        Character offset into the SQL text where the error was detected,
        or ``None`` when unknown.
    """

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class OptimizerError(ReproError):
    """The optimizer could not produce a plan (e.g. disconnected join graph
    with cross products disabled, or no enabled join method)."""


class ExecutionError(ReproError):
    """A runtime failure inside the executor."""


class AdmissionRejected(ReproError):
    """The memory governor shed this statement instead of admitting it.

    Raised before any execution work happens: the shared page budget is
    saturated and the admission queue is full (or the queue wait timed
    out).  The caller (application) owns the decision to resubmit."""

    def __init__(
        self,
        message: str,
        requested_pages: float | None = None,
        budget_pages: float | None = None,
        queue_depth: int | None = None,
    ):
        super().__init__(message)
        self.requested_pages = requested_pages
        self.budget_pages = budget_pages
        self.queue_depth = queue_depth


class ExecutionTimeout(ExecutionError):
    """The statement exceeded its wall-clock deadline
    (``ResiliencePolicy.deadline_seconds``)."""


class ExecutionCancelled(ExecutionError):
    """The statement was cancelled cooperatively mid-execution.

    Raised from the operator interrupt checks when the statement's
    :class:`~repro.common.cancel.CancelToken` trips — a client
    disconnect, a ``\\kill`` from another session, or server drain.
    The caller asked for the statement to stop, so stopping *is* the
    correct outcome."""


class TransactionError(ReproError):
    """A transaction was used incorrectly (commit after rollback, staging
    into a finished transaction, nested ``begin`` on one thread)."""


class TransactionConflict(ReproError):
    """First-committer-wins validation failed at commit.

    Another transaction committed to one of this transaction's write-set
    tables after this transaction began.  Retryable by construction: the
    caller re-runs the transaction against the new snapshot.  Its own
    ``conflict`` failure class lets clients and the CLI tell "re-run your
    transaction" from an engine failure.
    """

    def __init__(
        self,
        message: str,
        tables: tuple[str, ...] = (),
        begin_epoch: int | None = None,
        committed_epoch: int | None = None,
    ):
        super().__init__(message)
        self.tables = tables
        self.begin_epoch = begin_epoch
        self.committed_epoch = committed_epoch


class WalError(ReproError):
    """The write-ahead log or a checkpoint is unusable (corrupt beyond the
    torn tail, a failed fsync that could not be rolled back, a checksum
    mismatch inside an atomically-replaced checkpoint)."""


class ServerOverloaded(ReproError):
    """The server shed this request instead of queueing it.

    Raised before any execution work happens: the session registry or the
    bounded statement queue is full.  Like :class:`AdmissionRejected`, the
    client owns the retry decision."""

    def __init__(
        self,
        message: str,
        queue_depth: int | None = None,
        limit: int | None = None,
    ):
        super().__init__(message)
        self.queue_depth = queue_depth
        self.limit = limit


class ProtocolError(ReproError):
    """A malformed client frame (bad JSON, oversized line, unknown op).

    A *user* failure class: the request is at fault, not the engine, so
    retrying the same bytes cannot help."""


class UnboundParameterError(ExecutionError):
    """A parameter marker had no value bound at execution time."""


#: Failure classes returned by :func:`failure_class`.
TIMEOUT = "timeout"
ADMISSION = "admission"
CANCELLED = "cancelled"
OVERLOADED = "overloaded"
CONFLICT = "conflict"
USER = "user"
FATAL = "fatal"

#: Errors caused by the statement itself (bad SQL, unknown objects,
#: malformed wire frames) rather than by the runtime; re-running or
#: re-planning cannot help.
_USER_ERRORS = (ParseError, BindError, SchemaError, CatalogError, ProtocolError)


def failure_class(exc: BaseException) -> str:
    """Classify an exception for the server, the CLI and the metrics.

    ``conflict`` means first-committer-wins validation failed (re-run the
    transaction against the fresh snapshot), ``timeout`` that the
    statement out-ran its wall deadline, ``admission`` that the memory
    governor shed the statement before it ran (the caller decides whether
    to resubmit), ``cancelled`` that the caller asked the statement to
    stop, ``overloaded`` that the server shed the request before
    admission, ``user`` that the statement is at fault, and ``fatal`` is
    everything else (a genuine engine failure).
    """
    if isinstance(exc, TransactionConflict):
        return CONFLICT
    if isinstance(exc, ExecutionTimeout):
        return TIMEOUT
    if isinstance(exc, ExecutionCancelled):
        return CANCELLED
    if isinstance(exc, AdmissionRejected):
        return ADMISSION
    if isinstance(exc, ServerOverloaded):
        return OVERLOADED
    if isinstance(exc, _USER_ERRORS):
        return USER
    return FATAL

