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


class TransientError(ExecutionError):
    """A failure that may not recur on retry (lost page read, injected
    chaos fault, flaky resource).  The execution guard retries these with
    capped exponential backoff before falling back to a safe plan."""


class ResourceExhausted(TransientError):
    """A runtime resource (memory grant, buffer) shrank below the minimum
    the operator can make progress with.  Transient: a retry re-plans and
    may avoid the starved operator entirely.

    Carries the structured facts of the starved request — which grant
    *category* (sort/hash/temp), how many pages were *requested*, and what
    the *effective grant* came out to — so memory failures are diagnosable
    from trace/metrics output alone, without a debugger.
    """

    def __init__(
        self,
        message: str,
        category: str | None = None,
        requested_pages: float | None = None,
        granted_pages: float | None = None,
    ):
        super().__init__(message)
        self.category = category
        self.requested_pages = requested_pages
        self.granted_pages = granted_pages


class AdmissionRejected(ReproError):
    """The memory governor shed this statement instead of admitting it.

    Raised before any execution work happens: the shared page budget is
    saturated and the admission queue is full (or the queue wait timed
    out).  Deliberately *not* a :class:`TransientError` — the execution
    guard must not burn its retry budget on a statement the governor has
    already decided to shed; the caller (application) owns the retry
    decision."""

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
    """The statement exceeded its work-unit or wall-clock deadline.  Not
    retried — the same plan would time out again; the guard goes straight
    to the safe-plan fallback (or raises, when fallback is disabled)."""


class ExecutionCancelled(ExecutionError):
    """The statement was cancelled cooperatively mid-execution.

    Raised from the operator interrupt checks when the statement's
    :class:`~repro.common.cancel.CancelToken` trips — a client
    disconnect, a ``\\kill`` from another session, or server drain.
    Never retried and never diverted to the safe plan: the caller asked
    for the statement to stop, so stopping *is* the correct outcome."""


class TransactionError(ReproError):
    """A transaction was used incorrectly (commit after rollback, staging
    into a finished transaction, nested ``begin`` on one thread)."""


class TransactionConflict(TransientError):
    """First-committer-wins validation failed at commit.

    Another transaction committed to one of this transaction's write-set
    tables after this transaction began.  Retryable by construction: the
    caller re-runs the transaction against the new snapshot (a
    :class:`TransientError` so :func:`is_retryable` holds), but it gets
    its own ``conflict`` failure class so clients and the CLI can
    distinguish "re-run your transaction" from an engine hiccup.
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
    bounded statement queue is full.  Like
    :class:`AdmissionRejected`, deliberately not a
    :class:`TransientError` — the client owns the retry decision."""

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
TRANSIENT = "transient"
RESOURCE = "resource"
TIMEOUT = "timeout"
ADMISSION = "admission"
CANCELLED = "cancelled"
OVERLOADED = "overloaded"
CONFLICT = "conflict"
USER = "user"
FATAL = "fatal"

#: Errors caused by the statement itself (bad SQL, unknown objects,
#: malformed wire frames) rather than by the runtime; retrying or
#: re-planning cannot help.
_USER_ERRORS = (ParseError, BindError, SchemaError, CatalogError, ProtocolError)


def failure_class(exc: BaseException) -> str:
    """Classify an exception for the execution guard, the server, and the CLI.

    ``transient`` / ``resource`` / ``conflict`` failures are retryable
    (``conflict`` means first-committer-wins validation failed — re-run
    the transaction against the fresh snapshot), ``timeout`` goes
    straight to the safe-plan fallback, ``admission`` means the memory
    governor shed the statement before it ran (the caller decides whether
    to resubmit), ``cancelled`` means the caller asked the statement to
    stop, ``overloaded`` means the server shed the request before
    admission, ``user`` means the statement is at fault, and ``fatal`` is
    everything else (a genuine engine failure).
    """
    if isinstance(exc, TransactionConflict):
        return CONFLICT
    if isinstance(exc, ResourceExhausted):
        return RESOURCE
    if isinstance(exc, TransientError):
        return TRANSIENT
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


def is_retryable(exc: BaseException) -> bool:
    """Whether the guard may retry the attempt after this failure."""
    return isinstance(exc, TransientError)
