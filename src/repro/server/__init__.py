"""Multi-session server runtime over the repro engine.

One :class:`~repro.server.server.ReproServer` wraps one
:class:`~repro.core.database.Database` behind a thread-pool socket server
speaking line-delimited JSON (:mod:`repro.server.protocol`), with
per-connection sessions (:mod:`repro.server.session`), cooperative
cancellation threaded into the executor, per-statement wall-clock
deadlines, idle-session reaping, bounded-queue overload shedding, and
graceful drain.  See ``docs/server.md`` for the protocol and semantics,
and :mod:`repro.server.chaos` for the connection-chaos scenarios that
audit all of it (run by ``python -m repro.chaos``).
"""

from repro.server.client import ReproClient
from repro.server.server import ReproServer, ServerConfig
from repro.server.session import Session, SessionRegistry

__all__ = [
    "ReproClient",
    "ReproServer",
    "ServerConfig",
    "Session",
    "SessionRegistry",
]
