"""Seeded crash injection for the durability layer.

The WAL and checkpoint writers (:mod:`repro.storage.wal`) expose one
``crash_hook(point, size, write_partial)`` mount point; this module is
what the crash-chaos harness plugs into it.  Three fault kinds cover the
ways a process death interacts with a log:

* **crash** — die at the named point, before the operation happens
  (``wal.durable`` / ``checkpoint.done`` model dying immediately *after*
  it, so both sides of every fsync and rename are exercised);
* **torn** — a partial write: a seeded prefix of the pending record
  reaches the OS, then the process dies (the recovery path must detect
  and truncate the tail);
* **fsync_fail** — ``fsync`` returns an error instead of the process
  dying; the WAL must roll the unsynced record back and fail the commit
  cleanly (:class:`~repro.common.errors.WalError`), never replay it.

The checkpoint points run in order: ``checkpoint.capture`` (the cut —
epoch, tables, watermarks — is taken and the epoch lock released, no row
encoded yet; commits may land past the watermarks here), then
``checkpoint.write``, ``checkpoint.fsync``, ``checkpoint.rename`` and
``checkpoint.done``.

A simulated death is a :class:`SimulatedCrash`, deliberately derived
from ``BaseException`` so no ``except Exception`` cleanup handler can
accidentally swallow it — exactly like a real ``kill -9``, the only
valid response is to throw the in-memory state away and re-open from
disk.  The harness catches it at the top of each case.

Schedules are reproducible: :meth:`CrashPlan.seeded` draws the point,
kind, and trigger occurrence from :func:`repro.common.rng.make_rng`, so
a failing seed replays exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.common.rng import make_rng

__all__ = [
    "SimulatedCrash",
    "CRASH",
    "TORN",
    "FSYNC_FAIL",
    "CRASH_KINDS",
    "WAL_POINTS",
    "CHECKPOINT_POINTS",
    "ALL_POINTS",
    "CrashSpec",
    "CrashPlan",
    "CrashInjector",
]


class SimulatedCrash(BaseException):
    """The process 'died' at a seeded durability point.

    ``BaseException`` on purpose: generic ``except Exception`` recovery
    code must not survive a kill — the harness alone catches this.
    """

    def __init__(self, point: str, kind: str):
        super().__init__(f"simulated crash at {point} ({kind})")
        self.point = point
        self.kind = kind


#: Crash fault kinds.
CRASH = "crash"
TORN = "torn"
FSYNC_FAIL = "fsync_fail"
CRASH_KINDS = (CRASH, TORN, FSYNC_FAIL)

#: Hook points the WAL announces (see :mod:`repro.storage.wal`).
WAL_POINTS = ("wal.append", "wal.fsync", "wal.durable")
CHECKPOINT_POINTS = (
    "checkpoint.capture",
    "checkpoint.write",
    "checkpoint.fsync",
    "checkpoint.rename",
    "checkpoint.done",
)
ALL_POINTS = WAL_POINTS + CHECKPOINT_POINTS

#: Kinds that make sense per point: torn writes need pending bytes, and
#: an fsync failure only means something where an fsync happens.
_KINDS_FOR_POINT = {
    "wal.append": (CRASH, TORN),
    "wal.fsync": (CRASH, FSYNC_FAIL),
    "wal.durable": (CRASH,),
    "checkpoint.capture": (CRASH,),
    "checkpoint.write": (CRASH, TORN),
    "checkpoint.fsync": (CRASH, FSYNC_FAIL),
    "checkpoint.rename": (CRASH,),
    "checkpoint.done": (CRASH,),
}


@dataclass(frozen=True)
class CrashSpec:
    """One scheduled kill: fire the ``trigger_at``-th time ``point`` is
    reached.  ``tear_fraction`` picks how much of a torn record survives."""

    point: str
    kind: str
    trigger_at: int = 1
    tear_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.point not in ALL_POINTS:
            raise ValueError(f"unknown crash point {self.point!r}")
        if self.kind not in _KINDS_FOR_POINT[self.point]:
            raise ValueError(
                f"kind {self.kind!r} not applicable at {self.point!r}"
            )
        if self.trigger_at < 1:
            raise ValueError("trigger_at is 1-based")


@dataclass
class CrashPlan:
    """A reproducible kill schedule (usually a single kill per case)."""

    specs: list = field(default_factory=list)
    seed: Optional[int] = None

    @classmethod
    def seeded(
        cls,
        seed: int,
        points: Sequence[str] = ALL_POINTS,
        max_trigger: int = 8,
    ) -> "CrashPlan":
        """One seeded kill: point, applicable kind, occurrence, tear size."""
        rng = make_rng(seed)
        point = points[rng.randrange(len(points))]
        kinds = _KINDS_FOR_POINT[point]
        kind = kinds[rng.randrange(len(kinds))]
        return cls(
            specs=[
                CrashSpec(
                    point=point,
                    kind=kind,
                    trigger_at=rng.randint(1, max_trigger),
                    tear_fraction=rng.uniform(0.05, 0.95),
                )
            ],
            seed=seed,
        )


@dataclass(frozen=True)
class FiredCrash:
    """Log record of one kill firing (harness bookkeeping)."""

    point: str
    kind: str
    at_occurrence: int
    bytes_written: int = 0


class CrashInjector:
    """Carries one :class:`CrashPlan` through a database lifetime.

    Mount :attr:`hook` as the ``crash_hook`` of the transaction manager;
    each spec fires at most once.
    """

    def __init__(self, plan: CrashPlan):
        self.plan = plan
        self.fired: list = []
        self._occurrences: dict = {}
        self._armed = list(plan.specs)

    @property
    def exhausted(self) -> bool:
        return not self._armed

    def hook(self, point: str, size: int, write_partial: Callable) -> None:
        count = self._occurrences.get(point, 0) + 1
        self._occurrences[point] = count
        for spec in self._armed:
            if spec.point != point or spec.trigger_at != count:
                continue
            self._armed.remove(spec)
            if spec.kind == TORN and size > 0:
                k = max(1, min(size - 1, int(size * spec.tear_fraction)))
                write_partial(k)
                self.fired.append(FiredCrash(point, spec.kind, count, k))
                raise SimulatedCrash(point, spec.kind)
            if spec.kind == FSYNC_FAIL:
                self.fired.append(FiredCrash(point, spec.kind, count))
                raise OSError(f"simulated fsync failure at {point}")
            self.fired.append(FiredCrash(point, spec.kind, count))
            raise SimulatedCrash(point, spec.kind)
