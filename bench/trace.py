"""Spans recorded by the benchmark around the calls into each layer.

The program's own spans (``pop.statement`` / ``pop.attempt`` /
``optimizer.optimize`` / ``pop.place_checkpoints`` / ``pop.execute``) are
read from the :class:`repro.obs.Tracer` handed to ``Database.execute``.
Where the program has no span the benchmark records one around the public
call: a :class:`~repro.cache.PlanCache` and a
:class:`~repro.governor.MemoryGovernor` subclass that time themselves around
``super()``, and a wrapper around ``os.fsync``.  Spans stay in memory and are
written as one JSONL file when the run ends.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from contextlib import contextmanager
from typing import Optional

from repro.cache import PlanCache
from repro.governor import MemoryGovernor

#: Program spans the per-layer metrics are built from.
ENGINE_SPANS = (
    "pop.statement", "pop.attempt", "optimizer.optimize",
    "pop.place_checkpoints", "pop.execute",
)


class SpanLog:
    """In-memory span records: name, start, end, parent, statement index."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        #: Statement being replayed; spans recorded by the timed subclasses
        #: attach to it.
        self.stmt: Optional[int] = None
        self.parent: Optional[int] = None
        self._mark = 0

    def add(self, name, t0, t1, parent=None, stmt=None, **attrs) -> int:
        span_id = next(self._ids)
        self.spans.append({
            "workload": self.workload,
            "stmt": self.stmt if stmt is None else stmt,
            "id": span_id,
            "parent": self.parent if parent is None else parent,
            "name": name, "t0": t0, "t1": t1, **attrs,
        })
        return span_id

    @contextmanager
    def statement(self, index: int):
        """Open the ``bench.statement`` span the layer spans nest under."""
        span_id = next(self._ids)
        record = {
            "workload": self.workload, "stmt": index, "id": span_id,
            "parent": None, "name": "bench.statement",
            "t0": time.perf_counter(), "t1": None,
        }
        self._mark = len(self.spans)
        self.spans.append(record)
        self.stmt, self.parent = index, span_id
        try:
            yield record
        finally:
            record["t1"] = time.perf_counter()
            self.stmt = self.parent = None

    def timed(self, name: str, call, *args, **kwargs):
        """Run ``call`` under a span; returns its result."""
        t0 = time.perf_counter()
        try:
            return call(*args, **kwargs)
        finally:
            self.add(name, t0, time.perf_counter())

    def adopt(self, tracer, statement: dict) -> None:
        """Copy the program's statement-level spans under ``statement`` and
        re-parent the cache spans to the attempt that contains them."""
        ids = {}
        attempts = []
        for record in tracer.spans():
            if record["name"] not in ENGINE_SPANS or record["t1"] is None:
                continue
            parent = ids.get(record["parent"], statement["id"])
            ids[record["id"]] = self.add(
                record["name"], record["t0"], record["t1"],
                parent=parent, stmt=statement["stmt"],
            )
            if record["name"] == "pop.attempt":
                attempts.append(self.spans[-1])
        for span in self.spans[self._mark:]:
            if span["parent"] == statement["id"] and span["name"].startswith("cache."):
                for attempt in attempts:
                    if attempt["t0"] <= span["t0"] and span["t1"] <= attempt["t1"]:
                        span["parent"] = attempt["id"]

    # ------------------------------------------------------------- analysis

    def total_ms(self, name: str, required: bool = False) -> Optional[float]:
        """Summed duration of the spans called ``name``; ``None`` when
        ``required`` and there is none (the program renamed or dropped it)."""
        durations = [s["t1"] - s["t0"] for s in self.spans if s["name"] == name]
        if required and not durations:
            return None
        return 1000.0 * sum(durations)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s["name"] == name)

    def self_ms(self, *names: str) -> float:
        """Self time of the named spans: duration minus direct children."""
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = (
                    child_time.get(s["parent"], 0.0) + s["t1"] - s["t0"]
                )
        return 1000.0 * sum(
            s["t1"] - s["t0"] - child_time.get(s["id"], 0.0)
            for s in self.spans if s["name"] in names
        )

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


class TimedPlanCache(PlanCache):
    """A plan cache that records a span around every lookup and install."""

    def __init__(self, log: SpanLog, config=None):
        super().__init__(config)
        self._log = log

    def lookup(self, *args, **kwargs):
        return self._log.timed("cache.lookup", super().lookup, *args, **kwargs)

    def install(self, *args, **kwargs):
        return self._log.timed("cache.install", super().install, *args, **kwargs)


class TimedGovernor(MemoryGovernor):
    """A memory governor that records a span around admit and release."""

    def __init__(self, log: SpanLog, policy):
        super().__init__(policy)
        self._log = log

    def admit(self, *args, **kwargs):
        return self._log.timed("governor.admit", super().admit, *args, **kwargs)

    def release(self, reservation):
        return self._log.timed("governor.release", super().release, reservation)


class FsyncMeter:
    """Counts and times ``os.fsync`` in this process while installed."""

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0
        self._real = None

    def __enter__(self) -> "FsyncMeter":
        self._real = os.fsync

        def timed_fsync(fd):
            t0 = time.perf_counter()
            try:
                return self._real(fd)
            finally:
                self.seconds += time.perf_counter() - t0
                self.calls += 1

        os.fsync = timed_fsync
        return self

    def __exit__(self, *exc) -> None:
        os.fsync = self._real
