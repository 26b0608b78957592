"""Structured tracing: spans, events, and JSONL export.

A *span* covers an interval of work (a statement, an attempt, one optimizer
call, one operator's lifetime); an *event* marks a point in time (a CHECK
evaluation, a re-optimization signal).  Every record carries two clocks:

* ``t`` / ``t0`` / ``t1`` — wall-clock seconds (``time.perf_counter``),
  kept for reference only; and
* ``u`` / ``u0`` / ``u1`` — deterministic *work units* read from the bound
  :class:`~repro.executor.meter.WorkMeter`, the same cost currency the
  optimizer models, so traces are reproducible across machines.

Spans nest through explicit parent ids (callers that know their parent pass
it) or through the tracer's implicit span stack (``start_span`` pushes,
``end_span`` pops).  ``end_span`` is idempotent so interrupted executions —
a :class:`ReoptimizationSignal` unwinds the operator tree without closing
it — can be finalized by the driver after the fact.

The export format is JSON Lines: one object per record, spans and events
interleaved in start order.  :func:`read_jsonl` round-trips a file back
into the list of record dicts.
"""

from __future__ import annotations

import json
import math
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Optional, TextIO


def wall_clock() -> float:
    """Wall-clock seconds (monotonic, reference only).

    The single sanctioned wall-clock source outside :mod:`repro.obs`: by
    convention no other module calls ``time.*`` directly, so that every
    timing dependency is explicit and mockable.  Work-unit clocks, not
    this, are what reproduced figures are built on.
    """
    return time.perf_counter()


class Tracer:
    """Collects spans and events for one or more statement executions.

    The tracer is deliberately permissive: unknown parents, double-ended
    spans, and events outside any span are all legal.  Instrumentation
    sites guard with ``if tracer is not None`` — an absent tracer costs
    one comparison, nothing else.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._meter = None
        # Ranked "obs.trace" in the repo lock order (repro.common.locking):
        # emission is safe under the governor condition, and the tracer
        # itself never takes another policy lock.
        self._lock = threading.Lock()
        self._records: list[dict] = []  # guarded-by: _lock
        self._open: dict[int, dict] = {}  # guarded-by: _lock
        self._stack: list[int] = []  # guarded-by: _lock
        self._next_id = 1  # guarded-by: _lock

    # ----------------------------------------------------------------- clocks

    def bind_meter(self, meter) -> None:
        """Use ``meter`` for work-unit timestamps from now on."""
        self._meter = meter

    def _units(self) -> Optional[float]:
        return self._meter.snapshot() if self._meter is not None else None

    # ------------------------------------------------------------------ spans

    def start_span(
        self, name: str, parent: Optional[int] = None, **attrs: Any
    ) -> int:
        """Open a span and return its id.

        ``parent=None`` nests under the innermost open span (the implicit
        stack); pass an explicit id to pin the hierarchy regardless of call
        order (operator spans do this — their opens interleave).
        """
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            if parent is None and self._stack:
                parent = self._stack[-1]
            record = {
                "type": "span",
                "id": span_id,
                "parent": parent,
                "name": name,
                "t0": self._clock(),
                "t1": None,
                "u0": self._units(),
                "u1": None,
                "attrs": dict(attrs),
            }
            self._records.append(record)
            self._open[span_id] = record
            self._stack.append(span_id)
            return span_id

    def end_span(self, span_id: Optional[int], **attrs: Any) -> None:
        """Close a span (idempotent; unknown ids are ignored)."""
        if span_id is None:
            return
        with self._lock:
            record = self._open.pop(span_id, None)
            if record is None:
                return
            record["t1"] = self._clock()
            record["u1"] = self._units()
            if attrs:
                record["attrs"].update(attrs)
            # Remove from the implicit stack wherever it sits; closes of
            # interrupted subtrees arrive out of order.
            for i in range(len(self._stack) - 1, -1, -1):
                if self._stack[i] == span_id:
                    del self._stack[i]
                    break

    @contextmanager
    def span(self, name: str, parent: Optional[int] = None, **attrs: Any):
        """``with tracer.span("optimizer.optimize"):`` convenience."""
        span_id = self.start_span(name, parent=parent, **attrs)
        try:
            yield span_id
        finally:
            self.end_span(span_id)

    # ----------------------------------------------------------------- events

    def event(self, name: str, span: Optional[int] = None, **attrs: Any) -> None:
        """Record a point event, attached to ``span`` or the current span."""
        with self._lock:
            if span is None and self._stack:
                span = self._stack[-1]
            self._records.append(
                {
                    "type": "event",
                    "span": span,
                    "name": name,
                    "t": self._clock(),
                    "u": self._units(),
                    "attrs": dict(attrs),
                }
            )

    # ------------------------------------------------------------- inspection

    @property
    def records(self) -> list[dict]:
        """All records, in start order (span ``t1``/``u1`` filled on end).

        Returns a snapshot list; record dicts are shared, so a span that
        ends after the snapshot still gets its ``t1``/``u1`` filled in.
        """
        with self._lock:
            return list(self._records)

    def spans(self, name: Optional[str] = None) -> list[dict]:
        return [
            r
            for r in self.records
            if r["type"] == "span" and (name is None or r["name"] == name)
        ]

    def events(self, name: Optional[str] = None) -> list[dict]:
        return [
            r
            for r in self.records
            if r["type"] == "event" and (name is None or r["name"] == name)
        ]

    def children(self, span_id: int) -> list[dict]:
        """Direct child spans of ``span_id``, in start order."""
        return [
            r
            for r in self.records
            if r["type"] == "span" and r["parent"] == span_id
        ]

    def clear(self) -> None:
        with self._lock:
            self._records = []
            self._open = {}
            self._stack = []

    # ----------------------------------------------------------------- export

    def to_jsonl(self) -> str:
        return "\n".join(
            json.dumps(_jsonable(r), default=str) for r in self.records
        )

    def write_jsonl(self, target: str | TextIO) -> None:
        """Write all records to a path or an open text stream."""
        text = self.to_jsonl()
        if hasattr(target, "write"):
            target.write(text + ("\n" if text else ""))
        else:
            with open(target, "w") as f:
                f.write(text + ("\n" if text else ""))


def _jsonable(value: Any) -> Any:
    """Strict-JSON projection: non-finite floats become strings."""
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def read_jsonl(source: str | TextIO | Iterable[str]) -> list[dict]:
    """Load trace records back from a path, stream, or iterable of lines."""
    if isinstance(source, str):
        with open(source) as f:
            lines = f.readlines()
    else:
        lines = list(source)
    return [json.loads(line) for line in lines if line.strip()]
