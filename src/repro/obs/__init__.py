"""repro.obs — structured tracing and metrics for the POP loop.

POP's value proposition is visibility into the gap between estimated and
actual cardinalities; this package makes that visibility systematic instead
of ad hoc.  Two zero-dependency primitives:

* :class:`Tracer` — hierarchical spans and point events with both wall-clock
  and work-unit timestamps, exportable as JSONL (one record per line).
  The driver, optimizer, checkpoint placer, and every executor operator
  emit into it when one is attached; when none is attached the
  instrumentation sites are single ``is None`` checks.
* :class:`MetricsRegistry` — named counters, gauges, and fixed-bucket
  histograms with optional labels, snapshot-able as a plain dict and
  renderable as aligned text or Prometheus-style exposition.

On top of these, the live profiling layer:

* :class:`OpRecord` — one attempt's record, a tree in its plan's shape:
  estimated vs actual rows, EOF, q-error and spill share per operator,
  built by :func:`record_attempt` for every attempt;
* :class:`ProfileCollector` / :class:`OpProfile` — per-operator exclusive
  (self) time in work units and wall seconds, opens, calls and extras,
  collected by wrapping operator methods at arm time and attached to the
  record;
* :func:`progress_history` / :func:`render_progress` — work-unit-weighted
  progress with CHECK-point refinement, read off a finished statement's
  report;
* :class:`RobustnessMap` — cost surfaces over a cardinality grid around a
  plan's validity ranges (JSON + ASCII heatmap artifacts).

See ``docs/observability.md`` for the trace event catalog, the metric
name registry, and the profiling semantics.
"""

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    QERROR_BUCKETS,
    MetricsRegistry,
)
from repro.obs.profile import (
    OpProfile,
    OpRecord,
    ProfileCollector,
    record_attempt,
    write_profiles_jsonl,
)
from repro.obs.progress import progress_history, render_progress
from repro.obs.robustness import RobustnessMap
from repro.obs.trace import Tracer, read_jsonl, wall_clock

__all__ = [
    "Tracer",
    "read_jsonl",
    "wall_clock",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "QERROR_BUCKETS",
    "OpProfile",
    "OpRecord",
    "ProfileCollector",
    "RobustnessMap",
    "progress_history",
    "record_attempt",
    "render_progress",
    "write_profiles_jsonl",
]
