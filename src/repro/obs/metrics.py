"""Named counters, gauges, and fixed-bucket histograms.

The registry is a flat map from ``(name, labels)`` to a value; labels are
passed as keyword arguments and stored as a sorted tuple, so
``inc("check.evaluations", flavor="LC", triggered=True)`` and a later call
with the same labels hit the same series.  Everything is plain Python —
no background threads, no dependencies — and a snapshot is an ordinary
dict, so benchmark harnesses can diff before/after states.

Histograms use fixed bucket upper bounds (cumulative, Prometheus-style):
``observe`` finds the first bound >= value and increments every bucket from
there up, plus ``count`` and ``sum``.  The q-error histogram the driver
feeds (`estimate.error.qerror`) uses :data:`QERROR_BUCKETS`, the standard
decades used by cardinality-estimation papers.
"""

from __future__ import annotations

import threading
from typing import Any, Optional


#: General-purpose bucket bounds (work units, row counts, ...).
DEFAULT_BUCKETS = (1.0, 10.0, 100.0, 1_000.0, 10_000.0, 100_000.0, 1_000_000.0)

#: Q-error bounds: max(est/actual, actual/est) is >= 1 by construction; the
#: first bucket therefore counts near-perfect estimates.
QERROR_BUCKETS = (1.5, 2.0, 4.0, 10.0, 100.0, 1_000.0, 10_000.0)

_INF = float("inf")


def _key(name: str, labels: dict) -> tuple:
    return (name, tuple(sorted((k, str(v)) for k, v in labels.items())))


def _label_text(labels: tuple) -> str:
    if not labels:
        return ""
    return "{" + ",".join(f"{k}={v}" for k, v in labels) + "}"


class _Histogram:
    __slots__ = ("buckets", "counts", "count", "sum")

    def __init__(self, buckets: tuple):
        self.buckets = tuple(buckets)
        self.counts = [0] * (len(self.buckets) + 1)  # +1 for +Inf
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    def cumulative(self) -> list[tuple[float, int]]:
        """(upper bound, cumulative count) pairs including +Inf."""
        out = []
        running = 0
        for bound, n in zip(self.buckets + (_INF,), self.counts):
            running += n
            out.append((bound, running))
        return out

    def as_dict(self) -> dict:
        return {
            "buckets": {
                ("+Inf" if b == _INF else b): c for b, c in self.cumulative()
            },
            "count": self.count,
            "sum": self.sum,
        }


class MetricsRegistry:
    """A process-local registry of named metric series."""

    def __init__(self) -> None:
        # Ranked "obs.metrics" in the repo lock order (repro.common.locking):
        # safe to take while holding the governor condition, never the
        # other way around.
        self._lock = threading.Lock()
        self._counters: dict[tuple, float] = {}  # guarded-by: _lock
        self._gauges: dict[tuple, float] = {}  # guarded-by: _lock
        self._histograms: dict[tuple, _Histogram] = {}  # guarded-by: _lock
        # guarded-by: _lock
        self._declared_buckets: dict[str, tuple] = {
            "estimate.error.qerror": QERROR_BUCKETS,
        }

    # --------------------------------------------------------------- counters

    def inc(self, name: str, value: float = 1.0, **labels: Any) -> None:
        key = _key(name, labels)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0.0) + value

    # ----------------------------------------------------------------- gauges

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        with self._lock:
            self._gauges[_key(name, labels)] = float(value)

    # ------------------------------------------------------------- histograms

    def observe(self, name: str, value: float, **labels: Any) -> None:
        key = _key(name, labels)
        with self._lock:
            hist = self._histograms.get(key)
            if hist is None:
                hist = _Histogram(
                    self._declared_buckets.get(name, DEFAULT_BUCKETS)
                )
                self._histograms[key] = hist
            hist.observe(value)

    # ------------------------------------------------------------- inspection

    def get(self, name: str, **labels: Any) -> float:
        """Current value of a counter or gauge series (0 when absent)."""
        key = _key(name, labels)
        with self._lock:
            if key in self._counters:
                return self._counters[key]
            return self._gauges.get(key, 0.0)

    def total(self, name: str) -> float:
        """Sum of a counter across all label combinations."""
        with self._lock:
            return sum(
                v for (n, _), v in self._counters.items() if n == name
            )

    def histogram(self, name: str, **labels: Any) -> Optional[dict]:
        with self._lock:
            hist = self._histograms.get(_key(name, labels))
            return hist.as_dict() if hist is not None else None

    def snapshot(self) -> dict:
        """A plain-dict snapshot of every series (stable key order)."""

        def series(store: dict) -> dict:
            return {
                f"{name}{_label_text(labels)}": value
                for (name, labels), value in sorted(store.items())
            }

        with self._lock:
            return {
                "counters": series(self._counters),
                "gauges": series(self._gauges),
                "histograms": {
                    f"{name}{_label_text(labels)}": hist.as_dict()
                    for (name, labels), hist in sorted(
                        self._histograms.items()
                    )
                },
            }

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    # -------------------------------------------------------------- rendering

    def render_text(self) -> str:
        """Aligned human-readable dump (the CLI's ``\\metrics`` output)."""
        snap = self.snapshot()
        lines: list[str] = []
        scalars = {**snap["counters"], **snap["gauges"]}
        if scalars:
            width = max(len(k) for k in scalars)
            for key in sorted(scalars):
                value = scalars[key]
                text = f"{value:g}" if isinstance(value, float) else str(value)
                lines.append(f"{key.ljust(width)}  {text}")
        for key, hist in snap["histograms"].items():
            lines.append(f"{key}  count={hist['count']} sum={hist['sum']:g}")
            for bound, cum in hist["buckets"].items():
                bound_text = bound if isinstance(bound, str) else f"{bound:g}"
                lines.append(f"  le={bound_text:>6}  {cum}")
        return "\n".join(lines) if lines else "(no metrics recorded)"

    def render_prometheus(self) -> str:
        """Prometheus-style exposition (names with dots become underscores)."""
        lines: list[str] = []

        def prom_name(name: str) -> str:
            return name.replace(".", "_").replace("-", "_")

        with self._lock:
            for (name, labels), value in sorted(self._counters.items()):
                lines.append(
                    f"{prom_name(name)}_total{_prom_labels(labels)} {value:g}"
                )
            for (name, labels), value in sorted(self._gauges.items()):
                lines.append(
                    f"{prom_name(name)}{_prom_labels(labels)} {value:g}"
                )
            for (name, labels), hist in sorted(self._histograms.items()):
                base = prom_name(name)
                for bound, cum in hist.cumulative():
                    bound_text = "+Inf" if bound == _INF else f"{bound:g}"
                    extra = (("le", bound_text),)
                    lines.append(
                        f"{base}_bucket{_prom_labels(labels + extra)} {cum}"
                    )
                lines.append(
                    f"{base}_count{_prom_labels(labels)} {hist.count}"
                )
                lines.append(f"{base}_sum{_prom_labels(labels)} {hist.sum:g}")
        return "\n".join(lines)


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus exposition format: backslash,
    double quote, and line feed are the three characters that must be
    escaped inside a quoted label value."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _prom_labels(labels: tuple) -> str:
    if not labels:
        return ""
    return (
        "{"
        + ",".join(f'{k}="{_escape_label_value(str(v))}"' for k, v in labels)
        + "}"
    )
