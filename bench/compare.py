"""``--compare A B``: is B worse than A by more than a metric's bound?

Each side is a record file written by ``python3 -m bench`` or a directory of
them (one set of runs).  A side's value is the median over its runs; with two
or more runs its spread is the distance between the quartiles as a share of
the median.  One row is printed per (workload, end-to-end metric):

* ``BREACH``     B's median is worse than A's by more than the bound;
* ``unresolved`` no breach, but a side's spread is wider than the bound, so
  the runs cannot show the metric unchanged;
* ``ok``         otherwise.

Exits non-zero on any breach.
"""

from __future__ import annotations

import glob
import json
import os
import statistics

from bench.metrics import END_TO_END


def load_runs(path: str) -> list[dict]:
    files = (
        sorted(glob.glob(os.path.join(path, "bench-seed*.json")))
        if os.path.isdir(path) else [path]
    )
    runs = []
    for name in files:
        with open(name) as f:
            runs.append(json.load(f))
    if not runs:
        raise SystemExit(f"bench: no record files in {path}")
    return runs


def side(runs: list[dict], workload: str, metric: str):
    """Median and spread of one metric over a set of runs."""
    values = [
        v for run in runs
        if (v := run["workloads"].get(workload, {})
            .get("end_to_end", {}).get("values", {}).get(metric)) is not None
    ]
    if not values:
        return None, None
    median = statistics.median(values)
    spread = None
    if len(values) >= 2 and median:
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / abs(median)
    return median, spread


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a`` (absolute
    when ``a`` is 0, as for ``fail_frac``)."""
    delta = b - a if better == "lower" else a - b
    return delta / abs(a) if a else delta


def compare_files(path_a: str, path_b: str) -> int:
    runs_a, runs_b = load_runs(path_a), load_runs(path_b)
    workloads = list(runs_a[0]["workloads"])
    breaches = 0
    print(f"{'workload':12s} {'metric':15s} {'A':>12s} {'B':>12s} "
          f"{'worse by':>9s} {'bound':>6s}  verdict")
    for workload in workloads:
        for metric in END_TO_END:
            if not metric.applies(workload):
                continue
            a, spread_a = side(runs_a, workload, metric.name)
            b, spread_b = side(runs_b, workload, metric.name)
            if a is None or b is None:
                print(f"{workload:12s} {metric.name:15s} missing on one side"
                      "  BREACH")
                breaches += 1
                continue
            worse = worse_by(a, b, metric.better)
            spreads = [s for s in (spread_a, spread_b) if s is not None]
            if worse > metric.bound:
                verdict = "BREACH"
                breaches += 1
            elif spreads and max(spreads) > metric.bound:
                verdict = f"unresolved (spread {max(spreads):.1%})"
            else:
                verdict = "ok"
            print(f"{workload:12s} {metric.name:15s} {a:12.6g} {b:12.6g} "
                  f"{worse:+9.2%} {metric.bound:6.1%}  {verdict}")
    print(f"# {breaches} breach(es)")
    return 1 if breaches else 0
