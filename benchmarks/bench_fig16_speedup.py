"""Figure 16 — Per-query speedup (+) / regression (-) factors on the DMV
workload.

Positive factors are speedups (noPOP / POP), negative factors regressions
(-POP / noPOP), matching the paper's bar chart.  The paper saw speedups up
to ~90x and a worst regression of 5x; this reproduction's absolute factors
are smaller (the data is ~300x smaller, which caps how catastrophic a wrong
plan can get — see EXPERIMENTS.md) but the distribution shape matches:
a few large speedups, a broad unchanged middle, a few mild regressions.
"""

from __future__ import annotations


def measure(inputs):
    """The Figure 15 run as bars, largest speedup first."""
    return [
        {"query": r["query"], "factor": r["factor"], "reopts": r["reopts"]}
        for r in sorted(inputs.dmv_pairs, key=lambda r: -r["factor"])
    ]


def headline(rows):
    best, worst = rows[0], rows[-1]
    return {
        "max_speedup": best["factor"],
        "max_speedup_query": best["query"],
        "max_regression": abs(min(-1.0, worst["factor"])),
        "max_regression_query": worst["query"],
        "worst_factor": worst["factor"],
        "wins_without_reopt": sum(
            1 for r in rows if r["factor"] > 1.2 and r["reopts"] < 1
        ),
    }


def test_fig16_speedup_regression(paper):
    h = paper["fig16_speedup"]["headline"]
    assert h["max_speedup"] > 2.0, "the workload must contain clear POP wins"
    assert h["worst_factor"] > -3.0, (
        "regressions must stay mild — validity ranges bound the risk"
    )
    # Every re-optimization that fired is visible in the factor accounting.
    assert h["wins_without_reopt"] == 0
