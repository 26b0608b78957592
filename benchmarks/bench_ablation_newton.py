"""Ablation — Newton-Raphson iteration cap for validity ranges.

The paper caps the Fig. 5 probe at 3 iterations, reporting that this
suffices for good validity ranges.  This ablation sweeps the cap and
measures how many finite bounds are found and how tight the final Q10
check range is.
"""

from __future__ import annotations

import math

from repro.optimizer.enumeration import OptimizerOptions
from repro.plan.physical import JoinOp
from repro.workloads.tpch.queries import Q10_MARKER, TPCH_QUERIES

QUERIES = ["Q3", "Q5", "Q9", "Q18"]


def measure(inputs):
    tpch = inputs.tpch
    rows = []
    for cap in (1, 2, 3, 4, 6):
        options = OptimizerOptions(validity_iterations=cap)
        finite_bounds = 0
        total_edges = 0
        tightness = []
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
        rows.append(
            {
                "cap": cap,
                "finite": finite_bounds,
                "edges": total_edges,
                "median_upper": sorted(tightness)[len(tightness) // 2]
                if tightness
                else float("nan"),
            }
        )
    return rows


def headline(rows):
    by_cap = {r["cap"]: r for r in rows}
    return {
        f"cap{cap}_{key}": by_cap[cap][key]
        for cap in (1, 3, 6)
        for key in ("finite", "edges", "median_upper")
    }


def test_ablation_newton_iterations(paper):
    h = paper["ablation_newton"]["headline"]
    # 3 iterations already finds nearly everything deeper probing finds:
    # diminishing returns beyond the paper's 3 iterations.
    assert h["cap3_finite"] >= 0.9 * h["cap6_finite"]
    # And at least one iteration is clearly worse than three.
    assert h["cap1_finite"] <= h["cap3_finite"]
