"""Figure 11 — Robustness of TPC-H Q10 with POP.

The literal in Q10's LINEITEM predicate is replaced by a parameter marker
(``l_shipmode = ?``), so the optimizer compiles with a default selectivity.
Binding the marker to each of the Zipf-distributed shipmode values sweeps
the actual selectivity over ~2 orders of magnitude.  Three series are
measured, exactly as in the paper:

(a) POP enabled, default selectivity estimate;
(b) no POP, default selectivity estimate (the static plan);
(c) no POP, correct selectivity (literal instead of marker) — the
    per-point optimal reference.

Expected shape: (b) degrades sharply at high selectivities; (a) tracks (c)
within a small factor across the whole range; the optimal plan changes as
selectivity grows.
"""

from __future__ import annotations

import collections

from repro.core.config import NO_POP, PopConfig
from repro.workloads.tpch.queries import Q10_MARKER
from repro.workloads.tpch.schema import shipmodes


def measure(inputs):
    tpch = inputs.tpch
    lineitem = tpch.catalog.table("lineitem")
    counts = collections.Counter(row[10] for row in lineitem.rows)
    total = lineitem.row_count
    # Sweep from rare to frequent (ascending actual selectivity).
    modes = sorted(shipmodes(), key=lambda m: counts[m])
    literal_query = Q10_MARKER.replace("= ?", "= '{mode}'")

    rows = []
    for mode in modes:
        pop = tpch.execute(Q10_MARKER, params={"p1": mode}, pop=PopConfig()).report
        static = tpch.execute(Q10_MARKER, params={"p1": mode}, pop=NO_POP).report
        optimal = tpch.execute(literal_query.format(mode=mode), pop=NO_POP).report
        rows.append(
            {
                "mode": mode,
                "selectivity": counts[mode] / total,
                "pop": pop.total_units,
                "static": static.total_units,
                "optimal": optimal.total_units,
                "reopts": pop.reoptimizations,
                "optimal_order": optimal.attempts[-1].join_order,
            }
        )
    return rows


def headline(rows):
    high = rows[-1]
    return {
        "min_selectivity_pct": 100 * rows[0]["selectivity"],
        "max_selectivity_pct": 100 * high["selectivity"],
        "worst_pop_vs_optimal": max(r["pop"] / r["optimal"] for r in rows),
        "high_static_units": high["static"],
        "high_optimal_units": high["optimal"],
        "high_speedup": high["static"] / high["pop"],
        "distinct_optimal_plans": len({r["optimal_order"] for r in rows}),
        # POP's premium where its CHECKs never fired.
        "worst_overhead_without_reopt_pct": 100 * max(
            r["pop"] / r["static"] - 1 for r in rows if r["reopts"] == 0
        ),
    }


def test_fig11_robustness(paper):
    h = paper["fig11_robustness"]["headline"]
    # Shape assertions (who wins, where): POP must never be catastrophically
    # far from optimal, and must clearly beat the static plan at the
    # high-selectivity end.
    assert h["worst_pop_vs_optimal"] < 4.0
    assert h["high_speedup"] > 1.5
    assert h["distinct_optimal_plans"] >= 2
