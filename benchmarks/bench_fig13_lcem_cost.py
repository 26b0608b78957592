"""Figure 13 — Cost of Lazy Checking with Eager Materialization.

LCEM check/materialization pairs are proactively added on the outer of
every nested-loop join, and the queries are run *without* any
re-optimization.  The figure reports the execution-time increase caused by
the added materializations, normalized by the plain execution.  The paper
found ≤3% — validating the heuristic that an NLJN outer the optimizer
believed small enough for nested loops is also small enough to materialize.
"""

from __future__ import annotations

from repro.core.config import NO_POP, PopConfig
from repro.core.flavors import LCEM
from repro.workloads.tpch.queries import Q10_MARKER, TPCH_QUERIES

QUERIES = ["Q3", "Q4", "Q5", "Q7", "Q9"]
#: The companion case: Q10's marker bound to its 55% shipmode, an NLJN
#: outer far larger than estimated.
MARKER = "Q10 marker @55%"


def measure(inputs):
    tpch = inputs.tpch
    lcem_only = PopConfig(flavors=frozenset({LCEM}), dry_run=True)
    cases = [(name, TPCH_QUERIES[name], None) for name in QUERIES]
    cases.append((MARKER, Q10_MARKER, {"p1": "MODE00"}))
    rows = []
    for name, sql, params in cases:
        plain = tpch.execute(sql, params=params, pop=NO_POP).report
        with_lcem = tpch.execute(sql, params=params, pop=lcem_only).report
        rows.append(
            {
                "query": name,
                "plain": plain.total_units,
                "lcem": with_lcem.total_units,
                "checkpoints": with_lcem.attempts[0].checkpoints_placed,
                "overhead": with_lcem.total_units / plain.total_units,
            }
        )
    return rows


def headline(rows):
    overheads = [r["overhead"] for r in rows if r["query"] != MARKER]
    return {
        "best_overhead": min(overheads),
        "worst_overhead": max(overheads),
        "marker_overhead": rows[-1]["overhead"],
    }


def test_fig13_lcem_cost(paper):
    h = paper["fig13_lcem_cost"]["headline"]
    # Paper Figure 13: 1.005-1.03.  Validates the paper's hypothesis: when
    # NLJN is picked over hash join, the outer is small enough to
    # materialize aggressively.
    assert h["worst_overhead"] < 1.05
    # Sanity companion: LCEM overhead stays negligible even when the outer
    # is much larger than estimated (the TEMP cost is linear, tiny next to
    # the probing cost it guards).
    assert h["marker_overhead"] < 1.10
