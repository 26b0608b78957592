"""Figure 14 — Re-optimization opportunities during query execution.

Checkpoints are placed (LC above TEMP/SORT, LC above hash-join builds, LCEM
on NLJN outers) but never triggered (dry-run); every checkpoint evaluation
is logged with the fraction of total query work completed at that moment.
The paper's scatter plot shows opportunities clustered early in execution,
with one or two mid-execution checkpoints per query.

A second pass enables ECB valves, whose opportunity is a *window* (from the
first buffered row to the valve's decision point).
"""

from __future__ import annotations

from repro.core.config import PopConfig
from repro.core.flavors import ECB, LC, LCEM
from repro.plan.physical import Sort, Temp
from repro.workloads.tpch.queries import TPCH_QUERIES

QUERIES = ["Q2", "Q3", "Q4", "Q5", "Q7", "Q8", "Q11", "Q18"]


def classify(plan, event):
    """Figure 14 category of one checkpoint event."""
    ops = {op.op_id: op for op in plan.walk()}
    check = ops.get(event.op_id)
    if event.flavor == "ECB":
        return "ECB"
    if event.flavor == LCEM:
        return "LCEM"
    if check is not None and check.children and isinstance(
        check.children[0], (Sort, Temp)
    ):
        return "LC (above TMP/SORT)"
    return "LC (above HJ)"


def opportunities(tpch, flavors, lc_above_hash_build):
    config = PopConfig(
        flavors=flavors, dry_run=True, lc_above_hash_build=lc_above_hash_build
    )
    rows = []
    for name in QUERIES:
        report = tpch.execute(TPCH_QUERIES[name], pop=config).report
        total = report.total_units
        attempt = report.attempts[0]
        for event in attempt.checkpoint_events:
            rows.append(
                {
                    "query": name,
                    "kind": classify(attempt.plan, event),
                    "fraction": min(1.0, event.units_at_event / total),
                    "observed": event.observed,
                }
            )
    return rows


def measure(inputs):
    lazy = opportunities(
        inputs.tpch, frozenset({LC, LCEM}), lc_above_hash_build=True
    )
    eager = opportunities(
        inputs.tpch, frozenset({LC, ECB}), lc_above_hash_build=False
    )
    return lazy + [r for r in eager if r["kind"] == "ECB"]


def headline(rows):
    ecb = [r["fraction"] for r in rows if r["kind"] == "ECB"]
    return {
        "queries": len(QUERIES),
        "opportunities": len(rows),
        # The paper: opportunities cluster early, with 1-2 mid-execution.
        "early": sum(1 for r in rows if r["fraction"] < 0.3),
        "kinds": sorted({r["kind"] for r in rows}),
        "ecb_first_pct": 100 * min(ecb),
        "ecb_last_pct": 100 * max(ecb),
    }


def test_fig14_opportunities(paper):
    entry = paper["fig14_opportunities"]
    h = entry["headline"]
    assert h["opportunities"] >= len(QUERIES), (
        "every query should expose checkpoints"
    )
    assert "LCEM" in h["kinds"]
    assert "LC (above TMP/SORT)" in h["kinds"] or "LC (above HJ)" in h["kinds"]
    # Every fraction is a valid progress point.
    assert all(0.0 <= r["fraction"] <= 1.0 for r in entry["rows"])
