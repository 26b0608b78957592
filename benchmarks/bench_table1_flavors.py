"""Table 1 — Placement, risk, and opportunity of the checkpoint flavors.

The paper's placement and risk columns live in the flavor registry
(``repro.core.flavors.TABLE1``); this backs them with measured proxies
across a TPC-H query set:

* *overhead* — execution units with the flavor placed but never triggered,
  normalized by the no-POP run (the risk a checkpoint imposes even when
  nothing goes wrong);
* *opportunities* — how many checkpoints of the flavor the placement pass
  finds across the TPC-H query set.
"""

from __future__ import annotations

from repro.core.config import NO_POP, PopConfig
from repro.core.flavors import ECB, ECDC, ECWC, LC, LCEM
from repro.workloads.tpch.queries import TPCH_QUERIES

QUERIES = ["Q2", "Q3", "Q5", "Q7", "Q9", "Q18"]


def measure(inputs):
    tpch = inputs.tpch
    rows = []
    for flavor in (LC, LCEM, ECB, ECWC, ECDC):
        total_overhead = 0.0
        total_plain = 0.0
        opportunities = 0
        for name in QUERIES:
            sql = TPCH_QUERIES[name]
            plain = tpch.execute(sql, pop=NO_POP).report
            flavored = tpch.execute(
                sql, pop=PopConfig(flavors=frozenset({flavor}), dry_run=True)
            ).report
            total_plain += plain.total_units
            total_overhead += flavored.total_units
            opportunities += flavored.attempts[0].checkpoints_placed
        rows.append(
            {
                "flavor": flavor,
                "overhead": total_overhead / total_plain,
                "opportunities": opportunities,
            }
        )
    return rows


def headline(rows):
    return {
        "overhead": {r["flavor"]: r["overhead"] for r in rows},
        "max_overhead_pct": 100 * (max(r["overhead"] for r in rows) - 1),
        "opportunities": {r["flavor"]: r["opportunities"] for r in rows},
    }


def test_table1_flavors(paper):
    h = paper["table1_flavors"]["headline"]
    overhead, opportunities = h["overhead"], h["opportunities"]
    # The paper's ordering of risk: LC's untriggered overhead is the
    # smallest of all flavors.
    assert overhead[LC] <= min(overhead.values()) + 1e-9
    # Every flavor's untriggered overhead is small in absolute terms.
    assert all(o < 1.10 for o in overhead.values())
    # ECWC/ECDC offer at least as many opportunities as LC (paper: "much
    # greater opportunities"), and ECDC finds some.
    assert opportunities[ECWC] >= opportunities[LC]
    assert opportunities[ECDC] >= opportunities[LC]
    assert opportunities[ECDC] >= 1
