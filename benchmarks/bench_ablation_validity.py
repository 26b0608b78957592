"""Ablation — validity ranges vs ad hoc cardinality-error thresholds.

The paper (§1.2, §2.2) argues that fixed error thresholds (as in KD98) are
the wrong trigger: "a 100x error in the cardinality of the NATION table may
make no difference to plan optimality, whereas a 10 percent increase in
ORDERS may turn a two-stage hash join into a three-stage hash join".  This
ablation runs the Figure 11 sweep under (a) Newton-Raphson validity ranges
and (b) ad hoc thresholds [est/K, est*K] for several K, and compares:

* useless re-optimizations (a reopt that did not change the join order),
* total work across the sweep.
"""

from __future__ import annotations

import collections

from repro.core.config import PopConfig
from repro.workloads.tpch.queries import Q10_MARKER
from repro.workloads.tpch.schema import shipmodes


def sweep(tpch, config):
    lineitem = tpch.catalog.table("lineitem")
    counts = collections.Counter(row[10] for row in lineitem.rows)
    modes = sorted(shipmodes(), key=lambda m: counts[m])[::3]  # every 3rd
    total_units = 0.0
    reopts = 0
    useless = 0
    for mode in modes:
        report = tpch.execute(Q10_MARKER, params={"p1": mode}, pop=config).report
        total_units += report.total_units
        reopts += report.reoptimizations
        attempts = report.attempts
        for before, after in zip(attempts, attempts[1:]):
            if before.join_order == after.join_order and not after.reused_mvs:
                useless += 1
    return {"units": total_units, "reopts": reopts, "useless": useless}


def measure(inputs):
    rows = [{"policy": "validity ranges (paper)", **sweep(inputs.tpch, PopConfig())}]
    for k in (2.0, 5.0, 20.0):
        config = PopConfig(adhoc_threshold_factor=k, require_alternatives=False)
        rows.append({"policy": f"ad hoc threshold K={k:g}", **sweep(inputs.tpch, config)})
    return rows


def headline(rows):
    # Tight ad hoc thresholds re-optimize on harmless errors; loose ones
    # miss harmful errors.  Validity ranges adapt the trigger to actual
    # plan crossovers, which is the paper's core argument.
    by_policy = {r["policy"]: r for r in rows}
    validity = by_policy["validity ranges (paper)"]
    return {
        "validity": validity,
        "k2": by_policy["ad hoc threshold K=2"],
        "k20": by_policy["ad hoc threshold K=20"],
        "k20_extra_pct": 100 * (
            by_policy["ad hoc threshold K=20"]["units"] / validity["units"] - 1
        ),
        "min_units": min(r["units"] for r in rows),
    }


def test_ablation_validity_vs_adhoc(paper):
    h = paper["ablation_validity"]["headline"]
    # The paper's claim, measurably: a tight fixed threshold triggers at
    # least as many re-optimizations, without being cheaper overall.
    assert h["k2"]["reopts"] >= h["validity"]["reopts"]
    assert h["validity"]["units"] <= h["min_units"] * 1.05
