"""Profiler reconciliation and robustness-map artifacts (profile smoke).

Runs one TPC-H and one DMV query under the live per-operator profiler and
checks the accounting identity the profiler is built on: the sum of
per-operator *exclusive* work units must equal the attempt's metered
execution units (every meter charge happens inside exactly one wrapped
operator frame), within 1%.

Each query then gets a :class:`repro.obs.RobustnessMap` — the final plan
re-costed over a cardinality grid swept around its join edges' validity
ranges (Markl et al. §5; the cost-surface view of robustness follows
Graefe's robust-plan work).  The JSON surface and ASCII heatmap, and the
reconciliation summary, land in :data:`ARTIFACTS` as CI artifacts.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs import RobustnessMap, progress_history
from repro.workloads.dmv.queries import dmv_queries
from repro.workloads.tpch.queries import TPCH_QUERIES

#: Where the artifacts are written.
ARTIFACTS = Path(__file__).resolve().parent / "results"

#: Profile self-time totals must reconcile with the WorkMeter within this.
RECONCILE_TOLERANCE = 0.01

DMV_QUERY = "zip_inspection_rescan_0"


def _measure(db, name, sql):
    result = db.execute(sql, profile=True)
    report = result.report
    assert report.profiled, f"{name}: profiler attached but no profiles"
    attempts = []
    for i, attempt in enumerate(report.attempts):
        records = list(attempt.record.walk()) if attempt.profiled else []
        self_units = sum(r.profile.self_units for r in records)
        metered = attempt.execution_units
        drift = (
            abs(self_units - metered) / metered if metered > 0 else 0.0
        )
        attempts.append(
            {
                "attempt": i,
                "operators": len(records),
                "self_units": self_units,
                "metered_units": metered,
                "drift": drift,
            }
        )
    plan, cost_model = report.final_plan, db.optimizer.cost_model
    # The map's recost is the optimizer's arithmetic: at the estimates every
    # node not above an LCEM CHECK (whose TEMP placement charges to the TEMP
    # alone) recosts to its own est_cost, on bench-size plans too.
    cost = cost_model.recost(plan)
    for op in plan.walk():
        lcem_below = any(
            n.KIND == "CHECK" and n.flavor == "LCEM"
            for child in op.children
            for n in child.walk()
        )
        assert lcem_below or cost[op] == op.est_cost, (name, op.describe())
    rmap = RobustnessMap(plan, cost_model)
    surface = rmap.compute()
    return {
        "query": name,
        "rows": len(result.rows),
        "units": report.total_units,
        "attempts": attempts,
        "progress_fraction": progress_history(report)[-1]["fraction"],
        "map": rmap,
        "fragility": surface["fragility"],
    }


def _publish_artifacts(results):
    """Write the JSON surfaces and heatmaps CI uploads as artifacts."""
    ARTIFACTS.mkdir(parents=True, exist_ok=True)
    for r in results:
        base = ARTIFACTS / f"robustness_map_{r['query']}"
        base.with_suffix(".json").write_text(r["map"].to_json())
        base.with_suffix(".txt").write_text(r["map"].heatmap() + "\n")
    summary = {
        r["query"]: {
            "rows": r["rows"],
            "units": r["units"],
            "fragility": r["fragility"],
            "attempts": r["attempts"],
        }
        for r in results
    }
    with open(ARTIFACTS / "profile_reconciliation.json", "w") as f:
        json.dump(summary, f, indent=2)


def test_robustness_map_artifacts(tpch, dmv):
    queries = [
        (tpch, "tpch_Q3", TPCH_QUERIES["Q3"]),
        (dmv, DMV_QUERY, dict(dmv_queries())[DMV_QUERY]),
    ]
    results = [_measure(db, name, sql) for db, name, sql in queries]
    _publish_artifacts(results)

    for r in results:
        # The accounting identity behind the profiler: every work unit is
        # charged inside exactly one wrapped frame.
        for a in r["attempts"]:
            assert a["drift"] <= RECONCILE_TOLERANCE, (
                f"{r['query']} attempt {a['attempt']}: profile self-time "
                f"{a['self_units']:.3f}u disagrees with metered "
                f"{a['metered_units']:.3f}u by {a['drift'] * 100:.2f}%"
            )
        assert r["fragility"] >= 1.0
        assert r["progress_fraction"] == 1.0
