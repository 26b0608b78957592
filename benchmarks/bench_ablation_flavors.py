"""Ablation — checkpoint flavor mixes (paper §3.4 risk/opportunity).

Runs the Figure 11 endpoints and a DMV trap query under different flavor
sets, measuring total work.  Expected shape: conservative flavors (LC only)
miss some opportunities; LC+LCEM (the paper's default) captures the NLJN
outer errors; adding ECB reacts earlier on gross over-estimates."""

from __future__ import annotations

from repro.core.config import NO_POP, PopConfig
from repro.core.flavors import ECB, ECDC, LC, LCEM
from repro.workloads.dmv.queries import dmv_queries
from repro.workloads.tpch.queries import Q10_MARKER

MIXES = [
    ("no POP", None),
    ("LC only", frozenset({LC})),
    ("LC+LCEM (default)", frozenset({LC, LCEM})),
    ("LC+ECB", frozenset({LC, ECB})),
    ("LC+LCEM+ECDC", frozenset({LC, LCEM, ECDC})),
]


def measure(inputs):
    tpch, dmv = inputs.tpch, inputs.dmv
    dmv_sqls = dict(dmv_queries())
    cases = [
        ("Q10 marker @55%", tpch, Q10_MARKER, {"p1": "MODE00"}),
        ("Q10 marker @0.1%", tpch, Q10_MARKER, {"p1": "MODE27"}),
        ("DMV zip_accident_rescan_0", dmv, dmv_sqls["zip_accident_rescan_0"], None),
    ]
    rows = []
    for label, db, sql, params in cases:
        row = {"case": label}
        for mix_name, flavors in MIXES:
            config = NO_POP if flavors is None else PopConfig(flavors=flavors)
            row[mix_name] = db.execute(sql, params=params, pop=config).report.total_units
        rows.append(row)
    return rows


def headline(rows):
    high_sel, low_sel = rows[0], rows[1]
    return {
        "high_sel": {name: high_sel[name] for name, _ in MIXES},
        "low_sel": {name: low_sel[name] for name, _ in MIXES},
        "default_low_sel_extra_pct": 100 * (
            low_sel["LC+LCEM (default)"] / low_sel["no POP"] - 1
        ),
        "ecb_low_sel_vs_no_pop": low_sel["LC+ECB"] / low_sel["no POP"],
    }


def test_ablation_flavor_mixes(paper):
    h = paper["ablation_flavors"]["headline"]
    high_sel, low_sel = h["high_sel"], h["low_sel"]
    # The default mix must beat both no-POP and LC-only on the
    # high-selectivity misestimate (LC alone has no NLJN-outer checkpoint).
    assert high_sel["LC+LCEM (default)"] < high_sel["no POP"]
    assert high_sel["LC+LCEM (default)"] <= high_sel["LC only"] * 1.02
    # At the accurate end the lazy mixes stay within a few percent of
    # no-POP (the "insurance premium" is small)...
    for name in ("LC only", "LC+LCEM (default)", "LC+LCEM+ECDC"):
        assert low_sel[name] <= low_sel["no POP"] * 1.10, name
    # ...while ECB exhibits exactly the risk Table 1 assigns it: an eager
    # trigger before materialization completes throws away work (its buffer
    # is not reusable), so it may regress — but boundedly.
    assert low_sel["LC+ECB"] <= low_sel["no POP"] * 3.0
