"""Shared fixtures for the figure benchmarks.

``REPRO_BENCH_SCALE`` scales the TPC-H database (default 0.01); the DMV
database always runs at its paper-calibrated default scale.
"""

from __future__ import annotations

import os

import pytest

from repro.workloads.dmv.generator import make_dmv_db
from repro.workloads.tpch.generator import make_tpch_db

TPCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.01"))


@pytest.fixture(scope="session")
def tpch():
    return make_tpch_db(scale_factor=TPCH_SCALE, seed=42)


@pytest.fixture(scope="session")
def dmv():
    return make_dmv_db()


@pytest.fixture(scope="session")
def dmv_results(dmv):
    """Run all 39 DMV queries with and without POP once per session;
    shared by the Fig. 15 and Fig. 16 benchmarks."""
    from repro.bench.harness import run_pair, speedup_factor
    from repro.workloads.dmv.queries import dmv_queries

    rows = []
    for name, sql in dmv_queries():
        baseline, progressive = run_pair(dmv, sql)
        rows.append(
            {
                "query": name,
                "nopop": baseline.units,
                "pop": progressive.units,
                "reopts": progressive.reoptimizations,
                "factor": speedup_factor(baseline.units, progressive.units),
            }
        )
    return rows
