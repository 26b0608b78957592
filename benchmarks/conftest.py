"""The inputs every paper-figure script runs on, and the one results file.

Each ``bench_<figure>.py`` in :data:`FIGURES` has ``measure(inputs)`` (its
rows, work units and counts only) and ``headline(rows)`` (the numbers
EXPERIMENTS.md quotes and its test asserts).  :func:`figure` runs one;
``python -m benchmarks`` runs them all into :data:`PAPER_JSON`, and
``test_paper_json.py`` holds that file to a fresh run.
"""

from __future__ import annotations

import importlib
import json
from functools import cached_property
from pathlib import Path
from typing import Any, Optional

import pytest

from repro.core.config import NO_POP, PopConfig
from repro.workloads.dmv.generator import make_dmv_db
from repro.workloads.dmv.queries import dmv_queries
from repro.workloads.tpch.generator import make_tpch_db

#: The results file: per figure ``{"headline": ..., "rows": ...}``.
PAPER_JSON = Path(__file__).resolve().parent / "results" / "paper.json"

#: Every work-unit figure, named by its script ``bench_<name>.py``.
FIGURES = (
    "ablation_flavors",
    "ablation_newton",
    "ablation_reuse",
    "ablation_validity",
    "fig11_robustness",
    "fig12_lc_overhead",
    "fig13_lcem_cost",
    "fig14_opportunities",
    "fig15_dmv_scatter",
    "fig16_speedup",
    "parallel_local_checking",
    "table1_flavors",
)

#: The TPC-H scale every quoted number is measured at.
TPCH_SCALE = 0.01


def run_pair(db, statement, params: Optional[dict[str, Any]] = None,
             pop: Optional[PopConfig] = None):
    """Run a statement without POP (the static baseline) and with POP;
    returns both results."""
    baseline = db.execute(statement, params=params, pop=NO_POP)
    progressive = db.execute(statement, params=params, pop=pop)
    return baseline, progressive


def speedup_factor(baseline_units: float, pop_units: float) -> float:
    """Positive = speedup, negative = regression factor (paper Fig. 16)."""
    if pop_units <= 0 or baseline_units <= 0:
        return 0.0
    ratio = baseline_units / pop_units
    if ratio >= 1.0:
        return ratio
    return -1.0 / ratio


class Inputs:
    """The databases the figures run on, each built on first use."""

    @cached_property
    def tpch(self):
        return make_tpch_db(scale_factor=TPCH_SCALE, seed=42)

    @cached_property
    def dmv(self):
        return make_dmv_db()

    @cached_property
    def dmv_pairs(self) -> list[dict]:
        """All 39 DMV queries with and without POP, once; Figures 15 and
        16 are two views of this run."""
        rows = []
        for name, sql in dmv_queries():
            baseline, progressive = (
                result.report for result in run_pair(self.dmv, sql)
            )
            rows.append(
                {
                    "query": name,
                    "nopop": baseline.total_units,
                    "pop": progressive.total_units,
                    "reopts": progressive.reoptimizations,
                    "factor": speedup_factor(
                        baseline.total_units, progressive.total_units
                    ),
                }
            )
        return rows


def figure(name: str, inputs: Inputs) -> dict:
    """One figure's ``{"headline": ..., "rows": ...}``, as JSON stores it."""
    module = importlib.import_module(f"benchmarks.bench_{name}")
    rows = module.measure(inputs)
    return json.loads(json.dumps({"headline": module.headline(rows), "rows": rows}))


class Paper(dict):
    """Figure name -> its fresh entry, measured on first lookup."""

    def __init__(self, inputs: Inputs):
        super().__init__()
        self.inputs = inputs

    def __missing__(self, name: str) -> dict:
        self[name] = entry = figure(name, self.inputs)
        return entry


@pytest.fixture(scope="session")
def inputs():
    return Inputs()


@pytest.fixture(scope="session")
def tpch(inputs):
    return inputs.tpch


@pytest.fixture(scope="session")
def dmv(inputs):
    return inputs.dmv


@pytest.fixture(scope="session")
def paper(inputs):
    return Paper(inputs)
