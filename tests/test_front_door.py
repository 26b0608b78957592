"""One front door: every harness plans and runs statements through
``Database`` and its POP driver.

Three things are pinned here:

* every path into the engine — the socket server, the transaction chaos
  harness and a bare ``Database.execute`` (the figure scripts' path) —
  plans each attempt in the driver (``PopDriver._plan``), and the engine
  reads one environment variable, ``REPRO_BATCH_SIZE``;
* ``Database.plan`` is the first attempt of ``Database.execute`` without the
  execution: same fingerprint, same CHECKs, same explain text — with
  cross-statement learning on too, where both plan with what was learned;
* ``PopConfig(lc_above_hash_build=True)`` is what ``PopDriver``'s constructor
  argument of that name used to be (Figure 14's "LC above HJ" opportunities).
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest

from repro import PopConfig
from repro.core import driver as driver_module
from repro.core.flavors import ALL_FLAVORS, LC, LCEM
from repro.optimizer.fingerprint import plan_fingerprint
from repro.plan.explain import explain_plan
from repro.plan.physical import Sort, Temp
from repro.server import ReproClient, ReproServer, ServerConfig
from repro.workloads.dmv.queries import dmv_queries
from repro.workloads.tpch.generator import make_tpch_db
from repro.workloads.tpch.queries import TPCH_QUERIES

from .conftest import build_dmv_db
from .test_obs import marker_query

REPO_ROOT = Path(__file__).resolve().parents[1]
OWNER_SQL = (
    "SELECT o.o_id, o.o_name FROM owner o WHERE o.o_zip < 5 ORDER BY o.o_id"
)


# ------------------------------------------------ every path takes the driver


@pytest.fixture
def plan_spy(monkeypatch):
    """Record the attempt number of every plan the driver chooses."""
    calls = []
    real = driver_module.PopDriver._plan

    def spy(self, sc):
        calls.append(sc.attempt)
        return real(self, sc)

    monkeypatch.setattr(driver_module.PopDriver, "_plan", spy)
    return calls


def test_database_execute_plans_every_attempt_in_the_driver(star_db, plan_spy):
    result = star_db.execute(marker_query(), params={"p": "COMMON"})
    assert len(result.report.attempts) == 2  # the marker re-optimizes once
    assert plan_spy == [0, 1]


def test_server_statements_are_planned_by_the_driver(dmv_db, plan_spy):
    server = ReproServer(dmv_db, ServerConfig(workers=1))
    host, port = server.start()
    try:
        with ReproClient(host, port) as client:
            first = client.execute(OWNER_SQL)
            second = client.execute(OWNER_SQL)  # session plan-cache hit
    finally:
        server.shutdown(drain=False)
    assert first["ok"] and second["ok"]
    assert first["rows"] == second["rows"]
    assert len(plan_spy) == first["attempts"] + second["attempts"]


def test_txn_chaos_snapshot_readers_are_planned_by_the_driver(plan_spy):
    from repro.txn.chaos import run_snapshot

    outcome = run_snapshot(7, writers=2, txns_per_writer=2, rows_per_txn=2)
    assert outcome.ok, outcome.problems
    # Two readers x (4 repeats + 1 late read), less the one that vanishes
    # after its first statement, plus the pinned re-reads.
    assert len(plan_spy) >= 6


def test_the_engine_reads_one_environment_variable():
    """``REPRO_BATCH_SIZE`` (a ``PopConfig`` default) is the only switch
    outside the API; every other setting is a constructor argument."""
    names = set()
    for path in (REPO_ROOT / "src" / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Subscript):
                target, key = node.value, node.slice
            elif isinstance(node, ast.Call) and node.args:
                target, key = node.func, node.args[0]
                if isinstance(target, ast.Attribute) and target.attr == "get":
                    target = target.value
            else:
                continue
            if isinstance(target, ast.Attribute) and target.attr in (
                "environ", "getenv"
            ):
                names.add((path.name, ast.literal_eval(key)))
    assert names == {("config.py", "REPRO_BATCH_SIZE")}


# ------------------------------------------------------------- Database.plan

PLAN_CONFIGS = {
    "default": PopConfig(),
    "all-flavors": PopConfig(flavors=ALL_FLAVORS, lc_above_hash_build=True),
    "no-alternatives-guard": PopConfig(
        require_alternatives=False, min_cost_for_checkpoints=0.0
    ),
    "reopt-limit-0": PopConfig(max_reoptimizations=0),
    "pop-off": PopConfig(enabled=False),
}


@pytest.mark.parametrize("config", PLAN_CONFIGS.values(), ids=PLAN_CONFIGS.keys())
def test_plan_is_the_first_attempt_of_execute(tpch_db, dmv_db, config):
    suites = [(tpch_db, list(TPCH_QUERIES.items())), (dmv_db, dmv_queries(7))]
    statements = 0
    for db, queries in suites:
        for name, sql in queries:
            _opt, placement = db.plan(sql, pop=config)
            first = db.execute(sql, pop=config).report.attempts[0]
            assert explain_plan(placement.plan) == explain_plan(first.plan), name
            assert placement.count == first.checkpoints_placed, name
            assert plan_fingerprint(placement.plan) == plan_fingerprint(
                first.plan
            ), name
            assert db.explain(sql, pop=config) == explain_plan(first.plan), name
            statements += 1
    assert statements == 12 + 39


def test_plan_is_the_first_attempt_of_execute_with_learning():
    """Between a statement's first and second run, EXPLAIN shows the plan
    the second run starts with: both use what the first run taught."""
    db = build_dmv_db()
    db.enable_learning()
    queries = dmv_queries(7)
    for name, sql in queries:
        db.execute(sql)
        _opt, placement = db.plan(sql)
        second = db.execute(sql).report.attempts[0]
        assert plan_fingerprint(placement.plan) == plan_fingerprint(
            second.plan
        ), name
        assert placement.count == second.checkpoints_placed, name
    assert len(db.learning) > 0 and len(queries) == 39


# ---------------------------------------------------------------- Figure 14


def _lc_above_hash_join(report) -> list:
    """Fraction of the statement's work done at each LC evaluated above a
    hash-join build, as ``bench_fig14_opportunities.py`` computes it."""
    attempt = report.attempts[0]
    ops = {op.op_id: op for op in attempt.plan.walk()}
    return [
        event.units_at_event / report.total_units
        for event in attempt.checkpoint_events
        if event.flavor == LC
        and not isinstance(ops[event.op_id].children[0], (Sort, Temp))
    ]


def test_lc_above_hash_build_reproduces_fig14():
    paper = json.loads(
        (REPO_ROOT / "benchmarks" / "results" / "paper.json").read_text()
    )
    published = sorted(
        (row["query"], row["fraction"])
        for row in paper["fig14_opportunities"]["rows"]
        if row["kind"] == "LC (above HJ)"
    )
    assert published, "the published figure has LC-above-HJ opportunities"
    tpch = make_tpch_db(scale_factor=0.01, seed=42)  # benchmarks/conftest.py
    lazy = PopConfig(flavors={LC, LCEM}, dry_run=True, lc_above_hash_build=True)
    measured = []
    for name in sorted({query for query, _ in published}):
        sql = TPCH_QUERIES[name]
        fractions = _lc_above_hash_join(tpch.execute(sql, pop=lazy).report)
        measured += [(name, f) for f in sorted(fractions)]
        plain = PopConfig(flavors={LC, LCEM}, dry_run=True)
        assert not _lc_above_hash_join(tpch.execute(sql, pop=plain).report)
    assert measured == published
