"""The paper's §7 cap is the only rule that ends a POP statement.

A statement re-optimizes at most ``PopConfig.max_reoptimizations`` times,
and the last permitted round runs without CHECKs.  With the execution guard
on, transient failures add at most ``MAX_RETRIES`` attempts and the safe
plan one more, so no statement runs more than
``2 + max_reoptimizations + MAX_RETRIES`` attempts.  Pinned here:

* the bound on every DMV statement, with the default and with all five
  CHECK flavors, with and without seeded execution faults;
* a plan-cache hit obeys the cap of the statement that hits it: a variant
  serves only statements that place the same CHECKs
  (``PopConfig.checks_key``), so a POP-off statement never runs a cached
  CHECK, and a POP-on statement never runs a cached plan without one.
"""

from __future__ import annotations

import pytest

from repro import PopConfig
from repro.core.config import NO_POP, ResiliencePolicy
from repro.core.flavors import ALL_FLAVORS
from repro.plan.physical import Check, find_ops
from repro.resilience import FaultPlan
from repro.resilience.guard import MAX_RETRIES
from repro.workloads.dmv.queries import dmv_queries

from .conftest import build_dmv_db, canonical
from .test_driver_pipeline import DMV_MODEL_TEMPLATE

FLAVOR_CONFIGS = {
    "default-flavors": PopConfig(resilience=ResiliencePolicy()),
    "all-flavors": PopConfig(
        flavors=frozenset(ALL_FLAVORS), resilience=ResiliencePolicy()
    ),
}


@pytest.fixture(scope="module")
def dmv():
    """A DMV database of its own, its 39 statements and their static rows."""
    db = build_dmv_db()
    queries = dmv_queries(7)
    static = {
        name: canonical(db.execute_without_pop(sql).rows)
        for name, sql in queries
    }
    return db, queries, static


@pytest.mark.parametrize("faults", ["no-faults", "seeded-faults"])
@pytest.mark.parametrize(
    "config", FLAVOR_CONFIGS.values(), ids=FLAVOR_CONFIGS.keys()
)
def test_every_dmv_statement_ends_within_the_cap(dmv, config, faults):
    db, queries, static = dmv
    cap = config.max_reoptimizations
    for i, (name, sql) in enumerate(queries):
        plan = FaultPlan.seeded(i) if faults == "seeded-faults" else None
        result = db.execute(sql, pop=config, faults=plan)
        report = result.report
        assert report.reoptimizations <= cap, name
        assert len(report.attempts) <= 2 + cap + MAX_RETRIES, name
        assert report.retries <= MAX_RETRIES, name
        assert canonical(result.rows) == static[name], name


def _cached_narrow_check():
    """A DMV database whose plan cache holds a POP plan with a CHECK the
    next bind fires (the ``cache_hit_check_fires`` scenario's set-up)."""
    db = build_dmv_db()
    db.enable_plan_cache()
    db.execute(DMV_MODEL_TEMPLATE.format(m="MODEL00_8"))
    entry = db.plan_cache.entries()[0]
    db.plan_cache.discard(entry.shape, entry.fingerprint)
    find_ops(entry.plan, Check)[0].check_range.high = 50.0
    db.plan_cache.install(
        entry.shape, entry.plan, entry.tables,
        params=entry.params, checkpoints=entry.checkpoints,
    )
    return db


@pytest.mark.parametrize(
    "config",
    [NO_POP, PopConfig(max_reoptimizations=0)],
    ids=["pop-off", "cap-0"],
)
def test_a_cached_check_never_outruns_the_cap(config):
    db = _cached_narrow_check()
    fired = db.execute(DMV_MODEL_TEMPLATE.format(m="MODEL00_7")).report
    assert fired.cache_hit and fired.reoptimizations == 1
    db = _cached_narrow_check()
    report = db.execute(DMV_MODEL_TEMPLATE.format(m="MODEL00_7"), pop=config).report
    assert not report.cache_hit
    assert report.reoptimizations == 0
    assert [a.checkpoints_placed for a in report.attempts] == [0]


def test_the_static_baseline_never_runs_a_cached_check():
    db = build_dmv_db()
    db.enable_plan_cache()
    sql = DMV_MODEL_TEMPLATE.format(m="MODEL00_8")
    pop = db.execute(sql).report
    assert pop.attempts[0].checkpoints_placed == 1
    static = db.execute_without_pop(sql).report
    assert not static.cache_hit
    assert not static.checkpoint_events
    assert [a.checkpoints_placed for a in static.attempts] == [0]
    # Each kind of statement then reuses its own variant.
    assert db.execute(sql).report.cache_hit
    assert db.execute_without_pop(sql).report.cache_hit


def test_a_pop_statement_never_runs_a_cached_check_free_plan():
    db = build_dmv_db()
    db.enable_plan_cache()
    sql = DMV_MODEL_TEMPLATE.format(m="MODEL00_8")
    uncached = build_dmv_db().execute(sql).report
    db.execute(sql, pop=NO_POP)
    report = db.execute(sql).report
    assert not report.cache_hit
    assert report.attempts[0].checkpoints_placed == (
        uncached.attempts[0].checkpoints_placed
    ) == 1
