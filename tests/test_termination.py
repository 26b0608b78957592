"""The paper's §7 cap is the only rule that ends a POP statement.

A statement re-optimizes at most ``PopConfig.max_reoptimizations`` times,
and the last permitted round runs without CHECKs.  Every attempt after the
first is a re-optimized round (a failed attempt raises, nothing retries
it), so no statement runs more than ``1 + max_reoptimizations`` attempts.
Pinned here:

* the bound on every DMV statement, with the default and with all five
  CHECK flavors, with and without seeded ``stats`` and ``mem_shrink``
  faults, ungoverned and under a governor with one-page floors (where the
  shrinks renegotiate reservations and operators spill);
* a plan-cache hit obeys the cap of the statement that hits it: a variant
  serves only statements that place the same CHECKs
  (``PopConfig.checks_key``), so a POP-off statement never runs a cached
  CHECK, and a POP-on statement never runs a cached plan without one.
"""

from __future__ import annotations

import pytest

from repro import PopConfig
from repro.core.config import NO_POP
from repro.core.flavors import ALL_FLAVORS
from repro.resilience import ALL_KINDS, FaultPlan
from repro.workloads.dmv.queries import dmv_queries

from .conftest import build_dmv_db, canonical
from .test_driver_pipeline import DMV_MODEL_TEMPLATE, narrowed_cache_db
from .test_resilience import ONE_PAGE_FLOORS

FLAVOR_CONFIGS = {
    "default-flavors": PopConfig(),
    "all-flavors": PopConfig(flavors=frozenset(ALL_FLAVORS)),
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


@pytest.mark.parametrize(
    "faults", ["no-faults", "seeded-faults", "governed-seeded-faults"]
)
@pytest.mark.parametrize(
    "config", FLAVOR_CONFIGS.values(), ids=FLAVOR_CONFIGS.keys()
)
def test_every_dmv_statement_ends_within_the_cap(dmv, config, faults, request):
    db, queries, static = dmv
    cap = config.max_reoptimizations
    tables = [t.name for t in db.catalog.tables()]
    governed = faults.startswith("governed")
    if governed:
        db.enable_memory_governor(policy=ONE_PAGE_FLOORS)
        request.addfinalizer(db.disable_memory_governor)
    renegotiations = 0
    for i, (name, sql) in enumerate(queries):
        plan = (
            FaultPlan.seeded(i, kinds=ALL_KINDS, tables=tables)
            if faults != "no-faults"
            else None
        )
        result = db.execute(sql, pop=config, faults=plan)
        report = result.report
        assert report.reoptimizations <= cap, name
        assert len(report.attempts) <= 1 + cap, name
        assert canonical(result.rows) == static[name], name
        renegotiations += report.renegotiations
    assert bool(renegotiations) == governed


@pytest.mark.parametrize(
    "config",
    [NO_POP, PopConfig(max_reoptimizations=0)],
    ids=["pop-off", "cap-0"],
)
def test_a_cached_check_never_outruns_the_cap(config):
    db = narrowed_cache_db()
    fired = db.execute(DMV_MODEL_TEMPLATE.format(m="MODEL00_7")).report
    assert fired.cache_hit and fired.reoptimizations == 1
    db = narrowed_cache_db()
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
