"""Differential test harness for the plan cache (ISSUE satellite #1).

Replays seeded random parameter streams over TPC-H and DMV statement
templates three ways:

* **cache on** — the plan cache probes, admits, installs, invalidates;
* **cache off** — the same statement re-optimized from scratch
  (``PopConfig(plan_cache=False)``);
* **oracle** — the row-level nested-loop reference evaluator
  (:mod:`tests.reference`), which shares no code with the executor.

All three must produce canonically identical rows for every statement in
the stream — a cached plan must never change what a statement *means*.  On
top of result equality the harness asserts the reuse contract: every cache
hit carries an admission report whose every evaluated validity/CHECK range
contains the fresh bind-value-peeked estimate (paper §3's admission test),
and the stream as a whole actually exercises reuse (hit count > 0).

The DMV stream also runs ``governed``: under a memory governor at 25 % of
the stream's largest estimate, it must leave no pages reserved and never
reserve more than the budget.

Two fixed seeds run in CI; the seed list is the single knob to widen the
sweep locally.  The oracle materializes per-table filtered rows and then a
full cross product, so templates keep every joined table selectively
filtered and the data scales small — the point is row-level ground truth.
Volume is :func:`test_repeated_traffic_skips_the_optimizer`: 60-statement
streams, cache on against cache off, counted in optimizer invocations.
"""

from __future__ import annotations

import random

import pytest

from repro import MemoryPolicy, PopConfig
from repro.governor import estimate_plan_memory
from repro.obs import MetricsRegistry
from repro.sql.binder import bind_sql
from repro.workloads.dmv import schema as dmv_schema
from repro.workloads.dmv.generator import DmvScale, make_dmv_db
from repro.workloads.tpch import schema as tpch_schema
from repro.workloads import small_workload_databases
from repro.workloads.tpch.generator import make_tpch_db

from .conftest import canonical
from .reference import evaluate_reference

SEEDS = [11, 23]

# Templates keep structure fixed and draw literals from the generators'
# actual domains, so streams mix popular and rare parameter regimes.
TPCH_TEMPLATES = [
    (
        "q6_band",
        "SELECT count(*) AS qualifying, sum(l.l_extendedprice) AS revenue "
        "FROM lineitem l WHERE l.l_quantity < {qty} "
        "AND l.l_discount BETWEEN {dlo} AND {dhi}",
    ),
    (
        "segment_orders",
        "SELECT o.o_orderkey, o.o_orderdate "
        "FROM customer c, orders o "
        "WHERE c.c_custkey = o.o_custkey "
        "AND c.c_mktsegment = '{segment}' "
        "AND o.o_orderdate < '{date}' "
        "ORDER BY o.o_orderkey LIMIT 20",
    ),
    (
        "order_priority",
        "SELECT o.o_orderpriority, count(*) AS order_count "
        "FROM orders o, lineitem l WHERE l.l_orderkey = o.o_orderkey "
        "AND o.o_orderdate >= '{date}' AND o.o_orderdate < '{date2}' "
        "AND l.l_quantity < {qty} "
        "GROUP BY o.o_orderpriority ORDER BY o.o_orderpriority",
    ),
]

DMV_TEMPLATES = [
    (
        "make_model_owner",
        "SELECT o.o_id, o.o_name FROM car c, owner o "
        "WHERE c.c_owner_id = o.o_id "
        "AND c.c_make = '{make}' AND c.c_model = '{model}'",
    ),
    (
        "make_color_accidents",
        "SELECT count(*) AS accidents FROM car c, accident a "
        "WHERE a.a_car_id = c.c_id "
        "AND c.c_make = '{make}' AND c.c_color = '{color}'",
    ),
]


MAKE_VIOLATIONS = (
    "SELECT v.v_type, count(*) AS n FROM car c, violation v "
    "WHERE v.v_car_id = c.c_id AND c.c_make = '{make}' "
    "GROUP BY v.v_type ORDER BY v.v_type"
)
GOVERNED_DMV_TEMPLATES = DMV_TEMPLATES + [("make_violations", MAKE_VIOLATIONS)]


def tpch_params(rng: random.Random) -> dict:
    year = rng.randint(1993, 1996)
    month = rng.randint(1, 9)
    return {
        "qty": rng.randint(5, 35),
        "dlo": round(rng.uniform(0.0, 0.05), 2),
        "dhi": round(rng.uniform(0.05, 0.1), 2),
        "segment": rng.choice(tpch_schema.SEGMENTS),
        "date": f"{year}-0{month}-15",
        "date2": f"{year}-0{month + 3 if month <= 6 else 9}-15",
    }


def dmv_params(rng: random.Random) -> dict:
    make_idx = rng.randrange(4)  # popular (Zipf head) makes
    model_idx = rng.randrange(dmv_schema.MODELS_PER_MAKE)
    return {
        "make": dmv_schema.MAKES[make_idx],
        "model": dmv_schema.model_name(make_idx, model_idx),
        "color": rng.choice(dmv_schema.COLORS),
    }


@pytest.fixture(scope="module")
def cached_tpch():
    db = make_tpch_db(0.0005, 42)
    db.enable_plan_cache()
    return db


@pytest.fixture(scope="module")
def cached_dmv():
    db = make_dmv_db(
        scale=DmvScale(
            owners=400,
            cars=600,
            accidents=250,
            violations=300,
            insurance=600,
            dealers=40,
            inspections=400,
            registrations=600,
        ),
        seed=7,
    )
    db.enable_plan_cache()
    return db


def stream(templates, draw_params, seed, statements=12):
    """One seeded stream of statement texts."""
    rng = random.Random(seed)
    return [
        templates[rng.randrange(len(templates))][1].format(**draw_params(rng))
        for _ in range(statements)
    ]


def run_stream(db, statements):
    """Replay a stream; return the number of cache hits."""
    metrics = MetricsRegistry()
    hits = 0
    for sql in statements:
        cached = db.execute(sql, metrics=metrics)
        plain = db.execute(sql, pop=PopConfig(plan_cache=False))
        oracle = evaluate_reference(db.catalog, bind_sql(sql, db.catalog))
        assert canonical(cached.rows) == canonical(plain.rows), sql
        assert canonical(cached.rows) == canonical(oracle), sql
        for attempt in cached.report.attempts:
            if not attempt.cache_hit:
                continue
            hits += 1
            # The reuse contract: reuse is only legal when every evaluated
            # range contains the fresh estimate for the new bind values.
            assert attempt.cache_fingerprint is not None
            assert attempt.cache_admission is not None
            for evaluation in attempt.cache_admission:
                assert evaluation["inside"], (sql, evaluation)
                assert (
                    evaluation["low"]
                    <= evaluation["fresh_estimate"]
                    <= evaluation["high"]
                ), (sql, evaluation)
    counters = metrics.snapshot()["counters"]
    assert counters.get("plan_cache.hits", 0) == hits
    return hits


@pytest.mark.parametrize("seed", SEEDS)
def test_tpch_stream_differential(cached_tpch, seed):
    hits = run_stream(cached_tpch, stream(TPCH_TEMPLATES, tpch_params, seed))
    assert hits > 0, "stream never exercised reuse"
    assert len(cached_tpch.plan_cache) > 0


@pytest.mark.parametrize(
    "seed, governed",
    [pytest.param(seed, False, id=str(seed)) for seed in SEEDS]
    + [pytest.param(seed, True, id=f"governed-{seed}") for seed in SEEDS],
)
def test_dmv_stream_differential(cached_dmv, seed, governed):
    """Governed, the stream also draws the violation GROUP BY, whose hash
    joins and LCEM TEMPs need memory (the other templates stream), and runs
    under a governor at a quarter of the stream's largest estimate: the
    plan cache and admission sized from the plan that runs, together."""
    if not governed:
        hits = run_stream(cached_dmv, stream(DMV_TEMPLATES, dmv_params, seed))
        assert hits > 0, "stream never exercised reuse"
        return
    db = cached_dmv
    statements = stream(GOVERNED_DMV_TEMPLATES, dmv_params, seed)
    largest = max(
        estimate_plan_memory(db.plan(sql)[1].plan, db.cost_params)
        for sql in statements
    )
    budget = 0.25 * largest
    governor = db.enable_memory_governor(
        policy=MemoryPolicy(
            budget_pages=budget,
            min_reservation_pages=budget,
            min_grant_pages=budget,
        )
    )
    try:
        hits = run_stream(db, statements)
    finally:
        db.disable_memory_governor()
    assert hits > 0, "stream never exercised reuse"
    assert governor.used_pages() == 0
    assert governor.peak_pages <= budget
    assert governor.spill_files_total > 0, "the budget never bit"


def test_mixed_stream_with_invalidation(cached_dmv):
    """Data changes mid-stream must not let stale plans produce stale rows."""
    db = cached_dmv
    rng = random.Random(99)
    params = dmv_params(rng)
    sql = DMV_TEMPLATES[0][1].format(**params)
    db.execute(sql)
    before = len(db.execute(sql).rows)
    # Appending a matching car invalidates every cached plan reading `car`.
    car = db.catalog.table("car")
    top = max(row[0] for row in car.rows)
    owner = db.catalog.table("owner").rows[0]
    db.insert(
        "car",
        [
            (
                top + 1,
                owner[0],
                params["make"],
                params["model"],
                params["color"],
                3000,
                2000,
                owner[4],  # o_zip — keep the zip correlation plausible
            )
        ],
    )
    r = db.execute(sql)
    assert not r.report.attempts[0].cache_hit  # invalidated, re-optimized
    oracle = evaluate_reference(db.catalog, bind_sql(sql, db.catalog))
    assert canonical(r.rows) == canonical(oracle)
    assert len(r.rows) == before + 1


# ------------------------------------------------------------------ volume

VOLUME_SEED = 2004
VOLUME_STATEMENTS = 60
# Unlike ``order_priority`` above, open-ended in the date: the oracle is not
# consulted here, so the join need not stay selective.
ORDER_PRIORITY_OPEN = (
    "SELECT o.o_orderpriority, count(*) AS order_count "
    "FROM orders o, lineitem l WHERE l.l_orderkey = o.o_orderkey "
    "AND o.o_orderdate >= '{date}' AND l.l_quantity < {qty} "
    "GROUP BY o.o_orderpriority ORDER BY o.o_orderpriority"
)
VOLUME_TEMPLATES = {
    "tpch": [
        TPCH_TEMPLATES[0][1], TPCH_TEMPLATES[1][1], ORDER_PRIORITY_OPEN,
    ],
    "dmv": [DMV_TEMPLATES[0][1], DMV_TEMPLATES[1][1], MAKE_VIOLATIONS],
}


def volume_params(label: str, rng: random.Random) -> dict:
    if label == "tpch":
        return {
            "qty": rng.randint(5, 45),
            "dlo": round(rng.uniform(0.0, 0.05), 2),
            "dhi": round(rng.uniform(0.05, 0.1), 2),
            "segment": rng.choice(tpch_schema.SEGMENTS),
            "date": f"199{rng.randint(3, 7)}-0{rng.randint(1, 9)}-15",
        }
    make_idx = rng.randrange(6)
    return {
        "make": dmv_schema.MAKES[make_idx],
        "model": dmv_schema.model_name(
            make_idx, rng.randrange(dmv_schema.MODELS_PER_MAKE)
        ),
        "color": rng.choice(dmv_schema.COLORS),
    }


def replay(db, statements, cached: bool):
    """(canonical rows per statement, optimizer invocations, cache hits)."""
    metrics = MetricsRegistry()
    config = PopConfig(plan_cache=cached)
    rows = [
        canonical(db.execute(sql, pop=config, metrics=metrics).rows)
        for sql in statements
    ]
    counters = metrics.snapshot()["counters"]
    return (
        rows,
        counters.get("optimizer.invocations", 0),
        counters.get("plan_cache.hits", 0),
    )


def test_repeated_traffic_skips_the_optimizer():
    """Repeated parameterized traffic — the regime the cache targets: reuse
    never changes a row, and saves at least 5x the optimizer invocations."""
    rng = random.Random(VOLUME_SEED)
    for label, db, _queries in small_workload_databases("all"):
        templates = VOLUME_TEMPLATES[label]
        statements = [
            templates[rng.randrange(len(templates))].format(
                **volume_params(label, rng)
            )
            for _ in range(VOLUME_STATEMENTS)
        ]
        db.enable_plan_cache()
        on_rows, on_calls, hits = replay(db, statements, cached=True)
        off_rows, off_calls, off_hits = replay(db, statements, cached=False)
        divergent = [
            sql for sql, a, b in zip(statements, on_rows, off_rows) if a != b
        ]
        assert not divergent, (label, divergent)
        assert hits > 0 and off_hits == 0, label
        assert off_calls >= VOLUME_STATEMENTS, label
        assert off_calls >= 5 * on_calls, (label, on_calls, off_calls)
