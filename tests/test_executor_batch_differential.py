"""Width-invariance differential harness for the executor.

``next_batch`` is the executor's only pull protocol, so "the engine is
right" means two things, checked here for every batch width:

* **against the frozen row engine** — ``tests/fixtures/
  row_engine_golden.json`` holds what the deleted row-at-a-time engine
  produced for the statements below (recorded at commit 977f5e3, the last
  one that had ``batch_size=0``, with this module's :func:`snapshot`):
  ordered rows, per-attempt CHECK decisions, signals, ``rows_emitted`` and
  ``execution_units``.  Everything must match exactly except the units,
  which agree to float round-off (batch paths charge ``n × per-row`` in
  bulk; the row engine summed per row).  The fixture cannot be
  regenerated — the code that produced it is gone — so a mismatch is an
  engine regression, never a reason to edit the file;
* **against the oracle** — the seeded streams are also compared, as
  canonical multisets, with the row-level nested-loop evaluator in
  :mod:`tests.reference`, which shares no code with the executor.

Covered statements: two seeded parameter streams each over TPC-H and DMV
templates, the skewed-star marker query that re-optimizes mid-flight, all
39 DMV workload statements (9 re-optimizations, 63 CHECK evaluations) and
the TPC-H workload.

Widths cover the degenerate single-row case (every batch is a partial
batch — the demand-exact baseline), a prime that never divides anything
cleanly, a typical vector width, and the shipped default, larger than
most intermediate results (one-batch drains).
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from pathlib import Path

import pytest

from repro import Database, PopConfig
from repro.plan.explain import explain_plan
from repro.sql.binder import bind_sql
from repro.workloads.dmv.generator import DmvScale, make_dmv_db
from repro.workloads.dmv.queries import dmv_queries
from repro.workloads.tpch.generator import make_tpch_db
from repro.workloads.tpch.queries import TPCH_QUERIES

from .conftest import build_dmv_db, build_tpch_db, canonical
from .reference import evaluate_reference
from .test_plan_cache_differential import (
    DMV_TEMPLATES,
    TPCH_TEMPLATES,
    dmv_params,
    tpch_params,
)

SEEDS = [11, 23]
BATCH_SIZES = [1, 7, 64, 1024]

GOLDEN = json.loads(
    (Path(__file__).parent / "fixtures" / "row_engine_golden.json").read_text()
)


def rows_record(rows):
    """Rows as the fixture stores them: verbatim when small, otherwise a
    count plus a digest of the ordered row list."""
    if len(rows) <= 200:
        return [list(r) for r in rows]
    digest = hashlib.sha256(repr([tuple(r) for r in rows]).encode())
    return {"count": len(rows), "sha256": digest.hexdigest()}


def snapshot(result):
    """Everything POP promises is independent of how rows are pulled."""
    return {
        "rows": rows_record(result.rows),
        "reoptimizations": result.report.reoptimizations,
        "attempts": [
            {
                "decisions": [
                    [
                        e.op_id,
                        e.flavor,
                        e.observed,
                        e.low,
                        e.high,
                        e.complete,
                        e.triggered,
                    ]
                    for e in a.checkpoint_events
                ],
                "signal": [
                    a.signal_op_id,
                    a.signal_flavor,
                    a.signal_observed,
                    a.signal_complete,
                ],
                "rows_emitted": a.rows_emitted,
                "execution_units": a.execution_units,
            }
            for a in result.report.attempts
        ],
    }


def assert_matches_golden(result, golden, label):
    got = snapshot(result)
    assert got["rows"] == golden["rows"], label
    assert got["reoptimizations"] == golden["reoptimizations"], label
    assert len(got["attempts"]) == len(golden["attempts"]), label
    for g, want in zip(got["attempts"], golden["attempts"]):
        assert g["decisions"] == want["decisions"], label
        assert g["signal"] == want["signal"], label
        assert g["rows_emitted"] == want["rows_emitted"], label
        assert g["execution_units"] == pytest.approx(
            want["execution_units"], rel=1e-9
        ), label


def replay(db, golden_records, batch_size):
    """Run every recorded statement at one width against its record."""
    for record in golden_records:
        result = db.execute(
            record["sql"],
            params=record.get("params"),
            pop=PopConfig(batch_size=batch_size),
        )
        assert_matches_golden(result, record, (batch_size, record["sql"]))


@pytest.fixture(scope="module")
def small_tpch():
    # Sized for the oracle's cross-product materialization, like the plan
    # cache differential — volume lives in benchmarks/bench_vectorized.py.
    return make_tpch_db(0.0005, 42)


@pytest.fixture(scope="module")
def small_dmv():
    return make_dmv_db(
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


def run_stream(db, templates, draw_params, golden_records, seed):
    rng = random.Random(seed)
    for record in golden_records:
        name, template = templates[rng.randrange(len(templates))]
        sql = template.format(**draw_params(rng))
        # The stream is regenerated from the seed, not read back from the
        # fixture, so a drifted template or generator fails loudly here.
        assert sql == record["sql"], name
        oracle = evaluate_reference(db.catalog, bind_sql(sql, db.catalog))
        for batch_size in BATCH_SIZES:
            result = db.execute(sql, pop=PopConfig(batch_size=batch_size))
            assert canonical(result.rows) == canonical(oracle), (name, sql)
            assert_matches_golden(result, record, (name, batch_size, sql))


@pytest.mark.parametrize("seed", SEEDS)
def test_tpch_stream_differential(small_tpch, seed):
    run_stream(
        small_tpch,
        TPCH_TEMPLATES,
        tpch_params,
        GOLDEN[f"tpch_stream/{seed}"],
        seed,
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_dmv_stream_differential(small_dmv, seed):
    run_stream(
        small_dmv, DMV_TEMPLATES, dmv_params, GOLDEN[f"dmv_stream/{seed}"], seed
    )


# The workload databases are rebuilt here rather than borrowed from the
# session fixtures: the recorded units and decisions assume a database no
# other test has attached a plan cache or memory governor to.


@pytest.fixture(scope="module")
def workload_dmv():
    return build_dmv_db()


@pytest.fixture(scope="module")
def workload_tpch():
    return build_tpch_db()


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_dmv_workload_matches_row_engine(workload_dmv, batch_size):
    """The paper's 39 DMV statements: the stream where CHECKs fire, plans
    are re-optimized and intermediates reused."""
    records = GOLDEN["dmv_workload"]
    assert [r["sql"] for r in records] == [sql for _n, sql in dmv_queries()]
    assert sum(r["reoptimizations"] for r in records) == 9
    replay(workload_dmv, records, batch_size)


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_tpch_workload_matches_row_engine(workload_tpch, batch_size):
    records = GOLDEN["tpch_workload"]
    assert [r["sql"] for r in records] == [
        TPCH_QUERIES[name] for name in sorted(TPCH_QUERIES)
    ]
    replay(workload_tpch, records, batch_size)


# --------------------------------------------------- re-optimization parity


@pytest.fixture(scope="module")
def skewed_star():
    """The skewed star from conftest, rebuilt module-scoped: the marker
    query below reliably mis-estimates and re-optimizes mid-flight."""
    database = Database()
    database.create_table(
        "cust", [("c_id", "int"), ("c_segment", "str"), ("c_nation", "int")]
    )
    database.create_table(
        "orders", [("o_id", "int"), ("o_custkey", "int"), ("o_total", "float")]
    )
    rng = random.Random(11)

    def segment() -> str:
        r = rng.random()
        if r < 0.85:
            return "COMMON"
        if r < 0.97:
            return "MID"
        return "RARE"

    database.insert(
        "cust", [(i, segment(), rng.randrange(25)) for i in range(1200)]
    )
    database.insert(
        "orders",
        [
            (i, rng.randrange(1200), round(rng.uniform(10.0, 500.0), 2))
            for i in range(12000)
        ],
    )
    database.create_index("ix_cust_id", "cust", "c_id")
    database.create_index("ix_orders_cust", "orders", "o_custkey")
    database.runstats()
    return database


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_reoptimization_fires_identically(skewed_star, batch_size):
    """A stream that actually crosses a CHECK bound mid-flight: every width
    must trigger on the same operator at the same observed cardinality as
    the row engine did."""
    records = GOLDEN["marker"]
    assert records[0]["reoptimizations"] >= 1
    replay(skewed_star, records, batch_size)


def test_reoptimized_plan_is_width_independent(skewed_star):
    """Same feedback in, same re-optimized plan out: the attempts' plans
    and join orders do not depend on the width.  Temp-MV names carry a
    per-database sequence number (each execution mints fresh ones), so
    those are normalized."""

    def norm(text):
        return re.sub(r"__tempmv_\d+", "__tempmv_N", text or "")

    common = GOLDEN["marker"][0]
    plans = set()
    for width in BATCH_SIZES:
        result = skewed_star.execute(
            common["sql"],
            params=common["params"],
            pop=PopConfig(batch_size=width),
        )
        plans.add(
            tuple(
                (norm(explain_plan(a.plan)), norm(str(a.join_order)))
                for a in result.report.attempts
            )
        )
    assert len(plans) == 1
    assert len(plans.pop()) == len(common["attempts"]) > 1


def test_env_knob_sets_width(skewed_star, monkeypatch):
    """``REPRO_BATCH_SIZE`` is the deployment knob: a default-constructed
    PopConfig picks it up, and the run still matches the row engine."""
    monkeypatch.setenv("REPRO_BATCH_SIZE", "33")
    config = PopConfig()
    assert config.batch_size == 33
    mid = GOLDEN["marker"][1]
    result = skewed_star.execute(mid["sql"], params=mid["params"], pop=config)
    assert_matches_golden(result, mid, "env-knob")


# ------------------------------------------------------- width validation


@pytest.mark.parametrize("bad", [0, -1, 2.5])
def test_pop_config_rejects_width_below_one(bad):
    with pytest.raises(ValueError, match=r"batch_size must be an integer >= 1"):
        PopConfig(batch_size=bad)


def test_execution_context_rejects_width_below_one(skewed_star):
    from repro.executor.base import ExecutionContext

    with pytest.raises(ValueError, match=r"batch_size must be an integer >= 1"):
        ExecutionContext(skewed_star.catalog, batch_size=0)


@pytest.mark.parametrize("raw", ["0", "-3", "wide"])
def test_env_knob_rejects_width_below_one(monkeypatch, raw):
    monkeypatch.setenv("REPRO_BATCH_SIZE", raw)
    with pytest.raises(
        ValueError, match=r"REPRO_BATCH_SIZE must be an integer >= 1"
    ):
        PopConfig()


def test_default_width_is_the_shipped_constant(monkeypatch):
    from repro.core.config import DEFAULT_BATCH_SIZE
    from repro.executor.base import ExecutionContext

    monkeypatch.delenv("REPRO_BATCH_SIZE", raising=False)
    assert PopConfig().batch_size == DEFAULT_BATCH_SIZE == 1024
    assert ExecutionContext(Database().catalog).batch_size == DEFAULT_BATCH_SIZE
