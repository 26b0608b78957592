"""Chaos scenarios of the resilience layer: stampede, memory.

``stampede``
    Many threads hammer one statement shape against a cold plan cache.
``memory``
    Concurrent seeded queries against a deliberately undersized governor
    budget: spilling changes the cost, never the answer.

Both run through ``python -m repro.chaos`` (see :mod:`repro.chaos`); seeded
faults are an axis of the cross-feature matrix (``tests/test_matrix.py``).
"""

from __future__ import annotations

import random
import threading
from functools import partial

from repro.common.chaosutil import (
    HEAVY_QUERIES,
    Baseline,
    ScenarioOutcome,
    canonical_rows,
    governed_dmv,
    query_seed,
    run_together,
)
from repro.core.config import PopConfig
from repro.obs import MetricsRegistry

__all__ = ["run_stampede", "run_memory"]


def run_stampede(
    seed: int, threads: int = 8, statements_per_thread: int = 6
) -> ScenarioOutcome:
    """Hammer one statement shape from many threads against a cold cache.

    Every thread misses at first (the stampede), so several optimize the
    same shape concurrently and race to install; the cache must serialize
    installs, keep the variant bound, and never hand any thread a plan that
    produces wrong rows.  ``reuse_policy="never"`` keeps per-statement temp
    MVs out of the picture — they are transaction-local and irrelevant to
    the stampede being tested.
    """
    from repro.workloads.dmv import schema as dmv_schema
    from repro.workloads.dmv.generator import DmvScale, make_dmv_db

    db = make_dmv_db(
        scale=DmvScale(
            owners=800, cars=1000, accidents=300, violations=400,
            insurance=1000, dealers=60, inspections=600, registrations=1000,
        ),
        seed=7,
    )
    db.enable_plan_cache()
    config = PopConfig(reuse_policy="never")
    template = (
        "SELECT o.o_id, o.o_name FROM car c, owner o "
        "WHERE c.c_owner_id = o.o_id AND c.c_make = '{make}' "
        "AND c.c_model = '{model}'"
    )

    def statement(rng: random.Random) -> str:
        make_idx = rng.randrange(4)
        return template.format(
            make=dmv_schema.MAKES[make_idx],
            model=dmv_schema.model_name(
                make_idx, rng.randrange(dmv_schema.MODELS_PER_MAKE)
            ),
        )

    # Oracle rows per distinct statement, computed single-threaded first.
    oracle: dict[str, list] = {}
    probe = random.Random(query_seed(seed, "stampede", "dmv"))
    statements = [
        statement(probe)
        for _ in range(threads * statements_per_thread)
    ]
    for sql in statements:
        if sql not in oracle:
            oracle[sql] = canonical_rows(
                db.execute(sql, pop=PopConfig(plan_cache=False)).rows
            )

    baseline = Baseline()
    problems: list[str] = []
    lock = threading.Lock()

    def worker(tid: int) -> None:
        mine = statements[
            tid * statements_per_thread: (tid + 1) * statements_per_thread
        ]
        for sql in mine:
            try:
                rows = canonical_rows(db.execute(sql, pop=config).rows)
            except Exception as exc:
                with lock:
                    problems.append(
                        f"thread {tid}: unhandled "
                        f"{type(exc).__name__}: {exc}"
                    )
                return
            if rows != oracle[sql]:
                with lock:
                    problems.append(
                        f"thread {tid}: rows diverge from oracle for {sql!r}"
                    )

    # All threads hit the cold cache at once.
    run_together("stampede", [partial(worker, tid) for tid in range(threads)])

    stats = db.plan_cache.stats
    shapes = len(db.plan_cache.shapes())
    if shapes > 1:
        problems.append(f"one statement shape produced {shapes} cache shapes")
    if len(db.plan_cache) > db.plan_cache.config.variants_per_shape:
        problems.append("variant bound violated under concurrent installs")
    if stats.hits + stats.misses != threads * statements_per_thread:
        problems.append(
            f"lookup accounting off: {stats.hits} hits + {stats.misses} "
            f"misses != {threads * statements_per_thread} statements"
        )
    baseline.audit(problems)
    return ScenarioOutcome(
        "stampede", seed, not problems, problems,
        detail=(
            f"threads={threads} hits={stats.hits} misses={stats.misses} "
            f"installs={stats.installs}"
        ),
    )


def run_memory(
    seed: int, threads: int = 6, statements_per_thread: int = 2
) -> ScenarioOutcome:
    """K concurrent seeded queries against a deliberately undersized budget.

    The governor's budget is set to a quarter of the *largest* single
    plan's estimated working memory, then ``threads`` workers run seeded
    DMV queries through it simultaneously.  The audit demands the whole
    degradation story at once:

    * every query returns oracle-identical rows (spilling changes cost,
      never answers),
    * nothing escapes — operators degrade instead of dying,
    * the reservation high-water mark never exceeds ``budget_pages``
      (checked via the governor's peak gauge), and
    * the pressure was real: spill work is visible in the governor's
      accounting and ``governor.*`` metrics.
    """
    from repro.workloads.dmv.queries import dmv_queries

    # The seeded workload queries are highly selective (that is their job —
    # they stress cardinality estimation), so alone they barely touch the
    # budget.  Interleave full-table sorts and joins whose working sets
    # cannot fit a squeezed grant: every thread runs at least one statement
    # that *must* spill to finish.
    queries = dmv_queries(seed)
    rng = random.Random(query_seed(seed, "memory", "dmv"))
    picks = [
        HEAVY_QUERIES[rng.randrange(len(HEAVY_QUERIES))] if slot % 2 == 0
        else queries[rng.randrange(len(queries))]
        for slot in range(threads * statements_per_thread)
    ]
    config = PopConfig(reuse_policy="never")
    metrics = MetricsRegistry()
    db, oracle = governed_dmv(
        [sql for _name, sql in picks], budget_fraction=0.25,
        max_queue_depth=len(picks), metrics=metrics,
    )
    governor = db.memory_governor
    baseline = Baseline()

    problems: list[str] = []
    lock = threading.Lock()
    spilled_flags: list[bool] = []

    def worker(tid: int) -> None:
        mine = picks[
            tid * statements_per_thread: (tid + 1) * statements_per_thread
        ]
        for name, sql in mine:
            try:
                result = db.execute(sql, pop=config, metrics=metrics)
            except Exception as exc:
                with lock:
                    problems.append(
                        f"thread {tid} {name}: escaped "
                        f"{type(exc).__name__}: {exc}"
                    )
                return
            with lock:
                spilled_flags.append(result.report.spilled)
                if canonical_rows(result.rows) != oracle[sql]:
                    problems.append(
                        f"thread {tid} {name}: rows diverge from oracle"
                    )

    # All workers hit the undersized budget at once.
    run_together("memory", [partial(worker, tid) for tid in range(threads)])

    snap = governor.snapshot()
    if snap["rejected_total"]:
        problems.append(
            f"{snap['rejected_total']} statement(s) shed despite a queue "
            f"sized for the whole run"
        )
    if not any(spilled_flags):
        problems.append(
            "undersized budget produced no spills — pressure not exercised"
        )
    if metrics.total("governor.spill_pages") <= 0.0:
        problems.append("spill work invisible in governor.* metrics")
    baseline.audit(problems, db)
    return ScenarioOutcome(
        "memory", seed, not problems, problems,
        detail=(
            f"threads={threads} budget={governor.policy.budget_pages:.0f}p "
            f"peak={snap['peak_pages']:.0f}p "
            f"spilled={sum(spilled_flags)}/{len(spilled_flags)} "
            f"renegotiations={snap['renegotiation_total']} "
            f"queued={snap['queued_total']}"
        ),
    )
