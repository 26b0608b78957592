"""Chaos harness: run the benchmark workloads under seeded fault schedules.

For every workload query and every chaos seed, the harness

1. runs the query once cleanly to establish the oracle result,
2. derives a per-query fault schedule from the seed (stable across
   processes — :func:`zlib.crc32`, not ``hash()``),
3. re-runs the query under fault injection with the execution guard
   engaged, and
4. asserts that the guarded run returns oracle-identical rows, that
   retries stayed within the configured bound, and that every injected
   fault is visible in the :mod:`repro.obs` trace and metrics.

Exit status is non-zero if any query fails any assertion — the CI chaos
smoke job runs this over both workloads with two fixed seeds.

Usage::

    python -m repro.resilience.chaos --workload all --seeds 1 2
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

from repro.common.chaosutil import audit_witness, canonical_rows, query_seed
from repro.core.config import PopConfig, ResiliencePolicy
from repro.executor.meter import WorkMeter
from repro.obs import MetricsRegistry, Tracer
from repro.resilience.faults import ALL_KINDS, EXEC_KINDS, STATS, FaultPlan
from repro.workloads import small_workload_databases

__all__ = [
    "run_query_under_chaos",
    "QueryOutcome",
    "main",
]

#: Faults injected per query run; small enough that the guard's default
#: retry budget can absorb a worst-case all-iterator draw via fallback.
FAULTS_PER_QUERY = 3


@dataclass
class QueryOutcome:
    """One (query, seed) chaos run."""

    workload: str
    query: str
    chaos_seed: int
    ok: bool
    problems: list
    faults_injected: int = 0
    #: Faults per kind: in the seeded schedule, and actually fired.  An
    #: execution fault whose trigger lies past the statement's last pull
    #: is planned but never fires.
    planned: Counter = field(default_factory=Counter)
    fired: Counter = field(default_factory=Counter)
    retries: int = 0
    fallback: bool = False
    reoptimizations: int = 0


def run_query_under_chaos(
    db,
    workload: str,
    name: str,
    sql: str,
    chaos_seed: int,
    oracle: list,
    policy: Optional[ResiliencePolicy] = None,
) -> QueryOutcome:
    """Execute one query under a seeded fault schedule and audit the run."""
    policy = policy if policy is not None else ResiliencePolicy()
    tables = [t.name for t in db.catalog.tables()]
    plan = FaultPlan.seeded(
        query_seed(chaos_seed, workload, name),
        n_faults=FAULTS_PER_QUERY,
        kinds=ALL_KINDS,
        tables=tables,
    )
    tracer = Tracer()
    metrics = MetricsRegistry()
    meter = WorkMeter(track_categories=True)
    config = PopConfig(resilience=policy)
    problems: list[str] = []
    outcome = QueryOutcome(
        workload=workload, query=name, chaos_seed=chaos_seed,
        ok=False, problems=problems,
        planned=Counter(spec.kind for spec in plan.specs),
    )
    try:
        result = db.execute(
            sql, pop=config, meter=meter, tracer=tracer, metrics=metrics,
            faults=plan,
        )
    except Exception as exc:  # the whole point is that this never happens
        problems.append(f"unhandled {type(exc).__name__}: {exc}")
        return outcome
    report = result.report
    outcome.faults_injected = report.faults_injected
    outcome.retries = report.retries
    outcome.fallback = report.fallback_used
    outcome.reoptimizations = report.reoptimizations
    if canonical_rows(result.rows) != oracle:
        problems.append(
            f"rows diverge from oracle ({len(result.rows)} vs {len(oracle)})"
        )
    if report.retries > policy.max_retries:
        problems.append(
            f"retries {report.retries} exceed bound {policy.max_retries}"
        )
    # Every injected fault must be observable: one trace event each, and a
    # matching counter total.
    events = tracer.events("fault.injected")
    outcome.fired = Counter(e["attrs"]["kind"] for e in events)
    if len(events) != report.faults_injected:
        problems.append(
            f"{report.faults_injected} faults fired but "
            f"{len(events)} fault.injected events traced"
        )
    counted = metrics.total("resilience.faults_injected")
    if int(counted) != report.faults_injected:
        problems.append(
            f"{report.faults_injected} faults fired but metrics counted "
            f"{int(counted)}"
        )
    if report.retries != len(tracer.events("guard.retry")):
        problems.append("guard.retry events disagree with report.retries")
    if report.fallback_used and not tracer.events("guard.fallback"):
        problems.append("fallback used but no guard.fallback event")
    if report.retries and meter.by_category().get("backoff", 0.0) <= 0.0:
        problems.append("retries occurred but no backoff units were charged")
    outcome.ok = not problems
    return outcome


def run_cache_stampede(
    chaos_seed: int = 1,
    threads: int = 8,
    statements_per_thread: int = 6,
    verbose: bool = True,
) -> QueryOutcome:
    """Hammer one statement shape from many threads against a cold cache.

    Every thread misses at first (the stampede), so several optimize the
    same shape concurrently and race to install; the cache must serialize
    installs, keep the variant bound, and never hand any thread a plan that
    produces wrong rows.  ``reuse_policy="never"`` keeps per-statement temp
    MVs out of the picture — they are transaction-local and irrelevant to
    the stampede being tested.
    """
    import random
    import threading

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
    probe = random.Random(query_seed(chaos_seed, "stampede", "dmv"))
    statements = [
        statement(probe)
        for _ in range(threads * statements_per_thread)
    ]
    for sql in statements:
        if sql not in oracle:
            oracle[sql] = canonical_rows(
                db.execute(sql, pop=PopConfig(plan_cache=False)).rows
            )

    problems: list[str] = []
    lock = threading.Lock()
    barrier = threading.Barrier(threads)

    def worker(tid: int) -> None:
        mine = statements[
            tid * statements_per_thread: (tid + 1) * statements_per_thread
        ]
        barrier.wait()  # release every thread onto the cold cache at once
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

    pool = [
        threading.Thread(target=worker, args=(tid,)) for tid in range(threads)
    ]
    for t in pool:
        t.start()
    for t in pool:
        t.join()

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
    outcome = QueryOutcome(
        workload="stampede", query="dmv_make_model", chaos_seed=chaos_seed,
        ok=not problems, problems=problems,
    )
    if verbose:
        status = "ok" if outcome.ok else "FAIL"
        print(
            f"  [{status}] stampede/dmv_make_model seed={chaos_seed} "
            f"threads={threads} hits={stats.hits} misses={stats.misses} "
            f"installs={stats.installs}"
        )
        for problem in problems:
            print(f"         - {problem}")
    return outcome


def run_memory_pressure(
    chaos_seed: int = 1,
    threads: int = 6,
    statements_per_thread: int = 2,
    budget_fraction: float = 0.25,
    verbose: bool = True,
) -> QueryOutcome:
    """K concurrent seeded queries against a deliberately undersized budget.

    The governor's budget is set to ``budget_fraction`` of the *largest*
    single plan's estimated working memory, then ``threads`` workers run
    seeded DMV queries through it simultaneously.  The audit demands the
    whole degradation story at once:

    * every query returns oracle-identical rows (spilling changes cost,
      never answers),
    * zero ``ResourceExhausted`` (or any other) escapes — operators
      degrade instead of dying,
    * the reservation high-water mark never exceeds ``budget_pages``
      (checked via the governor's peak gauge), and
    * the pressure was real: spill work is visible in the governor's
      accounting and ``governor.*`` metrics.
    """
    import random
    import threading

    from repro.core.config import MemoryPolicy
    from repro.governor import estimate_plan_memory
    from repro.sql.binder import bind_sql
    from repro.workloads.dmv.generator import DmvScale, make_dmv_db
    from repro.workloads.dmv.queries import dmv_queries

    db = make_dmv_db(
        scale=DmvScale(
            owners=1200, cars=1600, accidents=400, violations=600,
            insurance=1600, dealers=80, inspections=900, registrations=1600,
        ),
        seed=7,
    )
    # The seeded workload queries are highly selective (that is their job —
    # they stress cardinality estimation), so alone they barely touch the
    # budget.  Interleave full-table sorts and joins whose working sets
    # cannot fit a squeezed grant: every thread runs at least one statement
    # that *must* spill to finish.
    heavy = [
        ("heavy_sort_cars",
         "SELECT c.c_id, c.c_make, c.c_weight FROM car c "
         "ORDER BY c.c_weight, c.c_id"),
        ("heavy_sort_owners",
         "SELECT o.o_id, o.o_name, o.o_zip FROM owner o "
         "ORDER BY o.o_zip, o.o_name, o.o_id"),
        ("heavy_join_car_owner",
         "SELECT o.o_name, c.c_model FROM car c, owner o "
         "WHERE c.c_owner_id = o.o_id ORDER BY o.o_name, c.c_model"),
        ("heavy_sort_insurance",
         "SELECT i.i_id, i.i_premium FROM insurance i "
         "ORDER BY i.i_premium, i.i_id"),
    ]
    queries = dmv_queries(chaos_seed)
    rng = random.Random(query_seed(chaos_seed, "memory", "dmv"))
    picks = [
        heavy[rng.randrange(len(heavy))] if slot % 2 == 0
        else queries[rng.randrange(len(queries))]
        for slot in range(threads * statements_per_thread)
    ]
    config = PopConfig(reuse_policy="never")

    # Single-query oracles and per-plan memory estimates, ungoverned.
    oracle: dict[str, list] = {}
    estimates = []
    for _name, sql in picks:
        if sql not in oracle:
            oracle[sql] = canonical_rows(db.execute(sql, pop=config).rows)
            estimates.append(
                estimate_plan_memory(
                    db.optimizer.optimize(bind_sql(sql, db.catalog)).plan,
                    db.cost_params,
                )
            )

    policy = MemoryPolicy(
        budget_pages=max(8.0, budget_fraction * max(estimates)),
        min_reservation_pages=4.0,
        min_grant_pages=2.0,
        max_queue_depth=threads * statements_per_thread,
        queue_timeout_seconds=120.0,
    )
    metrics = MetricsRegistry()
    governor = db.enable_memory_governor(policy=policy, metrics=metrics)

    problems: list[str] = []
    lock = threading.Lock()
    barrier = threading.Barrier(threads)
    spilled_flags: list[bool] = []

    def worker(tid: int) -> None:
        mine = picks[
            tid * statements_per_thread: (tid + 1) * statements_per_thread
        ]
        barrier.wait()  # all workers hit the undersized budget at once
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

    pool = [
        threading.Thread(target=worker, args=(tid,)) for tid in range(threads)
    ]
    for t in pool:
        t.start()
    for t in pool:
        t.join()
    db.disable_memory_governor()

    snap = governor.snapshot()
    if snap["peak_pages"] > policy.budget_pages + 1e-9:
        problems.append(
            f"budget exceeded: peak {snap['peak_pages']:.1f} pages over "
            f"budget {policy.budget_pages:.1f}"
        )
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
    audit_witness(problems)
    outcome = QueryOutcome(
        workload="memory", query="dmv_concurrent", chaos_seed=chaos_seed,
        ok=not problems, problems=problems,
    )
    if verbose:
        status = "ok" if outcome.ok else "FAIL"
        print(
            f"  [{status}] memory/dmv_concurrent seed={chaos_seed} "
            f"threads={threads} budget={policy.budget_pages:.0f}p "
            f"peak={snap['peak_pages']:.0f}p "
            f"spilled={sum(spilled_flags)}/{len(spilled_flags)} "
            f"renegotiations={snap['renegotiation_total']} "
            f"queued={snap['queued_total']}"
        )
        for problem in problems:
            print(f"         - {problem}")
    return outcome


def run_chaos(
    workload: str = "all",
    seeds: tuple = (1, 2),
    limit: Optional[int] = None,
    verbose: bool = True,
    scenario: str = "all",
) -> list[QueryOutcome]:
    """Run the chaos campaign; returns one outcome per (query, seed).

    ``scenario`` selects the campaign: ``"faults"`` (seeded fault schedules
    plus the cache stampede), ``"memory"`` (concurrent queries against an
    undersized governor budget), or ``"all"``.
    """
    outcomes: list[QueryOutcome] = []
    if scenario == "memory":
        for chaos_seed in seeds:
            outcomes.append(
                run_memory_pressure(chaos_seed=chaos_seed, verbose=verbose)
            )
        return outcomes
    for label, db, queries in small_workload_databases(workload):
        if limit is not None:
            queries = queries[:limit]
        oracles = {}
        for name, sql in queries:
            oracles[name] = canonical_rows(db.execute(sql).rows)
        for chaos_seed in seeds:
            for name, sql in queries:
                outcome = run_query_under_chaos(
                    db, label, name, sql, chaos_seed, oracles[name]
                )
                outcomes.append(outcome)
                if verbose:
                    status = "ok" if outcome.ok else "FAIL"
                    extras = (
                        f"faults={outcome.faults_injected} "
                        f"retries={outcome.retries} "
                        f"reopts={outcome.reoptimizations}"
                        + (" fallback" if outcome.fallback else "")
                    )
                    print(
                        f"  [{status}] {label}/{name} seed={chaos_seed} {extras}"
                    )
                    for problem in outcome.problems:
                        print(f"         - {problem}")
    # Concurrency cases: a cache stampede on one statement shape, and the
    # memory-pressure scenario (many statements vs one undersized budget).
    if workload in ("dmv", "all"):
        for chaos_seed in seeds:
            outcomes.append(
                run_cache_stampede(chaos_seed=chaos_seed, verbose=verbose)
            )
        if scenario == "all":
            for chaos_seed in seeds:
                outcomes.append(
                    run_memory_pressure(chaos_seed=chaos_seed, verbose=verbose)
                )
    return outcomes


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.resilience.chaos",
        description="Run benchmark workloads under seeded fault injection.",
    )
    parser.add_argument(
        "--workload", choices=("tpch", "dmv", "all"), default="all"
    )
    parser.add_argument(
        "--seeds", type=int, nargs="+", default=[1, 2],
        help="chaos seeds; each seeds an independent fault campaign",
    )
    parser.add_argument(
        "--limit", type=int, default=None,
        help="run only the first N queries of each workload",
    )
    parser.add_argument(
        "--scenario", choices=("faults", "memory", "all"), default="all",
        help="faults = seeded fault schedules + cache stampede; "
        "memory = concurrent queries vs an undersized governor budget",
    )
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)
    outcomes = run_chaos(
        workload=args.workload,
        seeds=tuple(args.seeds),
        limit=args.limit,
        verbose=not args.quiet,
        scenario=args.scenario,
    )
    failed = [o for o in outcomes if not o.ok]
    total_retries = sum(o.retries for o in outcomes)
    fallbacks = sum(1 for o in outcomes if o.fallback)
    planned = sum((o.planned for o in outcomes), Counter())
    fired = sum((o.fired for o in outcomes), Counter())
    exec_planned = sum(planned[k] for k in EXEC_KINDS)
    exec_fired = sum(fired[k] for k in EXEC_KINDS)
    by_kind = ", ".join(f"{k} {fired[k]}/{planned[k]}" for k in EXEC_KINDS)
    print(
        f"chaos: {len(outcomes)} runs, "
        f"{exec_fired}/{exec_planned} execution faults fired ({by_kind}), "
        f"{fired[STATS]}/{planned[STATS]} stats faults fired, "
        f"{total_retries} retries, {fallbacks} fallbacks, "
        f"{len(failed)} failures"
    )
    status = 0
    if exec_planned and not exec_fired:
        # The injector is not reaching the executor: every run "passed"
        # without a single mid-execution fault.
        print(
            f"  FAILED: {exec_planned} execution faults planned, none fired"
        )
        status = 1
    for o in failed:
        print(f"  FAILED {o.workload}/{o.query} seed={o.chaos_seed}:")
        for problem in o.problems:
            print(f"    - {problem}")
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
