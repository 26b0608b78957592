"""The chaos harness: one outcome type, one seed × scenario loop, one CLI.

Every chaos scenario — the cache stampede and memory pressure of
:mod:`repro.resilience.chaos`, the connection chaos of
:mod:`repro.server.chaos`, the kill-crash and snapshot runs of
:mod:`repro.txn.chaos` — is a ``(seed) -> ScenarioOutcome`` runner,
registered once in :mod:`repro.chaos` and driven by :func:`scenario_main`.
What the scenarios share lives here: oracle canonicalisation, per-case
seeds, the governed DMV database two of them squeeze, the barrier-released
thread pool, and the leak audits every scenario ends with.  What a scenario
*does* stays in its own package, so the server and transaction scenarios do
not import the fault-injection module.
"""

from __future__ import annotations

import argparse
import os
import tempfile
import threading
import zlib
from dataclasses import dataclass, field
from typing import Callable, Optional


def canonical_rows(rows) -> list[tuple]:
    """Order-insensitive form, floats at 9 significant digits.

    Fault-induced re-plans legitimately change aggregation order, which
    perturbs float sums near machine precision; 9 significant digits is
    coarse enough to absorb that and fine enough to catch real wrong
    results.
    """
    return sorted(
        tuple(
            float(f"{v:.9g}") if isinstance(v, float) else v for v in row
        )
        for row in rows
    )


def query_seed(chaos_seed: int, workload: str, query_name: str) -> int:
    """Stable per-query seed (crc32 — ``hash()`` varies across processes)."""
    return zlib.crc32(f"{chaos_seed}:{workload}:{query_name}".encode())


@dataclass
class ScenarioOutcome:
    """One (scenario, seed) chaos run."""

    scenario: str
    chaos_seed: int
    ok: bool
    problems: list = field(default_factory=list)
    detail: str = ""


# ------------------------------------------------------ shared workload set-up

#: Full-table sorts and joins whose working sets cannot fit a squeezed
#: grant — every scenario that needs memory pressure runs some of these.
HEAVY_QUERIES = [
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


def governed_dmv(
    statements, budget_fraction: float, max_queue_depth: int, metrics=None
):
    """A DMV database governed at ``budget_fraction`` of its hungriest plan.

    Runs each distinct statement once ungoverned for its oracle rows and
    sizes the budget from the largest estimated working memory among them;
    returns ``(db, oracle)`` with the governor switched on.
    """
    from repro.core.config import MemoryPolicy, PopConfig
    from repro.governor import estimate_plan_memory
    from repro.sql.binder import bind_sql
    from repro.workloads.dmv.generator import DmvScale, make_dmv_db

    db = make_dmv_db(
        scale=DmvScale(
            owners=1200, cars=1600, accidents=400, violations=600,
            insurance=1600, dealers=80, inspections=900, registrations=1600,
        ),
        seed=7,
    )
    config = PopConfig(reuse_policy="never")
    oracle: dict = {}
    estimates = []
    for sql in statements:
        if sql in oracle:
            continue
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
        max_queue_depth=max_queue_depth,
        queue_timeout_seconds=120.0,
    )
    db.enable_memory_governor(policy=policy, metrics=metrics)
    return db, oracle


def run_together(label: str, workers: list) -> None:
    """Run each zero-argument callable on its own thread, release them all
    at once through one barrier, and join them."""
    barrier = threading.Barrier(len(workers))

    def released(work: Callable[[], None]) -> None:
        barrier.wait()
        work()

    pool = [
        threading.Thread(target=released, args=(work,), name=f"chaos-{label}-{i}")
        for i, work in enumerate(workers)
    ]
    for t in pool:
        t.start()
    for t in pool:
        t.join()


# -------------------------------------------------------------------- audits


def spill_dirs() -> set:
    """This process's current ``repro-spill-<pid>-*`` dirs in the system
    temp directory (another process spilling at the same time is not a
    leak of this one)."""
    prefix = f"repro-spill-{os.getpid()}-"
    try:
        names = os.listdir(tempfile.gettempdir())
    except OSError:
        return set()
    return {n for n in names if n.startswith(prefix)}


class Baseline:
    """What a scenario must leave as it found it: spill dirs and threads."""

    def __init__(self) -> None:
        self.spill = spill_dirs()
        self.threads = threading.active_count()

    def audit(self, problems: list, *dbs) -> None:
        """The teardown audit every scenario ends with.

        Threads back to the baseline; each of ``dbs``' governors drained
        and never over budget, then switched off; no spill dir leaked.
        """
        self._audit_threads(problems)
        for db in dbs:
            snap = db.memory_governor.snapshot()
            if snap["used_pages"] != 0 or snap["reservations"]:
                problems.append(
                    f"governor not drained: used={snap['used_pages']} "
                    f"reservations={snap['reservations']}"
                )
            budget = db.memory_governor.policy.budget_pages
            if snap["peak_pages"] > budget + 1e-9:
                problems.append(
                    f"budget exceeded: peak {snap['peak_pages']:.1f} pages "
                    f"over budget {budget:.1f}"
                )
            db.disable_memory_governor()
        leaked = spill_dirs() - self.spill
        if leaked:
            problems.append(f"leaked spill dirs: {sorted(leaked)}")

    def _audit_threads(self, problems: list) -> None:
        # Threads unwind asynchronously after join-with-timeout; stragglers
        # get a bounded settling window before it is called a leak.
        pause = threading.Event()
        for _ in range(100):
            if threading.active_count() <= self.threads:
                return
            pause.wait(0.02)
        leftover = sorted(
            t.name for t in threading.enumerate() if t.name != "MainThread"
        )
        problems.append(
            f"thread leak: {threading.active_count()} alive vs baseline "
            f"{self.threads}: {leftover}"
        )


# ------------------------------------------------- seed x scenario harness


def run_scenarios(
    runners: dict[str, Callable[[int], ScenarioOutcome]],
    seeds,
    scenarios=None,
    verbose: bool = True,
) -> list:
    """Run ``scenarios`` (default: all of ``runners``) once per seed.

    Prints one line per run, and the problems of a failed run even when
    not ``verbose``.
    """
    outcomes = []
    for seed in seeds:
        for scenario in scenarios or runners:
            outcome = runners[scenario](seed)
            outcomes.append(outcome)
            if verbose or not outcome.ok:
                status = "ok" if outcome.ok else "FAIL"
                print(f"  [{status}] {scenario} seed={seed} {outcome.detail}")
                for problem in outcome.problems:
                    print(f"         - {problem}")
    return outcomes


def scenario_main(
    runners: dict[str, Callable[[int], ScenarioOutcome]],
    argv: Optional[list] = None,
) -> int:
    """``python -m repro.chaos``: exit status 1 if any run failed."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos",
        description="Run chaos scenarios once per seed; every run is "
        "checked against clean oracles and audited for leaks.",
    )
    parser.add_argument(
        "--scenario", choices=tuple(runners), nargs="+", action="extend",
        help="scenarios to run (default: all)",
    )
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument(
        "--quiet", action="store_true",
        help="print only failed runs and the summary",
    )
    args = parser.parse_args(argv)
    outcomes = run_scenarios(
        runners, args.seeds, args.scenario, verbose=not args.quiet
    )
    passed = sum(o.ok for o in outcomes)
    print(f"chaos: {passed}/{len(outcomes)} scenario runs ok")
    return 0 if passed == len(outcomes) else 1
