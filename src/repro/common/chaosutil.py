"""Shared scaffolding of the chaos harnesses.

The three harnesses — fault injection (:mod:`repro.resilience.chaos`),
connection chaos (:mod:`repro.server.chaos`) and kill-crash chaos
(:mod:`repro.txn.chaos`) — compare governed runs against clean oracles,
derive per-case seeds, audit the same leaks afterwards, and (the latter
two) run the same seed × scenario loop behind the same command line.  That
scaffolding lives here, once, so the server and transaction harnesses do
not have to import the fault-injection module (fault machinery stays
confined to :mod:`repro.resilience` — the ``fault-isolation`` contract rule
enforces that).  What a scenario *does* stays in its own harness.
"""

from __future__ import annotations

import argparse
import os
import tempfile
import threading
import zlib
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.common.locking import active_witness


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


# -------------------------------------------------------------------- audits


def spill_dirs() -> set:
    """Current ``repro-spill-*`` dirs in the system temp directory."""
    try:
        names = os.listdir(tempfile.gettempdir())
    except OSError:
        return set()
    return {n for n in names if n.startswith("repro-spill-")}


def audit_witness(problems: list) -> None:
    """With ``REPRO_LOCK_WITNESS=1``: every lock edge observed at runtime
    must be in the static lock graph (one that is not is a static-analysis
    false negative), and nothing may wait while holding a lock."""
    witness = active_witness()
    if witness is None:
        return
    from repro.analysis.concurrency import static_lock_graph

    unexpected = witness.edges() - static_lock_graph()
    if unexpected:
        problems.append(
            "witness observed lock edge(s) missing from the static lock "
            f"graph: {sorted(unexpected)}"
        )
    for violation in witness.wait_violations():
        problems.append(
            f"witness saw wait on {violation.waiting_on!r} while holding "
            f"{violation.held}"
        )


def audit_thread_leak(problems: list, baseline: int) -> None:
    """The process thread count must come back to ``baseline``.

    Threads unwind asynchronously after join-with-timeout; stragglers get
    a bounded settling window before it is called a leak."""
    pause = threading.Event()
    for _ in range(100):
        if threading.active_count() <= baseline:
            break
        pause.wait(0.02)
    if threading.active_count() > baseline:
        leftover = sorted(
            t.name for t in threading.enumerate() if t.name != "MainThread"
        )
        problems.append(
            f"thread leak: {threading.active_count()} alive vs baseline "
            f"{baseline}: {leftover}"
        )


def audit_governor_drained(problems: list, snap: dict) -> None:
    """A governor snapshot taken after the run holds no pages."""
    if snap["used_pages"] != 0 or snap["reservations"]:
        problems.append(
            f"governor not drained: used={snap['used_pages']} "
            f"reservations={snap['reservations']}"
        )


# ------------------------------------------------- seed x scenario harness


def run_scenarios(
    label: str,
    runners: dict[str, Callable[[int], ScenarioOutcome]],
    seeds,
    scenarios=None,
    verbose: bool = True,
) -> list:
    """Run ``scenarios`` (default: all of ``runners``) once per seed."""
    outcomes = []
    for seed in seeds:
        for scenario in scenarios or runners:
            outcome = runners[scenario](seed)
            outcomes.append(outcome)
            if verbose:
                status = "ok" if outcome.ok else "FAIL"
                print(
                    f"  [{status}] {label}/{scenario} seed={seed} "
                    f"{outcome.detail}"
                )
                for problem in outcome.problems:
                    print(f"         - {problem}")
    return outcomes


def scenario_main(
    label: str,
    runners: dict[str, Callable[[int], ScenarioOutcome]],
    default_seeds: list,
    description: str,
    argv: Optional[list] = None,
) -> int:
    """``python -m repro.<label>.chaos``: exit status 1 if any run failed."""
    parser = argparse.ArgumentParser(
        prog=f"python -m repro.{label}.chaos", description=description
    )
    parser.add_argument("--seeds", type=int, nargs="+", default=default_seeds)
    parser.add_argument(
        "--scenario", choices=tuple(runners), action="append", default=None,
        help="run only these scenarios (repeatable; default: all)",
    )
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)
    outcomes = run_scenarios(
        label, runners, args.seeds, args.scenario, verbose=not args.quiet
    )
    failed = [o for o in outcomes if not o.ok]
    if not args.quiet:
        print(
            f"{label} chaos: {len(outcomes) - len(failed)}/{len(outcomes)} "
            f"scenario runs ok"
        )
    return 1 if failed else 0
