"""The benchmark trajectory: ``BENCH_repo.json`` at the repository root.

One row per measured commit.  A row comes from alternating runs of two
checkouts (directories each holding ``bench/`` and ``src/``), the parent
and the change: pair *i* runs ``python3 -m bench --workload W --seed i
--seconds S --trace 0`` in the parent, then in the change, and keeps the
last line that command prints, ``{"correct", "attempted", "failed",
"metrics"}``.  One traced run (``--trace 1``) per side and workload adds
the per-layer shares and the invariant counters (``server_mix``'s under
``timing_dependent``: its paced writers make them vary run to run).  Nothing under ``bench/``
is changed or imported: this module only starts it.

Run from the repository root, for example::

    python -m repro.bench.trajectory --parent ../parent --change . \\
        --workloads dmv_reopt --pairs 10 --seconds 15 \\
        --parent-commit 8ce6ab9 --change-commit HEAD --note "4-core VM"

Each row holds, per workload, every pair's value of each end-to-end
metric with their median and quartiles, the pair wins of the change on
each metric, the summed attempted/failed counts, and the traced pass's
``*share*`` / ``*frac*`` metrics, invariant counters and set-up layer
times (``stats.runstats_ms``, ``workloads.datagen_ms``).  Rows are
appended to the file, one a line.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

#: Traced-pass metrics kept besides the shares: counts that must not move
#: unless a PR means them to.
INVARIANTS = (
    "optimizer.plans_enumerated",
    "optimizer.newton_iterations",
    "core.checks_fired",
    "core.reoptimizations",
    "core.mv_reuses",
    "core.attempts",
    "core.pop_speedup_units",
)
#: Workloads whose invariant counters depend on timing, kept apart under
#: ``timing_dependent``: ``server_mix``'s paced writers commit a varying
#: number of times, each invalidating cached plans (at seed 1,
#: ``core.attempts`` read 585 and 644 in two runs of one commit).
TIMING_DEPENDENT = ("server_mix",)
#: Traced-pass set-up layer times, kept for the catalog and data builds
#: that the end-to-end ``setup_s`` sums.
SETUP_LAYERS = ("stats.runstats_ms", "workloads.datagen_ms")
ABOUT = (
    "Benchmark trajectory, one row per measured commit, written by "
    "python -m repro.bench.trajectory (see its docstring)."
)
#: End-to-end metrics where more is better (the pair-win direction).
HIGHER_IS_BETTER = ("stmts_per_s",)


def run_bench(checkout: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``python3 -m bench`` run in ``checkout``: its last JSON line."""
    command = [
        sys.executable, "-m", "bench", "--workload", workload, "--seed", str(seed),
        "--seconds", f"{seconds:g}", "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True, check=True)
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> dict:
    """Median and quartiles (the ``statistics`` inclusive method)."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict]) -> dict:
    """Per end-to-end metric, every run's value with their median and
    quartiles."""
    metrics = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        metrics[name] = {**quartiles(values), "values": values}
    return {
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }


def wins(parent: list[dict], change: list[dict]) -> dict:
    """Per metric, the pairs in which the change did better."""
    out = {}
    for name in change[0]["metrics"]:
        sign = 1 if name in HIGHER_IS_BETTER else -1
        out[name] = sum(
            sign * (c["metrics"][name]["value"] - p["metrics"][name]["value"]) > 0
            for p, c in zip(parent, change)
        )
    return out


def traced_view(run: dict, workload: str) -> dict:
    """The traced pass's shares, fractions, invariant counters and set-up
    layer times; a :data:`TIMING_DEPENDENT` workload's invariant counters
    sit under ``timing_dependent`` instead."""
    view = {
        name: m["value"] for name, m in run["metrics"].items()
        if "share" in name or "frac" in name or name in INVARIANTS or name in SETUP_LAYERS
    }
    if workload in TIMING_DEPENDENT:
        view["timing_dependent"] = {
            name: view.pop(name) for name in INVARIANTS if name in view
        }
    return view


def measure(parent: str, change: str, workloads: list[str], pairs: int, seconds: float):
    """Alternating pairs per workload, then one traced run per side."""
    runs: dict = {side: {} for side in ("parent", "change")}
    for workload in workloads:
        sides = {"parent": [], "change": []}
        for seed in range(1, pairs + 1):
            for side, checkout in (("parent", parent), ("change", change)):
                sides[side].append(run_bench(checkout, workload, seed, seconds, 0))
                print(f"{workload} seed {seed} {side}: "
                      f"{sides[side][-1]['metrics'].get('stmts_per_s', {}).get('value')}",
                      file=sys.stderr)
        for side, checkout in (("parent", parent), ("change", change)):
            traced = run_bench(checkout, workload, 1, seconds, 1)
            runs[side][workload] = {**summarize(sides[side]), "traced": traced_view(traced, workload)}
        runs["change"][workload]["pair_wins"] = wins(sides["parent"], sides["change"])
    return runs


def commit_of(checkout: str, given: str) -> str:
    """``given`` resolved by ``git rev-parse`` in ``checkout`` when it can be."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--short", given], cwd=checkout,
            capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return given
    return done.stdout.strip()


def append_rows(path: Path, rows: list[dict]) -> None:
    """Append ``rows`` to the trajectory file at ``path``, one row a line."""
    doc = json.loads(path.read_text()) if path.exists() else {"about": ABOUT, "rows": []}
    doc["rows"] += rows
    lines = ",\n".join(json.dumps(row, sort_keys=True) for row in doc["rows"])
    path.write_text(f'{{"about": {json.dumps(doc["about"])},\n"rows": [\n{lines}\n]}}\n')


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.bench.trajectory",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--parent-commit", required=True)
    parser.add_argument("--change-commit", required=True)
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--note", default="", help="host note: machine, load")
    parser.add_argument("--out", default="BENCH_repo.json")
    args = parser.parse_args(argv)
    runs = measure(args.parent, args.change, args.workloads, args.pairs, args.seconds)
    common = {
        "date": datetime.date.today().isoformat(),
        "host": f"{platform.machine()}, {os.cpu_count()} CPUs, "
                f"Python {platform.python_version()}; {args.note}".rstrip("; "),
        "seeds": list(range(1, args.pairs + 1)),
        "seconds": args.seconds,
        "source": "measured",
    }
    rows = [
        {**common, "side": side, "commit": commit_of(checkout, commit),
         "workloads": runs[side]}
        for side, checkout, commit in (
            ("parent", args.parent, args.parent_commit),
            ("change", args.change, args.change_commit),
        )
    ]
    append_rows(Path(args.out), rows)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
