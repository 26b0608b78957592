"""Command line of the benchmark (``python3 -m bench``).

* ``--workload W --seed N --seconds S --trace 0|1`` runs one workload in this
  process and prints, as the last line, one JSON object with ``correct``,
  ``attempted``, ``failed`` and ``metrics`` (end-to-end with ``--trace 0``,
  per-layer with ``--trace 1``).
* no ``--workload`` runs all five, one child process each and one at a time,
  untraced then traced, prints every metric and writes a record that
  ``--compare`` reads.
* ``--compare A.json B.json`` checks B against A within the metrics' bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: The engine's production batch width: set before ``repro`` is imported,
#: by environment, so the benchmark survives the PopConfig knob going.
BATCH_SIZE = "1024"
FULL_SECONDS, SMOKE_SECONDS = 20.0, 0.5


def parse_args(argv=None):
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__)
    parser.add_argument("--workload", help="run this one workload in-process")
    parser.add_argument("--seed", type=int, default=2004)
    parser.add_argument("--seconds", type=float,
                        help="length of each measured phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="cut-down sizes, one short phase, under 20 s")
    parser.add_argument("--out", default=str(ROOT / ".bench_out"),
                        help="directory for the record and the span files")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    return parser.parse_args(argv)


def import_engine() -> None:
    """Make ``repro`` importable from this checkout's ``src``."""
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"bench: no engine to measure: {ROOT / 'src' / 'repro'} is missing")
    os.environ["REPRO_BATCH_SIZE"] = BATCH_SIZE
    sys.path.insert(0, str(ROOT / "src"))


def run_one(args) -> int:
    """One workload in this process; the result line goes last."""
    from bench.metrics import END_TO_END, PER_LAYER, WORKLOADS, registered_end_to_end

    if args.workload not in WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    import_engine()
    from bench import inprocess, server_mix
    from bench.workloads import in_process_workloads

    seconds = args.seconds or (SMOKE_SECONDS if args.smoke else FULL_SECONDS)
    scratch_root = ROOT / ".bench_scratch"
    scratch_root.mkdir(exist_ok=True)
    # Spill directories and the WAL live under tempfile's directory; keep it
    # inside the checkout and remove it on exit.
    scratch = tempfile.mkdtemp(prefix="run-", dir=scratch_root)
    tempfile.tempdir = scratch
    trace_path = os.path.join(
        args.out, f"{args.workload}-seed{args.seed}-spans.jsonl"
    )
    spec = in_process_workloads(args.smoke).get(args.workload)
    if spec is not None:
        traced = partial(inprocess.run_traced, spec)
        untraced = partial(inprocess.run_untraced, spec)
    else:
        traced, untraced = server_mix.run_traced, server_mix.run_untraced
    try:
        if args.trace:
            values, tally, detail = traced(
                args.seed, seconds, args.smoke, trace_path
            )
        else:
            values, tally, detail = untraced(args.seed, seconds, args.smoke)
    finally:
        tempfile.tempdir = None
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass  # another run's scratch is still in it

    if args.trace:
        listed = PER_LAYER
    else:
        values["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        values["fail_frac"] = tally.failed / tally.attempted
        listed = [m for m in END_TO_END if m.applies(args.workload)]
    print(f"# {args.workload}: seed {args.seed}, {seconds:g} s phases, "
          f"REPRO_BATCH_SIZE={BATCH_SIZE}, {detail}")
    for metric in listed:
        value = values.get(metric.name)
        shown = "n/a" if value is None else f"{value:.6g}"
        bound = "" if metric.bound is None else f"  bound {metric.bound:.1%}"
        if metric.name.startswith("stmt_p"):
            bound += f"  n={detail['samples']}"
        elif metric.name == "commit_mean_ms":
            bound += f"  n={detail['commits']}"
        print(f"{metric.name:32s} {shown:>14s} {metric.unit:6s} "
              f"{metric.better} is better{bound}")
    # The record the full run collects: every value, ``null`` where a layer
    # is not exercised or a span went missing.
    print(json.dumps({
        "workload": args.workload, "trace": args.trace, "seed": args.seed,
        "detail": detail, "attempted": tally.attempted, "failed": tally.failed,
        "values": {m.name: values.get(m.name) for m in listed},
    }))
    # The result line registers numbers only: a per-layer metric the workload
    # does not exercise reads 0 there.
    registered = PER_LAYER if args.trace else registered_end_to_end()
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            m.name: {"value": values.get(m.name) or 0.0, "unit": m.unit}
            for m in registered
        },
    }))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, one child process at a time."""
    from bench.metrics import WORKLOADS

    seconds = args.seconds or (SMOKE_SECONDS if args.smoke else FULL_SECONDS)
    record = {"seed": args.seed, "seconds": seconds, "smoke": args.smoke,
              "batch_size": BATCH_SIZE, "workloads": {}}
    worst = 0
    for workload in WORKLOADS:
        entry = record["workloads"][workload] = {}
        for trace in (0, 1):
            command = [
                sys.executable, "-m", "bench", "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(seconds),
                "--trace", str(trace), "--out", args.out,
            ] + (["--smoke"] if args.smoke else [])
            child = subprocess.run(
                command, cwd=ROOT, stdout=subprocess.PIPE, text=True
            )
            lines = child.stdout.strip().splitlines()
            print("\n".join(lines[:-2]))
            worst = max(worst, child.returncode)
            if len(lines) < 2:
                print(f"bench: {workload} (trace {trace}) printed no result",
                      file=sys.stderr)
                worst = max(worst, 1)
                continue
            result = json.loads(lines[-2])
            entry["per_layer" if trace else "end_to_end"] = result
            if result["failed"]:
                worst = max(worst, 1)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"bench-seed{args.seed}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
    print(f"# record written to {path}")
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.compare:
        from bench.compare import compare_files

        return compare_files(*args.compare)
    if args.workload:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
