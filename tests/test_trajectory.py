"""The trajectory writer (``repro.bench.trajectory``) over stubbed benchmark
runs: pair order, summaries, pair wins and the one-row-a-line file."""

from __future__ import annotations

import json

from repro.bench import trajectory


def fake_run(checkout, workload, seed, seconds, trace):
    """A ``python3 -m bench`` result line: the change is faster by ``seed``."""
    rate = 10.0 * seed + (seed if checkout == "change" else 0)
    metrics = {"stmts_per_s": rate, "work_units": 7.0}
    if trace:
        metrics = {"executor.share": 0.5, "core.attempts": 3.0, "sql.parse_ms": 1.0,
                   "stats.runstats_ms": 40.0, "workloads.datagen_ms": 90.0}
    return {
        "correct": True, "attempted": 4, "failed": 0,
        "metrics": {name: {"value": v, "unit": "x"} for name, v in metrics.items()},
    }


def test_rows_round_trip(tmp_path, monkeypatch):
    calls = []

    def run(*args):
        calls.append(args)
        return fake_run(*args)

    monkeypatch.setattr(trajectory, "run_bench", run)
    out = tmp_path / "BENCH_repo.json"
    argv = ["--parent", "parent", "--change", "change", "--parent-commit", "p1",
            "--change-commit", "c1", "--workloads", "dmv_reopt", "--pairs", "4",
            "--seconds", "2", "--out", str(out)]
    assert trajectory.main(argv) == 0
    # Pair i at seed i, parent first; then one traced run per side.
    assert [(c[0], c[2], c[4]) for c in calls] == [
        (side, seed, 0) for seed in range(1, 5) for side in ("parent", "change")
    ] + [("parent", 1, 1), ("change", 1, 1)]
    lines = out.read_text().splitlines()
    assert len(lines) == 5  # about, "rows": [, two rows, ]}
    parent, change = json.loads(out.read_text())["rows"]
    assert (parent["side"], parent["commit"], change["commit"]) == ("parent", "p1", "c1")
    dmv = change["workloads"]["dmv_reopt"]
    assert dmv["metrics"]["stmts_per_s"]["values"] == [11.0, 22.0, 33.0, 44.0]
    assert dmv["metrics"]["stmts_per_s"]["median"] == 27.5
    assert dmv["pair_wins"] == {"stmts_per_s": 4, "work_units": 0}
    assert dmv["traced"] == {"executor.share": 0.5, "core.attempts": 3.0,
                             "stats.runstats_ms": 40.0, "workloads.datagen_ms": 90.0}
    assert (dmv["attempted"], dmv["failed"]) == (16, 0)
    # A second invocation appends.
    assert trajectory.main(argv) == 0
    assert len(json.loads(out.read_text())["rows"]) == 4


def test_server_mix_invariants_are_filed_as_timing_dependent():
    """``server_mix``'s paced writers move its counters from run to run, so
    they are kept apart from the deterministic workloads' invariants."""
    traced = fake_run("change", "server_mix", 1, 2, 1)
    assert trajectory.traced_view(traced, "dmv_reopt") == {
        "executor.share": 0.5, "core.attempts": 3.0,
        "stats.runstats_ms": 40.0, "workloads.datagen_ms": 90.0,
    }
    assert trajectory.traced_view(traced, "server_mix") == {
        "executor.share": 0.5, "timing_dependent": {"core.attempts": 3.0},
        "stats.runstats_ms": 40.0, "workloads.datagen_ms": 90.0,
    }
