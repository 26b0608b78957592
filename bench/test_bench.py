"""Checks of the benchmark itself (``python -m pytest bench -q``; the
repository's tier-1 ``testpaths`` stays ``tests``)."""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from bench.metrics import END_TO_END, PER_LAYER, WORKLOADS, registered_end_to_end

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "bench", *args],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170,
    )


def smoke_one(workload: str, seed: int, out: Path) -> dict:
    """The record line of one smoke run of one workload."""
    done = bench("--workload", workload, "--smoke", "--seed", str(seed),
                 "--out", str(out))
    assert done.returncode == 0
    return json.loads(done.stdout.strip().splitlines()[-2])


@pytest.fixture(scope="module")
def smoke_record(tmp_path_factory) -> Path:
    """One full smoke run: all five workloads and the traced pass."""
    out = tmp_path_factory.mktemp("bench_out")
    done = bench("--smoke", "--out", str(out))
    assert done.returncode == 0, done.stdout
    return out / "bench-seed2004.json"


def test_metric_names_and_counts():
    names = [m.name for m in END_TO_END + PER_LAYER] + list(WORKLOADS)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert len(END_TO_END) <= 16
    assert len(PER_LAYER) <= 128
    for metric in END_TO_END:
        assert metric.unit and metric.better in ("lower", "higher")
        assert metric.bound is not None and 0.0 <= metric.bound <= 0.25


def test_benchmark_json_mirrors_the_definitions():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert doc["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in registered_end_to_end()
    ]
    assert doc["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]
    assert "setup_s" in [m["name"] for m in doc["end_to_end"]]


def test_smoke_reports_every_metric_and_no_failure(smoke_record):
    record = json.loads(smoke_record.read_text())
    assert list(record["workloads"]) == list(WORKLOADS)
    for workload, entry in record["workloads"].items():
        end_to_end = entry["end_to_end"]
        assert end_to_end["detail"]["samples"] >= 1
        assert end_to_end["values"]["fail_frac"] == 0
        assert set(end_to_end["values"]) == {
            m.name for m in END_TO_END if m.applies(workload)
        }
        assert all(v is not None for v in end_to_end["values"].values())
        assert set(entry["per_layer"]["values"]) == {m.name for m in PER_LAYER}
        assert entry["per_layer"]["failed"] == 0


def test_result_line_has_the_contract_keys(tmp_path):
    done = bench("--workload", "scan_agg", "--smoke", "--out", str(tmp_path))
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {m.name for m in registered_end_to_end()}
    for value in result["metrics"].values():
        assert set(value) == {"value", "unit"} and value["value"] > 0


def test_work_units_repeat_exactly_and_follow_the_seed(tmp_path):
    first = smoke_one("scan_agg", 5, tmp_path)["values"]["work_units"]
    again = smoke_one("scan_agg", 5, tmp_path)["values"]["work_units"]
    other = smoke_one("scan_agg", 6, tmp_path)["values"]["work_units"]
    assert first == again
    assert first != other


def test_compare_passes_on_itself_and_fails_on_a_regression(smoke_record, tmp_path):
    same = bench("--compare", str(smoke_record), str(smoke_record))
    assert same.returncode == 0, same.stdout
    doctored = json.loads(smoke_record.read_text())
    doctored["workloads"]["scan_agg"]["end_to_end"]["values"]["stmt_p50_ms"] *= 1.5
    worse = tmp_path / "doctored.json"
    worse.write_text(json.dumps(doctored))
    breach = bench("--compare", str(smoke_record), str(worse))
    assert breach.returncode != 0
    assert "BREACH" in breach.stdout
