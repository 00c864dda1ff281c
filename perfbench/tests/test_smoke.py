"""Reduced-size runs of every workload through the benchmark's command line.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
EXACT_COUNTS = ("oracle.rk4_substeps", "storage.raw_rows_read", "dataprep.resample_grid_points",
                "regressors.rows.u", "estimator.solve_least_squares_calls")


def bench(workload: str, trace: int, root: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout.splitlines()


def result_line(lines: list[str]) -> dict:
    doc = json.loads(lines[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    return doc


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(workload):
    code, lines = bench(workload, 0)
    doc = result_line(lines)
    assert code == 0 and doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    assert {n: m["unit"] for n, m in doc["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(m["value"] > 0 for m in doc["metrics"].values())
    table = "\n".join(lines)
    assert "failed_frac" in table and "val_r2_min" in table


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_reports_every_per_layer_metric(workload):
    code, lines = bench(workload, 1)
    doc = result_line(lines)
    assert code == 0 and doc["correct"] and doc["failed"] == 0
    metrics = {n: m["value"] for n, m in doc["metrics"].items()}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    simulates = workload == "dynamic-sim-1200s"
    prepares = workload != "dynamic-discrete-20k"
    assert (metrics["oracle.rk4_substeps"] > 0) == simulates
    assert (metrics["storage.raw_rows_read"] > 0) == prepares
    assert (metrics["dataprep.resample_grid_points"] > 0) == prepares
    assert (metrics["estimator.resolve_alpha_calls"] > 0) == workload.startswith("dynamic")
    assert metrics["estimator.solve_least_squares_calls"] > 0


def test_traced_counts_repeat_exactly():
    def counts() -> dict:
        metrics = result_line(bench("dynamic-sim-1200s", 1)[1])["metrics"]
        return {n: metrics[n]["value"] for n in EXACT_COUNTS}

    assert counts() == counts()


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    code, lines = bench("dynamic-discrete-20k", 0, root=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
