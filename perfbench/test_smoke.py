"""Tests of the benchmark itself, on toy-size inputs.

Run from the root of a checkout: python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, trace: int, seed: int = 5, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result(workload: str, trace: int, seed: int = 5) -> tuple[dict, dict]:
    done = bench(workload, trace, seed)
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads(
        (HERE / "out" / f"{workload}.seed{seed}.trace{trace}.smoke" / "record.json").read_text()
    )
    return line, record


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    line, record = result(workload, 0)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 2
    assert list(line["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in line["metrics"].values())
    assert record["commands"][0]["kind"] == "warmup"
    assert record["provenance"]["src_lines"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_self_times_add_up_to_the_traced_command(workload):
    line, record = result(workload, 1)
    metrics = {k: v["value"] for k, v in line["metrics"].items()}
    assert line["correct"]
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    selfs = sum(v for k, v in metrics.items() if k.endswith(".self.s"))
    assert selfs == pytest.approx(metrics["trace.cmd_s"], rel=1e-9)
    assert metrics["trace.overhead"] > 0
    assert {c["kind"] for c in record["commands"]} == {"traced", "untraced"}


def test_exchange_counts_match_the_workload():
    verify = {k: v["value"] for k, v in result(WORKLOADS[0], 1)[0]["metrics"].items()}
    assert verify["embedding.validate.calls"] == 3
    assert verify["embedding.lookup.useful_frac"] == 1.0
    assert verify["simnet.bytes.baseline.c.cross"] == verify["simnet.bytes.tower.f.cross"] > 0
    cost = {k: v["value"] for k, v in result(WORKLOADS[1], 1)[0]["metrics"].items()}
    assert cost["embedding.lookup.useful_frac"] == 0.5
    assert cost["simnet.reduce_scatter.calls"] > 0
    assert cost["costmodel.pipeline_cost.calls"] == 6


@pytest.mark.parametrize("workload", WORKLOADS)
def test_simulated_statistics_and_digests_repeat(workload):
    _, first = result(workload, 0, seed=7)
    _, second = result(workload, 0, seed=7)
    assert first["simulated"] and first["digests"]
    assert first["simulated"] == second["simulated"]
    assert first["digests"] == second["digests"]


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    done = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
