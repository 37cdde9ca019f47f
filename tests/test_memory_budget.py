"""Traced peak memory of two full-size benchmark commands, held below
committed budgets.

tracemalloc's peak, to which numpy reports its data buffers, repeats to
within a few hundred bytes across processes and checkout paths, where wall
time and peak RSS do not. Each budget sits about 10% above the peak measured
when it was set, and a change that lowers a peak lowers its budget with it.
The configs are the benchmark's own, from ``perfbench/workload.py`` loaded
read-only.
"""

import json
import tracemalloc

import pytest

from towersim import cli
from test_perfbench_coupling import PERFBENCH, load_file

# Traced peak of one command, in bytes: (budget, measured when it was set).
BUDGETS = {
    "verify-w64-singlehot": (62_000_000, 56_245_763),
    "cost-multihot-dcn": (5_900_000, 5_347_663),
}


@pytest.fixture(scope="module")
def workloads():
    spans = load_file("perfbench_spans", PERFBENCH / "spans.py")
    workload = load_file("perfbench_workload", PERFBENCH / "workload.py", spans=spans)
    return workload.workloads(smoke=False)


@pytest.mark.parametrize("name", sorted(BUDGETS))
def test_traced_peak_stays_within_budget(workloads, tmp_path, name):
    work = workloads[name]
    config = tmp_path / "config.yaml"
    config.write_text(json.dumps(work.config), encoding="utf-8")
    argv = ["--config", str(config), "--seed", "1", "--out", str(tmp_path / "out"), *work.argv]
    tracemalloc.start()
    try:
        code = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    budget, _ = BUDGETS[name]
    line = f"{name}: traced peak {peak:,} B, budget {budget:,} B"
    print(line)
    assert code == cli.EXIT_OK
    assert peak < budget, line
