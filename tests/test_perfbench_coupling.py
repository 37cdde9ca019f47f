"""The benchmark in ``perfbench/`` reaches into the package by name; these
tests check that every name it reaches still resolves, that its trace
counting agrees with the trace's own byte totals, and that its configs load.

``perfbench/spans.py`` and ``perfbench/workload.py`` are imported from their
files, read-only: no bytecode is written next to them.
"""

import importlib
import importlib.util
import sys
from collections import Counter
from pathlib import Path

import pytest

from towersim import cli, exchange
from towersim.cli import RunContext, load_config
from towersim.embedding import init_table_deterministic

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_file(name: str, path: Path, **imports):
    """Module ``name`` executed from ``path`` with no bytecode written.

    ``imports`` are modules it imports by their bare names. They, and the
    module itself (a dataclass looks its module up while it is made), sit
    in sys.modules only while it runs, and sys.path is restored after it.
    """
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    added = {name: module, **imports}
    saved_path, write_bytecode = list(sys.path), sys.dont_write_bytecode
    sys.modules.update(added)
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
        sys.path[:] = saved_path
        for key in added:
            del sys.modules[key]
    return module


@pytest.fixture(scope="module")
def spans():
    return load_file("perfbench_spans", PERFBENCH / "spans.py")


@pytest.fixture(scope="module")
def workload(spans):
    return load_file("perfbench_workload", PERFBENCH / "workload.py", spans=spans)


@pytest.mark.parametrize("smoke", [False, True], ids=["full", "smoke"])
def test_every_benchmark_config_loads(workload, smoke):
    # A config that a new rule rejected would stop the benchmark from running.
    for name, work in workload.workloads(smoke).items():
        assert load_config(overrides=work.config), name


def test_every_wrapped_attribute_resolves(spans):
    for attr, _ in spans.WRAPPED:
        path, _, leaf = attr.rpartition(".")
        module, _, cls = path.partition(".")
        owner = importlib.import_module(f"towersim.{module}")
        if cls:
            owner = getattr(owner, cls)
        assert leaf in owner.__dict__, attr  # spans patches owner.__dict__[leaf]


def test_count_trace_matches_byte_totals(spans):
    # Multi-hot row-wise tables under the reduce-scatter: some messages are
    # empty and some reduce-scatter contributions are absent.
    ctx = RunContext(load_config(overrides={
        "tables": {"rows": 8, "dim": 2, "hotness": [0, 3],
                   "sharding": "row_wise", "shards_per_table": 1},
        "batch": {"local_size": 1},
        "exchange": {"rowwise_reducescatter": True},
    }))
    baseline = exchange.baseline_exchange(ctx.batch, ctx.placement, ctx.topo)
    traces = {"baseline": baseline.trace, "tower": ctx.run_tower().trace}
    delivered = sum(
        ctx.batch.rank_bags(src, shard.table_id).values.size
        for src in range(ctx.topo.world_size)
        for shard in ctx.placement.shards
    )
    for pipeline, trace in traces.items():
        obs = {"bytes": Counter(), "messages": 0, "empty": 0, "step_a_indices": 0}
        spans.count_trace(obs, pipeline, trace)
        for step in spans.PIPELINE_STEPS[pipeline]:
            assert step in trace.labels()
            intra, cross = trace.byte_totals(step)
            assert obs["bytes"][f"simnet.bytes.{pipeline}.{step}.intra"] == intra
            assert obs["bytes"][f"simnet.bytes.{pipeline}.{step}.cross"] == cross
        assert obs["messages"] == len(trace.entries)
        assert 0 < obs["empty"] < obs["messages"]
        assert obs["step_a_indices"] == delivered


def test_benchmark_cost_builds_no_table_values(workload, monkeypatch):
    # cost-multihot-dcn at full size: the plans read table shapes only.
    made = []

    def recorded(*args, **kwargs):
        made.append(init_table_deterministic(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(cli, "init_table_deterministic", recorded)
    config = workload.workloads(smoke=False)["cost-multihot-dcn"].config
    cli.cost_one(load_config(overrides=config))
    assert len(made) == config["tables"]["count"]
    assert not [t.table_id for t in made if "values" in vars(t)]  # none built


def test_traced_verify_sees_the_tower_run(workload, tmp_path):
    # The benchmark times and counts verify through the names it wraps: one
    # tower run whose trace it counts, and the comparisons inside it.
    runner = workload.Runner("verify-w64-singlehot", 1, True, tmp_path)
    record = runner.execute("traced")
    assert record["problems"] == []
    counted = runner.tracer.observed[0]["bytes"]
    for step in ("a", "d", "f"):
        total = sum(counted[f"simnet.bytes.tower.{step}.{link}"] for link in ("intra", "cross"))
        assert total > 0, step
    assert record["layers"]["exchange.tower_exchange.calls"] == 1
    assert record["layers"]["cli.compare_exact.calls"] >= 1
