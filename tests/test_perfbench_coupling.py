"""The benchmark in ``perfbench/`` reaches into the package by name; these
tests check that every name it reaches still resolves and that its trace
counting agrees with the trace's own byte totals.

``perfbench/spans.py`` is imported from its file, read-only: no bytecode is
written next to it.
"""

import importlib
import importlib.util
import sys
from collections import Counter
from pathlib import Path

import pytest

from towersim.cli import RunContext, load_config

SPANS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
    return module


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
    traces = {"baseline": ctx.run_baseline().trace, "tower": ctx.run_tower().trace}
    delivered = sum(
        ctx.batch.bags[src][shard.table_id].values.size
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
