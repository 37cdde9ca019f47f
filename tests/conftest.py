"""Shared builders for exchange-pipeline tests."""

from __future__ import annotations

import numpy as np
import pytest

from towersim.embedding import (
    EmbeddingTable,
    TablePlan,
    init_table_deterministic,
    lookup,
    make_batch,
    shard_tables,
)
from towersim.topology import ClusterTopology, TowerLayout


def build_run(
    num_hosts: int,
    ranks_per_host: int,
    hosts_per_tower: int = 1,
    dims=(4,),
    rows: int = 8,
    num_tables: int = None,
    hotness=1,
    sharding: str = "table_wise",
    shards_per_table: int = 1,
    local_batch: int = 2,
    integer: bool = True,
    assignment: dict = None,
    seed: int = 0,
):
    """Assemble (topo, layout, tables, batch, placement) for one run.

    ``dims`` cycles over tables when shorter than the table count;
    ``assignment`` defaults to contiguous balanced blocks of feature ids.
    """
    topo = ClusterTopology(num_hosts=num_hosts, ranks_per_host=ranks_per_host)
    group = ranks_per_host * hosts_per_tower
    assert topo.world_size % group == 0
    layout = TowerLayout(topo.world_size // group, hosts_per_tower)
    if num_tables is None:
        num_tables = max(len(dims), layout.num_towers)
    tables = {
        tid: init_table_deterministic(tid, rows, dims[tid % len(dims)], seed, integer)
        for tid in range(num_tables)
    }
    if assignment is None:
        assignment = {
            tid: min(tid * layout.num_towers // num_tables, layout.num_towers - 1)
            for tid in range(num_tables)
        }
    plan_map = {}
    for tid in tables:
        if sharding == "table_wise":
            count = 1
        elif sharding == "column_wise":
            count = min(shards_per_table, tables[tid].dim, group)
        else:
            count = min(shards_per_table, rows, group)
        plan_map[tid] = TablePlan(sharding, count, assignment[tid])
    placement = shard_tables(tables, plan_map, topo, layout)
    hot = {tid: hotness for tid in tables}
    batch = make_batch(topo, tables, local_batch, hot, seed + 1)
    return topo, layout, tables, batch, placement


def direct_lookup_oracle(batch, tables):
    """Communication-free reference: each rank looks its own bags up in the
    whole tables, features concatenated in id order."""
    outputs = {}
    for rank in range(batch.num_ranks):
        mats = []
        for feat in batch.features:
            pooling = batch.pooling[feat]
            bags = batch.rank_bags(rank, feat)
            if pooling == "none":
                mats.append(lookup(tables[feat].values, bags, "none"))
            else:
                mats.append(lookup(tables[feat].values, bags, "sum"))
        outputs[rank] = np.concatenate(mats, axis=1)
    return outputs


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
