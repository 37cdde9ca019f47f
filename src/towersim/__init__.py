"""Deterministic simulator for topology-aware tower-transformed embedding exchange."""

from .costmodel import (
    CostBreakdown,
    CostParams,
    collective_latency,
    default_efficiency,
    pipeline_cost,
    speedup_report,
)
from .embedding import (
    Bags,
    EmbeddingTable,
    ShardedEmbedding,
    SparseBatch,
    TablePlan,
    init_table_deterministic,
    lookup,
    make_batch,
    shard_tables,
)
from .exchange import (
    ExchangeOptions,
    ExchangeResult,
    OutputLayout,
    TowerPlan,
    baseline_exchange,
    baseline_plan,
    realign,
    tower_exchange,
    tower_plan,
)
from .partitioner import (
    TowerAssignment,
    affinity_from_embeddings,
    constrained_kmeans,
    distance_from_affinity,
    mds_embed,
    naive_assignment,
    partition_score,
)
from .simnet import CommTrace, all_to_all, reduce_scatter
from .topology import ClusterTopology, TowerLayout, link_classes, peer_order
from .towermod import (
    TMConfig,
    compression_ratio,
    crossnet_layer,
    interaction_pairs,
    tm_dcn_forward,
    tm_dlrm_forward,
    tm_forward,
)

__version__ = "0.1.0"
