"""Embedding exchange pipelines: flat baseline and the tower transform.

Both pipelines start the same way: every rank broadcasts its index bags to
the shard owners (step a) and owners look up partial embeddings for the
global batch (step b). The baseline then returns everything through one
global all-to-all (step c). The tower pipeline instead permutes the
destination blocks into peer-class order (step c), runs one all-to-all (or
reduce-scatter) inside each tower's host group to assemble full-width
embeddings per destination class (step d), reshuffles locally from
(feature, destination) to (destination, feature) order (step e), optionally
compresses each tower's block with its tower module, and finishes with
concurrent per-class all-to-alls whose world size is the tower count
(step f).

Traces label wire steps "a", "c", "d", "f"; steps b and e are local and
contribute flops only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .embedding import (
    POOL_SUM,
    ROW_WISE,
    Bags,
    ShardedEmbedding,
    SparseBatch,
    lookup,
)
from .errors import LayoutError, PlanError
from .simnet import CommTrace, Tagged, all_to_all, reduce_scatter
from .topology import ClusterTopology, TowerLayout, class_members, class_order
from .towermod import (
    PASSTHROUGH,
    TMConfig,
    init_tm_weights,
    tm_flops,
    tm_forward,
    tm_output_width,
)


@dataclass(frozen=True)
class TowerPlan:
    """Tower layout plus the feature -> tower assignment."""

    layout: TowerLayout
    feature_towers: dict[int, int]

    def features_of(self, tower: int) -> list[int]:
        return sorted(f for f, t in self.feature_towers.items() if t == tower)


@dataclass(frozen=True)
class ExchangeOptions:
    """Switches for the tower pipeline.

    swap_bc looks bags up directly in permuted order (shuffle the smaller
    index payload instead of the embeddings); omit_permute skips the
    materialized permute and lets step d gather blocks through the virtual
    ordering; both leave results identical. rowwise_reducescatter sums
    row-wise partial pools inside a reduce-scatter at step d instead of
    shipping per-shard partials and summing at the receiver. tower_modules
    is the one TMConfig every tower applies (passthrough by default).
    """

    swap_bc: bool = False
    omit_permute: bool = False
    rowwise_reducescatter: bool = False
    tower_modules: TMConfig = TMConfig()


@dataclass(frozen=True)
class OutputLayout:
    """Column layout of an exchange output: ordered (kind, ident, width) blocks.

    kind is "feature" for raw embeddings and "tower" for compressed tower
    blocks (whose feature columns are no longer individually addressable).
    """

    blocks: tuple[tuple[str, int, int], ...]

    def feature_widths(self) -> dict[int, int]:
        if any(kind != "feature" for kind, _, _ in self.blocks):
            raise LayoutError("layout contains compressed tower blocks")
        return {ident: width for _, ident, width in self.blocks}


@dataclass
class ExchangeResult:
    outputs: dict[int, np.ndarray]
    layout: OutputLayout
    trace: CommTrace
    flops: dict[str, float] = field(default_factory=dict)


def _combine_pieces(pieces: list[tuple]) -> np.ndarray:
    """Assemble one feature from (shard, matrix) pieces.

    Column/table shards concatenate in column order; row shards sum.
    """
    schemes = {shard.scheme for shard, _ in pieces}
    if schemes == {ROW_WISE}:
        ordered = sorted(pieces, key=lambda sm: sm[0].row_range)
        total = ordered[0][1].copy()
        for _, mat in ordered[1:]:
            total += mat
        return total
    if ROW_WISE in schemes:
        raise PlanError("a table mixes row-wise and column-wise shards")
    ordered = sorted(pieces, key=lambda sm: sm[0].col_range)
    return np.concatenate([mat for _, mat in ordered], axis=1)


def _shard_lookup(
    placement: ShardedEmbedding,
    shard,
    bags: Bags,
    pooling: str,
) -> tuple[np.ndarray, float]:
    """Partial lookup of one shard over a run of bags, plus flops."""
    values = placement.shard_values(shard)
    if shard.scheme == ROW_WISE:
        r0, r1 = shard.row_range
        keep = (bags.values >= r0) & (bags.values < r1)
        bag_of = np.repeat(np.arange(len(bags)), bags.lengths)
        bags = Bags(
            np.bincount(bag_of[keep], minlength=len(bags)), bags.values[keep] - r0
        )
        # Partials always sum-combine across row shards, so pool with sum;
        # out-of-range singles become zero rows that vanish in the sum.
        pooling = POOL_SUM
    flops = bags.values.size * shard.width
    return lookup(values, bags, pooling), float(flops)


def _distribute_and_lookup(
    batch: SparseBatch,
    placement: ShardedEmbedding,
    topo: ClusterTopology,
    trace: CommTrace,
    dest_seq: Optional[Sequence[int]] = None,
):
    """Steps a and b, shared by both pipelines.

    Returns (blocks, lookup_flops): blocks[owner][shard_index] is a list of
    (batch, width) arrays ordered by ``dest_seq`` (rank order when None), and
    lookup_flops maps rank to its lookup work. Each owner looks a shard up
    once, over the bags of every source in that order.
    """
    world = list(range(topo.world_size))
    # Placement may cover more tables than the batch references; only the
    # batch's features move.
    shard_list = [
        (sid, s)
        for sid, s in enumerate(placement.shards)
        if s.table_id in batch.pooling
    ]
    by_owner = {o: [(sid, s) for sid, s in shard_list if s.rank == o] for o in world}

    sends = {
        src: [
            [Tagged(sid, batch.bags[src][s.table_id]) for sid, s in by_owner[owner]]
            for owner in world
        ]
        for src in world
    }
    received = all_to_all(world, sends, "a", trace)

    order = list(dest_seq) if dest_seq is not None else world
    blocks: dict[int, dict[int, list[np.ndarray]]] = {}
    lookup_flops = {o: 0.0 for o in world}
    size = batch.local_batch
    for owner in world:
        # Every source sends the owner's shards in the same order.
        per_source = [[tagged.data for tagged in received[owner][src]] for src in order]
        per_shard: dict[int, list[np.ndarray]] = {}
        for k, (sid, shard) in enumerate(by_owner[owner]):
            parts = [bundle[k] for bundle in per_source]
            mat, flops = _shard_lookup(
                placement, shard, Bags.concat(parts), batch.pooling[shard.table_id]
            )
            per_shard[sid] = [mat[i * size:(i + 1) * size] for i in range(len(order))]
            lookup_flops[owner] += flops
        blocks[owner] = per_shard
    return blocks, lookup_flops


def _assemble(bundles, placement: ShardedEmbedding) -> dict[int, np.ndarray]:
    """Features assembled from received bundles of Tagged(shard id, matrix)."""
    pieces: dict[int, list[tuple]] = {}
    for bundle in bundles:
        for tagged in bundle:
            shard = placement.shards[tagged.tag]
            pieces.setdefault(shard.table_id, []).append((shard, tagged.data))
    return {feat: _combine_pieces(parts) for feat, parts in pieces.items()}


def baseline_exchange(
    batch: SparseBatch,
    placement: ShardedEmbedding,
    topo: ClusterTopology,
) -> ExchangeResult:
    """Flat pipeline: global index all-to-all, lookup, global embedding all-to-all.

    Every rank ends with all features' embeddings for its local batch,
    columns ordered by feature id.
    """
    batch.validate(placement.tables)
    for feat in batch.features:
        placement.shards_of(feat)
    trace = CommTrace(topo)
    world = list(range(topo.world_size))
    blocks, lookup_flops = _distribute_and_lookup(batch, placement, topo, trace)

    sends = {
        owner: [
            [Tagged(sid, mats[dest]) for sid, mats in blocks[owner].items()]
            for dest in world
        ]
        for owner in world
    }
    received = all_to_all(world, sends, "c", trace)

    outputs = {}
    features = batch.features
    widths = {f: placement.tables[f].dim for f in features}
    for rank in world:
        assembled = _assemble(received[rank], placement)
        outputs[rank] = np.concatenate([assembled[f] for f in features], axis=1)
    layout = OutputLayout(tuple(("feature", f, widths[f]) for f in features))
    return ExchangeResult(outputs, layout, trace, {"b": max(lookup_flops.values())})


def tower_exchange(
    batch: SparseBatch,
    placement: ShardedEmbedding,
    plan: TowerPlan,
    topo: ClusterTopology,
    opts: ExchangeOptions = ExchangeOptions(),
) -> ExchangeResult:
    """Topology-aware pipeline over disjoint towers; see the module docstring.

    Output columns group features by tower (towers ascending, features by id
    inside each tower); realign() maps back to feature-id order for
    comparison against the baseline.
    """
    batch.validate(placement.tables)
    layout = plan.layout
    layout.validate_for(topo)
    width = layout.group_width(topo)
    num_towers = layout.num_towers

    for feat in batch.features:
        if feat not in plan.feature_towers:
            raise PlanError(f"feature {feat} has no tower assignment")
        tower = plan.feature_towers[feat]
        ranks = set(layout.tower_ranks(tower, topo))
        owners = {s.rank for s in placement.shards_of(feat)}
        if not owners <= ranks:
            raise PlanError(
                f"feature {feat} mapped to tower {tower} but sharded on {sorted(owners)}"
            )

    trace = CommTrace(topo)
    batch_size = batch.local_batch
    members = [class_members(cls, topo, layout) for cls in range(width)]

    # Destination blocks in class order: all class-0 ranks (tower ascending),
    # then class-1, ... Chunk c of size num_towers is exactly peer class c.
    dest_seq = class_order(topo, layout)
    if opts.swap_bc:
        # Permute the (smaller) index payloads before lookup: blocks come out
        # already in class order.
        blocks, lookup_flops = _distribute_and_lookup(
            batch, placement, topo, trace, dest_seq=dest_seq
        )
    else:
        blocks, lookup_flops = _distribute_and_lookup(batch, placement, topo, trace)
        if not opts.omit_permute:
            blocks = {
                owner: {
                    sid: [mats[p] for p in dest_seq] for sid, mats in per_shard.items()
                }
                for owner, per_shard in blocks.items()
            }
    # position[dest] indexes dest's block in blocks[owner][sid]. omit_permute
    # alone leaves blocks in rank order, and step d gathers through this
    # virtual ordering instead of a materialized permute.
    order = range(topo.world_size) if opts.omit_permute and not opts.swap_bc else dest_seq
    position = {rank: i for i, rank in enumerate(order)}

    def stacked(owner: int, sid: int, cls: int) -> np.ndarray:
        return np.concatenate(
            [blocks[owner][sid][position[p]] for p in members[cls]], axis=0
        )

    # Row-wise features bypass the step-d all-to-all under
    # rowwise_reducescatter; their partial pools sum in a reduce-scatter.
    rs_shards: dict[int, list[int]] = {}
    if opts.rowwise_reducescatter:
        for sid, shard in enumerate(placement.shards):
            if shard.scheme == ROW_WISE and shard.table_id in batch.pooling:
                rs_shards.setdefault(shard.table_id, []).append(sid)

    def partials(sids: list[int]) -> dict[int, list[np.ndarray]]:
        """Per-owner, per-class partials; an owner holding several row
        shards pre-sums them in shard order."""
        out: dict[int, list[np.ndarray]] = {}
        for sid in sids:
            owner = placement.shards[sid].rank
            pieces = [stacked(owner, sid, cls) for cls in range(width)]
            if owner in out:
                pieces = [acc + piece for acc, piece in zip(out[owner], pieces)]
            out[owner] = pieces
        return out

    cfg = opts.tower_modules
    layout_blocks: list[tuple[str, int, int]] = []
    dest_blocks: dict[int, list[np.ndarray]] = {}
    tm_work = 0.0
    for tower in range(num_towers):
        group = layout.tower_ranks(tower, topo)
        feats = [f for f in plan.features_of(tower) if f in batch.pooling]

        # Step d: one collective per tower assembling full-width embeddings
        # for each destination class on that class's local rank. Each
        # member's bundles are dropped once assembled, so no payload
        # outlives its tower.
        sends = {
            owner: [
                [
                    Tagged(sid, stacked(owner, sid, cls))
                    for sid in blocks[owner]
                    if placement.shards[sid].table_id not in rs_shards
                ]
                for cls in range(width)
            ]
            for owner in group
        }
        received = all_to_all(group, sends, "d", trace)
        del sends
        assembled = {m: _assemble(received.pop(m), placement) for m in group}
        for feat in feats:
            if feat in rs_shards:
                summed = reduce_scatter(group, partials(rs_shards[feat]), "d", trace)
                for member in group:
                    assembled[member][feat] = summed[member]

        # Step e: regroup from (feature, destination) to (destination,
        # feature) and apply the tower module per destination block.
        if cfg.kind == PASSTHROUGH:
            layout_blocks.extend(("feature", f, placement.tables[f].dim) for f in feats)
        else:
            dims = {placement.tables[f].dim for f in feats}
            if len(dims) > 1:
                raise PlanError(
                    f"tower {tower} mixes embedding dims {sorted(dims)}; "
                    "tower modules need one dim per tower"
                )
            in_dim = dims.pop() if dims else 1
            weights = init_tm_weights(cfg, len(feats), in_dim, salt=tower)
            # Each rank of the tower runs one forward per destination tower.
            flops_one = tm_flops(cfg, len(feats), in_dim, batch_size)
            tm_work = max(tm_work, num_towers * flops_one)
            tower_width = tm_output_width(cfg, len(feats), in_dim)
            layout_blocks.append(("tower", tower, tower_width))
        for rank in group:
            per_dest = []
            for j in range(num_towers):
                rows = slice(j * batch_size, (j + 1) * batch_size)
                mats = [assembled[rank][f][rows] for f in feats]
                if cfg.kind == PASSTHROUGH:
                    per_dest.append(
                        np.concatenate(mats, axis=1) if mats else np.zeros((batch_size, 0))
                    )
                else:
                    embs = np.stack(mats, axis=1) if mats else np.zeros((batch_size, 0, 1))
                    per_dest.append(tm_forward(embs, cfg, weights))
            dest_blocks[rank] = per_dest

    # Step f: concurrent per-class all-to-alls, world size = tower count.
    outputs: dict[int, np.ndarray] = {}
    for group in members:
        received = all_to_all(group, {m: dest_blocks[m] for m in group}, "f", trace)
        for member in group:
            outputs[member] = np.concatenate(received[member], axis=1)

    flops = {"b": max(lookup_flops.values()), "e": tm_work}
    return ExchangeResult(outputs, OutputLayout(tuple(layout_blocks)), trace, flops)


def realign(result: ExchangeResult, target_feature_order: Sequence[int]) -> ExchangeResult:
    """Reorder output columns into a target feature order (no wire traffic)."""
    widths = result.layout.feature_widths()
    if sorted(target_feature_order) != sorted(widths):
        raise LayoutError(
            f"target features {sorted(target_feature_order)} != "
            f"layout features {sorted(widths)}"
        )
    starts = {}
    col = 0
    for _, ident, width in result.layout.blocks:
        starts[ident] = col
        col += width
    outputs = {
        rank: np.concatenate(
            [mat[:, starts[f]:starts[f] + widths[f]] for f in target_feature_order],
            axis=1,
        )
        for rank, mat in result.outputs.items()
    }
    layout = OutputLayout(tuple(("feature", f, widths[f]) for f in target_feature_order))
    return ExchangeResult(outputs, layout, result.trace, dict(result.flops))
