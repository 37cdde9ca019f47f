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
from .errors import DomainError, LayoutError, PlanError
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


def baseline_exchange(
    batch: SparseBatch,
    placement: ShardedEmbedding,
    topo: ClusterTopology,
    trace: Optional[CommTrace] = None,
) -> ExchangeResult:
    """Flat pipeline: global index all-to-all, lookup, global embedding all-to-all.

    Every rank ends with all features' embeddings for its local batch,
    columns ordered by feature id.
    """
    batch.validate(placement.tables)
    for feat in batch.features:
        placement.shards_of(feat)
    if trace is None:
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
        pieces: dict[int, list[tuple]] = {f: [] for f in features}
        for bundle in received[rank]:
            for tagged in bundle:
                shard = placement.shards[tagged.tag]
                pieces[shard.table_id].append((shard, tagged.data))
        outputs[rank] = np.concatenate(
            [_combine_pieces(pieces[f]) for f in features], axis=1
        )
    layout = OutputLayout(tuple(("feature", f, widths[f]) for f in features))
    return ExchangeResult(outputs, layout, trace, {"b": max(lookup_flops.values())})


def _resolve_tower_modules(
    plan: TowerPlan,
    placement: ShardedEmbedding,
    opts: ExchangeOptions,
    batch_size: int,
    features_by_tower: dict[int, list[int]],
):
    """Per-tower (config, weights, width, flops) for the step-e compression."""
    info = {}
    cfg = opts.tower_modules
    for tower in range(plan.layout.num_towers):
        feats = features_by_tower[tower]
        dims = {placement.tables[f].dim for f in feats}
        if cfg.kind != PASSTHROUGH:
            if len(dims) > 1:
                raise PlanError(
                    f"tower {tower} mixes embedding dims {sorted(dims)}; "
                    "tower modules need one dim per tower"
                )
            in_dim = dims.pop() if dims else 1
            weights = init_tm_weights(cfg, len(feats), in_dim, salt=tower)
            width = tm_output_width(cfg, len(feats), in_dim)
            flops = tm_flops(cfg, len(feats), in_dim, batch_size)
        else:
            weights = None
            width = sum(placement.tables[f].dim for f in feats)
            flops = 0.0
        info[tower] = (cfg, weights, width, flops)
    return info


def tower_exchange(
    batch: SparseBatch,
    placement: ShardedEmbedding,
    plan: TowerPlan,
    topo: ClusterTopology,
    opts: ExchangeOptions = ExchangeOptions(),
    trace: Optional[CommTrace] = None,
    step_f_schedule: Optional[Sequence[int]] = None,
) -> ExchangeResult:
    """Topology-aware pipeline over disjoint towers; see the module docstring.

    Output columns group features by tower (towers ascending, features by id
    inside each tower); realign() maps back to feature-id order for
    comparison against the baseline. ``step_f_schedule`` reorders the
    issue order of the concurrent per-class all-to-alls (results are
    schedule-independent; tests assert it).
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

    if trace is None:
        trace = CommTrace(topo)
    batch_size = batch.local_batch
    features_by_tower = {
        t: [f for f in plan.features_of(t) if f in batch.pooling]
        for t in range(num_towers)
    }

    # Destination blocks in class order: all class-0 ranks (tower ascending),
    # then class-1, ... Chunk c of size num_towers is exactly peer class c.
    dest_seq = class_order(topo, layout)
    dest_pos = {rank: i for i, rank in enumerate(dest_seq)}

    if opts.swap_bc:
        # Permute the (smaller) index payloads before lookup: blocks come out
        # already in class order.
        blocks, lookup_flops = _distribute_and_lookup(
            batch, placement, topo, trace, dest_seq=dest_seq
        )
        position_of = lambda dest: dest_pos[dest]
    else:
        blocks, lookup_flops = _distribute_and_lookup(batch, placement, topo, trace)
        if opts.omit_permute:
            # Virtual ordering: leave blocks in rank order and index through
            # the permutation when building step-d payloads.
            position_of = lambda dest: dest
        else:
            blocks = {
                owner: {
                    sid: [mats[p] for p in dest_seq] for sid, mats in per_shard.items()
                }
                for owner, per_shard in blocks.items()
            }
            position_of = lambda dest: dest_pos[dest]

    rs_tables: set[int] = set()
    if opts.rowwise_reducescatter:
        rs_tables = {
            f
            for f in batch.features
            if any(s.scheme == ROW_WISE for s in placement.shards_of(f))
        }

    # Step d: one collective per tower assembling full-width embeddings for
    # each destination class on that class's local rank.
    assembled: dict[int, dict[int, np.ndarray]] = {r: {} for r in range(topo.world_size)}
    for tower in range(num_towers):
        group = layout.tower_ranks(tower, topo)
        feats = features_by_tower[tower]

        def stacked(owner: int, sid: int, cls: int) -> np.ndarray:
            members = class_members(cls, topo, layout)
            return np.concatenate(
                [blocks[owner][sid][position_of(p)] for p in members], axis=0
            )

        sends = {}
        for owner in group:
            payloads = []
            for cls in range(width):
                bundle = [
                    Tagged(sid, stacked(owner, sid, cls))
                    for sid in blocks[owner]
                    if placement.shards[sid].table_id not in rs_tables
                ]
                payloads.append(bundle)
            sends[owner] = payloads
        received = all_to_all(group, sends, "d", trace)

        rs_results: dict[int, dict[int, np.ndarray]] = {}
        for feat in feats:
            if feat not in rs_tables:
                continue
            contrib: dict[int, list[Optional[np.ndarray]]] = {}
            for sid, shard in enumerate(placement.shards):
                if shard.table_id != feat:
                    continue
                partials = contrib.setdefault(shard.rank, [None] * width)
                for cls in range(width):
                    piece = stacked(shard.rank, sid, cls)
                    if partials[cls] is None:
                        partials[cls] = piece
                    else:
                        partials[cls] = partials[cls] + piece
            rs_results[feat] = reduce_scatter(group, contrib, "d", trace)

        for cls, member in enumerate(group):
            for feat in feats:
                if feat in rs_tables:
                    assembled[member][feat] = rs_results[feat][member]
                else:
                    pieces = []
                    for bundle in received[member]:
                        for tagged in bundle:
                            shard = placement.shards[tagged.tag]
                            if shard.table_id == feat:
                                pieces.append((shard, tagged.data))
                    assembled[member][feat] = _combine_pieces(pieces)

    # Step e: regroup from (feature, destination) to (destination, feature)
    # and apply the tower module per destination block.
    tm_info = _resolve_tower_modules(
        plan, placement, opts, batch_size, features_by_tower
    )
    dest_blocks: dict[int, list[np.ndarray]] = {}
    tm_work = {r: 0.0 for r in range(topo.world_size)}
    for rank in range(topo.world_size):
        tower = layout.tower_of_rank(rank, topo)
        feats = features_by_tower[tower]
        cfg, weights, _, flops_one = tm_info[tower]
        per_dest = []
        for j in range(num_towers):
            rows = slice(j * batch_size, (j + 1) * batch_size)
            feature_mats = [assembled[rank][f][rows] for f in feats]
            if cfg.kind != PASSTHROUGH:
                stacked_feats = (
                    np.stack(feature_mats, axis=1)
                    if feature_mats
                    else np.zeros((batch_size, 0, 1))
                )
                per_dest.append(tm_forward(stacked_feats, cfg, weights))
                tm_work[rank] += flops_one
            elif feature_mats:
                per_dest.append(np.concatenate(feature_mats, axis=1))
            else:
                per_dest.append(np.zeros((batch_size, 0)))
        dest_blocks[rank] = per_dest

    # Step f: concurrent per-class all-to-alls, world size = tower count.
    outputs: dict[int, np.ndarray] = {}
    schedule = list(step_f_schedule) if step_f_schedule is not None else list(range(width))
    if sorted(schedule) != list(range(width)):
        raise DomainError("step_f_schedule must be a permutation of the classes")
    for cls in schedule:
        group = class_members(cls, topo, layout)
        sends = {member: dest_blocks[member] for member in group}
        received = all_to_all(group, sends, "f", trace)
        for member in group:
            outputs[member] = np.concatenate(received[member], axis=1)

    layout_blocks: list[tuple[str, int, int]] = []
    for tower in range(num_towers):
        cfg, _, tower_width, _ = tm_info[tower]
        if cfg.kind != PASSTHROUGH:
            layout_blocks.append(("tower", tower, tower_width))
        else:
            layout_blocks.extend(
                ("feature", f, placement.tables[f].dim)
                for f in features_by_tower[tower]
            )
    flops = {"b": max(lookup_flops.values()), "e": max(tm_work.values())}
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
