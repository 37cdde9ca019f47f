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
contribute flops only. The tower pipeline releases each buffer once the next
step has consumed it, so it holds its outputs plus one tower in flight.

Every byte count is a function of shapes alone: bag sizes, shard placement,
table widths and tower-module output widths. baseline_plan and tower_plan
derive each pipeline's trace and flops from those shapes without looking up
or moving an embedding; the cost model costs the plans, and the functional
pipelines are checked against them collective for collective (check_plan).
"""

from __future__ import annotations

import itertools
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
from .errors import InvariantError, LayoutError, PlanError
from .simnet import (
    ALL_TO_ALL,
    BYTES_PER_ELEMENT,
    REDUCE_SCATTER,
    Collective,
    CommTrace,
    Tagged,
    all_to_all,
    reduce_scatter,
)
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


# The ExchangeOptions fields that are boolean switches, in field order.
SWITCHES = ("swap_bc", "omit_permute", "rowwise_reducescatter")


@dataclass(frozen=True)
class ExchangeOptions:
    """Switches for the tower pipeline.

    swap_bc looks bags up directly in permuted order (shuffle the smaller
    index payload instead of the embeddings); omit_permute skips the
    materialized permute and lets step d gather blocks through the virtual
    ordering. Neither changes an output file, a byte count or a modelled
    second: they choose internal paths that only verify observes, by
    checking that they give the same results. rowwise_reducescatter sums
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

    Column/table shards concatenate in column order; row shards sum. A lone
    piece is returned uncopied, so callers must not write into the result.
    """
    if len(pieces) == 1:
        return pieces[0][1]
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


def _batch_shards(batch: SparseBatch, placement: ShardedEmbedding) -> list[tuple]:
    """(shard id, shard) of every shard of a batch feature, in placement order.

    Placement may cover more tables than the batch references; only the
    batch's features move.
    """
    return [(sid, s) for sid, s in enumerate(placement.shards) if s.table_id in batch.pooling]


def _check_placement(
    batch: SparseBatch,
    placement: ShardedEmbedding,
    topo: ClusterTopology,
    plan: Optional[TowerPlan] = None,
) -> None:
    """Up-front checks of a pipeline and its plan: every batch feature has
    shards and, under a tower plan, the layout tiles the world and each
    feature's shards sit on its tower's ranks."""
    if plan is None:
        for feat in batch.features:
            placement.shards_of(feat)
        return
    plan.layout.validate_for(topo)
    for feat in batch.features:
        if feat not in plan.feature_towers:
            raise PlanError(f"feature {feat} has no tower assignment")
        tower = plan.feature_towers[feat]
        ranks = set(plan.layout.tower_ranks(tower, topo))
        owners = {s.rank for s in placement.shards_of(feat)}
        if not owners <= ranks:
            raise PlanError(
                f"feature {feat} mapped to tower {tower} but sharded on {sorted(owners)}"
            )


def _reduce_scattered(
    batch: SparseBatch, placement: ShardedEmbedding, opts: ExchangeOptions
) -> dict[int, list[int]]:
    """Shard ids of each feature whose step d is a reduce-scatter.

    Row-wise features bypass the step-d all-to-all under
    rowwise_reducescatter; their partial pools sum in a reduce-scatter.
    """
    rs_shards: dict[int, list[int]] = {}
    if opts.rowwise_reducescatter:
        for sid, shard in _batch_shards(batch, placement):
            if shard.scheme == ROW_WISE:
                rs_shards.setdefault(shard.table_id, []).append(sid)
    return rs_shards


def _step_e_shape(
    cfg: TMConfig,
    placement: ShardedEmbedding,
    feats: list[int],
    tower: int,
    num_towers: int,
    batch_size: int,
) -> tuple[int, int, float]:
    """(in_dim, width, flops) of one tower's step e.

    in_dim is the embedding dim its tower module reads (0 under
    passthrough), width the columns of its block for each destination, and
    flops the work of each of its ranks: one forward per destination tower.
    """
    if cfg.kind == PASSTHROUGH:
        return 0, sum(placement.tables[f].dim for f in feats), 0.0
    dims = {placement.tables[f].dim for f in feats}
    if len(dims) > 1:
        raise PlanError(
            f"tower {tower} mixes embedding dims {sorted(dims)}; "
            "tower modules need one dim per tower"
        )
    in_dim = dims.pop() if dims else 1
    flops = num_towers * tm_flops(cfg, len(feats), in_dim, batch_size)
    return in_dim, tm_output_width(cfg, len(feats), in_dim), flops


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
    shard_list = _batch_shards(batch, placement)
    by_owner = {o: [(sid, s) for sid, s in shard_list if s.rank == o] for o in world}

    feats = batch.features
    sends = {}
    for src in world:
        views = {f: batch.rank_bags(src, f) for f in feats}
        sends[src] = [
            [Tagged(sid, views[s.table_id]) for sid, s in by_owner[owner]]
            for owner in world
        ]
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
    columns ordered by feature id. ``batch`` must be validated against
    ``placement.tables`` (make_batch does so).
    """
    _check_placement(batch, placement, topo)
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
    comparison against the baseline. Step d releases its tower's step-b
    lookups and step e its step-d bundles; step f releases each destination
    block as its class all-to-all takes it, and each receiver's blocks as
    they are concatenated. ``batch`` must be validated, as for
    baseline_exchange.
    """
    _check_placement(batch, placement, topo, plan)
    layout = plan.layout
    width = layout.group_width(topo)
    num_towers = layout.num_towers
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

    rs_shards = _reduce_scattered(batch, placement, opts)

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
        for owner in group:  # owners sit in one tower only
            del blocks[owner]

        # Step e: regroup from (feature, destination) to (destination,
        # feature) and apply the tower module per destination block.
        in_dim, tower_width, flops = _step_e_shape(
            cfg, placement, feats, tower, num_towers, batch_size
        )
        tm_work = max(tm_work, flops)
        if cfg.kind == PASSTHROUGH:
            layout_blocks.extend(("feature", f, placement.tables[f].dim) for f in feats)
        else:
            weights = init_tm_weights(cfg, len(feats), in_dim, salt=tower)
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
        del assembled

    # Step f: concurrent per-class all-to-alls, world size = tower count.
    outputs: dict[int, np.ndarray] = {}
    for group in members:
        received = all_to_all(group, {m: dest_blocks.pop(m) for m in group}, "f", trace)
        for member in group:
            outputs[member] = np.concatenate(received.pop(member), axis=1)

    flops = {"b": max(lookup_flops.values()), "e": tm_work}
    return ExchangeResult(outputs, OutputLayout(tuple(layout_blocks)), trace, flops)


def _record(trace: CommTrace, label: str, group: Sequence[int], nbytes: np.ndarray,
            present: Optional[np.ndarray] = None) -> None:
    """Append a planned collective: a reduce-scatter when ``present`` is given,
    else an all-to-all, whose messages are all present."""
    if present is None:
        kind, present = ALL_TO_ALL, np.ones(nbytes.shape, dtype=bool)
    else:
        kind = REDUCE_SCATTER
    trace.collectives.append(Collective(label, kind, tuple(group), nbytes, present))


def _same_to_every_member(sent: np.ndarray) -> np.ndarray:
    """Byte matrix of a collective in which member i sends ``sent[i]`` bytes
    to each member."""
    return np.repeat(sent[:, None], sent.size, axis=1)


def _plan_steps_a_b(
    batch: SparseBatch, placement: ShardedEmbedding, topo: ClusterTopology, trace: CommTrace
) -> float:
    """Record step a's all-to-all and return step b's flops (the busiest owner's).

    Source s sends owner o every index of each feature o holds a shard of,
    so step a's bytes are 4 x (indices per source and feature) @ (shards per
    feature and owner). A row shard looks up only the indices in its row
    range; other shards look up every index of their feature.
    """
    world = topo.world_size
    shard_list = _batch_shards(batch, placement)
    feats = batch.features
    column = {f: i for i, f in enumerate(feats)}
    indices = np.zeros((world, len(feats)), dtype=np.int64)
    for f in feats:
        indices[:, column[f]] = batch.indices_per_rank(f)
    held = np.zeros((len(feats), world), dtype=np.int64)
    for _, shard in shard_list:
        held[column[shard.table_id], shard.rank] += 1
    _record(trace, "a", range(world), BYTES_PER_ELEMENT * indices @ held)

    totals = indices.sum(axis=0)
    below: dict[int, np.ndarray] = {}  # feature -> indices below each row
    work = [0] * world
    for _, shard in shard_list:
        feat = shard.table_id
        if shard.scheme == ROW_WISE:
            if feat not in below:
                counts = np.bincount(
                    batch.bags[feat].values, minlength=placement.tables[feat].rows
                )
                below[feat] = np.concatenate(([0], np.cumsum(counts)))
            r0, r1 = shard.row_range
            looked_up = int(below[feat][r1] - below[feat][r0])
        else:
            looked_up = int(totals[column[feat]])
        work[shard.rank] += looked_up * shard.width
    return float(max(work))


def baseline_plan(
    batch: SparseBatch, placement: ShardedEmbedding, topo: ClusterTopology
) -> tuple[CommTrace, dict[str, float]]:
    """The trace and flops of baseline_exchange, derived from shapes alone.

    Nothing is looked up or moved. Rejects what baseline_exchange rejects;
    ``batch`` must be validated.
    """
    _check_placement(batch, placement, topo)
    trace = CommTrace(topo)
    lookup_flops = _plan_steps_a_b(batch, placement, topo, trace)
    # Step c: each owner sends every rank one (batch, width) block per shard.
    widths = np.zeros(topo.world_size, dtype=np.int64)
    for _, shard in _batch_shards(batch, placement):
        widths[shard.rank] += shard.width
    _record(trace, "c", range(topo.world_size),
            _same_to_every_member(BYTES_PER_ELEMENT * batch.local_batch * widths))
    return trace, {"b": lookup_flops}


def tower_plan(
    batch: SparseBatch,
    placement: ShardedEmbedding,
    plan: TowerPlan,
    topo: ClusterTopology,
    opts: ExchangeOptions = ExchangeOptions(),
) -> tuple[CommTrace, dict[str, float]]:
    """The trace and flops of tower_exchange, derived from shapes alone.

    Nothing is looked up, moved or run through a tower module. Rejects what
    tower_exchange rejects; ``batch`` must be validated. swap_bc and
    omit_permute change no byte count.
    """
    _check_placement(batch, placement, topo, plan)
    layout = plan.layout
    num_towers = layout.num_towers
    batch_size = batch.local_batch
    trace = CommTrace(topo)
    lookup_flops = _plan_steps_a_b(batch, placement, topo, trace)
    rs_shards = _reduce_scattered(batch, placement, opts)
    # Step d's all-to-all sends each destination class one (batch, width)
    # block per tower of every shard but the reduce-scattered ones.
    row_bytes = BYTES_PER_ELEMENT * num_towers * batch_size
    widths = np.zeros(topo.world_size, dtype=np.int64)
    for _, shard in _batch_shards(batch, placement):
        if shard.table_id not in rs_shards:
            widths[shard.rank] += shard.width

    tower_widths, tm_work = [], 0.0
    for tower in range(num_towers):
        group = layout.tower_ranks(tower, topo)
        feats = [f for f in plan.features_of(tower) if f in batch.pooling]
        # Step d: one all-to-all, then one reduce-scatter per reduce-scattered
        # feature, to which only the feature's shard owners contribute.
        _record(trace, "d", group, _same_to_every_member(row_bytes * widths[group]))
        for feat in feats:
            if feat in rs_shards:
                owners = {placement.shards[sid].rank for sid in rs_shards[feat]}
                present = _same_to_every_member(np.array([m in owners for m in group]))
                nbytes = row_bytes * placement.tables[feat].dim * present.astype(np.int64)
                _record(trace, "d", group, nbytes, present)
        _, tower_width, flops = _step_e_shape(
            opts.tower_modules, placement, feats, tower, num_towers, batch_size
        )
        tower_widths.append(tower_width)
        tm_work = max(tm_work, flops)

    # Step f: within each class, tower t's member sends every member its
    # tower's (batch, width) block.
    sent = BYTES_PER_ELEMENT * batch_size * np.array(tower_widths, dtype=np.int64)
    for cls in range(layout.group_width(topo)):
        _record(trace, "f", class_members(cls, topo, layout), _same_to_every_member(sent))
    return trace, {"b": lookup_flops, "e": tm_work}


def _same_collective(a: Collective, b: Collective) -> bool:
    return (
        (a.label, a.kind, a.group) == (b.label, b.kind, b.group)
        and np.array_equal(a.nbytes, b.nbytes)
        and np.array_equal(a.present, b.present)
    )


def check_plan(
    pipeline: str, result: ExchangeResult, planned: tuple[CommTrace, dict[str, float]]
) -> None:
    """Raise InvariantError unless a run's trace and flops equal its plan's.

    Names the pipeline and the first collective that differs, by index and
    label.
    """
    trace, flops = planned
    pairs = itertools.zip_longest(result.trace.collectives, trace.collectives)
    for index, (ran, planned_one) in enumerate(pairs):
        if ran is None or planned_one is None or not _same_collective(ran, planned_one):
            label = (planned_one or ran).label
            raise InvariantError(
                f"{pipeline} pipeline: collective {index} (label {label!r}) "
                "differs from its plan"
            )
    if result.flops != flops:
        raise InvariantError(
            f"{pipeline} pipeline: flops {result.flops} differ from its plan's {flops}"
        )


def feature_columns(layout: OutputLayout, target_feature_order: Sequence[int]) -> list[slice]:
    """Column slices of ``layout``'s features, in a target feature order."""
    widths = layout.feature_widths()
    if sorted(target_feature_order) != sorted(widths):
        raise LayoutError(
            f"target features {sorted(target_feature_order)} != "
            f"layout features {sorted(widths)}"
        )
    starts, col = {}, 0
    for _, ident, width in layout.blocks:
        starts[ident], col = col, col + width
    return [slice(starts[f], starts[f] + widths[f]) for f in target_feature_order]


def realign(result: ExchangeResult, target_feature_order: Sequence[int]) -> ExchangeResult:
    """Reorder output columns into a target feature order (no wire traffic)."""
    columns = feature_columns(result.layout, target_feature_order)
    outputs = {
        rank: np.concatenate([mat[:, cols] for cols in columns], axis=1)
        for rank, mat in result.outputs.items()
    }
    widths = result.layout.feature_widths()
    layout = OutputLayout(tuple(("feature", f, widths[f]) for f in target_feature_order))
    return ExchangeResult(outputs, layout, result.trace, dict(result.flops))
