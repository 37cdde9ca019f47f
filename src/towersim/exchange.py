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
(step f). A feature's tower is the one whose hosts hold its shards
(tower_features), so the placement is the only feature -> tower map the
tower pipeline reads; the TowerLayout says which hosts form each tower.

Traces label wire steps "a", "c", "d", "f"; steps b and e are local and
contribute flops only. Each rank addresses a collective {destination:
message}, leaving out a destination it has nothing for, and receives
{source: message}. A message of shard pieces (step a's bags, step c's and
d's blocks) is a {shard id: payload} dict in placement order, so a receiver
reads the shards it holds from it; ids travel free (payload_nbytes).
After step a the tower pipeline runs one tower at a time, steps b to f,
and one owner at a time inside a tower until step d's collectives, which
are the first to join an owner's shards to another's. Each tower's output
columns go to a consumer as step f delivers them, so a run that checks and
drops them (verify) holds one tower in flight, not the world's outputs.
Step f's deliveries add up to one collective per peer class, traced after
the last tower, as the plan has it.

Every byte count is a function of shapes alone: bag sizes, shard placement,
table widths and tower-module output widths. baseline_plan and tower_plan
both start from one pass over the batch's shards (_plan_steps_a_b) and
derive each pipeline's output blocks, trace and flops from those shapes
without looking up or moving an embedding; they return them as an
ExchangeResult with no outputs, and the cost model costs the plans. Each
functional pipeline starts from its plan, returns the plan's blocks and ends
by checking its trace and flops against the plan, collective for collective
(check_plan), wherever it is called.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Container, Optional, Sequence

import numpy as np

from .embedding import (
    POOL_SUM,
    ROW_WISE,
    Bags,
    Shard,
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
    all_to_all,
    reduce_scatter,
)
from .topology import ClusterTopology, TowerLayout, class_members, class_order
from .towermod import (
    TMConfig,
    init_tm_weights,
    tm_flops,
    tm_forward,
    tm_output_width,
)


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
    is the one TMConfig every tower applies; None, the default, is passthrough.
    """

    swap_bc: bool = False
    omit_permute: bool = False
    rowwise_reducescatter: bool = False
    tower_modules: Optional[TMConfig] = None


@dataclass
class ExchangeResult:
    """Per-rank outputs, their column blocks, the trace and flops of a run; a
    plan's has no outputs.

    blocks are the outputs' columns in order, as (kind, ident, width): kind
    is "feature" for a raw embedding and "tower" for a compressed tower block,
    whose feature columns are no longer individually addressable.
    """

    outputs: dict[int, np.ndarray]
    blocks: tuple[tuple[str, int, int], ...]
    trace: CommTrace
    flops: dict[str, float]


def _combine_pieces(pieces: list[tuple]) -> np.ndarray:
    """Assemble one feature from (shard, matrix) pieces.

    Column/table shards concatenate in column order. Row shards sum in the
    tower's reduce-scatter order: the shards on one rank in row order, then
    those ranks' sums in rank order. A lone piece is returned uncopied, so
    callers must not write into the result.
    """
    if len(pieces) == 1:
        return pieces[0][1]
    schemes = {shard.scheme for shard, _ in pieces}
    if schemes == {ROW_WISE}:
        sums: dict[int, np.ndarray] = {}
        for shard, mat in sorted(pieces, key=lambda sm: (sm[0].rank, sm[0].row_range)):
            sums[shard.rank] = sums[shard.rank] + mat if shard.rank in sums else mat
        return functools.reduce(np.add, sums.values())
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


def tower_features(
    batch: SparseBatch, placement: ShardedEmbedding, layout: TowerLayout, topo: ClusterTopology
) -> list[list[int]]:
    """Each tower's batch features in id order; a tower may have none.

    A feature's tower is the one whose hosts hold its shards. Raises
    PlanError for a feature with no shards or with shards in two towers,
    and DomainError for a layout that does not tile the world.
    """
    layout.validate_for(topo)
    features: list[list[int]] = [[] for _ in range(layout.num_towers)]
    for feat in batch.features:
        towers = {topo.host_of(s.rank) // layout.hosts_per_tower
                  for s in placement.shards_of(feat)}
        if len(towers) > 1:
            raise PlanError(f"feature {feat} has shards in towers {sorted(towers)}")
        features[towers.pop()].append(feat)
    return features


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


def _distribute(
    batch: SparseBatch, placement: ShardedEmbedding, topo: ClusterTopology, trace: CommTrace
) -> dict[int, dict[int, dict]]:
    """Step a, shared by both pipelines: received[owner][src] is {shard id:
    bags}, src's bags of every shard of a batch feature that owner holds, in
    placement order. An owner of none is sent nothing."""
    world = list(range(topo.world_size))
    held: dict[int, list[tuple]] = {}
    for sid, shard in _batch_shards(batch, placement):
        held.setdefault(shard.rank, []).append((sid, shard.table_id))

    feats = batch.features
    for f in feats:
        # Built now, before the first message, values do not land between
        # step b's lookup results, where they would raise the peak memory.
        placement.tables[f].values
    sends = {}
    for src in world:
        views = {f: batch.rank_bags(src, f) for f in feats}
        sends[src] = {owner: {sid: views[f] for sid, f in shards}
                      for owner, shards in held.items()}
    return all_to_all(world, sends, "a", trace)


def _lookup(
    batch: SparseBatch,
    placement: ShardedEmbedding,
    from_sources: dict[int, dict],
    source_seq: Sequence[int],
) -> tuple[dict[int, list[np.ndarray]], float]:
    """Step b for one owner: (blocks, flops) of the shards its step-a
    messages ``from_sources`` name, in the messages' placement order, each
    looked up once over the bags every source in ``source_seq`` sent for it.
    blocks[shard id] lists one (batch, width) array per source, in that order.
    Every source names the same shards; an owner of none hears from none.
    """
    size = batch.local_batch
    blocks, work = {}, 0.0
    for sid in next(iter(from_sources.values()), ()):
        shard = placement.shards[sid]
        bags = Bags.concat([from_sources[src][sid] for src in source_seq])
        mat, flops = _shard_lookup(placement, shard, bags, batch.pooling[shard.table_id])
        blocks[sid] = [mat[i * size:(i + 1) * size] for i in range(len(source_seq))]
        work += flops
    return blocks, work


def _assemble(bundles, placement: ShardedEmbedding) -> dict[int, np.ndarray]:
    """Features assembled from received bundles of {shard id: matrix}."""
    pieces: dict[int, list[tuple]] = {}
    for bundle in bundles:
        for sid, mat in bundle.items():
            shard = placement.shards[sid]
            pieces.setdefault(shard.table_id, []).append((shard, mat))
    return {feat: _combine_pieces(parts) for feat, parts in pieces.items()}


def baseline_exchange(
    batch: SparseBatch,
    placement: ShardedEmbedding,
    topo: ClusterTopology,
) -> ExchangeResult:
    """Flat pipeline: global index all-to-all, lookup, global embedding all-to-all.

    Every rank ends with all features' embeddings for its local batch,
    columns ordered by feature id. ``batch`` must be validated against
    ``placement.tables`` (make_batch does so). Starts from baseline_plan,
    returns its blocks, and raises InvariantError (check_plan) if the run's
    trace or flops leave the plan. Only tests run it, as the plan's oracle.
    """
    planned = baseline_plan(batch, placement, topo)
    trace = CommTrace(topo)
    world = list(range(topo.world_size))
    received = _distribute(batch, placement, topo, trace)
    sends, work = {}, []
    for owner in world:
        blocks, flops = _lookup(batch, placement, received.pop(owner), world)
        sends[owner] = {dest: {sid: mats[dest] for sid, mats in blocks.items()}
                        for dest in world} if blocks else {}
        work.append(flops)
    received = all_to_all(world, sends, "c", trace)

    outputs = {}
    for rank in world:
        assembled = _assemble(received[rank].values(), placement)
        outputs[rank] = np.concatenate([assembled[f] for f in batch.features], axis=1)
    flops = {"b": max(work)}
    return check_plan("baseline", ExchangeResult(outputs, planned.blocks, trace, flops), planned)


# consume(col, blocks, chunks) of tower_exchange: one tower's output columns.
Consumer = Callable[[int, tuple[tuple[str, int, int], ...], dict[int, np.ndarray]], None]


def tower_exchange(
    batch: SparseBatch,
    placement: ShardedEmbedding,
    layout: TowerLayout,
    topo: ClusterTopology,
    opts: ExchangeOptions = ExchangeOptions(),
    consume: Optional[Consumer] = None,
) -> ExchangeResult:
    """Topology-aware pipeline over disjoint towers; see the module docstring.

    Output columns group features by tower (towers ascending, features by id
    inside each tower), as the plan's blocks say; realign() maps them back
    to feature-id order. Each tower's columns go to ``consume(col, blocks,
    chunks)`` as step f delivers them: the tower's first output column, its
    blocks, and each rank's (batch, width) block. With a consumer the result
    holds no outputs; without one its outputs are each rank's chunks side by
    side. ``batch`` must be validated, as for baseline_exchange. Starts from
    tower_plan, returns its blocks, and is checked against it as
    baseline_exchange is.
    """
    planned = tower_plan(batch, placement, layout, topo, opts)
    num_towers = layout.num_towers
    world = range(topo.world_size)
    trace = CommTrace(topo)
    batch_size = batch.local_batch
    members = [class_members(cls, topo, layout) for cls in range(layout.group_width(topo))]

    outputs: dict[int, np.ndarray] = {}
    if consume is None:
        total = sum(w for _, _, w in planned.blocks)
        outputs = {rank: np.empty((batch_size, total)) for rank in world}

        def consume(col, _blocks, chunks):
            for rank, chunk in chunks.items():
                outputs[rank][:, col:col + chunk.shape[1]] = chunk

    # Destination blocks in class order: all class-0 ranks (tower ascending),
    # then class-1, ... Chunk c of size num_towers is exactly peer class c.
    dest_seq = class_order(topo, layout)
    received = _distribute(batch, placement, topo, trace)
    # swap_bc permutes the (smaller) index payloads before lookup, so blocks
    # come out already in class order.
    lookup_seq = dest_seq if opts.swap_bc else world
    permute = not opts.swap_bc and not opts.omit_permute
    # position[dest] indexes dest's block in a shard's blocks. omit_permute
    # alone leaves blocks in rank order, and step d gathers through this
    # virtual ordering instead of a materialized permute.
    order = world if opts.omit_permute and not opts.swap_bc else dest_seq
    position = {rank: i for i, rank in enumerate(order)}
    rs_shards = _reduce_scattered(batch, placement, opts)

    cfg = opts.tower_modules
    # Step f of each class, summed over the towers' deliveries: row t holds
    # what tower t's member sent, and the other members are silent.
    f_bytes = [np.zeros((num_towers, num_towers), dtype=np.int64) for _ in members]
    delivery = CommTrace(topo)
    work, tm_work, col = [], dict.fromkeys(world, 0.0), 0
    for tower, feats in enumerate(tower_features(batch, placement, layout, topo)):
        group = layout.tower_ranks(tower, topo)

        # Steps b to d, owner by owner: look the owner's shards up (b), put
        # each shard's blocks in class order (c) and stack them per class,
        # into a step-d bundle or, reduce-scattered, the feature's contribution.
        sends, lookups = {}, []
        contributions = {feat: {} for feat in feats if feat in rs_shards}
        for owner in group:
            blocks, flops = _lookup(batch, placement, received.pop(owner), lookup_seq)
            work.append(flops)
            # Kept until step d's all-to-all: freed owner by owner, the
            # lookups doubled the minor page faults at world 512.
            lookups.append(blocks)
            sends[owner] = bundles = {}
            for sid, mats in blocks.items():
                if permute:
                    mats = [mats[p] for p in dest_seq]
                stacks = [np.concatenate([mats[position[p]] for p in ranks])
                          for ranks in members]
                partial = contributions.get(placement.shards[sid].table_id)
                if partial is None:  # class c's stack goes to the tower's rank c
                    for member, stack in zip(group, stacks):
                        bundles.setdefault(member, {})[sid] = stack
                else:  # an owner's row shards pre-sum in shard order
                    held = partial.get(owner)
                    partial[owner] = dict(zip(group, stacks if held is None
                                              else map(np.add, held.values(), stacks)))

        # Step d: one all-to-all per tower assembling full-width embeddings
        # for each destination class on that class's local rank, then one
        # reduce-scatter per reduce-scattered feature.
        received_d = all_to_all(group, sends, "d", trace)
        del sends, lookups
        assembled = {m: _assemble(received_d.pop(m).values(), placement) for m in group}
        for feat, partial in contributions.items():
            summed = reduce_scatter(group, partial, "d", trace)
            for member in group:
                assembled[member][feat] = summed[member]
        del contributions

        # Step e: regroup from (feature, destination) to (destination,
        # feature) and apply the tower module per destination block, counting
        # each rank's flops. The plan has checked that the tower's features
        # share one dim.
        if cfg is not None:
            in_dim = placement.tables[feats[0]].dim if feats else 1
            weights = init_tm_weights(cfg, len(feats), in_dim, salt=tower)
        dest_blocks: dict[int, list[np.ndarray]] = {rank: [] for rank in group}
        for rank, per_dest in dest_blocks.items():
            for j in range(num_towers):
                rows = slice(j * batch_size, (j + 1) * batch_size)
                mats = [assembled[rank][f][rows] for f in feats]
                if cfg is None:
                    per_dest.append(
                        np.concatenate(mats, axis=1) if mats else np.zeros((batch_size, 0))
                    )
                else:
                    embs = np.stack(mats, axis=1) if mats else np.zeros((batch_size, 0, 1))
                    per_dest.append(tm_forward(embs, cfg, weights))
                    tm_work[rank] += tm_flops(cfg, *embs.shape[1:], batch_size)
        del assembled

        # Step f: in each class, the tower's member (its local rank cls)
        # sends every member its block; the other members send nothing.
        chunks: dict[int, np.ndarray] = {}
        for cls, sender in enumerate(group):
            sends = dict.fromkeys(members[cls], {})
            sends[sender] = dict(zip(members[cls], dest_blocks.pop(sender)))
            for member, payloads in all_to_all(members[cls], sends, "f", delivery).items():
                chunks[member] = payloads[sender]
            f_bytes[cls] += delivery.collectives.pop().nbytes
        # The plan's blocks of this tower: its features', or its module's.
        idents = feats if cfg is None else [tower]
        tower_blocks = tuple(block for block in planned.blocks if block[1] in idents)
        consume(col, tower_blocks, chunks)
        del chunks
        col += sum(w for _, _, w in tower_blocks)

    # Step f's concurrent per-class all-to-alls, world size = tower count.
    for cls, group in enumerate(members):
        _record(trace, "f", group, f_bytes[cls])
    flops = {"b": max(work), "e": max(tm_work.values())}
    return check_plan("tower", ExchangeResult(outputs, planned.blocks, trace, flops), planned)


def _record(trace: CommTrace, label: str, group: Sequence[int], nbytes: np.ndarray,
            kind: str = ALL_TO_ALL) -> None:
    """Append a planned collective."""
    trace.collectives.append(Collective(label, kind, tuple(group), nbytes))


def _same_to_every_member(sent: np.ndarray) -> np.ndarray:
    """Byte matrix of a collective in which member i sends ``sent[i]`` bytes
    to each member."""
    return np.repeat(sent[:, None], sent.size, axis=1)


def _plan_steps_a_b(
    batch: SparseBatch,
    placement: ShardedEmbedding,
    topo: ClusterTopology,
    skip: Container[int] = (),
) -> tuple[CommTrace, float, np.ndarray]:
    """Both plans' start, from one pass over the batch's shards: a trace
    holding step a's all-to-all, step b's flops (the busiest owner's) and
    each rank's summed shard width, leaving out the shards of ``skip``'s
    features.

    Source s sends owner o every index of each feature o holds a shard of,
    so each shard adds its feature's indices per source to its owner's
    column of step a's index counts. A row shard looks up only the indices
    in its row range; other shards look up every index of their feature.
    """
    world = topo.world_size
    feats = batch.features
    column = {f: i for i, f in enumerate(feats)}
    indices = np.zeros((world, len(feats)), dtype=np.int64)
    for f in feats:
        indices[:, column[f]] = batch.indices_per_rank(f)
    totals = indices.sum(axis=0)
    sent = np.zeros((world, world), dtype=np.int64)
    widths = np.zeros(world, dtype=np.int64)
    row_shards: dict[int, list[Shard]] = {}
    work = [0] * world
    for _, shard in _batch_shards(batch, placement):
        sent[:, shard.rank] += indices[:, column[shard.table_id]]
        if shard.table_id not in skip:
            widths[shard.rank] += shard.width
        if shard.scheme == ROW_WISE:
            row_shards.setdefault(shard.table_id, []).append(shard)
        else:
            work[shard.rank] += int(totals[column[shard.table_id]]) * shard.width
    for feat, shards in row_shards.items():
        counts = _count_in_ranges(batch.bags[feat].values, [s.row_range for s in shards])
        for shard, looked_up in zip(shards, counts):
            work[shard.rank] += looked_up * shard.width
    trace = CommTrace(topo)
    _record(trace, "a", range(world), BYTES_PER_ELEMENT * sent)
    return trace, float(max(work)), widths


def _count_in_ranges(indices: np.ndarray, ranges: list[tuple[int, int]]) -> list[int]:
    """How many of ``indices`` fall in each [start, stop) of ``ranges``.

    One vectorised comparison per distinct bound counts the indices below
    it, so the work grows with the indices times the ranges and the memory
    with the indices: no array is as long as the table.
    """
    bounds = {bound for span in ranges for bound in span}
    below = {bound: int(np.count_nonzero(indices < bound)) for bound in bounds}
    return [below[stop] - below[start] for start, stop in ranges]


def baseline_plan(
    batch: SparseBatch, placement: ShardedEmbedding, topo: ClusterTopology
) -> ExchangeResult:
    """The blocks, trace and flops of baseline_exchange, derived from shapes
    alone, with no outputs.

    Nothing is looked up or moved. Rejects what baseline_exchange rejects;
    ``batch`` must be validated.
    """
    for feat in batch.features:
        placement.shards_of(feat)  # raises PlanError for a feature with no shards
    trace, lookup_flops, widths = _plan_steps_a_b(batch, placement, topo)
    # Step c: each owner sends every rank one (batch, width) block per shard.
    _record(trace, "c", range(topo.world_size),
            _same_to_every_member(BYTES_PER_ELEMENT * batch.local_batch * widths))
    blocks = tuple(("feature", f, placement.tables[f].dim) for f in batch.features)
    return ExchangeResult({}, blocks, trace, {"b": lookup_flops})


def tower_plan(
    batch: SparseBatch,
    placement: ShardedEmbedding,
    layout: TowerLayout,
    topo: ClusterTopology,
    opts: ExchangeOptions = ExchangeOptions(),
) -> ExchangeResult:
    """The blocks, trace and flops of tower_exchange, derived from shapes
    alone, with no outputs.

    Nothing is looked up, moved or run through a tower module. Rejects what
    tower_exchange rejects; ``batch`` must be validated. swap_bc and
    omit_permute change no byte count.
    """
    towers = tower_features(batch, placement, layout, topo)
    num_towers = layout.num_towers
    batch_size = batch.local_batch
    rs_shards = _reduce_scattered(batch, placement, opts)
    # Step d's all-to-all sends each destination class one (batch, width)
    # block per tower of every shard but the reduce-scattered ones.
    trace, lookup_flops, widths = _plan_steps_a_b(batch, placement, topo, skip=rs_shards)
    row_bytes = BYTES_PER_ELEMENT * num_towers * batch_size

    cfg = opts.tower_modules
    blocks: list[tuple[str, int, int]] = []
    tower_widths, tm_work = [], 0.0
    for tower, feats in enumerate(towers):
        group = layout.tower_ranks(tower, topo)
        # Step d: one all-to-all, then one reduce-scatter per reduce-scattered
        # feature, to which only the feature's shard owners contribute.
        _record(trace, "d", group, _same_to_every_member(row_bytes * widths[group]))
        for feat in feats:
            if feat in rs_shards:
                owners = {placement.shards[sid].rank for sid in rs_shards[feat]}
                sent = row_bytes * placement.tables[feat].dim * np.array(
                    [m in owners for m in group])
                _record(trace, "d", group, _same_to_every_member(sent), REDUCE_SCATTER)
        # Step e: the tower's block for each destination is its features'
        # columns, or its tower module's output, one forward per destination.
        dims = {placement.tables[f].dim for f in feats}
        if cfg is None:
            tower_blocks = [("feature", f, placement.tables[f].dim) for f in feats]
        elif len(dims) > 1:
            raise PlanError(
                f"tower {tower} mixes embedding dims {sorted(dims)}; "
                "tower modules need one dim per tower"
            )
        else:
            in_dim = dims.pop() if dims else 1
            tower_blocks = [("tower", tower, tm_output_width(cfg, len(feats), in_dim))]
            tm_work = max(tm_work, num_towers * tm_flops(cfg, len(feats), in_dim, batch_size))
        blocks += tower_blocks
        tower_widths.append(sum(width for _, _, width in tower_blocks))

    # Step f: within each class, tower t's member sends every member its
    # tower's (batch, width) block.
    sent = BYTES_PER_ELEMENT * batch_size * np.array(tower_widths, dtype=np.int64)
    for cls in range(layout.group_width(topo)):
        _record(trace, "f", class_members(cls, topo, layout), _same_to_every_member(sent))
    flops = {"b": lookup_flops, "e": tm_work}
    return ExchangeResult({}, tuple(blocks), trace, flops)


def _same_collective(a: Collective, b: Collective) -> bool:
    same_header = (a.label, a.kind, a.group) == (b.label, b.kind, b.group)
    return same_header and np.array_equal(a.nbytes, b.nbytes)


def check_plan(pipeline: str, result: ExchangeResult, planned: ExchangeResult) -> ExchangeResult:
    """``result`` once a run's trace and flops equal its plan's.

    Otherwise raise InvariantError naming the pipeline and the first
    collective that differs, by index and label.
    """
    pairs = itertools.zip_longest(result.trace.collectives, planned.trace.collectives)
    for index, (ran, planned_one) in enumerate(pairs):
        if ran is None or planned_one is None or not _same_collective(ran, planned_one):
            label = (planned_one or ran).label
            raise InvariantError(
                f"{pipeline} pipeline: collective {index} (label {label!r}) "
                "differs from its plan"
            )
    if result.flops != planned.flops:
        raise InvariantError(
            f"{pipeline} pipeline: flops {result.flops} differ from its plan's {planned.flops}"
        )
    return result


def realign(result: ExchangeResult, target_feature_order: Sequence[int]) -> ExchangeResult:
    """Reorder output columns into a target feature order (no wire traffic)."""
    columns, col = {}, 0
    for kind, ident, width in result.blocks:
        if kind != "feature":
            raise LayoutError("layout contains compressed tower blocks")
        columns[ident], col = slice(col, col + width), col + width
    if sorted(target_feature_order) != sorted(columns):
        raise LayoutError(f"target features {sorted(target_feature_order)} != "
                          f"layout features {sorted(columns)}")
    outputs = {rank: np.concatenate([mat[:, columns[f]] for f in target_feature_order], axis=1)
               for rank, mat in result.outputs.items()}
    blocks = [("feature", f, columns[f].stop - columns[f].start) for f in target_feature_order]
    return ExchangeResult(outputs, tuple(blocks), result.trace, dict(result.flops))
