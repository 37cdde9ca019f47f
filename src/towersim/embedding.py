"""Embedding tables, sharding, jagged index bags, batch generation, and lookup.

Tables double as features: feature k reads table k. Values are kept in
float64; the integer-valued initialization mode makes exchange results
exactly comparable (sums of small integers are exact in float64).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.sparse import csr_matrix

from .errors import DomainError, PlanError, ShapeError, TableLookupError
from .topology import ClusterTopology, TowerLayout

TABLE_WISE = "table_wise"
COLUMN_WISE = "column_wise"
ROW_WISE = "row_wise"
SCHEMES = (TABLE_WISE, COLUMN_WISE, ROW_WISE)

POOL_NONE = "none"
POOL_SUM = "sum"


@dataclass(frozen=True)
class EmbeddingTable:
    table_id: int
    rows: int
    dim: int
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.rows < 1 or self.dim < 1:
            raise DomainError("table rows and dim must be >= 1")
        if self.values.shape != (self.rows, self.dim):
            raise ShapeError(
                f"table {self.table_id} values shape {self.values.shape} "
                f"!= ({self.rows}, {self.dim})"
            )
        if not np.all(np.isfinite(self.values)):
            raise DomainError(f"table {self.table_id} contains non-finite values")


def init_table_deterministic(
    table_id: int, rows: int, dim: int, seed: int = 0, integer: bool = False
) -> EmbeddingTable:
    """Build a table whose values are a pure function of (table_id, seed).

    Integer mode sets value(t, r, c) = t*1e6 + r*1e3 + c, which keeps every
    cell distinct and makes downstream sums exact.
    """
    if integer:
        r = np.arange(rows, dtype=np.float64)[:, None]
        c = np.arange(dim, dtype=np.float64)[None, :]
        values = table_id * 1_000_000.0 + r * 1_000.0 + c
    else:
        rng = np.random.default_rng([seed, table_id])
        values = rng.uniform(-1.0, 1.0, size=(rows, dim))
    return EmbeddingTable(table_id, rows, dim, values)


class Bags:
    """Jagged index bags in the layout of TorchRec's KeyedJaggedTensor.

    ``lengths[i]`` is the size of bag i and ``values`` holds every bag's
    indices back to back, so bag i is ``values[offsets[i]:offsets[i + 1]]``.
    Both are int64; only ``values`` counts toward wire bytes.
    """

    __slots__ = ("lengths", "values", "offsets")

    def __init__(self, lengths, values):
        self.lengths = np.asarray(lengths, dtype=np.int64)
        self.values = np.asarray(values, dtype=np.int64)
        if self.lengths.ndim != 1 or self.values.ndim != 1:
            raise ShapeError("bag lengths and values must be 1-d")
        self.offsets = np.zeros(self.lengths.size + 1, dtype=np.int64)
        np.cumsum(self.lengths, out=self.offsets[1:])
        if np.any(self.lengths < 0) or self.offsets[-1] != self.values.size:
            raise ShapeError(
                f"bag lengths sum to {self.offsets[-1]} but there are "
                f"{self.values.size} values"
            )

    @classmethod
    def from_lists(cls, bags: Sequence[Sequence[int]]) -> "Bags":
        lengths = [len(bag) for bag in bags]
        return cls(lengths, np.fromiter(itertools.chain.from_iterable(bags), np.int64))

    @classmethod
    def concat(cls, parts: Sequence["Bags"]) -> "Bags":
        return cls(
            np.concatenate([p.lengths for p in parts]),
            np.concatenate([p.values for p in parts]),
        )

    def __len__(self) -> int:
        return self.lengths.size

    def __iter__(self):
        bounds = self.offsets.tolist()
        return (self.values[a:b] for a, b in zip(bounds, bounds[1:]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Bags):
            return NotImplemented
        return np.array_equal(self.lengths, other.lengths) and np.array_equal(
            self.values, other.values
        )

    __hash__ = None


def lookup(values: np.ndarray, bags: Bags, pooling: str) -> np.ndarray:
    """Per-bag row select (pooling none) or row sum (pooling sum).

    Empty bags are only legal with sum pooling, where they produce zeros.
    """
    if pooling not in (POOL_NONE, POOL_SUM):
        raise DomainError(f"unknown pooling {pooling!r}")
    rows = values.shape[0]
    idx = bags.values
    bad = idx[(idx < 0) | (idx >= rows)]
    if bad.size:
        raise TableLookupError(f"index {bad[0]} out of range 0..{rows - 1}")
    if pooling == POOL_NONE:
        wrong = np.flatnonzero(bags.lengths != 1)
        if wrong.size:
            i = wrong[0]
            raise TableLookupError(
                f"pooling=none requires bags of length 1, bag {i} has {bags.lengths[i]}"
            )
        return values[idx]
    # Segment sum as a (bags x rows) CSR count matrix times the table: each
    # bag's rows are added in bag order without gathering them first, and
    # empty bags are empty CSR rows, hence zeros.
    counts = csr_matrix(
        (np.ones(idx.size), idx, bags.offsets), shape=(len(bags), rows)
    )
    return counts @ values


def split_ranges(total: int, parts: int) -> list[tuple[int, int]]:
    """Split [0, total) into ``parts`` contiguous ranges.

    The first (total % parts) ranges take one extra element, e.g.
    split_ranges(10, 3) -> [(0, 4), (4, 7), (7, 10)].
    """
    if parts < 1 or parts > total:
        raise DomainError(f"cannot split {total} into {parts} parts")
    base, extra = divmod(total, parts)
    ranges = []
    start = 0
    for i in range(parts):
        stop = start + base + (1 if i < extra else 0)
        ranges.append((start, stop))
        start = stop
    return ranges


@dataclass(frozen=True)
class Shard:
    table_id: int
    rank: int
    scheme: str
    row_range: tuple[int, int]
    col_range: tuple[int, int]

    @property
    def width(self) -> int:
        return self.col_range[1] - self.col_range[0]


@dataclass(frozen=True)
class TablePlan:
    """Per-table sharding request: scheme, shard count, owning tower."""

    scheme: str = TABLE_WISE
    num_shards: int = 1
    tower: int = 0

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise DomainError(f"unknown sharding scheme {self.scheme!r}")
        if self.num_shards < 1:
            raise DomainError("num_shards must be >= 1")
        if self.scheme == TABLE_WISE and self.num_shards != 1:
            raise DomainError("table_wise placement uses exactly one shard")


@dataclass
class ShardedEmbedding:
    """Tables plus their shard placement across ranks."""

    tables: dict[int, EmbeddingTable]
    shards: list[Shard] = field(default_factory=list)

    def shards_of(self, table_id: int) -> list[Shard]:
        found = [s for s in self.shards if s.table_id == table_id]
        if not found:
            raise PlanError(f"table {table_id} has no shards")
        return found

    def shard_values(self, shard: Shard) -> np.ndarray:
        table = self.tables[shard.table_id]
        r0, r1 = shard.row_range
        c0, c1 = shard.col_range
        return table.values[r0:r1, c0:c1]

    def validate_tiling(self) -> None:
        """Every (row, col) cell of every table is covered exactly once."""
        for tid, table in self.tables.items():
            cover = np.zeros((table.rows, table.dim), dtype=np.int64)
            for s in self.shards_of(tid):
                cover[s.row_range[0]:s.row_range[1], s.col_range[0]:s.col_range[1]] += 1
            if not np.all(cover == 1):
                raise PlanError(f"table {tid} shards do not tile it exactly")


def shard_tables(
    tables: dict[int, EmbeddingTable],
    plan: dict[int, TablePlan],
    topo: ClusterTopology,
    layout: TowerLayout,
) -> ShardedEmbedding:
    """Place every table's shards on ranks inside its tower's host group.

    Shards are dealt round-robin over the tower's ranks with a per-tower
    cursor, so tables spread evenly and placement is deterministic.
    """
    layout.validate_for(topo)
    cursors = {t: 0 for t in range(layout.num_towers)}
    shards: list[Shard] = []
    for tid in sorted(tables):
        table = tables[tid]
        if tid not in plan:
            raise PlanError(f"table {tid} missing from plan")
        tp = plan[tid]
        if not 0 <= tp.tower < layout.num_towers:
            raise PlanError(f"table {tid} assigned to unknown tower {tp.tower}")
        ranks = layout.tower_ranks(tp.tower, topo)
        if not ranks:
            raise PlanError(f"tower {tp.tower} has no ranks")

        if tp.scheme == TABLE_WISE:
            pieces = [((0, table.rows), (0, table.dim))]
        elif tp.scheme == COLUMN_WISE:
            pieces = [((0, table.rows), cr) for cr in split_ranges(table.dim, tp.num_shards)]
        else:
            pieces = [(rr, (0, table.dim)) for rr in split_ranges(table.rows, tp.num_shards)]

        for row_range, col_range in pieces:
            rank = ranks[cursors[tp.tower] % len(ranks)]
            cursors[tp.tower] += 1
            shards.append(Shard(tid, rank, tp.scheme, row_range, col_range))
    placed = ShardedEmbedding(tables, shards)
    placed.validate_tiling()
    return placed


@dataclass
class SparseBatch:
    """Per-rank, per-feature index bags with a uniform local batch size.

    ``bags[rank][feature]`` holds local_batch bags; ``pooling[feature]`` is
    "none" for single-hot features and "sum" for multi-hot ones, uniform
    across the whole batch.
    """

    bags: list[dict[int, Bags]]
    local_batch: int
    pooling: dict[int, str]

    @property
    def num_ranks(self) -> int:
        return len(self.bags)

    @property
    def features(self) -> list[int]:
        return sorted(self.pooling)

    def validate(self, tables: dict[int, EmbeddingTable]) -> None:
        for rank, per_feature in enumerate(self.bags):
            if sorted(per_feature) != self.features:
                raise DomainError(f"rank {rank} covers a different feature set")
            for feat, bags in per_feature.items():
                if len(bags) != self.local_batch:
                    raise DomainError(
                        f"rank {rank} feature {feat} has {len(bags)} bags, "
                        f"expected {self.local_batch}"
                    )
                if self.pooling[feat] == POOL_NONE:
                    wrong = bags.lengths[bags.lengths != 1]
                    if wrong.size:
                        raise DomainError(
                            f"single-hot feature {feat} has a bag of length {wrong[0]}"
                        )
                rows = tables[feat].rows
                idx = bags.values
                bad = idx[(idx < 0) | (idx >= rows)]
                if bad.size:
                    raise TableLookupError(
                        f"feature {feat} index {bad[0]} out of range 0..{rows - 1}"
                    )


def make_batch(
    topo: ClusterTopology,
    tables: dict[int, EmbeddingTable],
    local_batch: int,
    hotness: dict[int, object],
    seed: int = 0,
) -> SparseBatch:
    """Generate a deterministic batch.

    ``hotness[feature]`` is 1 for single-hot or a (lo, hi) inclusive range of
    bag lengths for multi-hot (lo may be 0; multi-hot bags sum-pool). Each
    feature draws all ranks' bag lengths in one call and all their indices
    in a second; every rank gets views into those arrays.
    """
    if local_batch < 1:
        raise DomainError("local_batch must be >= 1")
    rng = np.random.default_rng(seed)
    pooling = {}
    for feat, spec in hotness.items():
        pooling[feat] = POOL_NONE if spec == 1 else POOL_SUM
    world = topo.world_size
    bags: list[dict[int, Bags]] = [{} for _ in range(world)]
    for feat in sorted(tables):
        spec = hotness[feat]
        if spec == 1:
            lengths = np.ones(world * local_batch, dtype=np.int64)
        else:
            lo, hi = spec
            lengths = rng.integers(lo, hi + 1, size=world * local_batch)
        offsets = np.concatenate(([0], np.cumsum(lengths)))
        values = rng.integers(0, tables[feat].rows, size=int(offsets[-1]))
        for rank in range(world):
            first, last = rank * local_batch, (rank + 1) * local_batch
            bags[rank][feat] = Bags(
                lengths[first:last], values[offsets[first]:offsets[last]]
            )
    batch = SparseBatch(bags, local_batch, pooling)
    batch.validate(tables)
    return batch


def load_table_csv(path, table_id: int) -> EmbeddingTable:
    """Read a small hand-built table from CSV (rows of comma-separated floats)."""
    values = np.loadtxt(path, delimiter=",", ndmin=2, dtype=np.float64)
    return EmbeddingTable(table_id, values.shape[0], values.shape[1], values)
