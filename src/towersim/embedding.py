"""Embedding tables, sharding, jagged index bags, batch generation, and lookup.

Tables double as features: feature k reads table k. A table is its shape
until a lookup reads its values, so sharding, batches and cost plans never
build them. Values are kept in float64; the integer-valued initialization
mode makes exchange results exactly comparable (sums of small integers are
exact in float64).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.sparse import csr_matrix

from .errors import DomainError, PlanError, ShapeError, TableLookupError, check_minimums
from .topology import ClusterTopology, TowerLayout

TABLE_WISE = "table_wise"
COLUMN_WISE = "column_wise"
ROW_WISE = "row_wise"
SCHEMES = (TABLE_WISE, COLUMN_WISE, ROW_WISE)

POOL_NONE = "none"
POOL_SUM = "sum"
# The EmbeddingTable fields that size a table, each with its minimum.
TABLE_SIZES = {"rows": 1, "dim": 1}


class EmbeddingTable:
    """A rows x dim table whose values are given, or built on first read.

    Given values are checked for shape and finiteness here. Otherwise
    ``values`` is a pure function of (table_id, seed, integer), built and
    checked the first time something reads it, and kept. Integer mode sets
    value(t, r, c) = t*1e6 + r*1e3 + c, which keeps every cell distinct and
    makes downstream sums exact.
    """

    def __init__(self, table_id: int, rows: int, dim: int, values=None, *,
                 seed: int = 0, integer: bool = False) -> None:
        self.table_id, self.rows, self.dim = table_id, rows, dim
        self.seed, self.integer = seed, integer
        check_minimums(vars(self), TABLE_SIZES)
        if values is not None:
            self.values = self._checked(values)

    @functools.cached_property
    def values(self) -> np.ndarray:
        if self.integer:
            r = np.arange(self.rows, dtype=np.float64)[:, None]
            c = np.arange(self.dim, dtype=np.float64)[None, :]
            return self._checked(self.table_id * 1_000_000.0 + r * 1_000.0 + c)
        rng = np.random.default_rng([self.seed, self.table_id])
        return self._checked(rng.uniform(-1.0, 1.0, size=(self.rows, self.dim)))

    def _checked(self, values: np.ndarray) -> np.ndarray:
        if values.shape != (self.rows, self.dim):
            raise ShapeError(
                f"table {self.table_id} values shape {values.shape} "
                f"!= ({self.rows}, {self.dim})"
            )
        if not np.all(np.isfinite(values)):
            raise DomainError(f"table {self.table_id} contains non-finite values")
        return values


def init_table_deterministic(
    table_id: int, rows: int, dim: int, seed: int = 0, integer: bool = False
) -> EmbeddingTable:
    """A table whose values, built on first read, are a pure function of
    (table_id, seed), or of table_id alone in integer mode."""
    return EmbeddingTable(table_id, rows, dim, seed=seed, integer=integer)


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

    def view(self, first: int, last: int) -> "Bags":
        """Bags first..last-1 as views into this Bags' arrays.

        A run of whole bags cut from a consistent Bags is consistent, so the
        view skips __init__'s cumsum and checks; only its offsets are new.
        """
        start = self.offsets[first]
        part = object.__new__(Bags)
        part.lengths = self.lengths[first:last]
        part.values = self.values[start:self.offsets[last]]
        part.offsets = self.offsets[first:last + 1] - start
        return part

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
    """Per-table sharding request: scheme, shard count, owning tower.

    A table_wise table is one shard. A column_wise or row_wise table splits
    into shards_per_table column or row ranges, as many as it has columns or
    rows; there may be more shards than its tower has ranks.
    """

    scheme: str = TABLE_WISE
    shards_per_table: int = 1
    tower: int = 0

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise DomainError(f"unknown sharding scheme {self.scheme!r}")
        check_minimums(vars(self), {"shards_per_table": 1})
        if self.scheme == TABLE_WISE and self.shards_per_table != 1:
            raise DomainError("shards_per_table: must be 1 under table_wise")

    def max_shards(self, rows: int, dim: int) -> int:
        """The most shards this scheme splits a rows x dim table into."""
        return {TABLE_WISE: 1, COLUMN_WISE: dim, ROW_WISE: rows}[self.scheme]

    def pieces(self, rows: int, dim: int) -> list[tuple[tuple[int, int], tuple[int, int]]]:
        """The (row range, column range) of each shard of a rows x dim table."""
        if self.scheme == TABLE_WISE:
            return [((0, rows), (0, dim))]
        total, count = self.max_shards(rows, dim), self.shards_per_table
        if count > total:
            unit = "columns" if self.scheme == COLUMN_WISE else "rows"
            raise DomainError(f"shards_per_table: cannot split {total} {unit} into {count} shards")
        ranges = split_ranges(total, count)
        if self.scheme == COLUMN_WISE:
            return [((0, rows), cols) for cols in ranges]
        return [(span, (0, dim)) for span in ranges]


@dataclass
class ShardedEmbedding:
    """Tables plus their shard placement across ranks."""

    tables: dict[int, EmbeddingTable]
    shards: list[Shard] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._of_table: dict[int, list[Shard]] = {}
        for shard in self.shards:
            self._of_table.setdefault(shard.table_id, []).append(shard)

    def shards_of(self, table_id: int) -> list[Shard]:
        """The table's shards in placement order, from an index built once."""
        if table_id not in self._of_table:
            raise PlanError(f"table {table_id} has no shards")
        return list(self._of_table[table_id])

    def shard_values(self, shard: Shard) -> np.ndarray:
        table = self.tables[shard.table_id]
        r0, r1 = shard.row_range
        c0, c1 = shard.col_range
        return table.values[r0:r1, c0:c1]

    def validate_tiling(self) -> None:
        """Every (row, col) cell of every table is covered exactly once: each
        shard lies inside its table, no two overlap, and their areas sum to
        the table's."""
        for tid, table in self.tables.items():
            rects = [(*s.row_range, *s.col_range) for s in self.shards_of(tid)]
            inside = all(0 <= r0 <= r1 <= table.rows and 0 <= c0 <= c1 <= table.dim
                         for r0, r1, c0, c1 in rects)
            overlap = any(
                min(a[1], b[1]) > max(a[0], b[0]) and min(a[3], b[3]) > max(a[2], b[2])
                for a, b in itertools.combinations(rects, 2)
            )
            area = sum((r1 - r0) * (c1 - c0) for r0, r1, c0, c1 in rects)
            if not inside or overlap or area != table.rows * table.dim:
                raise PlanError(f"table {tid} shards do not tile it exactly")


def shard_tables(
    tables: dict[int, EmbeddingTable],
    plan: dict[int, TablePlan],
    topo: ClusterTopology,
    layout: TowerLayout,
) -> ShardedEmbedding:
    """Place every table's shards on ranks inside its tower's host group.

    Shards are dealt round-robin over the tower's ranks with a per-tower
    cursor, so tables spread evenly and placement is deterministic; a tower
    with fewer ranks than shards gets several shards of a table on one rank.
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
        for row_range, col_range in tp.pieces(table.rows, table.dim):
            rank = ranks[cursors[tp.tower] % len(ranks)]
            cursors[tp.tower] += 1
            shards.append(Shard(tid, rank, tp.scheme, row_range, col_range))
    placed = ShardedEmbedding(tables, shards)
    placed.validate_tiling()
    return placed


@dataclass
class SparseBatch:
    """Index bags per feature with a uniform local batch size.

    ``bags[feature]`` is one Bags of num_ranks * local_batch bags: rank r's
    bags are bags r * local_batch .. (r + 1) * local_batch - 1, and only
    rank_bags and indices_per_rank know it. ``pooling[feature]`` is "none"
    for single-hot features and "sum" for multi-hot ones, uniform across the
    whole batch.
    """

    bags: dict[int, Bags]
    num_ranks: int
    local_batch: int
    pooling: dict[int, str]

    @property
    def features(self) -> list[int]:
        return sorted(self.pooling)

    def rank_bags(self, rank: int, feature: int) -> Bags:
        """Rank ``rank``'s local_batch bags of ``feature``, as views."""
        first = rank * self.local_batch
        return self.bags[feature].view(first, first + self.local_batch)

    def indices_per_rank(self, feature: int) -> np.ndarray:
        """How many indices each rank holds of ``feature``, in rank order."""
        return np.diff(self.bags[feature].offsets[::self.local_batch])

    def validate(self, tables: dict[int, EmbeddingTable]) -> None:
        if sorted(self.bags) != self.features:
            raise DomainError("bags and pooling cover different feature sets")
        expected = self.num_ranks * self.local_batch
        for feat, bags in self.bags.items():
            if len(bags) != expected:
                raise DomainError(
                    f"feature {feat} has {len(bags)} bags, expected {expected} "
                    f"({self.num_ranks} ranks x {self.local_batch})"
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
    in a second, and becomes one Bags of world * local_batch bags.
    """
    if local_batch < 1:
        raise DomainError("local_batch must be >= 1")
    rng = np.random.default_rng(seed)
    pooling = {}
    for feat, spec in hotness.items():
        pooling[feat] = POOL_NONE if spec == 1 else POOL_SUM
    world = topo.world_size
    bags: dict[int, Bags] = {}
    for feat in sorted(tables):
        spec = hotness[feat]
        if spec == 1:
            lengths = np.ones(world * local_batch, dtype=np.int64)
        else:
            lo, hi = spec
            lengths = rng.integers(lo, hi + 1, size=world * local_batch)
        values = rng.integers(0, tables[feat].rows, size=int(lengths.sum()))
        bags[feat] = Bags(lengths, values)
    batch = SparseBatch(bags, world, local_batch, pooling)
    batch.validate(tables)
    return batch
