import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from towersim.embedding import (
    COLUMN_WISE,
    ROW_WISE,
    TABLE_WISE,
    Bags,
    EmbeddingTable,
    Shard,
    ShardedEmbedding,
    SparseBatch,
    TablePlan,
    init_table_deterministic,
    lookup,
    make_batch,
    shard_tables,
    split_ranges,
)
from towersim.errors import DomainError, PlanError, ShapeError, TableLookupError
from towersim.exchange import _shard_lookup
from towersim.topology import ClusterTopology, TowerLayout

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def test_lookup_row_select():
    table = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(lookup(table, Bags.from_lists([[1]]), "none"), [[3.0, 4.0]])


def test_lookup_sum_pooling():
    table = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    assert np.array_equal(lookup(table, Bags.from_lists([[0, 2]]), "sum"), [[6.0, 8.0]])


def test_lookup_empty_bag_sums_to_zero():
    table = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(lookup(table, Bags.from_lists([[]]), "sum"), [[0.0, 0.0]])


def test_lookup_errors():
    table = np.array([[1.0, 2.0]])
    with pytest.raises(TableLookupError):
        lookup(table, Bags.from_lists([[1]]), "none")
    with pytest.raises(TableLookupError):
        lookup(table, Bags.from_lists([[]]), "none")
    with pytest.raises(TableLookupError):
        lookup(table, Bags.from_lists([[0, 0]]), "none")
    with pytest.raises(DomainError):
        lookup(table, Bags.from_lists([[0]]), "mean")


def test_sum_over_singletons_equals_none(rng):
    table = rng.normal(size=(6, 3))
    bags = Bags.from_lists([[int(rng.integers(6))] for _ in range(5)])
    assert np.array_equal(lookup(table, bags, "sum"), lookup(table, bags, "none"))


def test_integer_init_formula():
    table = init_table_deterministic(0, 4, 4, integer=True)
    assert table.values[1, 2] == 1002.0
    other = init_table_deterministic(3, 4, 4, integer=True)
    assert other.values[0, 0] == 3_000_000.0


def test_init_determinism_and_table_id_salt():
    a = init_table_deterministic(1, 5, 3, seed=9)
    b = init_table_deterministic(1, 5, 3, seed=9)
    c = init_table_deterministic(2, 5, 3, seed=9)
    assert np.array_equal(a.values, b.values)
    assert a.values[0, 0] != c.values[0, 0]


def test_split_ranges_remainder_spreading():
    assert split_ranges(10, 3) == [(0, 4), (4, 7), (7, 10)]
    assert split_ranges(128, 2) == [(0, 64), (64, 128)]
    with pytest.raises(DomainError):
        split_ranges(2, 3)


def four_tables(dim=4):
    return {t: init_table_deterministic(t, 8, dim, integer=True) for t in range(4)}


def test_table_wise_one_table_per_rank():
    # Walkthrough layout: 4 tables over 4 ranks, one each.
    topo = ClusterTopology(num_hosts=2, ranks_per_host=2)
    layout = TowerLayout(2)
    plan = {t: TablePlan(TABLE_WISE, 1, t // 2) for t in range(4)}
    placed = shard_tables(four_tables(), plan, topo, layout)
    assert {s.table_id: s.rank for s in placed.shards} == {0: 0, 1: 1, 2: 2, 3: 3}


def test_column_split_even():
    topo = ClusterTopology(num_hosts=1, ranks_per_host=2)
    layout = TowerLayout(1)
    tables = {0: init_table_deterministic(0, 4, 128, integer=True)}
    placed = shard_tables(tables, {0: TablePlan(COLUMN_WISE, 2, 0)}, topo, layout)
    assert [s.col_range for s in placed.shards] == [(0, 64), (64, 128)]


def test_row_split_remainders():
    topo = ClusterTopology(num_hosts=1, ranks_per_host=4)
    layout = TowerLayout(1)
    tables = {0: init_table_deterministic(0, 10, 2, integer=True)}
    placed = shard_tables(tables, {0: TablePlan(ROW_WISE, 3, 0)}, topo, layout)
    sizes = [s.row_range[1] - s.row_range[0] for s in placed.shards]
    assert sizes == [4, 3, 3]


def test_tiling_completeness_random(rng):
    topo = ClusterTopology(num_hosts=2, ranks_per_host=2)
    layout = TowerLayout(2)
    for _ in range(20):
        tables = {
            t: init_table_deterministic(t, int(rng.integers(4, 12)), int(rng.integers(2, 9)))
            for t in range(int(rng.integers(1, 6)))
        }
        plan = {}
        for t, table in tables.items():
            scheme = str(rng.choice([TABLE_WISE, COLUMN_WISE, ROW_WISE]))
            count = 1 if scheme == TABLE_WISE else int(
                rng.integers(1, min(table.dim if scheme == COLUMN_WISE else table.rows, 2) + 1)
            )
            plan[t] = TablePlan(scheme, count, int(rng.integers(0, 2)))
        placed = shard_tables(tables, plan, topo, layout)
        placed.validate_tiling()  # raises on overlap or gap


@pytest.mark.parametrize(
    "row_ranges",
    [
        [(0, 2), (1, 3)],  # overlap: row 1 covered twice, row 3 not at all
        [(0, 1), (2, 4)],  # gap: row 1 uncovered
        [(0, 2), (3, 5)],  # past the edge of a 4-row table, row 2 uncovered
    ],
    ids=["overlap", "gap", "past-edge"],
)
def test_validate_tiling_rejects_bad_rectangles(row_ranges):
    tables = {0: init_table_deterministic(0, 4, 2, integer=True)}
    shards = [Shard(0, rank, ROW_WISE, rows, (0, 2)) for rank, rows in enumerate(row_ranges)]
    with pytest.raises(PlanError, match="^table 0 shards do not tile it exactly$"):
        ShardedEmbedding(tables, shards).validate_tiling()


def test_plan_errors():
    topo = ClusterTopology(num_hosts=1, ranks_per_host=2)
    layout = TowerLayout(1)
    tables = four_tables()
    with pytest.raises(PlanError):
        shard_tables(tables, {0: TablePlan(TABLE_WISE, 1, 5)}, topo, layout)
    with pytest.raises(PlanError):
        shard_tables(tables, {0: TablePlan(TABLE_WISE, 1, 0)}, topo, layout)  # 1..3 missing


def test_column_shards_concatenate_to_whole_lookup(rng):
    # Concatenating per-shard lookups over column ranges equals the
    # whole-table lookup.
    table = rng.normal(size=(9, 7))
    bags = Bags.from_lists([[int(rng.integers(9))] for _ in range(4)])
    whole = lookup(table, bags, "none")
    parts = [lookup(table[:, c0:c1], bags, "none") for c0, c1 in split_ranges(7, 3)]
    assert np.array_equal(np.concatenate(parts, axis=1), whole)


def test_row_shards_partial_pools_sum_to_whole_lookup(rng):
    # The algebra behind the reduce-scatter specialization: per-shard partial
    # pools (bags filtered to the shard's rows) sum to the full pooled lookup.
    table = rng.integers(0, 50, size=(12, 5)).astype(float)
    bags = [list(rng.integers(0, 12, size=int(rng.integers(0, 5)))) for _ in range(6)]
    whole = lookup(table, Bags.from_lists(bags), "sum")
    total = np.zeros_like(whole)
    for r0, r1 in split_ranges(12, 4):
        filtered = [[i - r0 for i in bag if r0 <= i < r1] for bag in bags]
        total += lookup(table[r0:r1], Bags.from_lists(filtered), "sum")
    assert np.array_equal(total, whole)


def test_make_batch_deterministic_and_valid():
    topo = ClusterTopology(num_hosts=2, ranks_per_host=2)
    tables = four_tables()
    hot = {0: 1, 1: 1, 2: (0, 3), 3: (2, 2)}
    a = make_batch(topo, tables, 3, hot, seed=5)
    b = make_batch(topo, tables, 3, hot, seed=5)
    assert a.bags == b.bags
    assert a.pooling == {0: "none", 1: "none", 2: "sum", 3: "sum"}
    for rank in range(4):
        for bag in a.rank_bags(rank, 3):
            assert len(bag) == 2


def test_bags_layout_and_iteration():
    bags = Bags.from_lists([[3, 1], [], [2]])
    assert bags.lengths.tolist() == [2, 0, 1]
    assert bags.values.tolist() == [3, 1, 2]
    assert bags.offsets.tolist() == [0, 2, 2, 3]
    assert len(bags) == 3
    assert [bag.tolist() for bag in bags] == [[3, 1], [], [2]]
    assert bags == Bags([2, 0, 1], [3, 1, 2])
    assert bags != Bags([1, 1, 1], [3, 1, 2])
    assert Bags.concat([bags, Bags.from_lists([[0]])]) == Bags.from_lists([[3, 1], [], [2], [0]])
    assert len(Bags.from_lists([])) == 0
    with pytest.raises(ShapeError):
        Bags([2, 2], [0, 1, 2])
    with pytest.raises(ShapeError):
        Bags([-1, 2], [0])


def reference_lookup(table, bags, pooling):
    """Row select or bag-order row sum, one Python float at a time."""
    out = []
    for bag in bags:
        if pooling == "none":
            out.append([float(x) for x in table[bag[0]]])
        else:
            row = [0.0] * table.shape[1]
            for i in bag:
                row = [acc + float(x) for acc, x in zip(row, table[i])]
            out.append(row)
    return np.array(out, dtype=np.float64).reshape(len(bags), table.shape[1])


@st.composite
def tables_and_bags(draw, single_hot=False):
    rows = draw(st.integers(1, 12))
    width = draw(st.integers(1, 4))
    cells = draw(st.lists(st.integers(-50, 50), min_size=rows * width, max_size=rows * width))
    table = np.array(cells, dtype=np.float64).reshape(rows, width)
    index = st.integers(0, rows - 1)
    if single_hot:
        bags = [[i] for i in draw(st.lists(index, max_size=8))]
    else:
        # max_len 0 gives an all-empty batch.
        max_len = draw(st.integers(0, 6))
        bags = draw(st.lists(st.lists(index, max_size=max_len), max_size=8))
    return table, bags


@PROPERTY
@given(tables_and_bags())
def test_lookup_sum_matches_reference(case):
    table, bags = case
    assert np.array_equal(lookup(table, Bags.from_lists(bags), "sum"),
                          reference_lookup(table, bags, "sum"))


@PROPERTY
@given(tables_and_bags(single_hot=True))
def test_lookup_none_matches_reference(case):
    table, bags = case
    got = lookup(table, Bags.from_lists(bags), "none")
    assert np.array_equal(got, reference_lookup(table, bags, "none"))
    assert np.array_equal(got, lookup(table, Bags.from_lists(bags), "sum"))


@PROPERTY
@given(tables_and_bags(), st.integers(1, 4), st.booleans())
def test_row_shard_lookup_matches_reference(case, parts, single_hot):
    table, bags = case
    rows, width = table.shape
    parts = min(parts, rows)
    if single_hot:
        bags = [bag[:1] for bag in bags if bag]
    pooling = "none" if single_hot else "sum"
    placement = ShardedEmbedding(
        {0: EmbeddingTable(0, rows, width, table)},
        [Shard(0, rank, ROW_WISE, rr, (0, width))
         for rank, rr in enumerate(split_ranges(rows, parts))],
    )
    total = np.zeros((len(bags), width))
    for shard in placement.shards:
        r0, r1 = shard.row_range
        local = [[i - r0 for i in bag if r0 <= i < r1] for bag in bags]
        got, flops = _shard_lookup(placement, shard, Bags.from_lists(bags), pooling)
        assert np.array_equal(got, reference_lookup(table[r0:r1], local, "sum"))
        assert flops == sum(len(bag) for bag in local) * width
        total += got
    assert np.array_equal(total, reference_lookup(table, bags, "sum"))


@PROPERTY
@given(tables_and_bags(), st.booleans(), st.sampled_from(["none", "sum"]))
def test_lookup_rejects_out_of_range_index(case, below, pooling):
    table, bags = case
    bad = -1 if below else table.shape[0]
    with pytest.raises(TableLookupError):
        lookup(table, Bags.from_lists(bags + [[bad]]), pooling)


def test_make_batch_lengths_span_hotness_range():
    topo = ClusterTopology(num_hosts=2, ranks_per_host=4)
    tables = {t: init_table_deterministic(t, 50, 2, integer=True) for t in range(3)}
    hot = {0: 1, 1: (0, 5), 2: (3, 7)}
    batch = make_batch(topo, tables, 64, hot, seed=11)
    for feat, (lo, hi) in ((1, (0, 5)), (2, (3, 7))):
        lengths = np.concatenate(
            [batch.rank_bags(r, feat).lengths for r in range(topo.world_size)]
        )
        assert lengths.size == topo.world_size * 64
        assert lengths.min() == lo and lengths.max() == hi
    for rank in range(topo.world_size):
        assert batch.rank_bags(rank, 0).lengths.tolist() == [1] * 64
        for feat, table in tables.items():
            values = batch.rank_bags(rank, feat).values
            assert values.size == 0 or (values.min() >= 0 and values.max() < table.rows)


def two_rank_batch(bags, pooling="none"):
    """Two ranks of one bag each over a 4-row table 0."""
    tables = {0: init_table_deterministic(0, 4, 2, integer=True)}
    return SparseBatch(bags, num_ranks=2, local_batch=1, pooling={0: pooling}), tables


@pytest.mark.parametrize(
    "bags, pooling, error, message",
    [
        ({1: Bags([1, 1], [0, 1])}, "none", DomainError,
         "bags and pooling cover different feature sets"),
        ({0: Bags([1, 1, 1], [0, 1, 2])}, "none", DomainError,
         r"feature 0 has 3 bags, expected 2 \(2 ranks x 1\)"),
        ({0: Bags([1, 2], [0, 1, 2])}, "none", DomainError,
         "single-hot feature 0 has a bag of length 2"),
        ({0: Bags([2, 0], [3, 4])}, "sum", TableLookupError,
         r"feature 0 index 4 out of range 0\.\.3"),
    ],
)
def test_validate_rejects_inconsistent_batch(bags, pooling, error, message):
    batch, tables = two_rank_batch(bags, pooling)
    with pytest.raises(error, match=message):
        batch.validate(tables)


def test_rank_bags_are_views_that_concatenate_to_the_feature():
    # Empty bags on both sides of each rank boundary, and one empty rank.
    lengths, values = [2, 0, 0, 1, 0, 0, 0, 3], [5, 1, 7, 2, 2, 6]
    tables = {0: init_table_deterministic(0, 8, 2, integer=True)}
    batch = SparseBatch({0: Bags(lengths, values)}, num_ranks=4, local_batch=2,
                        pooling={0: "sum"})
    batch.validate(tables)
    views = [batch.rank_bags(rank, 0) for rank in range(4)]
    assert [view.lengths.tolist() for view in views] == [[2, 0], [0, 1], [0, 0], [0, 3]]
    for view in views:
        assert np.array_equal(view.offsets, Bags(view.lengths, view.values).offsets)
        assert view.values.size == 0 or np.shares_memory(view.values, batch.bags[0].values)
    assert Bags.concat(views) == batch.bags[0]
    assert batch.indices_per_rank(0).tolist() == [2, 1, 0, 3]


def test_make_batch_seed_changes_draw():
    topo = ClusterTopology(num_hosts=2, ranks_per_host=2)
    tables = four_tables()
    hot = {0: 1, 1: (0, 4), 2: (1, 3), 3: 1}
    a = make_batch(topo, tables, 5, hot, seed=3)
    assert make_batch(topo, tables, 5, hot, seed=3) == a
    assert make_batch(topo, tables, 5, hot, seed=4) != a
