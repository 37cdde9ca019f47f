import dataclasses
import tracemalloc

import numpy as np
import pytest
from conftest import build_run, direct_lookup_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from towersim import exchange
from towersim.cli import (
    RunContext,
    checked_tower_run,
    compare_exact,
    equivalence_check,
    load_config,
    random_config,
)
from towersim.embedding import (
    ROW_WISE,
    Bags,
    ShardedEmbedding,
    TablePlan,
    init_table_deterministic,
    make_batch,
    shard_tables,
    split_ranges,
)
from towersim.errors import DomainError, InvariantError, LayoutError, PlanError
from towersim.exchange import (
    ExchangeOptions,
    _count_in_ranges,
    baseline_exchange,
    baseline_plan,
    check_plan,
    realign,
    tower_exchange,
    tower_plan,
)
from towersim.topology import ClusterTopology, TowerLayout
from towersim.towermod import TMConfig, tm_output_width


def run_both(opts=ExchangeOptions(), **kwargs):
    topo, layout, tables, batch, placement = build_run(**kwargs)
    base = baseline_exchange(batch, placement, topo)
    tower = tower_exchange(batch, placement, layout, topo, opts)
    return topo, layout, tables, batch, placement, base, tower


def test_baseline_matches_direct_lookup_oracle():
    topo, _, tables, batch, _, base, _ = run_both(
        num_hosts=2, ranks_per_host=2, dims=(3, 5, 2, 4), rows=9, local_batch=2
    )
    oracle = direct_lookup_oracle(batch, tables)
    for rank in range(topo.world_size):
        assert np.array_equal(base.outputs[rank], oracle[rank])


def test_four_rank_walkthrough_layout_and_equivalence():
    # 4 tables table-wise over 4 ranks on 2 hosts, 2 towers, local batch 1.
    topo, layout, tables, batch, placement, base, tower = run_both(
        num_hosts=2, ranks_per_host=2, dims=(4,), num_tables=4, local_batch=1
    )
    assert [s.rank for s in placement.shards] == [0, 1, 2, 3]
    # Baseline columns are feature blocks in id order.
    assert [b[1] for b in base.blocks] == [0, 1, 2, 3]
    # The tower result groups features by tower (here the same order).
    assert [b[1] for b in tower.blocks] == [0, 1, 2, 3]
    realigned = realign(tower, [0, 1, 2, 3])
    for rank in range(4):
        assert np.array_equal(realigned.outputs[rank], base.outputs[rank])


def test_tower_grouped_output_order():
    # Strided assignment puts features {0,2} in tower 0 and {1,3} in tower 1;
    # tower output columns come tower-grouped, features ascending inside.
    assignment = {0: 0, 1: 1, 2: 0, 3: 1}
    topo, layout, tables, batch, placement, base, tower = run_both(
        num_hosts=2, ranks_per_host=2, dims=(4,), num_tables=4, assignment=assignment
    )
    assert [b[1] for b in tower.blocks] == [0, 2, 1, 3]
    realigned = realign(tower, [0, 1, 2, 3])
    for rank in range(4):
        assert np.array_equal(realigned.outputs[rank], base.outputs[rank])


def test_single_rank_world_no_wire_bytes():
    topo, _, tables, batch, _, base, tower = run_both(
        num_hosts=1, ranks_per_host=1, dims=(3,), num_tables=2
    )
    assert base.trace.byte_totals() == (0, 0)
    assert tower.trace.byte_totals() == (0, 0)
    oracle = direct_lookup_oracle(batch, tables)
    assert np.array_equal(base.outputs[0], oracle[0])


def test_single_tower_spanning_all_hosts():
    # T=1: the final per-class collectives are singleton groups (zero wire);
    # output still equals the baseline.
    topo, layout, tables, batch, placement, base, tower = run_both(
        num_hosts=2, ranks_per_host=2, hosts_per_tower=2, dims=(2, 3), num_tables=5
    )
    assert layout.num_towers == 1
    assert tower.trace.byte_totals("f") == (0, 0)
    realigned = realign(tower, batch.features)
    for rank in range(topo.world_size):
        assert np.array_equal(realigned.outputs[rank], base.outputs[rank])


def test_flag_invariance_outputs_identical():
    outputs = []
    for swap in (False, True):
        for omit in (False, True):
            opts = ExchangeOptions(swap_bc=swap, omit_permute=omit)
            *_, tower = run_both(
                opts,
                num_hosts=2,
                ranks_per_host=2,
                dims=(3, 2),
                num_tables=6,
                hotness=(0, 3),
                sharding="row_wise",
                shards_per_table=2,
            )
            outputs.append(tower)
    reference = outputs[0]
    for other in outputs[1:]:
        assert other.blocks == reference.blocks
        assert other.trace.entries == reference.trace.entries
        assert [(c.label, c.kind, c.group) for c in other.trace.collectives] == [
            (c.label, c.kind, c.group) for c in reference.trace.collectives
        ]
        for rank in reference.outputs:
            assert np.array_equal(other.outputs[rank], reference.outputs[rank])


def test_rowwise_reducescatter_equivalence_and_bytes():
    kwargs = dict(
        num_hosts=2, ranks_per_host=2, dims=(4,), num_tables=4,
        hotness=(0, 4), sharding="row_wise", shards_per_table=2,
    )
    _, _, _, _, _, base, with_rs = run_both(
        ExchangeOptions(rowwise_reducescatter=True), **kwargs
    )
    *_, without_rs = run_both(ExchangeOptions(), **kwargs)
    realigned = realign(with_rs, [0, 1, 2, 3])
    for rank in realigned.outputs:
        assert np.array_equal(realigned.outputs[rank], base.outputs[rank])
        assert np.array_equal(with_rs.outputs[rank], without_rs.outputs[rank])
    # The functional reduce-scatter moves the same bytes as the all-to-all form.
    assert with_rs.trace.byte_totals("d") == without_rs.trace.byte_totals("d")


def test_rowwise_reducescatter_presums_shards_of_one_owner():
    # 4 row shards per table over a 2-rank tower: each rank owns two row
    # shards of every table, which the reduce-scatter pre-sums before sending.
    topo = ClusterTopology(num_hosts=2, ranks_per_host=2)
    layout = TowerLayout(num_towers=2)
    tables = {t: init_table_deterministic(t, 12, 3, 0, True) for t in range(4)}
    assignment = {0: 0, 1: 0, 2: 1, 3: 1}
    placement = shard_tables(
        tables, {t: TablePlan(ROW_WISE, 4, assignment[t]) for t in tables}, topo, layout
    )
    for t in tables:
        owners = sorted(s.rank for s in placement.shards_of(t))
        assert owners == sorted(2 * layout.tower_ranks(assignment[t], topo))
    batch = make_batch(topo, tables, 3, {t: (0, 5) for t in tables}, 7)
    base = baseline_exchange(batch, placement, topo)
    results = [
        tower_exchange(
            batch, placement, layout, topo, ExchangeOptions(rowwise_reducescatter=rs)
        )
        for rs in (True, False)
    ]
    for result in results:
        realigned = realign(result, [0, 1, 2, 3])
        for rank in base.outputs:
            assert np.array_equal(realigned.outputs[rank], base.outputs[rank])
    with_rs, without_rs = (r.trace.byte_totals("d") for r in results)
    assert with_rs == (576, 0)
    assert without_rs == (1152, 0)


def test_step_d_intra_host_only_single_host_towers():
    *_, tower = run_both(num_hosts=2, ranks_per_host=2, dims=(3,), num_tables=4)
    intra, cross = tower.trace.byte_totals("d")
    assert cross == 0
    assert intra > 0


def test_byte_conservation_cross_host():
    _, _, _, _, _, base, tower = run_both(
        num_hosts=4, ranks_per_host=2, dims=(5,), num_tables=8, local_batch=3
    )
    _, c_cross = base.trace.byte_totals("c")
    _, f_cross = tower.trace.byte_totals("f")
    assert c_cross == f_cross > 0


def test_step_f_world_size_reduction():
    # Group count = ranks per super-host, each with one member per tower.
    topo, layout, tables, batch, placement, base, tower = run_both(
        num_hosts=4, ranks_per_host=2, hosts_per_tower=2, dims=(3,), num_tables=4
    )
    width = layout.group_width(topo)
    groups: dict[int, set[int]] = {}
    for e in tower.trace.entries:
        if e.label == "f":
            groups.setdefault(e.src % width, set()).add(e.src)
    assert len(groups) == width == 4
    for members in groups.values():
        assert len(members) == layout.num_towers == 2


def test_tower_module_compression_bytes_and_width():
    kwargs = dict(
        num_hosts=2, ranks_per_host=2, dims=(8,), num_tables=4, local_batch=2
    )
    *_, passthrough = run_both(**kwargs)
    tm = TMConfig(kind="dlrm", out_dim=2, per_feature_outputs=1, flat_outputs=0)
    topo, layout, tables, batch, placement = build_run(**kwargs)
    compressed = tower_exchange(
        batch, placement, layout, topo, ExchangeOptions(tower_modules=tm)
    )
    # Per tower: 2 features of dim 8 -> 16 columns pass-through, 4 compressed.
    widths = [b[2] for b in compressed.blocks]
    assert widths == [tm_output_width(tm, 2, 8)] * 2 == [4, 4]
    assert compressed.outputs[0].shape == (2, 8)
    pass_width = sum(b[2] for b in passthrough.blocks)
    comp_width = sum(widths)
    _, f_pass = passthrough.trace.byte_totals("f")
    _, f_comp = compressed.trace.byte_totals("f")
    # Exact cross-multiplied equality: f bytes scale with total output width.
    assert f_comp * pass_width == f_pass * comp_width
    assert "e" in compressed.flops and compressed.flops["e"] > 0


def test_realign_identity_and_swap():
    *_, base, tower = run_both(
        num_hosts=2, ranks_per_host=2, dims=(2, 3), num_tables=4
    )
    same = realign(base, [0, 1, 2, 3])
    for rank in base.outputs:
        assert np.array_equal(same.outputs[rank], base.outputs[rank])
    swapped = realign(base, [1, 0, 2, 3])
    w0, w1 = 2, 3
    for rank in base.outputs:
        assert np.array_equal(swapped.outputs[rank][:, :w1], base.outputs[rank][:, w0:w0 + w1])
        assert np.array_equal(swapped.outputs[rank][:, w1:w1 + w0], base.outputs[rank][:, :w0])


def test_realign_errors():
    *_, base, tower = run_both(num_hosts=1, ranks_per_host=2, dims=(2,), num_tables=2)
    with pytest.raises(LayoutError):
        realign(base, [0])
    with pytest.raises(LayoutError):
        realign(base, [0, 5])
    tm = TMConfig(kind="dlrm", out_dim=2)
    topo, layout, tables, batch, placement = build_run(
        num_hosts=1, ranks_per_host=2, dims=(2,), num_tables=2
    )
    compressed = tower_exchange(
        batch, placement, layout, topo, ExchangeOptions(tower_modules=tm)
    )
    with pytest.raises(LayoutError):
        realign(compressed, [0, 1])


@pytest.mark.parametrize("run", [tower_exchange, tower_plan])
def test_feature_sharded_over_two_towers_is_rejected(run):
    # A feature's tower is where its shards sit: feature 0's second row shard
    # moved from tower 0's rank 1 to tower 1's rank 2 leaves it no tower.
    topo, layout, tables, batch, placement = build_run(
        num_hosts=2, ranks_per_host=2, dims=(3,), num_tables=4,
        sharding="row_wise", shards_per_table=2,
    )
    first, second, *rest = placement.shards
    assert (first.table_id, first.rank, second.table_id, second.rank) == (0, 0, 0, 1)
    split = ShardedEmbedding(tables, [first, dataclasses.replace(second, rank=2), *rest])
    with pytest.raises(PlanError, match=r"^feature 0 has shards in towers \[0, 1\]$"):
        run(batch, split, layout, topo, ExchangeOptions())


@pytest.mark.parametrize("run", [tower_exchange, tower_plan])
def test_unsharded_feature_and_untiled_layout_are_rejected(run):
    topo, layout, tables, batch, placement = build_run(
        num_hosts=2, ranks_per_host=2, dims=(3,), num_tables=4
    )
    unsharded = ShardedEmbedding(tables, [s for s in placement.shards if s.table_id != 0])
    with pytest.raises(PlanError, match="^table 0 has no shards$"):
        run(batch, unsharded, layout, topo, ExchangeOptions())
    with pytest.raises(DomainError, match=r"^num_towers 3 != world/2 = 2$"):
        run(batch, placement, TowerLayout(num_towers=3), topo, ExchangeOptions())


def test_placement_superset_of_batch():
    # Placement may hold tables the batch never references.
    topo, layout, tables, batch, placement = build_run(
        num_hosts=2, ranks_per_host=2, dims=(3,), num_tables=4
    )
    slim_pooling = {f: p for f, p in batch.pooling.items() if f != 3}
    slim_bags = {f: bags for f, bags in batch.bags.items() if f != 3}
    slim = dataclasses.replace(batch, bags=slim_bags, pooling=slim_pooling)
    base = baseline_exchange(slim, placement, topo)
    tower = tower_exchange(slim, placement, layout, topo, ExchangeOptions())
    realigned = realign(tower, [0, 1, 2])
    for rank in base.outputs:
        assert np.array_equal(realigned.outputs[rank], base.outputs[rank])


def test_tower_module_rejects_mixed_dims():
    topo, layout, tables, batch, placement = build_run(
        num_hosts=1, ranks_per_host=2, dims=(2, 5), num_tables=2
    )
    tm = TMConfig(kind="dlrm", out_dim=2)
    for run in (tower_exchange, tower_plan):
        with pytest.raises(PlanError, match=r"tower 0 mixes embedding dims \[2, 5\]"):
            run(batch, placement, layout, topo, ExchangeOptions(tower_modules=tm))


def test_mixed_dims_and_empty_tower():
    # An unreferenced tower (no features) must still participate cleanly.
    assignment = {0: 0, 1: 0, 2: 2, 3: 2}
    topo, layout, tables, batch, placement, base, tower = run_both(
        num_hosts=3, ranks_per_host=1, dims=(2, 5, 3, 1), num_tables=4,
        assignment=assignment,
    )
    assert layout.num_towers == 3
    realigned = realign(tower, [0, 1, 2, 3])
    for rank in base.outputs:
        assert np.array_equal(realigned.outputs[rank], base.outputs[rank])


def test_randomized_equivalence_sweep(rng):
    for _ in range(30):
        cfg = random_config(rng)
        facts = equivalence_check(cfg)
        assert facts["match"], (cfg, facts["mismatch"])
        if facts["bytes_comparable"]:
            assert facts["step_c_cross"] == facts["step_f_cross"]


def test_trace_determinism_across_runs():
    a = run_both(num_hosts=2, ranks_per_host=2, dims=(3,), num_tables=4)
    b = run_both(num_hosts=2, ranks_per_host=2, dims=(3,), num_tables=4)
    assert a[-1].trace.entries == b[-1].trace.entries
    for rank in a[-1].outputs:
        assert np.array_equal(a[-1].outputs[rank], b[-1].outputs[rank])


def test_step_a_bytes_are_four_per_delivered_index():
    # Multi-hot row-wise tables with 2 shards each: every source sends each
    # owner its whole bag of every feature the owner holds a shard of.
    topo, _, _, batch, placement, base, _ = run_both(
        num_hosts=2, ranks_per_host=2, dims=(3,), num_tables=4, rows=10,
        hotness=(0, 6), sharding="row_wise", shards_per_table=2, local_batch=3,
    )
    assert all(len(placement.shards_of(t)) == 2 for t in range(4))
    step_a = {(e.src, e.dst): e.nbytes for e in base.trace.entries if e.label == "a"}
    assert len(step_a) == topo.world_size ** 2
    for (src, dst), nbytes in step_a.items():
        delivered = sum(
            len(bag)
            for shard in placement.shards
            if shard.rank == dst
            for bag in batch.rank_bags(src, shard.table_id)
        )
        assert nbytes == 4 * delivered


def test_verify_holds_one_pipeline_of_outputs():
    # 4 towers of 4 ranks; 16 table-wise single-hot features x 32 dims.
    ctx = RunContext(load_config(overrides={
        "topology": {"num_hosts": 4, "ranks_per_host": 4},
        "tables": {"count": 16, "rows": 8, "dim": 32},
        "batch": {"local_size": 64},
    }))
    output_bytes = ctx.topo.world_size * 64 * 16 * 32 * 8
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        tower = ctx.run_tower()
        tower_peak = tracemalloc.get_traced_memory()[1] - live
        live = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        mismatch = compare_exact(ctx, tower.outputs, tower.blocks)
        compare_peak = tracemalloc.get_traced_memory()[1] - live
        # Lone pieces are passed on uncopied, so no output may be a view
        # into a lookup buffer.
        uncopied = all(out.base is None for out in tower.outputs.values())
        del tower
        live = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        checked, checked_mismatch = checked_tower_run(ctx)
        checked_peak = tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()
    assert mismatch is None and checked_mismatch is None and checked.outputs == {}
    # The tower run holds its outputs plus one tower's working set, and the
    # comparison one reference block at a time.
    assert tower_peak <= 2.0 * output_bytes
    assert compare_peak < 2 * output_bytes / ctx.topo.world_size
    # verify's own run holds one tower's working set: under three copies of
    # that tower's outputs, in steps b, d and e.
    assert checked_peak < 2.75 * output_bytes / ctx.layout.num_towers
    assert uncopied


def test_baseline_run_equals_the_reference_on_random_configs():
    # The flat run stays the functional oracle of baseline_plan, and is held
    # to the reference itself: float tables too, with bags up to 9 long.
    rng = np.random.default_rng(4242)
    for i in range(40):
        cfg = random_config(rng)
        cfg["tables"].update(integer_values=bool(i % 2), hotness=[0, 9] if i % 3 else 1)
        ctx = RunContext(cfg)
        base = baseline_exchange(ctx.batch, ctx.placement, ctx.topo)
        assert all(kind == "feature" for kind, _, _ in base.blocks)
        assert compare_exact(ctx, base.outputs, base.blocks) is None, cfg


def test_row_shards_of_one_owner_sum_as_the_reference_does():
    # Each tower's one rank owns all 3 row shards of each of its tables. Under
    # the reduce-scatter it pre-sums them in shard order before sending, and
    # without it the receiver sums them; float values show any other order.
    for rs in (False, True):
        for seed in range(5):
            ctx = RunContext(load_config(overrides={
                "seed": seed,
                "topology": {"num_hosts": 2, "ranks_per_host": 1},
                "tables": {"sharding": "row_wise", "shards_per_table": 3,
                           "integer_values": False, "hotness": [0, 9]},
                "exchange": {"rowwise_reducescatter": rs},
            }))
            for feat in ctx.batch.features:
                shards = ctx.placement.shards_of(feat)
                assert len(shards) == 3 and len({s.rank for s in shards}) == 1
            _, mismatch = checked_tower_run(ctx)
            assert mismatch is None, (rs, seed, mismatch)


def assert_same_collectives(ran, planned):
    assert len(ran) == len(planned)
    for a, b in zip(ran, planned):
        assert (a.label, a.kind, a.group) == (b.label, b.kind, b.group)
        assert a.nbytes.tolist() == b.nbytes.tolist()


FLAGS = [(swap, omit, rs) for swap in (False, True) for omit in (False, True)
         for rs in (False, True)]


def test_plans_equal_functional_runs_on_random_configs():
    # Seeded apart from criterion 1's suite, and drawing tower modules too:
    # every tm.kind meets every exchange-flag combination twice.
    rng = np.random.default_rng(8088)
    for i in range(48):
        cfg = random_config(rng)
        swap, omit, rs = FLAGS[i % len(FLAGS)]
        cfg["exchange"] = {"swap_bc": swap, "omit_permute": omit, "rowwise_reducescatter": rs}
        cfg["tm"].update(
            kind=("passthrough", "dlrm", "dcn")[i // len(FLAGS) % 3],
            out_dim=int(rng.integers(1, 5)),
            per_feature_outputs=int(rng.integers(1, 3)),
            flat_outputs=int(rng.integers(0, 3)),
            cross_layers=int(rng.integers(1, 3)),
        )
        ctx = RunContext(cfg)
        base = baseline_exchange(ctx.batch, ctx.placement, ctx.topo)
        base_plan = baseline_plan(ctx.batch, ctx.placement, ctx.topo)
        assert_same_collectives(base.trace.collectives, base_plan.trace.collectives)
        assert base.flops == base_plan.flops
        tower = tower_exchange(ctx.batch, ctx.placement, ctx.layout, ctx.topo, ctx.options)
        planned = tower_plan(ctx.batch, ctx.placement, ctx.layout, ctx.topo, ctx.options)
        assert_same_collectives(tower.trace.collectives, planned.trace.collectives)
        assert tower.flops == planned.flops
        # Both plans start from one shared pass: the same step a and step-b flops.
        assert_same_collectives(base_plan.trace.collectives[:1], planned.trace.collectives[:1])
        assert base_plan.flops["b"] == planned.flops["b"]


def test_tower_run_equals_the_reference_on_random_float_and_module_configs():
    # verify's own check, on what random_config does not draw: float tables,
    # bags up to 9 long and tower modules, over every exchange-flag combination.
    rng = np.random.default_rng(9099)
    for i in range(48):
        cfg = random_config(rng)
        swap, omit, rs = FLAGS[i % len(FLAGS)]
        cfg["exchange"] = {"swap_bc": swap, "omit_permute": omit, "rowwise_reducescatter": rs}
        cfg["tm"].update(kind=("passthrough", "dlrm", "dcn")[i % 3],
                         out_dim=int(rng.integers(1, 5)))
        j = i // len(FLAGS)  # each flag combination meets all four kinds of table
        cfg["tables"].update(integer_values=bool(j % 2), hotness=[0, 9] if j // 2 % 2 else 1)
        _, mismatch = checked_tower_run(RunContext(cfg))
        assert mismatch is None, cfg


def test_check_plan_names_the_first_differing_collective():
    topo, layout, tables, batch, placement = build_run(
        num_hosts=2, ranks_per_host=2, dims=(3,), num_tables=4, hotness=(0, 3),
        sharding="row_wise", shards_per_table=2,
    )
    opts = ExchangeOptions(rowwise_reducescatter=True)
    result = tower_exchange(batch, placement, layout, topo, opts)
    planned = tower_plan(batch, placement, layout, topo, opts)
    assert check_plan("tower", result, planned) is result
    trace = planned.trace
    labels = [c.label for c in trace.collectives]
    rs = next(i for i, c in enumerate(trace.collectives) if c.kind == "reduce_scatter")
    corrupt = trace.collectives[rs]
    trace.collectives[rs] = corrupt._replace(kind="all_to_all")
    with pytest.raises(InvariantError, match=f"tower pipeline: collective {rs} \\(label 'd'\\)"):
        check_plan("tower", result, planned)
    trace.collectives[rs] = corrupt
    del trace.collectives[-1]
    with pytest.raises(InvariantError, match=f"collective {len(labels) - 1} \\(label 'f'\\)"):
        check_plan("tower", result, planned)
    planned = tower_plan(batch, placement, layout, topo, opts)
    planned.flops["b"] += 1
    with pytest.raises(InvariantError, match="flops"):
        check_plan("tower", result, planned)


def collective_1_off(planned):
    one = planned.trace.collectives[1]
    planned.trace.collectives[1] = one._replace(nbytes=one.nbytes + 4)


def step_e_flops_off(planned):
    planned.flops["e"] += 1


@pytest.mark.parametrize("pipeline, tm, corrupt, match", [
    ("baseline", None, collective_1_off, "collective 1 \\(label 'c'\\) differs from its plan$"),
    ("tower", None, collective_1_off, "collective 1 \\(label 'd'\\) differs from its plan$"),
    ("tower", "dcn", step_e_flops_off, "flops .* differ from its plan's"),
], ids=["baseline-c", "tower-d", "tower-dcn-e-flops"])
def test_a_direct_run_checks_itself_against_its_plan(monkeypatch, pipeline, tm, corrupt, match):
    # Called as a library, with no CLI around it, a run whose plan differs
    # from it in one collective, or in the tower modules' flops that the run
    # counts, raises, naming the pipeline and what differs.
    topo, layout, tables, batch, placement = build_run(num_hosts=2, ranks_per_host=2)
    opts = ExchangeOptions(tower_modules=tm and TMConfig(kind=tm, out_dim=2))
    planner = getattr(exchange, f"{pipeline}_plan")

    def corrupted(*args):
        planned = planner(*args)
        corrupt(planned)
        return planned

    monkeypatch.setattr(exchange, f"{pipeline}_plan", corrupted)
    runs = {
        "baseline": lambda: baseline_exchange(batch, placement, topo),
        "tower": lambda: tower_exchange(batch, placement, layout, topo, opts),
    }
    with pytest.raises(InvariantError, match=f"^{pipeline} pipeline: {match}"):
        runs[pipeline]()


@st.composite
def row_wise_batches(draw):
    """A feature's bags over a table split into row shards. The indices are
    drawn from the rows below ``top``, so shards above it get none."""
    rows = draw(st.integers(1, 40))
    parts = draw(st.integers(1, rows))
    top = draw(st.integers(1, rows))
    bags = draw(st.lists(st.lists(st.integers(0, top - 1), max_size=6), max_size=12))
    return rows, split_ranges(rows, parts), Bags.from_lists(bags)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(row_wise_batches())
def test_row_shard_counts_equal_the_per_row_cumsum(case):
    rows, ranges, bags = case
    below = np.concatenate(([0], np.cumsum(np.bincount(bags.values, minlength=rows))))
    expected = [int(below[r1] - below[r0]) for r0, r1 in ranges]
    assert _count_in_ranges(bags.values, ranges) == expected
