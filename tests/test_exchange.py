import tracemalloc

import numpy as np
import pytest
from conftest import build_run, direct_lookup_oracle

from towersim.cli import RunContext, compare_exact, equivalence_check, random_config
from towersim.embedding import (
    ROW_WISE,
    TablePlan,
    init_table_deterministic,
    make_batch,
    shard_tables,
)
from towersim.errors import InvariantError, LayoutError, PlanError
from towersim.exchange import (
    ExchangeOptions,
    TowerPlan,
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
    topo, layout, tables, batch, placement, plan = build_run(**kwargs)
    base = baseline_exchange(batch, placement, topo)
    tower = tower_exchange(batch, placement, plan, topo, opts)
    return topo, layout, tables, batch, placement, plan, base, tower


def test_baseline_matches_direct_lookup_oracle():
    topo, _, tables, batch, _, _, base, _ = run_both(
        num_hosts=2, ranks_per_host=2, dims=(3, 5, 2, 4), rows=9, local_batch=2
    )
    oracle = direct_lookup_oracle(batch, tables)
    for rank in range(topo.world_size):
        assert np.array_equal(base.outputs[rank], oracle[rank])


def test_four_rank_walkthrough_layout_and_equivalence():
    # 4 tables table-wise over 4 ranks on 2 hosts, 2 towers, local batch 1.
    topo, layout, tables, batch, placement, plan, base, tower = run_both(
        num_hosts=2, ranks_per_host=2, dims=(4,), num_tables=4, local_batch=1
    )
    assert [s.rank for s in placement.shards] == [0, 1, 2, 3]
    # Baseline columns are feature blocks in id order.
    assert [b[1] for b in base.layout.blocks] == [0, 1, 2, 3]
    # The tower result groups features by tower (here the same order).
    assert [b[1] for b in tower.layout.blocks] == [0, 1, 2, 3]
    realigned = realign(tower, [0, 1, 2, 3])
    for rank in range(4):
        assert np.array_equal(realigned.outputs[rank], base.outputs[rank])


def test_tower_grouped_output_order():
    # Strided assignment puts features {0,2} in tower 0 and {1,3} in tower 1;
    # tower output columns come tower-grouped, features ascending inside.
    assignment = {0: 0, 1: 1, 2: 0, 3: 1}
    topo, layout, tables, batch, placement, plan, base, tower = run_both(
        num_hosts=2, ranks_per_host=2, dims=(4,), num_tables=4, assignment=assignment
    )
    assert [b[1] for b in tower.layout.blocks] == [0, 2, 1, 3]
    realigned = realign(tower, [0, 1, 2, 3])
    for rank in range(4):
        assert np.array_equal(realigned.outputs[rank], base.outputs[rank])


def test_single_rank_world_no_wire_bytes():
    topo, _, tables, batch, _, _, base, tower = run_both(
        num_hosts=1, ranks_per_host=1, dims=(3,), num_tables=2
    )
    assert base.trace.byte_totals() == (0, 0)
    assert tower.trace.byte_totals() == (0, 0)
    oracle = direct_lookup_oracle(batch, tables)
    assert np.array_equal(base.outputs[0], oracle[0])


def test_single_tower_spanning_all_hosts():
    # T=1: the final per-class collectives are singleton groups (zero wire);
    # output still equals the baseline.
    topo, layout, tables, batch, placement, plan, base, tower = run_both(
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
        assert other.layout == reference.layout
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
    _, _, _, _, _, _, base, with_rs = run_both(
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
    plan = TowerPlan(layout, assignment)
    base = baseline_exchange(batch, placement, topo)
    results = [
        tower_exchange(
            batch, placement, plan, topo, ExchangeOptions(rowwise_reducescatter=rs)
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
    _, _, _, _, _, _, base, tower = run_both(
        num_hosts=4, ranks_per_host=2, dims=(5,), num_tables=8, local_batch=3
    )
    _, c_cross = base.trace.byte_totals("c")
    _, f_cross = tower.trace.byte_totals("f")
    assert c_cross == f_cross > 0


def test_step_f_world_size_reduction():
    # Group count = ranks per super-host, each with one member per tower.
    topo, layout, tables, batch, placement, plan, base, tower = run_both(
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
    topo, layout, tables, batch, placement, plan = build_run(**kwargs)
    compressed = tower_exchange(
        batch, placement, plan, topo, ExchangeOptions(tower_modules=tm)
    )
    # Per tower: 2 features of dim 8 -> 16 columns pass-through, 4 compressed.
    widths = [b[2] for b in compressed.layout.blocks]
    assert widths == [tm_output_width(tm, 2, 8)] * 2 == [4, 4]
    assert compressed.outputs[0].shape == (2, 8)
    pass_width = sum(b[2] for b in passthrough.layout.blocks)
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
    topo, layout, tables, batch, placement, plan = build_run(
        num_hosts=1, ranks_per_host=2, dims=(2,), num_tables=2
    )
    compressed = tower_exchange(
        batch, placement, plan, topo, ExchangeOptions(tower_modules=tm)
    )
    with pytest.raises(LayoutError):
        realign(compressed, [0, 1])


def test_plan_errors():
    topo, layout, tables, batch, placement, plan = build_run(
        num_hosts=2, ranks_per_host=2, dims=(3,), num_tables=4
    )
    # Claim feature 0 lives in tower 1 while its shards sit in tower 0. The
    # plan rejects it with the pipeline's error.
    bad = TowerPlan(layout, {**plan.feature_towers, 0: 1})
    missing = TowerPlan(layout, {k: v for k, v in plan.feature_towers.items() if k != 0})
    for wrong, message in ((bad, "mapped to tower 1 but sharded on"),
                           (missing, "feature 0 has no tower assignment")):
        for run in (tower_exchange, tower_plan):
            with pytest.raises(PlanError, match=message):
                run(batch, placement, wrong, topo, ExchangeOptions())


def test_placement_superset_of_batch():
    # Placement may hold tables the batch never references.
    topo, layout, tables, batch, placement, plan = build_run(
        num_hosts=2, ranks_per_host=2, dims=(3,), num_tables=4
    )
    import dataclasses

    slim_pooling = {f: p for f, p in batch.pooling.items() if f != 3}
    slim_bags = [
        {f: bags for f, bags in per_rank.items() if f != 3}
        for per_rank in batch.bags
    ]
    slim = dataclasses.replace(batch, bags=slim_bags, pooling=slim_pooling)
    base = baseline_exchange(slim, placement, topo)
    tower = tower_exchange(slim, placement, plan, topo, ExchangeOptions())
    realigned = realign(tower, [0, 1, 2])
    for rank in base.outputs:
        assert np.array_equal(realigned.outputs[rank], base.outputs[rank])


def test_tower_module_rejects_mixed_dims():
    topo, layout, tables, batch, placement, plan = build_run(
        num_hosts=1, ranks_per_host=2, dims=(2, 5), num_tables=2
    )
    tm = TMConfig(kind="dlrm", out_dim=2)
    for run in (tower_exchange, tower_plan):
        with pytest.raises(PlanError, match=r"tower 0 mixes embedding dims \[2, 5\]"):
            run(batch, placement, plan, topo, ExchangeOptions(tower_modules=tm))


def test_mixed_dims_and_empty_tower():
    # An unreferenced tower (no features) must still participate cleanly.
    assignment = {0: 0, 1: 0, 2: 2, 3: 2}
    topo, layout, tables, batch, placement, plan, base, tower = run_both(
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
    topo, _, _, batch, placement, _, base, _ = run_both(
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
            for bag in batch.bags[src][shard.table_id]
        )
        assert nbytes == 4 * delivered


def test_verify_holds_one_pipeline_of_outputs():
    # 4 towers of 4 ranks; 16 table-wise single-hot features x 32 dims.
    topo, _, _, batch, placement, plan = build_run(
        num_hosts=4, ranks_per_host=4, dims=(32,), num_tables=16, local_batch=64
    )
    output_bytes = topo.world_size * 64 * 16 * 32 * 8
    tracemalloc.start()
    try:
        base = baseline_exchange(batch, placement, topo)
        live = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        tower = tower_exchange(batch, placement, plan, topo)
        tower_peak = tracemalloc.get_traced_memory()[1] - live
        live = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        mismatch = compare_exact(base, tower)
        compare_peak = tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()
    assert mismatch is None
    # Baseline outputs stay live outside the measurement; the tower run
    # holds its outputs plus one tower's working set, and the comparison
    # one rank's realigned copy.
    assert tower_peak <= 2.0 * output_bytes
    assert compare_peak < 2 * output_bytes / topo.world_size
    # Lone pieces are passed on uncopied, so no output may be a view into a
    # lookup buffer.
    for result in (base, tower):
        assert all(out.base is None for out in result.outputs.values())


def assert_same_trace(ran, planned):
    assert len(ran.collectives) == len(planned.collectives)
    for a, b in zip(ran.collectives, planned.collectives):
        assert (a.label, a.kind, a.group) == (b.label, b.kind, b.group)
        assert a.nbytes.tolist() == b.nbytes.tolist()
        assert a.present.tolist() == b.present.tolist()


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
        trace, flops = baseline_plan(ctx.batch, ctx.placement, ctx.topo)
        assert_same_trace(base.trace, trace)
        assert base.flops == flops
        tower = tower_exchange(ctx.batch, ctx.placement, ctx.plan, ctx.topo, ctx.options)
        trace, flops = tower_plan(ctx.batch, ctx.placement, ctx.plan, ctx.topo, ctx.options)
        assert_same_trace(tower.trace, trace)
        assert tower.flops == flops


def test_check_plan_names_the_first_differing_collective():
    topo, layout, tables, batch, placement, plan = build_run(
        num_hosts=2, ranks_per_host=2, dims=(3,), num_tables=4, hotness=(0, 3),
        sharding="row_wise", shards_per_table=2,
    )
    opts = ExchangeOptions(rowwise_reducescatter=True)
    result = tower_exchange(batch, placement, plan, topo, opts)
    trace, flops = tower_plan(batch, placement, plan, topo, opts)
    check_plan("tower", result, (trace, flops))
    labels = [c.label for c in trace.collectives]
    rs = next(i for i, c in enumerate(trace.collectives) if c.kind == "reduce_scatter")
    corrupt = trace.collectives[rs]
    trace.collectives[rs] = corrupt._replace(present=~corrupt.present)
    with pytest.raises(InvariantError, match=f"tower pipeline: collective {rs} \\(label 'd'\\)"):
        check_plan("tower", result, (trace, flops))
    trace.collectives[rs] = corrupt
    del trace.collectives[-1]
    with pytest.raises(InvariantError, match=f"collective {len(labels) - 1} \\(label 'f'\\)"):
        check_plan("tower", result, (trace, flops))
    trace, _ = tower_plan(batch, placement, plan, topo, opts)
    with pytest.raises(InvariantError, match="flops"):
        check_plan("tower", result, (trace, {**flops, "b": flops["b"] + 1}))
