import numpy as np
import pytest
from conftest import build_run

from towersim.costmodel import (
    CostBreakdown,
    CostParams,
    collective_latency,
    default_efficiency,
    efficiency_at,
    pipeline_cost,
    speedup_report,
)
from towersim.embedding import TablePlan, shard_tables
from towersim.errors import DomainError, ReportError
from towersim.exchange import ExchangeOptions, baseline_exchange, tower_exchange
from towersim.simnet import CommTrace
from towersim.topology import ClusterTopology


def sent_by_rank(trace, label):
    """Bytes each rank sent under a label, summed over its messages."""
    out = {}
    for e in trace.entries:
        if e.label == label:
            out[e.src] = out.get(e.src, 0) + e.nbytes
    return out


def flat_params(**kwargs):
    defaults = dict(efficiency={1: 1.0})
    defaults.update(kwargs)
    return CostParams(**defaults)


def test_world_one_is_free():
    assert collective_latency(1, 1e9, "cross", flat_params()) == 0.0


def test_world_two_closed_form():
    params = flat_params(alpha_out=1e-5, beta_out=1e9)
    got = collective_latency(2, 1000.0, "cross", params)
    assert got == pytest.approx(1e-5 + 500.0 / 1e9)


def test_intra_uses_scaleup_terms():
    with pytest.warns(UserWarning, match="scale-up"):
        params = flat_params(alpha_up=1e-6, beta_up=2e9)
    got = collective_latency(4, 800.0, "intra", params)
    assert got == pytest.approx(1e-6 + 600.0 / 2e9)


def test_decreasing_efficiency_penalizes_large_worlds():
    table = {2 ** k: 0.9 ** k for k in range(8)}
    params = flat_params(efficiency=table)
    small = collective_latency(8, 1e6, "cross", params)
    large = collective_latency(64, 1e6, "cross", params)
    assert large > small


def test_efficiency_nearest_smaller_entry():
    table = {1: 1.0, 8: 1.0, 16: 0.8}
    assert efficiency_at(table, 12) == 1.0
    assert efficiency_at(table, 16) == 0.8
    assert efficiency_at(table, 100) == 0.8
    assert efficiency_at({4: 0.5}, 2) == 0.5  # below smallest entry


def test_default_efficiency_shape():
    table = default_efficiency()
    assert table[8] == 1.0
    assert table[16] == pytest.approx(0.8)
    assert table[32] == pytest.approx(0.64)
    worlds = sorted(table)
    factors = [table[w] for w in worlds]
    assert factors == sorted(factors, reverse=True)


def test_params_validation():
    with pytest.raises(DomainError):
        CostParams(alpha_up=0.0)
    with pytest.raises(DomainError):
        CostParams(efficiency={2: 0.5, 4: 0.9})
    with pytest.raises(DomainError):
        CostParams(efficiency={2: 1.5})


def test_slow_scaleup_warns():
    with pytest.warns(UserWarning):
        CostParams(beta_up=1.0, beta_out=2.0)


def test_latency_monotone_in_world_and_bytes_random_tables(rng):
    # Property: any non-increasing efficiency table keeps latency
    # non-decreasing in world size and in bytes.
    for _ in range(25):
        worlds = sorted(set(int(w) for w in rng.integers(1, 256, size=6)))
        factors = np.minimum(1.0, np.sort(rng.uniform(0.05, 1.0, size=len(worlds)))[::-1])
        params = flat_params(efficiency=dict(zip(worlds, factors)))
        sizes = sorted(set(int(w) for w in rng.integers(1, 512, size=8)))
        lat = [collective_latency(w, 1e6, "cross", params) for w in sizes]
        assert all(b >= a - 1e-18 for a, b in zip(lat, lat[1:]))
        world = int(rng.integers(2, 64))
        lo = collective_latency(world, 1e5, "cross", params)
        hi = collective_latency(world, 2e5, "cross", params)
        assert hi >= lo


def test_empty_trace_zero_breakdown():
    topo = ClusterTopology(num_hosts=2, ranks_per_host=2)
    breakdown = pipeline_cost(CommTrace(topo), CostParams())
    assert breakdown.total == 0.0
    assert breakdown.per_step == {}


def test_breakdown_totals_are_sums():
    topo, layout, tables, batch, placement, plan = build_run(
        num_hosts=2, ranks_per_host=2, dims=(4,), num_tables=4
    )
    params = CostParams()
    result = tower_exchange(batch, placement, plan, topo, ExchangeOptions())
    breakdown = pipeline_cost(result.trace, params, flops=result.flops)
    comm = sum(breakdown.per_step[s] for s in ("a", "d", "f"))
    compute = sum(breakdown.per_step.get(s, 0.0) for s in ("b", "e"))
    assert breakdown.exposed_comm == pytest.approx(comm)
    assert breakdown.compute == pytest.approx(compute)
    assert breakdown.total == pytest.approx(comm + compute)


def test_baseline_step_c_equals_direct_latency():
    topo, layout, tables, batch, placement, plan = build_run(
        num_hosts=2, ranks_per_host=2, dims=(4,), num_tables=4, local_batch=2
    )
    params = CostParams()
    result = baseline_exchange(batch, placement, topo)
    breakdown = pipeline_cost(result.trace, params)
    per_rank = max(sent_by_rank(result.trace, "c").values())
    expected = collective_latency(topo.world_size, per_rank, "cross", params)
    assert breakdown.per_step["c"] == pytest.approx(expected)


def test_step_f_costed_as_concurrent_max():
    topo, layout, tables, batch, placement, plan = build_run(
        num_hosts=2, ranks_per_host=2, dims=(4,), num_tables=4, local_batch=2
    )
    params = CostParams()
    result = tower_exchange(batch, placement, plan, topo, ExchangeOptions())
    breakdown = pipeline_cost(result.trace, params)
    sent = sent_by_rank(result.trace, "f")
    per_group = []
    for cls in range(layout.group_width(topo)):
        members = [t * layout.group_width(topo) + cls for t in range(layout.num_towers)]
        per_rank = max(sent.get(r, 0) for r in members)
        per_group.append(
            collective_latency(layout.num_towers, per_rank, "cross", params)
        )
    assert breakdown.per_step["f"] == pytest.approx(max(per_group))


def test_tower_spanning_hosts_costs_step_d_cross_host():
    # One tower over both hosts: its step-d all-to-all runs on the
    # scale-out link at the tower's width.
    topo, layout, tables, batch, placement, plan = build_run(
        num_hosts=2, ranks_per_host=2, hosts_per_tower=2, dims=(4,), num_tables=4
    )
    params = CostParams()
    result = tower_exchange(batch, placement, plan, topo, ExchangeOptions())
    breakdown = pipeline_cost(result.trace, params)
    per_rank = max(sent_by_rank(result.trace, "d").values())
    width = layout.group_width(topo)
    expected = collective_latency(width, per_rank, "cross", params)
    assert breakdown.per_step["d"] == pytest.approx(expected)


def test_rowwise_reducescatter_step_d_is_one_collective_per_tower():
    # Even tables are row-wise x2 and go through a reduce-scatter at step d,
    # odd ones through the tower's all-to-all. Both run over the tower's
    # ranks, so each tower costs one collective over each rank's summed
    # step-d bytes.
    topo, layout, tables, batch, _, plan = build_run(
        num_hosts=2, ranks_per_host=2, dims=(4,), num_tables=4, hotness=(0, 3)
    )
    schemes = {
        tid: TablePlan(*(("row_wise", 2) if tid % 2 == 0 else ("table_wise", 1)), tower)
        for tid, tower in plan.feature_towers.items()
    }
    placement = shard_tables(tables, schemes, topo, layout)
    opts = ExchangeOptions(rowwise_reducescatter=True)
    result = tower_exchange(batch, placement, plan, topo, opts)
    width = layout.group_width(topo)
    step_d = [e for e in result.trace.entries if e.label == "d"]
    assert len(step_d) > layout.num_towers * width * width  # reduce-scatters ran
    sent = sent_by_rank(result.trace, "d")
    params = CostParams()
    expected = max(
        collective_latency(
            width, max(sent[r] for r in layout.tower_ranks(t, topo)),
            "intra", params,
        )
        for t in range(layout.num_towers)
    )
    assert pipeline_cost(result.trace, params).per_step["d"] == pytest.approx(expected)


def test_compression_shrinks_step_f_time():
    from towersim.towermod import TMConfig

    topo, layout, tables, batch, placement, plan = build_run(
        num_hosts=2, ranks_per_host=2, dims=(8,), num_tables=4, local_batch=2
    )
    params = CostParams()
    plain = tower_exchange(batch, placement, plan, topo, ExchangeOptions())
    tm = TMConfig(kind="dlrm", out_dim=2, per_feature_outputs=1, flat_outputs=0)
    squeezed = tower_exchange(
        batch, placement, plan, topo, ExchangeOptions(tower_modules=tm)
    )
    cost_plain = pipeline_cost(plain.trace, params)
    cost_squeezed = pipeline_cost(squeezed.trace, params)
    assert cost_squeezed.per_step["f"] < cost_plain.per_step["f"]


def test_tower_beats_baseline_step_with_decaying_efficiency():
    # With strictly decreasing efficiency and negligible alphas, the
    # class-collective step runs at world T < G and must beat the global
    # step c whenever several ranks share a host.
    table = {2 ** k: 0.85 ** k for k in range(10)}
    params = CostParams(alpha_up=1e-15, alpha_out=1e-15, efficiency=table)
    topo, layout, tables, batch, placement, plan = build_run(
        num_hosts=4, ranks_per_host=4, dims=(4,), num_tables=8, local_batch=2
    )
    base = baseline_exchange(batch, placement, topo)
    tower = tower_exchange(batch, placement, plan, topo, ExchangeOptions())
    cost_base = pipeline_cost(base.trace, params)
    cost_tower = pipeline_cost(tower.trace, params)
    assert cost_tower.per_step["f"] < cost_base.per_step["c"]


def test_unknown_label_rejected():
    topo = ClusterTopology(num_hosts=1, ranks_per_host=2)
    with pytest.raises(ReportError):
        pipeline_cost(CommTrace(topo), CostParams(), flops={"z": 1.0})


def test_speedup_report_values():
    a = CostBreakdown({"c": 2.0}, 2.0, 0.0)
    assert speedup_report(a, a)["speedup"] == 1.0
    b = CostBreakdown({"f": 1.0}, 1.0, 0.0)
    assert speedup_report(a, b)["speedup"] == 2.0
    with pytest.raises(DomainError):
        speedup_report(CostBreakdown({}, 0.0, 0.0), b)


def test_host_sweep_speedup_non_decreasing():
    # Fixed per-host shape, growing host count; mirrors the scalability trend.
    import copy

    from towersim.cli import cost_one, load_config

    base = load_config(overrides={
        "topology": {"num_hosts": 2, "ranks_per_host": 4},
        "tables": {"count": 8, "rows": 32, "dim": 64, "sharding": "table_wise"},
        "batch": {"local_size": 512},
    })
    speedups = []
    for hosts in (2, 4, 8):
        cfg = copy.deepcopy(base)
        cfg["topology"]["num_hosts"] = hosts
        speedups.append(cost_one(cfg)["speedup"])
    assert speedups == sorted(speedups)
