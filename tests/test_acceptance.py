"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.
"""

import copy
import itertools
import time

import numpy as np
import pytest

from towersim.cli import cost_one, equivalence_check, load_config, random_config
from towersim.costmodel import CostParams, collective_latency
from towersim.partitioner import (
    affinity_from_embeddings,
    constrained_kmeans,
    distance_from_affinity,
    mds_embed,
    naive_assignment,
    size_window,
    stress,
    stress_gradient,
)
from towersim.topology import ClusterTopology, TowerLayout, class_order
from towersim.towermod import (
    TMConfig,
    balanced_group_sizes,
    compression_ratio,
    crossnet_layer,
    init_tm_weights,
    interaction_pairs,
    tm_forward,
    tm_output_width,
    tm_weight_jvp,
)

FLAG_COMBOS = list(itertools.product([False, True], repeat=3))


def announce(number: int, text: str) -> None:
    print(f"[PASS] criterion {number}: {text}")


@pytest.fixture(scope="module")
def equivalence_suite():
    """200 randomized configs covering every exchange flag combination."""
    rng = np.random.default_rng(2024)
    started = time.monotonic()
    runs = []
    for i in range(200):
        cfg = random_config(rng)
        swap, omit, rs = FLAG_COMBOS[i % len(FLAG_COMBOS)]
        cfg["exchange"] = {
            "swap_bc": swap, "omit_permute": omit, "rowwise_reducescatter": rs,
        }
        runs.append((cfg, equivalence_check(cfg)))
    elapsed = time.monotonic() - started
    return runs, elapsed


def test_criterion_1_semantic_preservation(equivalence_suite):
    runs, elapsed = equivalence_suite
    mismatches = [facts["mismatch"] for _, facts in runs if not facts["match"]]
    assert mismatches == []
    assert len(runs) == 200
    assert elapsed < 60.0, f"suite took {elapsed:.1f}s"
    worlds = {facts["world"] for _, facts in runs}
    assert min(worlds) >= 2 and max(worlds) <= 16
    combos = {
        (c["exchange"]["swap_bc"], c["exchange"]["omit_permute"],
         c["exchange"]["rowwise_reducescatter"])
        for c, _ in runs
    }
    assert len(combos) == 8
    hotness = {1 if c["tables"]["hotness"] == 1 else "multi" for c, _ in runs}
    assert len(hotness) == 2
    schemes = {c["tables"]["sharding"] for c, _ in runs}
    assert schemes == {"table_wise", "column_wise", "row_wise"}
    announce(1, f"200/200 randomized configs exact against the reference in {elapsed:.1f}s")


def test_criterion_2_peer_class_order():
    topo = ClusterTopology(num_hosts=2, ranks_per_host=2)
    order = class_order(topo, TowerLayout(2))
    assert order == (0, 2, 1, 3)
    announce(2, "peer order for 4 ranks over 2 hosts is (0, 2, 1, 3)")


def test_criterion_3_byte_accounting(equivalence_suite):
    runs, _ = equivalence_suite
    comparable = [facts for _, facts in runs if facts["bytes_comparable"]]
    assert len(comparable) >= 50, "too few single-host-tower configs to check"
    for facts in comparable:
        assert facts["step_c_cross"] == facts["step_f_cross"], facts
    # Single-host towers keep the intra-tower shuffle off the cross-host wire.
    for _, facts in runs:
        if facts["hosts_per_tower"] == 1:
            assert facts["step_d_cross"] == 0

    # With a tower module the final-step bytes shrink by exactly the
    # compression ratio (cross-multiplied to stay in integers).
    base = load_config(overrides={
        "topology": {"num_hosts": 2, "ranks_per_host": 2},
        "tables": {"count": 8, "rows": 16, "dim": 16},
        "batch": {"local_size": 4},
    })
    from towersim.cli import RunContext

    plain_ctx = RunContext(copy.deepcopy(base))
    plain = plain_ctx.run_tower()
    compressed_cfg = copy.deepcopy(base)
    compressed_cfg["tm"].update(
        kind="dlrm", out_dim=4, per_feature_outputs=1, flat_outputs=0
    )
    comp_ctx = RunContext(compressed_cfg)
    compressed = comp_ctx.run_tower()
    ratio = comp_ctx.compression()
    assert ratio == 4.0
    _, f_plain = plain.trace.byte_totals("f")
    _, f_comp = compressed.trace.byte_totals("f")
    assert f_comp * ratio == f_plain
    announce(
        3,
        f"step-f cross bytes equal baseline step-c bytes on {len(comparable)} "
        f"eligible configs; compressed bytes = pass-through/CR exactly",
    )


def test_criterion_4_compression_ratios():
    sizes = balanced_group_sizes(26, 8)
    ratios = []
    for out_dim in (64, 32, 16, 8):
        cfg = TMConfig(kind="dlrm", out_dim=out_dim, per_feature_outputs=1, flat_outputs=0)
        widths = [tm_output_width(cfg, s, 128) for s in sizes]
        ratios.append(compression_ratio(widths, sizes, 128))
    assert ratios == [2.0, 4.0, 8.0, 16.0]
    announce(4, "8 towers / 26 features / dim 128 give ratios exactly {2, 4, 8, 16}")


def test_criterion_5_naive_baseline():
    assert naive_assignment(26, 8).towers() == [
        [0, 8, 16, 24], [1, 9, 17, 25], [2, 10, 18], [3, 11, 19],
        [4, 12, 20], [5, 13, 21], [6, 14, 22], [7, 15, 23],
    ]
    announce(5, "strided assignment of 26 features over 8 towers is verbatim")


def _planted_blocks(rng, block_sizes, dim, noise):
    anchors = np.eye(dim)
    rows, labels = [], []
    for b, size in enumerate(block_sizes):
        for _ in range(size):
            v = anchors[b] + noise * rng.normal(size=dim)
            rows.append(v / np.linalg.norm(v))
            labels.append(b)
    return np.array(rows), np.array(labels)


def test_criterion_6_partitioner_recovery():
    rng = np.random.default_rng(11)
    for blocks in ([6, 6], [4, 4, 4, 4]):
        feats, labels = _planted_blocks(rng, blocks, dim=16, noise=0.02)
        affinity = affinity_from_embeddings(feats)
        within = [
            affinity[i, j]
            for i in range(len(labels)) for j in range(i + 1, len(labels))
            if labels[i] == labels[j]
        ]
        across = [
            affinity[i, j]
            for i in range(len(labels)) for j in range(i + 1, len(labels))
            if labels[i] != labels[j]
        ]
        assert min(within) >= 0.9 and max(across) <= 0.1
        dist = distance_from_affinity(affinity, "coherent")
        coords = mds_embed(dist, 2, steps=2000).coords
        assignment = constrained_kmeans(coords, len(blocks), balance=1.0, seed=1)
        towers = [set(g) for g in assignment.towers()]
        for b in range(len(blocks)):
            assert set(np.flatnonzero(labels == b)) in towers

    rng = np.random.default_rng(99)
    for _ in range(100):
        n = int(rng.integers(2, 65))
        towers = int(rng.integers(1, min(n, 16) + 1))
        balance = float(rng.choice([1.0, 2.0]))
        points = rng.normal(size=(n, 2))
        result = constrained_kmeans(points, towers, balance, seed=int(rng.integers(10_000)))
        lo, hi = size_window(n, towers, balance)
        sizes = result.sizes()
        assert sum(sizes) == n and min(sizes) >= lo and max(sizes) <= hi
    announce(6, "coherent pipeline recovers planted blocks; size window held on 100 instances")


def test_criterion_7_mds_fidelity():
    rng = np.random.default_rng(5)
    pts = rng.uniform(0.0, 1.0, (12, 2))
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((diff ** 2).sum(axis=2))
    result = mds_embed(dist, 2, steps=5000)
    assert result.final_stress <= 1e-3

    for trial in range(50):
        n = int(rng.integers(4, 10))
        coords = rng.uniform(-1.0, 1.0, (n, 2))
        target = rng.uniform(0.3, 2.0, (n, n))
        target = 0.5 * (target + target.T)
        np.fill_diagonal(target, 0.0)
        grad = stress_gradient(coords, target)
        eps = 1e-6
        i = int(rng.integers(n))
        j = int(rng.integers(2))
        shift = np.zeros_like(coords)
        shift[i, j] = eps
        numeric = (stress(coords + shift, target) - stress(coords - shift, target)) / (2 * eps)
        assert abs(grad[i, j] - numeric) / max(abs(numeric), 1e-8) < 1e-5
    announce(7, "planar stress reaches <= 1e-3 in 5000 steps; gradient matches FD on 50 instances")


def test_criterion_8_tower_module_numerics():
    rng = np.random.default_rng(17)
    for features, dim, out_dim, c, p in [
        (4, 128, 64, 1, 0), (3, 16, 8, 2, 1), (1, 4, 4, 0, 3), (5, 6, 2, 1, 2),
    ]:
        cfg = TMConfig(kind="dlrm", out_dim=out_dim, per_feature_outputs=c, flat_outputs=p)
        weights = init_tm_weights(cfg, features, dim)
        out = tm_forward(rng.normal(size=(2, features, dim)), cfg, weights)
        assert out.shape[1] == out_dim * (c * features + p)
    for features, dim, out_dim in [(4, 128, 64), (3, 128, 128), (2, 5, 7)]:
        cfg = TMConfig(kind="dcn", out_dim=out_dim, cross_layers=2)
        weights = init_tm_weights(cfg, features, dim)
        out = tm_forward(rng.normal(size=(2, features, dim)), cfg, weights)
        assert out.shape[1] == features * out_dim

    xl = rng.normal(size=(3, 6))
    assert np.array_equal(
        crossnet_layer(rng.normal(size=(3, 6)), xl, np.zeros((6, 6)), np.zeros(6)), xl
    )

    for kind in ("dlrm", "dcn"):
        for trial in range(10):
            cfg = (
                TMConfig(kind="dlrm", out_dim=3, per_feature_outputs=1, flat_outputs=1, seed=trial)
                if kind == "dlrm"
                else TMConfig(kind="dcn", out_dim=3, cross_layers=2, seed=trial)
            )
            weights = init_tm_weights(cfg, 3, 4, salt=trial)
            direction = init_tm_weights(cfg, 3, 4, salt=trial + 50)
            embs = rng.normal(size=(2, 3, 4))
            analytic = tm_weight_jvp(embs, cfg, weights, direction)

            def shifted(sign, eps=1e-6):
                if kind == "dlrm":
                    from towersim.towermod import DLRMWeights

                    moved = DLRMWeights(
                        weights.w_flat + sign * eps * direction.w_flat,
                        weights.b_flat + sign * eps * direction.b_flat,
                        weights.w_feat + sign * eps * direction.w_feat,
                        weights.b_feat + sign * eps * direction.b_feat,
                    )
                else:
                    from towersim.towermod import DCNWeights

                    moved = DCNWeights(
                        tuple(
                            (w + sign * eps * dw, b + sign * eps * db)
                            for (w, b), (dw, db) in zip(weights.cross, direction.cross)
                        ),
                        weights.w_proj + sign * eps * direction.w_proj,
                        weights.b_proj + sign * eps * direction.b_proj,
                    )
                return tm_forward(embs, cfg, moved)

            numeric = (shifted(+1) - shifted(-1)) / 2e-6
            denom = np.maximum(np.abs(numeric), 1e-8)
            assert np.max(np.abs(analytic - numeric) / denom) < 1e-5
    announce(8, "widths match closed forms; zero-weight identity exact; JVP within 1e-5 of FD")


def test_criterion_9_cost_model_trends():
    base = load_config(overrides={
        "topology": {"num_hosts": 2, "ranks_per_host": 4},
        "tables": {"count": 8, "rows": 32, "dim": 64},
        "batch": {"local_size": 512},
    })
    speedups = []
    for hosts in (2, 4, 8):
        cfg = copy.deepcopy(base)
        cfg["topology"]["num_hosts"] = hosts
        speedups.append(cost_one(cfg)["speedup"])
    assert speedups == sorted(speedups), speedups

    cr_base = load_config(overrides={
        "topology": {"num_hosts": 2, "ranks_per_host": 2},
        "tables": {"count": 4, "rows": 16, "dim": 128},
        "batch": {"local_size": 16},
        "tm": {"kind": "dlrm", "per_feature_outputs": 1, "flat_outputs": 0},
    })
    stepf = []
    for out_dim in (128, 64, 32, 16, 8):  # ratios 1, 2, 4, 8, 16
        cfg = copy.deepcopy(cr_base)
        if out_dim == 128:
            cfg["tm"]["kind"] = "passthrough"
        else:
            cfg["tm"]["out_dim"] = out_dim
        stepf.append(cost_one(cfg)["stepf_s"])
    assert all(b < a for a, b in zip(stepf, stepf[1:])), stepf

    rng = np.random.default_rng(23)
    for _ in range(30):
        worlds = sorted(set(int(w) for w in rng.integers(1, 512, size=6)))
        factors = np.minimum(1.0, np.sort(rng.uniform(0.05, 1.0, size=len(worlds)))[::-1])
        params = CostParams(efficiency=dict(zip(worlds, factors)))
        sizes = sorted(set(int(w) for w in rng.integers(1, 600, size=10)))
        latencies = [
            collective_latency(w, 1e6, "cross", params) for w in sizes
        ]
        assert all(b >= a - 1e-18 for a, b in zip(latencies, latencies[1:]))
    announce(9, "host sweep speedup non-decreasing; step-f time strictly falls with CR; "
                "latency monotone for random efficiency tables")


def test_criterion_10_pair_count_accounting():
    for features in range(2, 13):
        divisors = [t for t in range(1, features + 1) if features % t == 0]
        for towers in divisors:
            for reduced in range(1, features + 1):
                flat, hier = interaction_pairs(features, towers, reduced / features)
                ids = list(range(features))
                size = features // towers
                groups = [ids[k * size:(k + 1) * size] for k in range(towers)]
                within = sum(len(list(itertools.combinations(g, 2))) for g in groups)
                global_pairs = len(list(itertools.combinations(range(reduced), 2)))
                assert flat == len(list(itertools.combinations(ids, 2)))
                assert hier == within + global_pairs
                if towers >= 2 and reduced / features <= 0.5:
                    assert hier < flat
    announce(10, "hierarchical pair counts equal brute force for all F <= 12; "
                 "strictly below flat for T >= 2, r <= 0.5")
