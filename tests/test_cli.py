import csv
from pathlib import Path

import numpy as np
import pytest
import yaml

from towersim import cli, errors, exchange
from towersim.cli import (
    EXIT_CODES,
    EXIT_CONFIG,
    EXIT_ERROR,
    EXIT_IO,
    EXIT_MISMATCH,
    EXIT_OK,
    load_config,
    main,
    parse_sweep,
    read_assignment,
    read_embeddings,
)
from towersim.embedding import SparseBatch
from towersim.errors import ConfigError, IngestionError


def write_config(tmp_path, overrides=None, name="run.yaml"):
    cfg = {
        "topology": {"num_hosts": 2, "ranks_per_host": 2},
        "tables": {"count": 4, "rows": 8, "dim": 4},
        "batch": {"local_size": 2},
    }
    if overrides:
        for key, block in overrides.items():
            if isinstance(block, dict):
                cfg.setdefault(key, {}).update(block)
            else:
                cfg[key] = block
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return path


def test_verify_exact_match(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    code = main(["--config", str(cfg), "--out", str(out), "verify"])
    assert code == EXIT_OK
    report = (out / "report.txt").read_text()
    assert report.startswith("result: exact match")
    assert "step f" in report and "step c" in report
    assert (out / "trace.log").exists()
    assert (out / "baseline_trace.log").exists()
    assert "exact match" in capsys.readouterr().out


@pytest.mark.parametrize("kind", ["dlrm", "dcn"])
def test_verify_rejects_tower_modules(tmp_path, capsys, kind):
    cfg = write_config(tmp_path, {"tm": {"kind": kind}})
    out = tmp_path / "out"
    code = main(["--config", str(cfg), "--out", str(out), "verify"])
    assert code == EXIT_CONFIG
    assert "tm.kind" in capsys.readouterr().err
    assert not (out / "report.txt").exists()


def test_verify_rerun_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    main(["--config", str(cfg), "--out", str(out), "verify"])
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    main(["--config", str(cfg), "--out", str(out), "verify"])
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert first == second


def test_verify_random_sweep(tmp_path, capsys):
    code = main(["--seed", "3", "verify", "--random-sweep", "10"])
    assert code == EXIT_OK
    assert "10/10 exact" in capsys.readouterr().out


GOLDEN_TRACE = """\
a	0	0	12	self
a	0	1	8	intra_host
a	0	2	0	cross_host
a	0	3	12	cross_host
a	1	0	4	intra_host
a	1	1	12	self
a	1	2	8	cross_host
a	1	3	12	cross_host
a	2	0	0	cross_host
a	2	1	8	cross_host
a	2	2	4	self
a	2	3	12	intra_host
a	3	0	4	cross_host
a	3	1	12	cross_host
a	3	2	8	intra_host
a	3	3	8	self
d	0	0	0	self
d	0	1	0	intra_host
d	1	0	0	intra_host
d	1	1	0	self
d	0	0	16	self
d	0	1	16	intra_host
d	1	0	16	intra_host
d	1	1	16	self
d	2	2	0	self
d	2	3	0	intra_host
d	3	2	0	intra_host
d	3	3	0	self
d	2	2	16	self
d	2	3	16	intra_host
d	3	2	16	intra_host
d	3	3	16	self
f	0	0	16	self
f	0	2	16	cross_host
f	2	0	16	cross_host
f	2	2	16	self
f	1	1	16	self
f	1	3	16	cross_host
f	3	1	16	cross_host
f	3	3	16	self
"""


def test_verify_trace_log_golden(tmp_path):
    # Every line of one tower trace. Multi-hot [0, 3] bags make some step-a
    # messages empty, and they are logged at 0 bytes; the step-d
    # all-to-alls carry no payload because every table goes through a
    # reduce-scatter. Each table has one row shard, so one member of each
    # 2-rank tower contributes nothing to a reduce-scatter and logs no line.
    cfg = write_config(tmp_path, {
        "tables": {"rows": 8, "dim": 2, "hotness": [0, 3],
                   "sharding": "row_wise", "shards_per_table": 1},
        "batch": {"local_size": 1},
        "exchange": {"rowwise_reducescatter": True},
    })
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "verify"]) == EXIT_OK
    assert (out / "trace.log").read_text() == GOLDEN_TRACE


def test_verify_with_assignment_file(tmp_path):
    cfg = write_config(tmp_path)
    assignment = tmp_path / "assignment.txt"
    assignment.write_text("0\t0\n1\t0\n2\t1\n3\t1\n")
    out = tmp_path / "out"
    code = main([
        "--config", str(cfg), "--out", str(out),
        "verify", "--assignment", str(assignment),
    ])
    assert code == EXIT_OK


def test_verify_mismapped_assignment_fails(tmp_path, capsys):
    cfg = write_config(tmp_path)
    bad = tmp_path / "assignment.txt"
    bad.write_text("0\t0\n1\t0\n2\t1\n3\t7\n")  # tower 7 does not exist
    code = main(["--config", str(cfg), "verify", "--assignment", str(bad)])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: assignment: feature 3 mapped to unknown tower 7\n"


def test_verify_explicit_layout_assignment(tmp_path, capsys):
    cfg = write_config(tmp_path, {"layout": {"assignment": "explicit", "explicit": [1, 0, 0, 1]}})
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "verify"]) == EXIT_OK
    assert capsys.readouterr().out == "result: exact match\n"
    assert (out / "layout.txt").read_text().splitlines()[1:] == [
        f"feature\t{feat}\t4" for feat in (1, 2, 0, 3)
    ]


@pytest.mark.parametrize(
    "explicit, error",
    [
        ([0, 1, 0], "need a list of 4 tower ids"),
        ([0, 1, 0, 5], "feature 3 mapped to unknown tower 5"),
    ],
)
def test_explicit_layout_assignment_errors(tmp_path, capsys, explicit, error):
    cfg = write_config(tmp_path, {"layout": {"assignment": "explicit", "explicit": explicit}})
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "verify"]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: layout.explicit: {error}\n"
    assert not out.exists()


def test_readme_configuration_lists_the_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration", 1)[1]
    block = section.split("```yaml\n", 1)[1].split("```", 1)[0]
    assert yaml.safe_load(block) == load_config()


def test_config_validation_paths(tmp_path, capsys):
    cfg = write_config(tmp_path, {"layout": {"hosts_per_tower": 3}})
    code = main(["--config", str(cfg), "verify"])
    assert code == EXIT_CONFIG
    assert "hosts_per_tower" in capsys.readouterr().err


def test_unknown_config_key_rejected(tmp_path):
    path = tmp_path / "bad.yaml"
    for text in (
        "topolgy:\n  num_hosts: 2\n",
        "partitioner:\n  lr: 0.01\n",
        "topology:\n  scaleup_bw: 1.0e6\n",
    ):
        path.write_text(text)
        code = main(["--config", str(path), "verify"])
        assert code == EXIT_CONFIG


def blobs_csv(tmp_path, rng, sizes=(4, 4), dim=8, noise=0.1, header=False):
    rows = []
    for b, size in enumerate(sizes):
        anchor = np.zeros(dim)
        anchor[b] = 1.0
        for _ in range(size):
            v = anchor + noise * rng.normal(size=dim)
            rows.append(v / np.linalg.norm(v))
    path = tmp_path / "features.csv"
    with open(path, "w") as fh:
        if header:
            fh.write(",".join(f"d{i}" for i in range(dim)) + "\n")
        for row in rows:
            fh.write(",".join(f"{x:.9f}" for x in row) + "\n")
    return path


def test_partition_recovers_blocks(tmp_path, rng, capsys):
    features = blobs_csv(tmp_path, rng, header=True)
    cfg = write_config(tmp_path, {
        "partitioner": {"num_towers": 2, "steps": 1500, "strategy": "coherent"},
    })
    out = tmp_path / "part"
    code = main([
        "--config", str(cfg), "--out", str(out),
        "partition", "--embeddings", str(features),
    ])
    assert code == EXIT_OK
    mapping = read_assignment(out / "assignment.txt")
    groups = {}
    for feat, tower in mapping.items():
        groups.setdefault(tower, set()).add(feat)
    assert {frozenset(g) for g in groups.values()} == {
        frozenset(range(4)), frozenset(range(4, 8))
    }
    for name in ("affinity.csv", "coords.csv", "score.txt"):
        assert (out / name).exists()


def test_partition_deterministic_outputs(tmp_path, rng):
    features = blobs_csv(tmp_path, rng)
    cfg = write_config(tmp_path, {"partitioner": {"num_towers": 2, "steps": 300}})
    out = tmp_path / "part"
    main(["--config", str(cfg), "--out", str(out), "partition", "--embeddings", str(features)])
    first = (out / "assignment.txt").read_bytes()
    main(["--config", str(cfg), "--out", str(out), "partition", "--embeddings", str(features)])
    assert (out / "assignment.txt").read_bytes() == first


def test_partition_rejects_nonpositive_steps(tmp_path, rng, capsys):
    features = blobs_csv(tmp_path, rng)
    for key, value in (("steps", 0), ("steps", -5), ("embed_dims", 0)):
        cfg = write_config(tmp_path, {"partitioner": {"num_towers": 2, key: value}})
        code = main(["--config", str(cfg), "--out", str(tmp_path / "part"),
                     "partition", "--embeddings", str(features)])
        assert code == EXIT_CONFIG
        assert f"partitioner.{key}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, overrides, field",
    [
        ("partition", {"partitioner": {"num_towers": 2, "steps": "abc"}}, "partitioner.steps"),
        ("verify", {"topology": {"num_hosts": "two"}}, "topology.num_hosts"),
        ("cost", {"cost": {"alpha_up": "fast"}}, "cost.alpha_up"),
        ("verify", {"tables": {"hotness": [0, "x"]}}, "tables.hotness"),
    ],
)
def test_non_numeric_config_value_names_field(tmp_path, rng, capsys, command, overrides, field):
    cfg = write_config(tmp_path, overrides)
    argv = ["--config", str(cfg), "--out", str(tmp_path / "out"), command]
    if command == "partition":
        argv += ["--embeddings", str(blobs_csv(tmp_path, rng))]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and field in err


def test_negative_random_sweep_seed_is_config_error(tmp_path, capsys):
    argv = ["--seed", "-1", "--out", str(tmp_path / "out"), "verify", "--random-sweep", "3"]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: seed: must be >= 0\n"


def test_partition_nan_embedding_is_ingestion_error(tmp_path, rng, capsys):
    features = blobs_csv(tmp_path, rng)
    with open(features, "a") as fh:
        fh.write(",".join(["nan"] * 8) + "\n")
    lineno = len(features.read_text().splitlines())
    cfg = write_config(tmp_path, {"partitioner": {"num_towers": 2, "steps": 300}})
    code = main(["--config", str(cfg), "--out", str(tmp_path / "part"),
                 "partition", "--embeddings", str(features)])
    assert code == EXIT_IO
    assert f"{features}:{lineno}: non-finite" in capsys.readouterr().err


def test_partition_singleton_towers(tmp_path, rng):
    features = blobs_csv(tmp_path, rng, sizes=(1, 1, 1, 1), noise=0.05)
    cfg = write_config(tmp_path, {"partitioner": {"num_towers": 4, "steps": 300}})
    out = tmp_path / "part"
    code = main(["--config", str(cfg), "--out", str(out), "partition", "--embeddings", str(features)])
    assert code == EXIT_OK
    mapping = read_assignment(out / "assignment.txt")
    assert sorted(mapping.values()) == [0, 1, 2, 3]


def test_partition_26_features_into_8_towers(tmp_path, rng):
    # Balance arithmetic forces sizes {4,4,3,3,3,3,3,3} in some order.
    features = blobs_csv(tmp_path, rng, sizes=(4, 3, 4, 3, 3, 3, 3, 3), dim=16)
    cfg = write_config(tmp_path, {
        "partitioner": {"num_towers": 8, "steps": 800, "balance": 1.0},
    })
    out = tmp_path / "part"
    code = main(["--config", str(cfg), "--out", str(out), "partition", "--embeddings", str(features)])
    assert code == EXIT_OK
    mapping = read_assignment(out / "assignment.txt")
    sizes = sorted(
        sum(1 for t in mapping.values() if t == tower) for tower in range(8)
    )
    assert sizes == [3, 3, 3, 3, 3, 3, 4, 4]


def test_partition_feeds_verify(tmp_path, rng):
    features = blobs_csv(tmp_path, rng, sizes=(2, 2), dim=8, noise=0.05)
    cfg = write_config(tmp_path, {
        "tables": {"count": 4, "rows": 8, "dim": 4},
        "partitioner": {"num_towers": 2, "steps": 500},
    })
    part_out = tmp_path / "part"
    assert main([
        "--config", str(cfg), "--out", str(part_out),
        "partition", "--embeddings", str(features),
    ]) == EXIT_OK
    code = main([
        "--config", str(cfg), "--out", str(tmp_path / "verify"),
        "verify", "--assignment", str(part_out / "assignment.txt"),
    ])
    assert code == EXIT_OK


def test_partition_raw_f32_input(tmp_path, rng):
    mat = rng.normal(size=(6, 3)).astype("<f4")
    raw = tmp_path / "features.f32"
    mat.tofile(raw)
    (tmp_path / "features.f32.meta").write_text("6 3")
    loaded = read_embeddings(str(raw))
    assert loaded.shape == (6, 3)
    assert np.allclose(loaded, mat.astype(np.float64))


def test_ingestion_errors(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,2.0\nouch,3.0\n")
    with pytest.raises(IngestionError, match="bad.csv:2"):
        read_embeddings(str(bad))
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("a,b\n1.0,2.0\n\n3.0\n")  # the short row is data row 2, line 4
    with pytest.raises(IngestionError, match="ragged.csv:4: 1 columns, expected 2"):
        read_embeddings(str(ragged))
    raw = tmp_path / "x.f32"
    np.zeros(5, dtype="<f4").tofile(raw)
    (tmp_path / "x.f32.meta").write_text("2 3")
    with pytest.raises(IngestionError, match="expected 6"):
        read_embeddings(str(raw))
    np.array([0, 1, 2, 3, np.inf, 5], dtype="<f4").tofile(raw)
    with pytest.raises(IngestionError, match="row 2 has a non-finite value"):
        read_embeddings(str(raw))
    cfg = write_config(tmp_path)
    code = main(["--config", str(cfg), "partition", "--embeddings", str(bad)])
    assert code == EXIT_IO
    assignment = tmp_path / "assignment.txt"
    assignment.write_text("0\t0\n1\tx\n")
    with pytest.raises(IngestionError, match="assignment.txt:2"):
        read_assignment(assignment)
    code = main(["--config", str(cfg), "verify", "--assignment", str(assignment)])
    assert code == EXIT_IO


def test_cost_single_row_speedup_one_when_identical(tmp_path):
    # A single-rank world degenerates both pipelines to local work.
    cfg = write_config(tmp_path, {
        "topology": {"num_hosts": 1, "ranks_per_host": 1},
        "tables": {"count": 2, "rows": 8, "dim": 4},
    })
    out = tmp_path / "cost"
    code = main(["--config", str(cfg), "--out", str(out), "cost"])
    assert code == EXIT_OK
    with open(out / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert float(rows[0]["speedup"]) == pytest.approx(1.0)


def test_cost_host_sweep_monotone_csv(tmp_path):
    cfg = write_config(tmp_path, {
        "topology": {"num_hosts": 2, "ranks_per_host": 4},
        "tables": {"count": 8, "rows": 32, "dim": 64},
        "batch": {"local_size": 256},
    })
    out = tmp_path / "cost"
    code = main([
        "--config", str(cfg), "--out", str(out),
        "cost", "--sweep", "topology.num_hosts=2,4,8",
    ])
    assert code == EXIT_OK
    with open(out / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    rows.sort(key=lambda r: int(r["num_hosts"]))
    speedups = [float(r["speedup"]) for r in rows]
    assert speedups == sorted(speedups)


def test_cost_compression_sweep_stepf_decreasing(tmp_path):
    cfg = write_config(tmp_path, {
        "topology": {"num_hosts": 2, "ranks_per_host": 2},
        "tables": {"count": 4, "rows": 16, "dim": 128},
        "batch": {"local_size": 16},
        "tm": {"kind": "dlrm", "per_feature_outputs": 1, "flat_outputs": 0},
    })
    out = tmp_path / "cost"
    code = main([
        "--config", str(cfg), "--out", str(out),
        "cost", "--sweep", "tm.out_dim=64,32,16,8",
    ])
    assert code == EXIT_OK
    with open(out / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    rows.sort(key=lambda r: float(r["compression_ratio"]))
    stepf = [float(r["stepf_s"]) for r in rows]
    assert all(b < a for a, b in zip(stepf, stepf[1:]))
    ratios = [float(r["compression_ratio"]) for r in rows]
    assert ratios == [2.0, 4.0, 8.0, 16.0]


def test_cost_rows_sorted_by_swept_values(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "cost"
    main([
        "--config", str(cfg), "--out", str(out),
        "cost", "--sweep", "batch.local_size=3,1,12",
    ])
    with open(out / "sweep.csv") as fh:
        configs = [row["config"] for row in csv.DictReader(fh)]
    assert configs == [f"batch.local_size={size}" for size in (1, 3, 12)]


def test_compare_exact_reports_first_difference(monkeypatch, tmp_path):
    import copy as _copy

    from towersim.cli import RunContext, compare_exact, load_config, run_verify

    ctx = RunContext(load_config())
    base = ctx.run_baseline()
    tower = ctx.run_tower()
    assert compare_exact(base, tower) is None
    corrupted = _copy.deepcopy(tower)
    corrupted.outputs[1][0, 2] += 1.0
    rank, row, col, a, b = compare_exact(base, corrupted)
    assert (rank, row, col) == (1, 0, 2)
    assert b == a + 1.0
    # Drive the verify command onto its mismatch path.
    monkeypatch.setattr(RunContext, "run_tower", lambda self: corrupted)
    code = run_verify(load_config(), tmp_path / "bad")
    assert code == EXIT_MISMATCH
    report = (tmp_path / "bad" / "report.txt").read_text()
    assert "MISMATCH at rank=1 row=0 col=2" in report


def test_compare_exact_reports_baseline_columns_under_strided_towers():
    from towersim.cli import RunContext, compare_exact, load_config

    ctx = RunContext(load_config(overrides={"layout": {"assignment": "strided"}}))
    base = ctx.run_baseline()
    tower = ctx.run_tower()
    assert [ident for _, ident, _ in tower.layout.blocks] == [0, 2, 1, 3]
    assert compare_exact(base, tower) is None
    # Raw column 4 is feature 2's first column; baseline order puts it at 8.
    tower.outputs[1][0, 4] += 1.0
    rank, row, col, a, b = compare_exact(base, tower)
    assert (rank, row, col) == (1, 0, 8)
    assert b == a + 1.0


def test_parse_sweep_forms():
    assert parse_sweep("topology.num_hosts=2..4") == ("topology.num_hosts", [2, 3, 4])
    assert parse_sweep("tm.out_dim=64,32") == ("tm.out_dim", [64, 32])
    assert parse_sweep("cost.beta_out=1.5e9") == ("cost.beta_out", [1.5e9])
    with pytest.raises(ConfigError):
        parse_sweep("no_equals")
    with pytest.raises(ConfigError):
        parse_sweep("k=a,b")


def test_load_config_overrides():
    cfg = load_config(overrides={"seed": 9, "topology": {"num_hosts": 4}})
    assert cfg["seed"] == 9
    assert cfg["topology"]["num_hosts"] == 4
    with pytest.raises(ConfigError):
        load_config(overrides={"nope": 1})


GOLDEN_COST = {
    "dcn": (
        {
            "tables": {"count": 8, "rows": 16, "dim": 4, "hotness": [0, 3],
                       "sharding": "row_wise", "shards_per_table": 2},
            "exchange": {"rowwise_reducescatter": True},
            "tm": {"kind": "dcn", "out_dim": 2, "cross_layers": 2},
        },
        "topology.num_hosts=2,4",
        """\
config,num_hosts,ranks_per_host,num_towers,compression_ratio,baseline_s,tower_s,speedup,stepf_s
topology.num_hosts=2,2,2,2,2.0,2.0010680109201212e-05,2.2004854563307495e-05,0.9093757039670911,1.000128e-05
topology.num_hosts=4,4,2,4,2.0,2.0013300113245703e-05,2.200683197887878e-05,0.9094130464781853,1.0001920000000001e-05
""",
        """\
config=topology.num_hosts=2 pipeline=baseline a=1.0003e-05 b=1.09201213e-13 c=1.000768e-05 comm=2.001068e-05 compute=1.09201213e-13 total=2.00106801e-05
config=topology.num_hosts=2 pipeline=tower a=1.0003e-05 b=1.09201213e-13 d=2.00056889e-06 e=5.56521739e-12 f=1.000128e-05 comm=2.20048489e-05 compute=5.6744186e-12 total=2.20048546e-05
config=topology.num_hosts=4 pipeline=baseline a=1.000434e-05 b=1.13245703e-13 c=1.000896e-05 comm=2.00133e-05 compute=1.13245703e-13 total=2.00133001e-05
config=topology.num_hosts=4 pipeline=tower a=1.000434e-05 b=1.13245703e-13 d=2.00056889e-06 e=2.97674419e-12 f=1.000192e-05 comm=2.20068289e-05 compute=3.08998989e-12 total=2.2006832e-05
""",
    ),
    "dlrm": (
        {
            "layout": {"assignment": "strided"},
            "tables": {"count": 6, "rows": 8, "dim": 4,
                       "sharding": "column_wise", "shards_per_table": 2},
            "tm": {"kind": "dlrm", "out_dim": 2, "per_feature_outputs": 1,
                   "flat_outputs": 1},
        },
        "batch.local_size=1,3",
        """\
config,num_hosts,ranks_per_host,num_towers,compression_ratio,baseline_s,tower_s,speedup,stepf_s
batch.local_size=1,2,2,2,1.5,2.0002160024266935e-05,2.2001466885069097e-05,0.9091284744219053,1.0000640000000002e-05
batch.local_size=3,2,2,2,1.5,2.0006480072800812e-05,2.2004400655207282e-05,0.9092035900585337,1.0001920000000001e-05
""",
        """\
config=batch.local_size=1 pipeline=baseline a=1.000072e-05 b=2.42669363e-14 c=1.000144e-05 comm=2.000216e-05 compute=2.42669363e-14 total=2.000216e-05
config=batch.local_size=1 pipeline=tower a=1.000072e-05 b=2.42669363e-14 d=2.00010667e-06 e=1.9413549e-13 f=1.000064e-05 comm=2.20014667e-05 compute=2.18402427e-13 total=2.20014669e-05
config=batch.local_size=3 pipeline=baseline a=1.000216e-05 b=7.28008089e-14 c=1.000432e-05 comm=2.000648e-05 compute=7.28008089e-14 total=2.00064801e-05
config=batch.local_size=3 pipeline=tower a=1.000216e-05 b=7.28008089e-14 d=2.00032e-06 e=5.82406471e-13 f=1.000192e-05 comm=2.20044e-05 compute=6.5520728e-13 total=2.20044007e-05
""",
    ),
}


@pytest.mark.parametrize("kind", sorted(GOLDEN_COST))
def test_cost_outputs_golden(tmp_path, kind):
    # Every byte of sweep.csv and breakdown.txt for a small sweep per tower
    # module: dcn over multi-hot row-wise x2 tables under the reduce-scatter,
    # dlrm over column-wise x2 tables with strided towers.
    overrides, sweep, sweep_csv, breakdown = GOLDEN_COST[kind]
    cfg = write_config(tmp_path, overrides)
    out = tmp_path / "cost"
    assert main(["--config", str(cfg), "--out", str(out), "cost", "--sweep", sweep]) == EXIT_OK
    assert (out / "sweep.csv").read_text() == sweep_csv
    assert (out / "breakdown.txt").read_text() == breakdown


def test_exit_code_table_covers_every_error_class(tmp_path, monkeypatch, capsys):
    classes = [c for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, errors.TowersimError)]
    assert set(classes) == set(EXIT_CODES)
    for cls in classes:
        code, prefix = EXIT_CODES[cls]

        def fail(*args, cls=cls):
            raise cls("boom")

        monkeypatch.setattr(cli, "run_verify", fail)
        assert main(["--out", str(tmp_path), "verify"]) == code
        assert capsys.readouterr().err == f"{prefix}: boom\n"
    internal = ("InvariantError", "LayoutError", "ShapeError", "ProtocolError",
                "TableLookupError", "ReportError")
    constraint = ("ConfigError", "DomainError", "PlanError", "ConstraintError")
    for name in internal:
        assert EXIT_CODES[getattr(errors, name)][0] == EXIT_ERROR, name
    for name in constraint:
        assert EXIT_CODES[getattr(errors, name)][0] == EXIT_CONFIG, name


def test_plan_mismatch_is_an_internal_error(tmp_path, monkeypatch, capsys):
    # A functional run whose trace leaves its plan exits 1, naming the
    # pipeline, the collective and its label.
    plan = exchange.tower_plan

    def corrupted(*args):
        trace, flops = plan(*args)
        last = trace.collectives[-1]
        trace.collectives[-1] = last._replace(nbytes=last.nbytes + 4)
        return trace, flops

    monkeypatch.setattr(exchange, "tower_plan", corrupted)
    out = tmp_path / "out"
    assert main(["--config", str(write_config(tmp_path)), "--out", str(out), "verify"]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err == "error: tower pipeline: collective 4 (label 'f') differs from its plan\n"
    assert not (out / "report.txt").exists()


def test_batch_is_validated_once_per_run_context(tmp_path, monkeypatch):
    calls = []
    validate = SparseBatch.validate

    def counted(self, tables):
        calls.append(1)
        return validate(self, tables)

    monkeypatch.setattr(SparseBatch, "validate", counted)
    cfg = str(write_config(tmp_path))
    assert main(["--config", cfg, "--out", str(tmp_path / "v"), "verify"]) == EXIT_OK
    assert len(calls) == 1
    assert main(["--config", cfg, "--out", str(tmp_path / "c"), "cost",
                 "--sweep", "batch.local_size=1,2"]) == EXIT_OK
    assert len(calls) == 3
