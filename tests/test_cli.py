import csv
import dataclasses
import tracemalloc
import typing
from pathlib import Path

import numpy as np
import pytest
import yaml

from towersim import cli, errors, exchange
from towersim.cli import (
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
from towersim.costmodel import CostParams
from towersim.embedding import SparseBatch
from towersim.errors import ConfigError, IngestionError
from towersim.towermod import TMConfig


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


def test_verify_float_rowwise_reducescatter_matches(tmp_path, capsys):
    # Table 1's three row shards sit on ranks 3, 0 and 1: the tower run sums
    # them in a reduce-scatter in rank order, and the baseline must sum its
    # pieces in that order too, or float tables differ in the last bit.
    cfg = write_config(tmp_path, {
        "topology": {"num_hosts": 1, "ranks_per_host": 4},
        "tables": {"count": 2, "rows": 64, "dim": 4, "hotness": [0, 5],
                   "sharding": "row_wise", "shards_per_table": 3,
                   "integer_values": False},
        "batch": {"local_size": 8},
        "exchange": {"rowwise_reducescatter": True},
    })
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), "verify"]) == EXIT_OK
    assert capsys.readouterr().out == "result: exact match\n"


@pytest.mark.parametrize("kind", ["dlrm", "dcn"])
def test_verify_checks_tower_modules(tmp_path, capsys, kind):
    # Float tables and multi-hot row-wise bags under the reduce-scatter: each
    # tower block must equal the tower module over the reference features.
    cfg = write_config(tmp_path, {
        "tables": {"hotness": [0, 4], "sharding": "row_wise", "shards_per_table": 2,
                   "integer_values": False},
        "exchange": {"rowwise_reducescatter": True},
        "tm": {"kind": kind, "out_dim": 3, "flat_outputs": 1},
    })
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "verify"]) == EXIT_OK
    assert capsys.readouterr() == ("result: exact match\n", "")
    blocks = [line.split("\t")[:2] for line in (out / "layout.txt").read_text().splitlines()[1:]]
    assert blocks == [["tower", "0"], ["tower", "1"]]


def verify_exit(tmp_path, overrides):
    cfg = write_config(tmp_path, overrides)
    return main(["--config", str(cfg), "--out", str(tmp_path / "out"), "verify"])


def test_verify_catches_a_lookup_that_reverses_pooling(tmp_path, capsys, monkeypatch):
    # Both pipelines look up through exchange.lookup; the reference does not.
    lookup = exchange.lookup

    def reversed_pooling(values, bags, pooling):
        pooled = lookup(values, bags, pooling)
        return pooled[::-1].copy() if pooling == "sum" else pooled

    monkeypatch.setattr(exchange, "lookup", reversed_pooling)
    assert verify_exit(tmp_path, {"tables": {"hotness": [0, 3]}}) == EXIT_MISMATCH
    assert capsys.readouterr().out.startswith("result: MISMATCH at rank=0 ")


@pytest.mark.parametrize("kind", ["dlrm", "dcn"])
def test_verify_catches_a_tower_module_salt_off_by_one(tmp_path, monkeypatch, kind):
    init = exchange.init_tm_weights
    monkeypatch.setattr(exchange, "init_tm_weights",
                        lambda cfg, n, dim, salt: init(cfg, n, dim, salt=salt + 1))
    assert verify_exit(tmp_path, {"tm": {"kind": kind, "out_dim": 2}}) == EXIT_MISMATCH


def step_f_delivering(monkeypatch, deliver):
    """Wrap step f's all-to-alls: ``deliver(rank, tower, block)`` gives what
    ``rank`` receives in ``tower``'s place. Each received dict maps a
    sender to its block; the class's sender at position t is tower t's."""
    all_to_all = exchange.all_to_all

    def wrapped(group, sends, label, trace):
        received = all_to_all(group, sends, label, trace)
        if label == "f":
            for rank, payloads in received.items():
                for sender, block in payloads.items():
                    payloads[sender] = deliver(rank, group.index(sender), block)
        return received

    monkeypatch.setattr(exchange, "all_to_all", wrapped)


@pytest.mark.parametrize("first, col", [("zeros", 0), ("repeat", 4)])
def test_verify_catches_step_f_blocks_delivered_one_tower_late(
        tmp_path, capsys, monkeypatch, first, col):
    # Two towers of two features each: equal block widths, so only the
    # values tell the blocks apart. Each rank receives tower 0's block in
    # tower 1's place, and in tower 0's place either zeros or tower 0's
    # block again, where the mismatch is at tower 1's first column.
    last = {}

    def one_late(rank, tower, block):
        late = last.get(rank, np.zeros_like(block) if first == "zeros" else block)
        last[rank] = block
        return late

    step_f_delivering(monkeypatch, one_late)
    assert verify_exit(tmp_path, {"tm": {"kind": "dcn", "out_dim": 2}}) == EXIT_MISMATCH
    assert capsys.readouterr().out.startswith(f"result: MISMATCH at rank=0 row=0 col={col} ")


@pytest.mark.parametrize("corrupt, named", [
    ({(0, 1): (0, 0), (1, 0): (0, 0)}, "rank=0 row=0 col=8"),
    ({(1, 1): (0, 0), (1, 0): (1, 3)}, "rank=1 row=1 col=3"),
], ids=["two-ranks", "one-rank"])
def test_verify_names_the_first_mismatch_in_rank_then_column_order(
        tmp_path, capsys, monkeypatch, corrupt, named):
    # Two towers of two 4-wide features, batch 2. corrupt maps (rank,
    # tower) to the (row, column) of the step-f block that is off by one:
    # a lower rank wins over a lower tower, and on one rank the lower tower
    # wins over a lower row.
    def corrupted(rank, tower, block):
        if (rank, tower) not in corrupt:
            return block
        block = block.copy()
        block[corrupt[rank, tower]] += 1.0
        return block

    step_f_delivering(monkeypatch, corrupted)
    assert verify_exit(tmp_path, {}) == EXIT_MISMATCH
    assert capsys.readouterr().out.startswith(f"result: MISMATCH at {named} ")


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


@pytest.mark.parametrize("kind", ["passthrough", "dcn"])
def test_assignment_file_and_explicit_layout_write_the_same_outputs(tmp_path, capsys, kind):
    # The map only places the shards; the run reads each feature's tower
    # from where they sit, whichever way the map was given.
    towers = [1, 0, 0, 1]
    run = {"tables": {"hotness": [0, 3], "sharding": "row_wise", "shards_per_table": 2},
           "tm": {"kind": kind, "out_dim": 2}}
    cfg = write_config(tmp_path, run)
    explicit = write_config(
        tmp_path, {**run, "layout": {"assignment": "explicit", "explicit": towers}}, "explicit.yaml"
    )
    assignment = tmp_path / "assignment.txt"
    assignment.write_text("".join(f"{f}\t{t}\n" for f, t in enumerate(towers)))
    by_file, by_config = tmp_path / "by_file", tmp_path / "by_config"
    assert main(["--config", str(cfg), "--out", str(by_file),
                 "verify", "--assignment", str(assignment)]) == EXIT_OK
    assert main(["--config", str(explicit), "--out", str(by_config), "verify"]) == EXIT_OK
    assert capsys.readouterr().out == "result: exact match\n" * 2
    written = sorted(path.name for path in by_file.iterdir())
    assert written == sorted(path.name for path in by_config.iterdir())
    for name in written:
        assert (by_file / name).read_bytes() == (by_config / name).read_bytes(), name


@pytest.mark.parametrize(
    "explicit, error",
    [
        ([0, 1, 0], "need a list of 4 tower ids"),
        ([0, 1, 0, 5], "feature 3 mapped to unknown tower 5"),
        # Set beside the default contiguous assignment, which never reads it.
        ("junk", "is read only under layout.assignment 'explicit', not 'contiguous'"),
    ],
)
def test_explicit_layout_assignment_errors(tmp_path, capsys, explicit, error):
    layout = {"explicit": explicit}
    if isinstance(explicit, list):
        layout["assignment"] = "explicit"
    cfg = write_config(tmp_path, {"layout": layout})
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "verify"]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: layout.explicit: {error}\n"
    assert not out.exists()


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_configuration_lists_the_defaults():
    section = README.read_text(encoding="utf-8").split("## Configuration", 1)[1]
    block = section.split("```yaml\n", 1)[1].split("```", 1)[0]
    assert yaml.safe_load(block) == load_config()


def test_readme_python_blocks_run():
    blocks = README.read_text(encoding="utf-8").split("```python\n")[1:]
    assert blocks
    for block in blocks:
        exec(compile(block.split("```", 1)[0], str(README), "exec"), {})


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


def test_assignment_under_random_sweep_is_rejected(capsys):
    # The random configs draw their own assignments, so a given file has no reader.
    with pytest.raises(SystemExit) as exit_:
        main(["verify", "--random-sweep", "2", "--assignment", "/nonexistent"])
    assert exit_.value.code == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()[-1]
    assert "--assignment" in err and "--random-sweep" in err


def test_negative_random_sweep_seed_is_config_error(tmp_path, capsys):
    argv = ["--seed", "-1", "--out", str(tmp_path / "out"), "verify", "--random-sweep", "3"]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: seed: must be >= 0\n"


@pytest.mark.parametrize("block", ["tables", "batch", "tm", "partitioner"])
def test_block_seed_is_unknown_config_key(tmp_path, capsys, block):
    # Every block draws from the top-level seed; a per-block seed is no key.
    cfg = write_config(tmp_path, {block: {"seed": 1}})
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), "verify"]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: unknown config key '{block}.seed'\n"


def test_block_seed_sweep_is_unknown_field(tmp_path, capsys):
    argv = ["--config", str(write_config(tmp_path)), "--out", str(tmp_path / "out"),
            "cost", "--sweep", "batch.seed=1,2"]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: unknown config key 'batch.seed'\n"


@pytest.mark.parametrize("swept", [False, True], ids=["config", "sweep"])
def test_block_given_as_scalar_is_config_error(tmp_path, capsys, swept):
    cfg = write_config(tmp_path, {} if swept else {"tables": 5})
    command = ["cost", "--sweep", "tm=1,2"] if swept else ["verify"]
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), *command]) == EXIT_CONFIG
    block = "tm" if swept else "tables"
    assert capsys.readouterr().err == f"config error: {block}: must be a mapping\n"


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize("block, field", [("cost", "beta_out"), ("partitioner", "balance")])
def test_nonfinite_float_is_config_error(tmp_path, rng, capsys, block, field, value):
    cfg = write_config(tmp_path, {block: {field: value}})
    argv = ["--config", str(cfg), "--out", str(tmp_path / "out")]
    if block == "cost":
        argv += ["cost"]
    else:
        argv += ["partition", "--embeddings", str(blobs_csv(tmp_path, rng))]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"config error: {block}.{field}: {value!r} is not a finite number\n"
    )


@pytest.mark.parametrize("swept", [False, True], ids=["config", "sweep"])
def test_fractional_integer_field_is_config_error(tmp_path, capsys, swept):
    def run(hosts):
        cfg = write_config(tmp_path, {} if swept else {"topology": {"num_hosts": hosts}})
        command = ["cost", "--sweep", f"topology.num_hosts={hosts},4"] if swept else ["verify"]
        return main(["--config", str(cfg), "--out", str(tmp_path / "out"), *command])

    assert run(2.5) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: topology.num_hosts: 2.5 is not an integer\n"
    assert run(2.0) == EXIT_OK  # an integral float is an integer


@pytest.mark.parametrize(
    "overrides, argv, error",
    [
        ({"tables": {"integer_values": "false"}}, ["verify"],
         "tables.integer_values: 'false' is not true or false"),
        ({"exchange": {"swap_bc": "no"}}, ["verify"], "exchange.swap_bc: 'no' is not true or false"),
        ({"topology": {"num_hosts": True}}, ["verify"], "topology.num_hosts: True is not an integer"),
        ({"seed": True}, ["verify"], "seed: True is not an integer"),
        ({"tables": {"integer_values": 1}}, ["verify"], "tables.integer_values: 1 is not true or false"),
        ({"output_dir": 5}, ["verify"], "output_dir: 5 is not a string"),
        ({"partitioner": {"strategy": 5}}, ["verify"], "partitioner.strategy: 5 is not a string"),
        ({"partitioner": {"balance": 0.5}}, ["verify"], "partitioner.balance: must be >= 1"),
        ({"cost": {"alpha_up": -1}}, ["cost"], "cost.alpha_up: must be positive"),
        ({"tables": {"rows": 0}}, ["verify"], "tables.rows: must be >= 1"),
        ({"tm": {"kind": "mlp"}}, ["verify"], "tm.kind: unknown tower module kind 'mlp'"),
        ({"tm": {"kind": "mlp"}}, ["cost"], "tm.kind: unknown tower module kind 'mlp'"),
        ({"tm": {"out_dim": -5}}, ["verify"], "tm.out_dim: must be >= 1"),
        ({"tm": {"kind": "dlrm", "cross_layers": 0}}, ["cost"], "tm.cross_layers: must be >= 1"),
        ({"tm": {"kind": "dcn", "flat_outputs": -3}}, ["cost"], "tm.flat_outputs: must be >= 0"),
        ({"tables": {"sharding": "column_wise", "dim": 4, "shards_per_table": 9}}, ["verify"],
         "tables.shards_per_table: cannot split 4 columns into 9 shards"),
        ({"tables": {"sharding": "table_wise", "shards_per_table": 0}}, ["verify"],
         "tables.shards_per_table: must be >= 1"),
        ({"tables": {"sharding": "table_wise", "shards_per_table": 2}}, ["verify"],
         "tables.shards_per_table: must be 1 under table_wise"),
        ({}, ["--seed", "-1", "verify"], "seed: must be >= 0"),
        ({}, ["--seed", "-1", "verify", "--random-sweep", "3"], "seed: must be >= 0"),
        # A block the command does not read is checked all the same.
        ({"topology": {"ranks_per_host": 0}}, ["partition", "--embeddings", "none.csv"],
         "topology.ranks_per_host: must be >= 1"),
        ({"cost": {"efficiency": {1: 1.0, 4: 1.5}}}, ["verify"],
         "cost.efficiency: factor 1.5 at world 4 outside (0, 1]"),
        ({"cost": {"efficiency": {-4: 1.0}}}, ["cost"], "cost.efficiency: world -4 is below 1"),
        # A count below 1 checks no config: it is no sweep, nor a mismatch.
        ({}, ["verify", "--random-sweep", "0"], "--random-sweep: must be >= 1"),
        ({}, ["verify", "--random-sweep", "-1"], "--random-sweep: must be >= 1"),
        # Each combination would run the last value only, under two labels.
        ({}, ["cost", "--sweep", "batch.local_size=1,2", "--sweep", "batch.local_size=3"],
         "batch.local_size: given to --sweep more than once"),
        # 1.0 is typed to the integer 1: three rows of one config.
        ({}, ["cost", "--sweep", "batch.local_size=1,1.0,1"],
         "batch.local_size: 1.0 repeats 1 in --sweep"),
        # Checked for every command, as the bound of each field is.
        ({"layout": {"hosts_per_tower": 3}}, ["partition", "--embeddings", "none.csv"],
         "layout.hosts_per_tower: world size 4 not divisible by ranks_per_host*hosts_per_tower=6"),
        # The config's own feature -> tower assignment, for every command.
        ({"tables": {"count": 1}}, ["partition", "--embeddings", "none.csv"],
         "tables.count: need at least num_towers=2 features"),
        ({"layout": {"assignment": "explicit", "explicit": [0, 5, 1, 0]}},
         ["partition", "--embeddings", "none.csv"],
         "layout.explicit: feature 1 mapped to unknown tower 5"),
        ({"layout": {"assignment": "explicit", "explicit": [0, 1]}},
         ["partition", "--embeddings", "none.csv"], "layout.explicit: need a list of 4 tower ids"),
        # Also beside an assignment file, which is never read.
        ({"tables": {"count": 1}}, ["verify", "--assignment", "none.txt"],
         "tables.count: need at least num_towers=2 features"),
    ],
)
def test_config_field_error_names_the_field(tmp_path, capsys, overrides, argv, error):
    cfg = write_config(tmp_path, overrides)
    out = [] if "output_dir" in overrides else ["--out", str(tmp_path / "out")]
    assert main(["--config", str(cfg), *out, *argv]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {error}\n"
    assert not (tmp_path / "out").exists()


def test_bool_sweep_takes_true_and_false(tmp_path, capsys):
    def cost(values):
        argv = ["--config", str(write_config(tmp_path)), "--out", str(tmp_path / "out"),
                "cost", "--sweep", f"exchange.rowwise_reducescatter={values}"]
        return main(argv)

    assert cost("false,true") == EXIT_OK
    with open(tmp_path / "out" / "sweep.csv") as fh:
        configs = [row["config"] for row in csv.DictReader(fh)]
    assert configs == [f"exchange.rowwise_reducescatter={v}" for v in (False, True)]
    capsys.readouterr()
    assert cost("0,1") == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error: exchange.rowwise_reducescatter: 0 is not true or false\n"
    )


@pytest.mark.filterwarnings("default::UserWarning")
@pytest.mark.parametrize("command", ["cost", "verify"])
def test_library_warning_prints_in_cli_form(tmp_path, capsys, command):
    cfg = write_config(tmp_path, {"cost": {"beta_up": 1, "beta_out": 2}})
    argv = ["--config", str(cfg), "--out", str(tmp_path / "out"), command]
    if command == "cost":
        argv += ["--sweep", "batch.local_size=1,2"]
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().err == (
        "warning: scale-up bandwidth below scale-out bandwidth; unusual cluster\n"
    )


def test_block_defaults_have_their_dataclass_types():
    blocks = {"exchange": exchange.ExchangeOptions, "tm": TMConfig, "cost": CostParams}
    for block, cls in blocks.items():
        hints = typing.get_type_hints(cls)
        for name, value in cli.DEFAULT_CONFIG[block].items():
            if value is not None:  # a None default is derived when the run is built
                assert type(value) is hints[name], f"{block}.{name}"


@pytest.mark.parametrize("scheme", ["row_wise", "column_wise"])
def test_more_shards_than_tower_ranks(tmp_path, capsys, scheme):
    # 4 shards of every table on 2-rank towers: each rank holds two. With
    # float tables and multi-hot bags under the reduce-scatter, the baseline
    # must sum row pieces as the reduce-scatter does (each rank's shards,
    # then the ranks in order) or the two differ in the last bit.
    cfg = write_config(tmp_path, {
        "tables": {"count": 4, "rows": 16, "dim": 4, "hotness": [0, 4], "sharding": scheme,
                   "shards_per_table": 4, "integer_values": False},
        "batch": {"local_size": 4},
        "exchange": {"rowwise_reducescatter": True},
    })
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "verify"]) == EXIT_OK
    assert capsys.readouterr().out == "result: exact match\n"
    ctx = cli.RunContext(load_config(str(cfg)))
    assert [s.rank for s in ctx.placement.shards_of(0)] == [0, 1, 0, 1]


@pytest.mark.filterwarnings("default::UserWarning")
def test_partition_warns_when_embed_dims_not_below_source_dim(tmp_path, rng, capsys):
    features = blobs_csv(tmp_path, rng, dim=2)
    cfg = write_config(tmp_path, {"partitioner": {"num_towers": 2, "steps": 300}})
    code = main(["--config", str(cfg), "--out", str(tmp_path / "part"),
                 "partition", "--embeddings", str(features)])
    assert code == EXIT_OK
    assert capsys.readouterr().err == "warning: embed_dims=2 not below source dim 2\n"


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


@pytest.mark.parametrize("big", ["1e200", "1e-200"])
def test_partition_normalises_a_row_whose_squares_leave_the_float_range(tmp_path, capsys, big):
    # Squared, 1e200 overflows and 1e-200 underflows; the row still has
    # direction 1,1 and partitions as that row does.
    cfg = write_config(tmp_path, {"partitioner": {"num_towers": 2, "steps": 300,
                                                  "embed_dims": 1}})
    outputs = []
    for first in (f"{big},{big}", "1,1"):
        features = tmp_path / "features.csv"
        features.write_text(f"{first}\n0.9,0.1\n0.2,0.8\n0.7,0.4\n")
        out = tmp_path / first
        code = main(["--config", str(cfg), "--out", str(out),
                     "partition", "--embeddings", str(features)])
        assert (code, capsys.readouterr().err) == (EXIT_OK, "")
        assert float((out / "affinity.csv").read_text().split(",")[0]) == 1.0
        outputs.append((out / "assignment.txt").read_bytes())
    assert outputs[0] == outputs[1]


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
    capsys.readouterr()
    # The sidecar's rows and cols are each at least 1, and the file holds
    # exactly rows * cols little-endian floats, with no bytes left over.
    for data, sidecar, message in (
        (np.zeros(4, dtype="<f4").tobytes(), "-2 -2",
         f"{raw}.meta: rows and cols must be >= 1, not -2 -2"),
        (np.array([1, 2], dtype="<f4").tobytes() + b"\0\0", "1 2",
         f"{raw}: has 10 bytes, expected 2 floats of 4 bytes"),
        (b"", "0 3", f"{raw}.meta: rows and cols must be >= 1, not 0 3"),
    ):
        raw.write_bytes(data)
        (tmp_path / "x.f32.meta").write_text(sidecar)
        code = main(["--config", str(cfg), "partition", "--embeddings", str(raw)])
        assert (code, capsys.readouterr().err) == (EXIT_IO, f"i/o error: {message}\n")
    # A first line with a number in it is data, not a header; a feature row
    # of zeros has no direction to normalise; partition needs two features.
    mixed, zero, single = (tmp_path / name for name in ("mixed.csv", "zero.csv", "one.csv"))
    mixed.write_text("1.0,2x\n3,4\n5,6\n")
    zero.write_text("a,b\n1,2\n\n0,0.0\n3,4\n")
    single.write_text("f0,f1\n1,2\n")
    np.array([1, 2, 0, 0, 3, 4], dtype="<f4").tofile(raw)
    (tmp_path / "x.f32.meta").write_text("3 2")
    for path, message in ((mixed, f"{mixed}:1: not numeric"), (zero, f"{zero}:4: zero norm"),
                          (raw, f"{raw}: row 2 has zero norm"),
                          (single, f"{single}: one feature; partition needs at least 2")):
        code = main(["--config", str(cfg), "partition", "--embeddings", str(path)])
        assert (code, capsys.readouterr().err) == (EXIT_IO, f"i/o error: {message}\n")


def test_config_key_given_twice_is_config_error(tmp_path, capsys):
    # safe_load would keep the last value; each repeat names the file, line and key.
    top = tmp_path / "top.yaml"
    top.write_text("tables:\n  count: 4\nbatch: {local_size: 2}\ntables:\n  count: 6\n")
    nested = tmp_path / "nested.yaml"
    nested.write_text("seed: 1\nbatch: {local_size: 2, local_size: 3}\n")
    for path, line, key in ((top, 4, "tables"), (nested, 2, "local_size")):
        code = main(["--config", str(path), "--out", str(tmp_path / "out"), "cost"])
        assert (code, capsys.readouterr().err) == (
            EXIT_CONFIG, f"config error: {path}:{line}: key {key!r} given twice\n")
    assert not (tmp_path / "out").exists()


def test_assignment_feature_listed_twice_is_ingestion_error(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assignment = tmp_path / "assignment.txt"
    assignment.write_text("0\t0\n1\t0\n2\t1\n3\t1\n0\t1\n")
    argv = ["--config", str(cfg), "--out", str(tmp_path / "out"),
            "verify", "--assignment", str(assignment)]
    assert main(argv) == EXIT_IO
    assert capsys.readouterr().err == f"i/o error: {assignment}:5: feature 0 listed twice\n"
    assert not (tmp_path / "out").exists()


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


def test_cost_efficiency_mapping(tmp_path, capsys):
    def baseline_s(efficiency):
        cfg = write_config(tmp_path, {"cost": {"efficiency": efficiency}})
        out = tmp_path / "cost"
        assert main(["--config", str(cfg), "--out", str(out), "cost"]) == EXIT_OK
        with open(out / "sweep.csv") as fh:
            return float(next(csv.DictReader(fh))["baseline_s"])

    # The world-4 collectives run at half the default's link efficiency.
    assert baseline_s({1: 1.0, 4: 0.5}) > baseline_s(None)
    cfg = write_config(tmp_path, {"cost": {"efficiency": 0.5}})
    assert main(["--config", str(cfg), "--out", str(tmp_path / "cost"), "cost"]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: cost.efficiency: need {world: factor}\n"


def test_sweep_under_a_file_efficiency_takes_the_file_form(tmp_path):
    # The file's factors are integers, but a factor is a float: sweeping one
    # runs as the same value written in the file does.
    def baseline_s(efficiency, *sweep):
        cfg = write_config(tmp_path, {"cost": {"efficiency": efficiency}})
        out = tmp_path / "cost"
        assert main(["--config", str(cfg), "--out", str(out), "cost", *sweep]) == EXIT_OK
        with open(out / "sweep.csv") as fh:
            return float(next(csv.DictReader(fh))["baseline_s"])

    swept = baseline_s({"1": 1, "4": 1}, "--sweep", "cost.efficiency.4=0.5")
    assert swept == baseline_s({"1": 1, "4": 0.5})
    assert swept > baseline_s({"1": 1, "4": 1})


def test_cost_memory_grows_with_the_batch_not_the_tables(tmp_path):
    # Two row-wise tables of 10^6 x 64: their values would take 1 GB, and
    # one rows-long int64 count array 8 MB. cost reads only shapes, and
    # counts each row shard's indices without a per-row array.
    cfg = write_config(tmp_path, {"tables": {
        "count": 2, "rows": 1_000_000, "dim": 64, "hotness": [0, 20],
        "sharding": "row_wise", "shards_per_table": 2}})
    tracemalloc.start()
    try:
        code = main(["--config", str(cfg), "--out", str(tmp_path / "out"), "cost"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    assert peak < 2_000_000


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
    tower = ctx.run_tower()
    assert compare_exact(ctx, tower.outputs, tower.blocks) is None
    corrupted = _copy.deepcopy(tower)
    corrupted.outputs[1][0, 2] += 1.0
    rank, row, col, a, b = compare_exact(ctx, corrupted.outputs, corrupted.blocks)
    assert (rank, row, col) == (1, 0, 2)
    assert b == a + 1.0
    # A mis-sized block is reported with the element counts, not raised.
    narrow = _copy.deepcopy(tower)
    narrow.outputs[2] = narrow.outputs[2][:, :-1]
    assert compare_exact(ctx, narrow.outputs, narrow.blocks) == (2, -1, 12, 8.0, 6.0)
    # Drive the verify command onto its mismatch path: the run hands its
    # consumer every column at once, as one tower that holds them all.
    def corrupted_run(self, consume):
        consume(0, corrupted.blocks, corrupted.outputs)
        return dataclasses.replace(corrupted, outputs={})

    monkeypatch.setattr(RunContext, "run_tower", corrupted_run)
    code = run_verify(load_config(), tmp_path / "bad")
    assert code == EXIT_MISMATCH
    report = (tmp_path / "bad" / "report.txt").read_text()
    assert "MISMATCH at rank=1 row=0 col=2" in report


def test_compare_exact_reports_baseline_columns_under_strided_towers():
    from towersim.cli import RunContext, compare_exact, load_config

    ctx = RunContext(load_config(overrides={"layout": {"assignment": "strided"}}))
    tower = ctx.run_tower()
    assert [ident for _, ident, _ in tower.blocks] == [0, 2, 1, 3]
    assert compare_exact(ctx, tower.outputs, tower.blocks) is None
    # Column 4 is feature 2's first column: the mismatch names the column of
    # the run's own layout (layout.txt), not feature 2's baseline column 8.
    tower.outputs[1][0, 4] += 1.0
    rank, row, col, a, b = compare_exact(ctx, tower.outputs, tower.blocks)
    assert (rank, row, col) == (1, 0, 4)
    assert b == a + 1.0


def test_parse_sweep_forms():
    assert parse_sweep("topology.num_hosts=2..4") == ("topology.num_hosts", [2, 3, 4])
    assert parse_sweep("tm.out_dim=64,32") == ("tm.out_dim", [64, 32])
    assert parse_sweep("cost.beta_out=1.5e9") == ("cost.beta_out", [1.5e9])
    assert parse_sweep("exchange.swap_bc=true,false") == ("exchange.swap_bc", [True, False])
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
    # Every class prints its own prefix; all but these print "error".
    prefixes = {"ConfigError": "config error", "IngestionError": "i/o error",
                "NumericError": "numeric error"}
    for cls in classes:

        def fail(*args, cls=cls):
            raise cls("boom")

        monkeypatch.setattr(cli, "run_verify", fail)
        assert main(["--out", str(tmp_path), "verify"]) == cls.exit_code
        assert capsys.readouterr().err == f"{prefixes.get(cls.__name__, 'error')}: boom\n"
    internal = ("InvariantError", "LayoutError", "ShapeError", "ProtocolError",
                "TableLookupError", "ReportError")
    constraint = ("ConfigError", "DomainError", "PlanError", "ConstraintError")
    for name in internal:
        assert getattr(errors, name).exit_code == EXIT_ERROR, name
    for name in constraint:
        assert getattr(errors, name).exit_code == EXIT_CONFIG, name


def test_out_of_memory_is_a_named_error(tmp_path, monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 5.6 GiB")

    monkeypatch.setattr(cli, "make_batch", exhausted)
    for command in ("verify", "cost"):
        assert main(["--out", str(tmp_path), command]) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: out of memory while running {command}\n"


def test_plan_mismatch_is_an_internal_error(tmp_path, monkeypatch, capsys):
    # A functional run whose trace leaves its plan exits 1, naming the
    # pipeline, the collective and its label.
    plan = exchange.tower_plan

    def corrupted(*args):
        planned = plan(*args)
        last = planned.trace.collectives[-1]
        planned.trace.collectives[-1] = last._replace(nbytes=last.nbytes + 4)
        return planned

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
