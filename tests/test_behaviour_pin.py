"""Behaviour pin: every command's outputs, digested, against a committed manifest.

Each command runs through ``cli.main`` in this process. Its digest covers
the files it writes (by name), its stdout, its stderr and its exit code, so
any change in what the program prints, writes or returns shows up as the
configs whose digest moved. The commands are:

- a 432-config matrix at seed 0, each config run through ``verify`` and
  through ``cost --sweep batch.local_size=1,3``. The matrix is 6 topologies
  (hosts x ranks per host: 2x2, 4x2 with 2 hosts per tower, 4x2 as one
  tower, 1x4, 4x1, 3x2) x 3 sharding schemes (2 shards, 1 under
  table_wise) x hotness 1 and [0, 3] x 4 sets of the exchange switches
  (swap_bc, omit_permute, rowwise_reducescatter: FFF, TFT, FTF, TTT) x
  tower module passthrough, dlrm and dcn (out_dim 2); every other field
  keeps its default;
- a float slice of that matrix, each config named with a ``/float`` part:
  tables of random float values (``tables.integer_values: false``) on the
  2x2 and 4x2h2 topologies, row_wise and column_wise sharding, hotness
  [0, 3], switches FFF and TTT and tower module passthrough and dcn, run
  through the same two commands (32 digests);
- the three benchmark workloads of ``perfbench/workload.py`` at smoke size,
  at seeds 1 and 2, partition on that file's ``planted_embeddings``;
- ``partition`` on a raw little-endian f32 copy of ``planted_embeddings(1,
  smoke=True)`` with its ``.meta`` sidecar, and ``verify --assignment`` on
  the default 2x2 config with a feature -> tower map that is neither
  contiguous nor strided.

The manifest records the Python, numpy and scipy versions it was made
with; under other versions the test is skipped. After a change that moves
an output on purpose, rewrite the manifest with

    PYTHONPATH=src python tests/test_behaviour_pin.py

and say in CHANGES.md which configs moved and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import platform
import shutil
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy

from towersim import cli
from test_perfbench_coupling import PERFBENCH, load_file

MANIFEST = Path(__file__).resolve().parent / "behaviour_pin.txt"
SEED = 0
TOPOLOGIES = {  # name -> (num_hosts, ranks_per_host, hosts_per_tower)
    "2x2": (2, 2, 1), "4x2h2": (4, 2, 2), "4x2h4": (4, 2, 4),
    "1x4": (1, 4, 1), "4x1": (4, 1, 1), "3x2": (3, 2, 1),
}
SHARDS = {"table_wise": 1, "column_wise": 2, "row_wise": 2}
HOTNESS = {"hot1": 1, "hot0-3": [0, 3]}
SWITCHES = ("FFF", "TFT", "FTF", "TTT")
TOWER_MODULES = ("passthrough", "dlrm", "dcn")
FLOAT_SLICE = ({t: TOPOLOGIES[t] for t in ("2x2", "4x2h2")},
               {s: SHARDS[s] for s in ("row_wise", "column_wise")},
               {"hot0-3": HOTNESS["hot0-3"]}, ("FFF", "TTT"), ("passthrough", "dcn"))
COMMANDS = {"verify": ("verify",), "cost": ("cost", "--sweep", "batch.local_size=1,3")}
WORKLOAD_SEEDS = (1, 2)
ASSIGNMENT = "0\t1\n1\t0\n2\t0\n3\t1\n"  # contiguous is 0 0 1 1, strided 0 1 0 1


def versions() -> str:
    return f"python {platform.python_version()} numpy {np.__version__} scipy {scipy.__version__}"


def matrix(axes=(TOPOLOGIES, SHARDS, HOTNESS, SWITCHES, TOWER_MODULES), integer=True):
    """(name, config) of each config of ``axes``: by default the 432 matrix
    configs; with ``integer`` false, float tables under a ``/float`` name."""
    topologies, shards, hotness = axes[:3]
    for topo, scheme, hot, switches, kind in itertools.product(*axes):
        hosts, ranks, per_tower = topologies[topo]
        yield f"{topo}/{scheme}/{hot}/{switches}/{kind}" + ("" if integer else "/float"), {
            "topology": {"num_hosts": hosts, "ranks_per_host": ranks},
            "layout": {"hosts_per_tower": per_tower},
            "tables": {"sharding": scheme, "shards_per_table": shards[scheme],
                       "hotness": hotness[hot], "integer_values": integer},
            "exchange": dict(zip(("swap_bc", "omit_permute", "rowwise_reducescatter"),
                                 (flag == "T" for flag in switches))),
            "tm": {"kind": kind, "out_dim": 2},
        }


def digest(config: dict, argv: list[str]) -> str:
    """SHA-256 of one command's output files, stdout, stderr and exit code.

    It runs in the current directory, which it leaves as it found it.
    """
    Path("config.yaml").write_text(json.dumps(config), encoding="utf-8")  # JSON is YAML
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        warnings.simplefilter("default")  # a warning prints, as outside the tests
        code = cli.main(["--config", "config.yaml", "--out", "out", *argv])
    sha = hashlib.sha256(f"exit {code}\n".encode())
    for stream in (stdout, stderr):
        sha.update(stream.getvalue().encode() + b"\0")
    for path in sorted(Path("out").rglob("*")):
        if path.is_file():
            sha.update(path.as_posix().encode() + b"\0" + path.read_bytes() + b"\0")
    shutil.rmtree("out", ignore_errors=True)
    Path("config.yaml").unlink()
    return sha.hexdigest()


def digests() -> dict[str, str]:
    """The digest of every pinned command, by name, in the current directory."""
    out = {}
    for name, config in itertools.chain(matrix(), matrix(FLOAT_SLICE, integer=False)):
        for command, argv in COMMANDS.items():
            out[f"{name} {command}"] = digest(config, ["--seed", str(SEED), *argv])
    spans = load_file("perfbench_spans", PERFBENCH / "spans.py")
    workload = load_file("perfbench_workload", PERFBENCH / "workload.py", spans=spans)
    for (name, work), seed in itertools.product(workload.workloads(smoke=True).items(),
                                                WORKLOAD_SEEDS):
        argv = ["--seed", str(seed), *work.argv]
        if work.argv[0] == "partition":
            features, _ = workload.planted_embeddings(seed, smoke=True)
            np.savetxt("embeddings.csv", features, delimiter=",", fmt="%.17g")
            argv.append("embeddings.csv")
        out[f"{name}/seed{seed} {work.argv[0]}"] = digest(work.config, argv)
        Path("embeddings.csv").unlink(missing_ok=True)
    features, _ = workload.planted_embeddings(1, smoke=True)
    features.astype("<f4").tofile("embeddings.f32")
    Path("embeddings.f32.meta").write_text(f"{features.shape[0]} {features.shape[1]}\n")
    partition = workload.workloads(smoke=True)["partition-planted-128"]
    out["partition-planted-128/seed1/raw-f32 partition"] = digest(
        partition.config, ["--seed", "1", *partition.argv, "embeddings.f32"])
    Path("assignment.txt").write_text(ASSIGNMENT, encoding="utf-8")
    out["2x2/assignment-file verify"] = digest({}, ["verify", "--assignment", "assignment.txt"])
    for path in ("embeddings.f32", "embeddings.f32.meta", "assignment.txt"):
        Path(path).unlink()
    return out


def read_manifest() -> tuple[str, dict[str, str]]:
    lines = MANIFEST.read_text(encoding="utf-8").splitlines()
    pinned = dict(line.rsplit(" ", 1) for line in lines if not line.startswith("#"))
    return lines[0].removeprefix("# "), pinned


def test_outputs_match_the_pinned_digests(tmp_path, monkeypatch):
    made_with, pinned = read_manifest()
    if made_with != versions():
        pytest.skip(f"manifest made with {made_with}, this is {versions()}")
    monkeypatch.chdir(tmp_path)
    now = digests()
    moved = [name for name in now if name in pinned and now[name] != pinned[name]]
    unpinned = [name for name in now if name not in pinned]
    gone = [name for name in pinned if name not in now]
    assert not (moved or unpinned or gone), (
        f"{len(moved)} outputs moved: {moved}; not pinned: {unpinned}; no longer run: {gone}"
    )


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        home = os.getcwd()
        os.chdir(work)
        try:
            rows = digests()
        finally:
            os.chdir(home)
    MANIFEST.write_text(
        "\n".join([f"# {versions()}",
                   "# <config> <command> <sha256>; rewrite: PYTHONPATH=src python "
                   "tests/test_behaviour_pin.py",
                   *(f"{name} {sha}" for name, sha in rows.items())]) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {len(rows)} digests to {MANIFEST}", file=sys.stderr)
