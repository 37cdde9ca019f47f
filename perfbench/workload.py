"""Run one benchmark workload in this process and print its record as JSON.

``run.py`` starts this script in a fresh process for each workload, with the
thread settings fixed; see README.md. Every command is a call to the real
entry point ``towersim.cli.main`` with the workload's config, followed by the
workload's output check.

Untraced (``--trace 0``): one warm-up command, then timed commands until
``--seconds`` would be exceeded. Only the set-up calls get spans. The
warm-up is observed for the simulated statistics; the timed commands are
not, and are compared with it through their output digests.

The end-to-end times are reported at reference speed. The machine the
benchmark was built on, a 2-vCPU VM on a shared host, runs the same command
up to 2x slower for stretches of seconds to minutes. Each command is
therefore bracketed by a fixed reference kernel of the same kind of work,
and its times are scaled by (the kernel's time at full speed) / (its mean
time around this command and its two neighbours). The raw wall times stay
in the record.

Traced (``--trace 1``): one cold traced command, which gives the rise in
peak RSS and the counts, then untraced and traced commands in turns. The
per-layer times come from the traced command with the median time; its
layer self times add up to its wall time less the tracer's own time
(``trace.cmd_s``). The tracing overhead is the median ratio of each traced
command's whole wall time to the untraced one's just before it.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import yaml  # noqa: E402

import spans  # noqa: E402
from towersim import cli  # noqa: E402

# Output files whose SHA-256 is recorded; towersim writes them byte for byte
# the same for the same config and seed.
DIGESTED = (
    "report.txt", "trace.log", "baseline_trace.log", "layout.txt",
    "sweep.csv", "breakdown.txt", "assignment.txt", "score.txt",
)
SWEEP_HOSTS = (2, 4, 8)
REFERENCE_CALLS = 15


def python_kernel() -> int:
    """Dict and list churn in the interpreter, like batch building and collectives."""
    table = {}
    for i in range(20_000):
        table[i % 977] = [i, i + 1]
    return sum(v[0] for v in table.values())


_RNG = np.random.default_rng(0)
_COORDS = _RNG.standard_normal((128, 2))
_DIST = np.abs(_RNG.standard_normal((128, 128)))


def numpy_kernel() -> np.ndarray:
    """Pairwise broadcasting over 128 points, like the MDS stress gradient."""
    diff = _COORDS[:, None, :] - _COORDS[None, :, :]
    d = np.sqrt((diff ** 2).sum(axis=2))
    coef = (d - _DIST) / np.maximum(d, 1e-12)
    return (coef[:, :, None] * diff).sum(axis=1)


# Median time of one kernel call at full speed on an Intel Xeon VM (2 vCPUs,
# Python 3.11, numpy 2.4): the unit the end-to-end times are scaled to.
REFERENCE_S = {python_kernel: 2.2e-3, numpy_kernel: 0.9e-3}


def reference_s(kernel) -> float:
    times = []
    for _ in range(REFERENCE_CALLS):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


@dataclass(frozen=True)
class Workload:
    config: dict
    argv: tuple[str, ...]
    # (output dir, expected values) -> problems found in the command's outputs
    check: Callable[[Path, dict], list[str]]
    # the kind of work that dominates the command
    reference: Callable


def _cross_bytes(report: list[str], section: str, step: str) -> int:
    start = report.index(f"{section} bytes:")
    for line in report[start + 1:]:
        if line.startswith(f"  step {step}:"):
            return int(line.rsplit("cross_host=", 1)[1])
    raise ValueError(f"no step {step} under {section!r}")


def check_verify(out: Path, _expected: dict) -> list[str]:
    report = (out / "report.txt").read_text(encoding="utf-8").splitlines()
    problems = []
    if report[0] != "result: exact match":
        problems.append(f"report.txt says {report[0]!r}")
    c_cross = _cross_bytes(report, "baseline", "c")
    f_cross = _cross_bytes(report, "tower", "f")
    if c_cross != f_cross:
        problems.append(f"step-c cross bytes {c_cross} != step-f cross bytes {f_cross}")
    return problems


def check_cost(out: Path, _expected: dict) -> list[str]:
    with open(out / "sweep.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    problems = []
    if sorted(int(r["num_hosts"]) for r in rows) != list(SWEEP_HOSTS):
        problems.append(f"sweep.csv has hosts {[r['num_hosts'] for r in rows]}")
    for r in rows:
        for key in ("baseline_s", "tower_s"):
            value = float(r[key])
            if not (math.isfinite(value) and value > 0):
                problems.append(f"{r['config']}: {key}={r[key]}")
        if float(r["compression_ratio"]) != 4.0:
            problems.append(f"{r['config']}: compression_ratio={r['compression_ratio']}")
    return problems


def check_partition(out: Path, expected: dict) -> list[str]:
    blocks, towers = expected["blocks"], expected["towers"]
    tower_of = {}
    for line in (out / "assignment.txt").read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            continue
        feat, tower = (int(x) for x in line.split())
        tower_of[feat] = tower
    if sorted(tower_of) != list(range(len(blocks))):
        return [f"assignment.txt covers {len(tower_of)} of {len(blocks)} features"]
    problems = []
    sizes = np.bincount(list(tower_of.values()), minlength=towers)
    if set(sizes.tolist()) != {len(blocks) // towers}:
        problems.append(f"tower sizes {sizes.tolist()}")
    for block in range(int(blocks.max()) + 1):
        split = sorted({tower_of[f] for f in np.flatnonzero(blocks == block)})
        if len(split) != 1:
            problems.append(f"planted block {block} split over towers {split}")
    return problems


def workloads(smoke: bool) -> dict[str, Workload]:
    """The three workloads at full size, or at toy size on the same code path."""
    sweep = "topology.num_hosts=" + ",".join(str(h) for h in SWEEP_HOSTS)
    return {
        "verify-w64-singlehot": Workload(
            config={
                "topology": {"num_hosts": 2 if smoke else 8,
                             "ranks_per_host": 2 if smoke else 8},
                "layout": {"hosts_per_tower": 1, "assignment": "contiguous"},
                "tables": {"count": 4 if smoke else 26, "rows": 16 if smoke else 1000,
                           "dim": 4 if smoke else 64, "hotness": 1,
                           "sharding": "table_wise", "integer_values": True},
                "batch": {"local_size": 4 if smoke else 128},
                "exchange": {"swap_bc": False, "omit_permute": False,
                             "rowwise_reducescatter": False},
            },
            argv=("verify",),
            check=check_verify,
            reference=python_kernel,
        ),
        "cost-multihot-dcn": Workload(
            config={
                "topology": {"ranks_per_host": 2 if smoke else 8},
                "tables": {"count": 8 if smoke else 26, "rows": 16 if smoke else 1000,
                           "dim": 8 if smoke else 32, "hotness": [0, 3 if smoke else 20],
                           "sharding": "row_wise", "shards_per_table": 2,
                           "integer_values": True},
                "exchange": {"rowwise_reducescatter": True},
                "tm": {"kind": "dcn", "out_dim": 2 if smoke else 8, "cross_layers": 3},
                "batch": {"local_size": 2 if smoke else 32},
            },
            argv=("cost", "--sweep", sweep),
            check=check_cost,
            reference=python_kernel,
        ),
        "partition-planted-128": Workload(
            config={
                "partitioner": {"num_towers": 4 if smoke else 8, "strategy": "coherent",
                                "balance": 1.0, **({"steps": 300} if smoke else {})},
            },
            argv=("partition", "--embeddings"),
            check=check_partition,
            reference=numpy_kernel,
        ),
    }


def planted_embeddings(seed: int, smoke: bool) -> tuple[np.ndarray, np.ndarray]:
    """Features in planted blocks: a N(0,1) centre per block plus 0.3*N(0,1) noise."""
    features, dim, blocks = (16, 8, 4) if smoke else (128, 32, 8)
    rng = np.random.default_rng(seed)
    centres = rng.standard_normal((blocks, dim))
    block_of = rng.permutation(np.repeat(np.arange(blocks), features // blocks))
    return centres[block_of] + 0.3 * rng.standard_normal((features, dim)), block_of


def digests(out: Path) -> dict[str, str]:
    return {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in DIGESTED
        if (out / name).is_file()
    }


def simulated(out: Path, observed: dict) -> dict[str, float]:
    """Modelled bytes, seconds and stress; a pure speed-up leaves them unchanged."""
    stats: dict[str, float] = dict(observed["bytes"])
    if (out / "sweep.csv").is_file():
        with open(out / "sweep.csv", encoding="utf-8", newline="") as fh:
            for row in csv.DictReader(fh):
                for key in ("baseline_s", "tower_s"):
                    stats[f"costmodel.{key}.h{row['num_hosts']}"] = float(row[key])
    for key in ("final_stress", "score"):
        if key in observed:
            stats[f"partitioner.{key}"] = observed[key]
    return stats


class Runner:
    def __init__(self, name: str, seed: int, smoke: bool, run_dir: Path):
        self.work = workloads(smoke)[name]
        self.run_dir = run_dir
        self.out = run_dir / "out"
        self.tracer = spans.Tracer()
        self.commands: list[dict] = []
        run_dir.mkdir(parents=True, exist_ok=True)
        config = run_dir / "config.yaml"
        # JSON is valid YAML; the program reads it through its YAML loader.
        config.write_text(json.dumps(self.work.config, indent=1), encoding="utf-8")
        self.argv = ["--config", str(config), "--seed", str(seed), "--out", str(self.out),
                     *self.work.argv]
        self.expected: dict = {}
        if self.work.argv[0] == "partition":
            features, block_of = planted_embeddings(seed, smoke)
            np.savetxt(run_dir / "embeddings.csv", features, delimiter=",", fmt="%.17g")
            self.argv.append(str(run_dir / "embeddings.csv"))
            self.expected = {"blocks": block_of,
                             "towers": self.work.config["partitioner"]["num_towers"]}

    def execute(self, kind: str) -> dict:
        """Run one command; ``kind`` is warmup, timed, traced or untraced."""
        index = len(self.commands)
        traced = kind == "traced"
        observe = kind in ("warmup", "traced")
        gc.collect()
        shutil.rmtree(self.out, ignore_errors=True)
        before = reference_s(self.work.reference)
        captured = io.StringIO()
        with self.tracer.installed(
            frozenset(n for _, n in spans.WRAPPED) if traced else frozenset(spans.SETUP),
            observe,
        ), contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            start = time.perf_counter()
            code = self.tracer.run(lambda: cli.main(self.argv), index, root=traced,
                                   observe=observe)
            wall = time.perf_counter() - start
        after = reference_s(self.work.reference)
        command_spans = self.tracer.spans[index]
        if traced:
            wall = command_spans[0][2] - command_spans[0][1]
        setup = spans.setup_seconds(command_spans)
        problems = [] if code == 0 else [f"exit code {code}: {captured.getvalue()[-300:]!r}"]
        if code == 0:
            try:
                problems += self.work.check(self.out, self.expected)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems.append(f"output check could not read the outputs: {exc!r}")
        observed = self.tracer.observed[index]
        record = {
            "index": index, "kind": kind, "exit": code,
            "wall": {"cmd_s": wall, "setup_s": setup, "reference_s": [before, after]},
            "digests": digests(self.out),
            "simulated": simulated(self.out, observed) if observe else None,
        }
        if self.commands:
            first = self.commands[0]
            for key in ("digests", "simulated"):
                if record[key] is not None and record[key] != first[key]:
                    problems.append(f"{key} differ from command 0 with the same seed")
        if traced:
            record["layers"] = layer_metrics(command_spans, observed)
        record["problems"] = problems
        self.commands.append(record)
        return record

    def measure(self, seconds: float, trace: bool) -> None:
        self.execute("traced" if trace else "warmup")
        start = time.perf_counter()
        kinds = ("untraced", "traced") if trace else ("timed",)
        while True:
            last = [self.execute(kind)["wall"]["cmd_s"] for kind in kinds]
            if time.perf_counter() - start + sum(last) > seconds:
                break


def scale_to_reference(commands: list[dict], full_speed_s: float) -> None:
    """Add each command's times at reference speed.

    The machine's speed during a command is estimated from the reference
    kernel timed before and after it and its neighbours in the run: six
    samples over about three commands, which follows slow stretches that last
    longer than a command without chasing the shorter ones.
    """
    for i, command in enumerate(commands):
        window = [t for c in commands[max(0, i - 1):i + 2] for t in c["wall"]["reference_s"]]
        scale = full_speed_s / statistics.mean(window)
        wall = command["wall"]
        command["cmd_s"] = wall["cmd_s"] * scale
        command["setup_s"] = wall["setup_s"] * scale
        command["run_s"] = (wall["cmd_s"] - wall["setup_s"]) * scale


def layer_metrics(command_spans: list[list], observed: dict) -> dict[str, float]:
    metrics = spans.span_metrics(command_spans)
    rows, indices = observed["lookup_rows"], observed["step_a_indices"]
    messages = observed["messages"]
    metrics.update({
        "embedding.lookup.rows": float(rows),
        "embedding.lookup.useful_frac": rows / indices if indices else 0.0,
        "simnet.messages": float(messages),
        "simnet.empty_msg_frac": observed["empty"] / messages if messages else 0.0,
        "partitioner.mds.steps": metrics.get("partitioner.stress_gradient.calls", 0.0),
        "partitioner.kmeans.assign_steps":
            metrics.get("partitioner.linear_sum_assignment.calls", 0.0),
        # The root span net of the tracer's own time, which the self times add up to.
        "trace.cmd_s": metrics[f"{spans.ROOT}.s"],
    })
    return metrics


def summary(values: list[float]) -> dict:
    """Median, and the highest percentile with ten samples beyond it.

    With ten samples or fewer no such percentile exists and the tail is the max.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n > 10:
        return {"median": statistics.median(ordered), "n": n,
                "tail": ordered[n - 11], "tail_name": f"p{100 * (n - 10) / n:.0f}"}
    return {"median": statistics.median(ordered), "n": n, "tail": ordered[-1],
            "tail_name": "max"}


def result(runner: Runner, trace: bool) -> dict:
    commands = runner.commands
    scale_to_reference(commands, REFERENCE_S[runner.work.reference])
    failed = [c for c in commands if c["problems"]]
    out = {
        "attempted": len(commands),
        "failed": len(failed),
        "problems": [f"command {c['index']}: {p}" for c in failed for p in c["problems"]],
        "commands": [
            {k: c[k] for k in ("index", "kind", "exit", "cmd_s", "setup_s", "run_s", "wall")}
            for c in commands
        ],
        "simulated": commands[0]["simulated"],
        "digests": commands[0]["digests"],
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__, "pyyaml": yaml.__version__},
    }
    if not trace:
        timed = [c for c in commands if c["kind"] == "timed"]
        out["summaries"] = {
            key: summary([c[key] for c in timed]) for key in ("setup_s", "run_s", "cmd_s")
        }
        out["wall_summaries"] = {
            key: summary([c["wall"][key] for c in timed]) for key in ("setup_s", "cmd_s")
        }
        out["metrics"] = {key: s["median"] for key, s in out["summaries"].items()}
        out["metrics"]["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        )
        return out
    # commands[1:] alternates untraced, traced
    pairs = list(zip(commands[1::2], commands[2::2]))
    traced = sorted((t for _, t in pairs), key=lambda c: c["cmd_s"])
    middle = traced[(len(traced) - 1) // 2]
    layers = dict(middle["layers"])
    layers.update({k: v for k, v in commands[0]["layers"].items() if k.endswith(".rss_rise_mb")})
    layers.update(commands[0]["simulated"])
    layers["trace.overhead"] = statistics.median(t["cmd_s"] / u["cmd_s"] for u, t in pairs)
    out["metrics"] = layers
    out["layers_from_command"] = middle["index"]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads(False)))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--run-dir", type=Path, required=True)
    args = parser.parse_args(argv)
    runner = Runner(args.workload, args.seed, args.smoke, args.run_dir)
    runner.measure(args.seconds, bool(args.trace))
    record = result(runner, bool(args.trace))
    if args.trace:
        runner.tracer.write(args.run_dir / "spans.jsonl")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
