"""Host-time benchmark for towersim.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Runs one workload of BENCHMARK.json in a fresh child process (perfbench/
workload.py) with single-threaded BLAS, prints a readable summary, writes the
full record to perfbench/out/<run>/record.json and prints, as the last line,
{"correct", "attempted", "failed", "metrics"}. ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones. ``--smoke`` runs each
workload at toy size on the same code path, for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SOURCE = ROOT / "src" / "towersim"
CHILD_TIMEOUT_S = 170
THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def git_sha() -> str | None:
    """HEAD of the checkout if it is the top of a git work tree."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def provenance(args) -> dict:
    files = sorted(SOURCE.glob("*.py"))
    digest = hashlib.sha256()
    for f in files:
        digest.update(f.name.encode() + b"\0" + f.read_bytes())
    return {
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "src_lines": sum(len(f.read_text(encoding="utf-8").splitlines()) for f in files),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "threads": THREADS,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def print_summary(record: dict, units: dict) -> None:
    p = record["provenance"]
    print(f"towersim {p['git_sha'] or 'no git'} src={p['src_sha256'][:12]} "
          f"lines={p['src_lines']} nproc={p['nproc']} python={record['versions']['python']} "
          f"numpy={record['versions']['numpy']} scipy={record['versions']['scipy']} "
          f"threads=1 seed={p['seed']} workload={p['workload']}")
    for key, s in record.get("summaries", {}).items():
        print(f"  {key:<12} median {s['median']:.4f} {units[key]}   "
              f"{s['tail_name']} {s['tail']:.4f} {units[key]}   n={s['n']}   (at reference speed)")
    for key, s in record.get("wall_summaries", {}).items():
        print(f"  {key:<12} median {s['median']:.4f} s   "
              f"{s['tail_name']} {s['tail']:.4f} s   n={s['n']}   (raw wall time)")
    if "peak_rss_mb" in record["metrics"]:
        print(f"  {'peak_rss_mb':<12} {record['metrics']['peak_rss_mb']:.1f} MB")
    print(f"  {'fail_frac':<12} {record['failed']}/{record['attempted']} = "
          f"{record['failed'] / record['attempted']:.3f} ratio")
    for problem in record["problems"]:
        print(f"  FAILED {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Host-time benchmark for towersim.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="toy-size inputs")
    args = parser.parse_args(argv)

    if not (SOURCE / "cli.py").is_file():
        print(f"perfbench: no towersim sources under {SOURCE}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]

    run_dir = HERE / "out" / (f"{args.workload}.seed{args.seed}.trace{args.trace}"
                              + (".smoke" if args.smoke else ""))
    command = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--run-dir", str(run_dir)]
    if args.smoke:
        command.append("--smoke")
    env = {**os.environ, **THREADS, "PYTHONHASHSEED": "0", "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        child = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                               text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: workload ran longer than {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if child.returncode != 0:
        print(f"perfbench: workload process exited {child.returncode}", file=sys.stderr)
        return 1
    record = json.loads(child.stdout.strip().splitlines()[-1])
    record["provenance"] = provenance(args)
    (run_dir / "record.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    units = {m["name"]: m["unit"] for m in listed}
    print_summary(record, units)
    # A per-layer metric of a layer the workload does not run reads 0.
    metrics = {name: {"value": record["metrics"].get(name, 0.0), "unit": unit}
               for name, unit in units.items()}
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
