"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/repeat.py --out perfbench/out/setA
    python3 perfbench/repeat.py --out perfbench/out/setB --against perfbench/out/setA

Runs ``run.py`` once per seed 1..10 and workload of BENCHMARK.json, one
process at a time, and saves every run's record in --out. For each
end-to-end metric it prints the median and the spread, the distance between
the first and third quartile over the median, beside the metric's bound.
With --against it also prints how far each median moved from the earlier set,
and checks that the simulated statistics and output digests of each
(workload, seed) are identical in both sets.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def run_all(args, spec) -> None:
    args.out.mkdir(parents=True, exist_ok=True)
    for old in args.out.glob("*.json"):
        old.unlink()
    for seed in SEEDS:
        for name in (w["name"] for w in spec["workloads"]):
            command = [sys.executable, str(HERE / "run.py"), "--workload", name,
                       "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                       "--trace", "0"]
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            if done.returncode != 0:
                sys.exit(f"{name} seed {seed}: exit {done.returncode}\n{done.stderr}")
            line = json.loads(done.stdout.strip().splitlines()[-1])
            run_dir = HERE / "out" / f"{name}.seed{seed}.trace0"
            record = json.loads((run_dir / "record.json").read_text())
            record["result"] = line
            (args.out / f"{name}.seed{seed}.json").write_text(json.dumps(record, indent=1))
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in line["metrics"].items())
            print(f"{name} seed={seed} correct={line['correct']} {values}", flush=True)


def load(directory: Path) -> dict[str, dict[int, dict]]:
    sets: dict[str, dict[int, dict]] = {}
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        p = record["provenance"]
        sets.setdefault(p["workload"], {})[p["seed"]] = record
    return sets


def medians(records: dict[int, dict], name: str) -> tuple[float, float]:
    values = [r["result"]["metrics"][name]["value"] for r in records.values()]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def report(args, spec) -> int:
    bad = 0
    current = load(args.out)
    earlier = load(args.against) if args.against else {}
    for workload, records in current.items():
        print(f"{workload} ({len(records)} runs)")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            med, spread = medians(records, name)
            line = f"  {name:<12} median {med:.4g} {metric['unit']}  spread {spread:.3f}" \
                   f"  bound {bound}  spread/bound {spread / bound:.2f}"
            if workload in earlier:
                before, _ = medians(earlier[workload], name)
                line += f"  moved {med / before - 1:+.3f}"
                bad += med / before - 1 > bound
            bad += spread > bound
            print(line)
        for seed, record in records.items():
            other = earlier.get(workload, {}).get(seed)
            if other is None:
                continue
            for key in ("simulated", "digests"):
                if record[key] != other[key]:
                    bad += 1
                    print(f"  seed {seed}: {key} differ from {args.against}")
        failed = sum(r["failed"] for r in records.values())
        attempted = sum(r["attempted"] for r in records.values())
        print(f"  fail_frac    {failed}/{attempted}")
        bad += failed
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--against", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    run_all(args, spec)
    return report(args, spec)


if __name__ == "__main__":
    sys.exit(main())
