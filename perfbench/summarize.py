"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/summarize.py [--workload NAME ...] [--seeds 0-9]
        [--trace 0|1] [--out FILE] [--against FILE]

Runs `perfbench/run.py` once per workload and seed, one after another, with
the `run_seconds` of BENCHMARK.json, from the root of a checkout. Prints,
per workload and metric: unit, sample count, median, quartiles, the spread
(quartile distance over the median) against the metric's bound, and the
highest percentile with at least ten samples beyond it. Failed calls are
reported against calls attempted. `--out` saves the per-run values;
`--against` compares medians with such a file, e.g. from the parent commit.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def tail_percentile(values: list):
    """Highest percentile (nearest rank) with at least ten samples above it."""
    n = len(values)
    if n <= 10:
        return None
    return int(100 * (n - 10) / n), sorted(values)[n - 11]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seeds", default="0-9")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    ap.add_argument("--against")
    args = ap.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    names = args.workload or [w["name"] for w in bench["workloads"]]
    seeds = parse_seeds(args.seeds)
    before = json.loads(Path(args.against).read_text()) if args.against else {}
    collected = {}
    for name in names:
        runs = []
        for seed in seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
                   str(seed), "--seconds", str(bench["run_seconds"]), "--trace",
                   str(args.trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            if proc.returncode != 0 or result is None:
                print(f"{name} seed {seed}: exit {proc.returncode}, no result", flush=True)
                result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
            runs.append(result)
            shown = {k: v for k, v in result["metrics"].items() if k in bounds}
            print(f"{name} seed {seed}: correct={result['correct']} failed="
                  f"{result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in shown.items()), flush=True)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        correct = sum(r["correct"] for r in runs)
        print(f"\n== {name}: {len(runs)} runs, {correct} correct, "
              f"failed_ops {failed}/{attempted}")
        metrics = sorted({k for r in runs for k in r["metrics"]},
                         key=lambda k: (k not in bounds, k))
        collected[name] = {}
        for m in metrics:
            values = [r["metrics"][m]["value"] for r in runs if m in r["metrics"]]
            unit = next(r["metrics"][m]["unit"] for r in runs if m in r["metrics"])
            collected[name][m] = values
            med = statistics.median(values)
            line = f"  {m} [{unit}] n={len(values)} median={med:.6g}"
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med if med else float("nan")
                line += f" q1={q1:.6g} q3={q3:.6g} spread={spread:.4f}"
                bound = bounds.get(m)
                if bound is not None:
                    verdict = ("under a third of it" if spread < bound / 3 else
                               "within it" if spread <= bound else "OVER IT")
                    line += f" (bound {bound}: {verdict})"
            tail = tail_percentile(values)
            line += f" p{tail[0]}={tail[1]:.6g}" if tail else " (no percentile: <11 runs)"
            old = before.get(name, {}).get(m)
            if old:
                drift = (med - statistics.median(old)) / statistics.median(old)
                line += f" vs before: {drift:+.4f}"
            print(line)
    if args.out:
        Path(args.out).write_text(json.dumps(collected, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
