"""Run the benchmark over several seeds and report each metric's spread.

  python3 perfbench/spread.py --workloads readme,screen,select --seeds 1-10 --seconds 30

For each workload and end-to-end metric it prints the median of the
per-run values and their spread: the distance between the first and
third quartiles (statistics.quantiles, n=4) as a share of the median.
Compare each spread with the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workloads", default="readme,screen,select")
    parser.add_argument("--seeds", default="1-10", help="'1-10' or '3,5,8'")
    parser.add_argument("--seconds", default="30")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in
              json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())["end_to_end"]}
    failures = 0
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in parse_seeds(args.seeds):
            out = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
                check=True, stdout=subprocess.PIPE, text=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            failures += result["failed"] + (not result["correct"])
            line = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {line}", flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            bound = bounds.get(name)
            note = f" bound {bound}" if bound is not None else ""
            print(f"{workload} {name}: median {statistics.median(vals):.4g} "
                  f"spread {spread(vals):.3f}{note} (n={len(vals)})", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
