"""Run one workload over several seeds and report each metric's spread.

    python3 bench/spread.py --workload triage-arch --seeds 1-10

Runs ``bench/run.py`` once per seed, one run at a time, and prints for
every metric the median and the distance between the first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of the
median, next to the bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for seed in args.seeds:
        start = time.perf_counter()
        out = subprocess.run(
            [*spec["command"], "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        wall = time.perf_counter() - start
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} wall={wall:.1f}s", flush=True)
        runs.append(result)
    print(f"{'metric':<44} {'median':>12} {'iqr/median':>10} {'bound':>6}  min..max")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        share = (q3 - q1) / median if median else float("nan")
        print(f"{name:<44} {median:>12.6g} {share:>10.4f} {bounds[name]:>6}"
              f"  {min(values):.6g}..{max(values):.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
