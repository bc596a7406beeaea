#!/usr/bin/env python3
"""Run one perfbench workload once per seed and print each metric's spread.

Usage (from the repository root):
    python3 perfbench/spread.py <workload> <seed,seed,...> [seconds] [trace]

For every metric of the final JSON line it prints the median over the runs
and the distance between the first and third quartiles
(statistics.quantiles(values, n=4)) as a share of that median.
"""

import json
import statistics
import subprocess
import sys
import time


def main():
    if len(sys.argv) < 3:
        sys.exit(__doc__)
    workload, seeds = sys.argv[1], [int(s) for s in sys.argv[2].split(",")]
    seconds = sys.argv[3] if len(sys.argv) > 3 else "20"
    trace = sys.argv[4] if len(sys.argv) > 4 else "0"
    values = {}
    for seed in seeds:
        start = time.time()
        proc = subprocess.run(
            ["cargo", "run", "--release", "--offline", "--quiet",
             "--manifest-path", "perfbench/Cargo.toml", "--",
             "--workload", workload, "--seed", str(seed),
             "--seconds", seconds, "--trace", trace],
            capture_output=True, text=True, check=False)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: exit {proc.returncode}, correct {result['correct']}, "
              f"{result['failed']} failed of {result['attempted']}, "
              f"{time.time() - start:.1f}s", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:40s} median {med:16.4f}  spread {100 * spread:6.1f}%")


if __name__ == "__main__":
    main()
