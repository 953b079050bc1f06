#!/usr/bin/env python3
"""Run the benchmark on consecutive seeds and report each metric's spread.

    python3 perfbench/spread.py <workload> <first-seed> <runs>

Run from the repository root. Runs the command and the run length that
BENCHMARK.json names, once per seed, and prints for every end-to-end
metric the median of the runs and the distance between the first and
third quartile as a share of that median (the spread the benchmark's
bounds are checked against), plus every run's failed share.
"""
import json
import statistics
import subprocess
import sys


def main():
    workload, first, runs = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    values, shares = {}, []
    for seed in range(first, first + runs):
        run = subprocess.run(
            bench["command"] + ["--workload", workload, "--seed", str(seed),
                                "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True,
        )
        if run.returncode != 0:
            why = (run.stderr.strip().splitlines() or [""])[-1]
            print(f"seed {seed}: FAILED with exit code {run.returncode}: {why}", flush=True)
            shares.append("-")
            continue
        result = json.loads(run.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: INCORRECT", file=sys.stderr)
        shares.append(f'{result["failed"]}/{result["attempted"]}')
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    print("failed shares:", " ".join(shares))
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:>14} median {med:14.4f}  iqr/median {spread:7.4f}")


if __name__ == "__main__":
    main()
