#!/usr/bin/env python3
"""Steadiness check for the repository benchmark.

    python3 rmdbench/steady.py [--runs 10]

Runs every workload in BENCHMARK.json --runs times for its run_seconds,
with seeds 1, 2, ..., alternating the workload order from one pass to
the next (forward, then backward) so slow drift of the host lands on
every workload alike. For each end-to-end metric it prints the median,
the first and third quartiles (statistics.quantiles, n=4) and the spread
(Q3 - Q1) / median, and flags every metric whose spread exceeds its
bound in BENCHMARK.json. It also requires the share of failed operations
to be the same in every run of a workload. Exit code 1 if anything is
flagged.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t = time.time()
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.exit(f"steady.py: {workload} seed {seed} failed with exit code {r.returncode}")
    result = json.loads(lines[-1])
    if not result.get("correct"):
        sys.exit(f"steady.py: {workload} seed {seed} reported incorrect outputs")
    print(f"  {workload:16} seed {seed:4}  {time.time() - t:5.1f} s  "
          f"{result['attempted']} attempted, {result['failed']} failed", file=sys.stderr)
    return result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--runs", type=int, default=10)
    a = p.parse_args()

    results = {w: [] for w in workloads}
    for r in range(a.runs):
        order = workloads if r % 2 == 0 else workloads[::-1]
        for w in order:
            results[w].append(run_once(w, 1 + r, bench["run_seconds"], 0))

    flagged = []
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for w in workloads:
        rs = results[w]
        print(f"\n{w} ({len(rs)} runs)")
        print(f"  {'metric':18} {'median':>14} {'Q1':>14} {'Q3':>14} {'spread':>8} {'bound':>6}")
        shares = {r["failed"] / r["attempted"] for r in rs}
        if len(shares) != 1:
            flagged.append(f"{w}: failed share differs between runs: {sorted(shares)}")
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in rs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            spread = (q3 - q1) / med if med else float("inf")
            mark = ""
            if spread > bound:
                mark = "  EXCEEDS BOUND"
                flagged.append(f"{w}: {name} spread {spread:.3f} > bound {bound}")
            elif spread > bound / 3:
                mark = "  above a third of the bound"
            print(f"  {name:18} {med:14.4f} {q1:14.4f} {q3:14.4f} {spread:8.4f} {bound:6.3f}{mark}")
    if flagged:
        print("\nflagged:\n  " + "\n  ".join(flagged))
        sys.exit(1)
    print("\nevery spread is within its bound")


if __name__ == "__main__":
    main()
