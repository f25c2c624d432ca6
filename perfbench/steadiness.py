#!/usr/bin/env python3
"""Steadiness report: runs each workload repeatedly, one seed per run, and
prints for every end-to-end metric its median, quartiles and spread
between runs (interquartile distance as a share of the median), next to
the bound BENCHMARK.json allows. Each run measures BENCHMARK.json's
run_seconds.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1] [--workload NAME ...]

Run from the root of the checkout, like run.py. Exits 1 unless every run
is correct with no failed query and every metric's spread, set-up time
included, is within its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = args.workload or [w["name"] for w in bench["workloads"]]
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
    ok = True
    for name in names:
        rows, walls = [], []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            t0 = time.perf_counter()
            out = subprocess.run(
                [sys.executable, script, "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                stdout=subprocess.PIPE, text=True, check=True).stdout
            walls.append(time.perf_counter() - t0)
            rows.append(json.loads(out.strip().splitlines()[-1]))
            print(f"  {name} seed {seed}: {walls[-1]:.1f} s "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in rows[-1]["metrics"].items()),
                  file=sys.stderr)
        shares = {r["failed"] / r["attempted"] for r in rows}
        correct = all(r["correct"] for r in rows)
        print(f"{name}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}, run wall median {statistics.median(walls):.1f} s, "
              f"max {max(walls):.1f} s; attempted {rows[0]['attempted']}, "
              f"failed share {sorted(shares)}; correct {correct}")
        print(f"  {'metric':<14} {'median':>10} {'q1':>10} {'q3':>10} {'spread':>8} {'bound':>6}")
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in rows]
            if None in values:
                print(f"  {metric:<14} no value in {values.count(None)} of the runs")
                ok = False
                continue
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med
            flag = "" if spread < bound / 3 else "  <- above bound/3"
            ok &= spread < bound
            print(f"  {metric:<14} {med:>10.4f} {q1:>10.4f} {q3:>10.4f} {spread:>8.2%} "
                  f"{bound:>6.0%}{flag}")
        ok &= correct and shares == {0.0}
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
