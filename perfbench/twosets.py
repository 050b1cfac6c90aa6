#!/usr/bin/env python3
"""Runs the benchmark as two sets of runs and checks that they agree.

    python3 perfbench/twosets.py [--runs 10] [--workloads select_cached,...]

Each set runs every workload --runs times, each run with its own seed, the
workloads interleaved. For each end-to-end metric and workload it prints
both sets' medians, each set's spread (the distance between the first and
third quartile as a share of the median) and the pooled spread, and whether
the two sets agree: each set's spread within the metric's bound (setup_s
exempt), and the second median no worse than the first by more than the
bound. It also checks that both sets failed the same share of operations.
Exits 1 when anything disagrees. Run from the repository root.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}")
    return json.loads(lines[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else float("inf")


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10, help="runs per workload per set")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--seed-base", type=int, default=1)
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    metrics = spec["end_to_end"]

    # results[set][workload] = list of result objects
    results = [{w: [] for w in workloads} for _ in range(2)]
    for s in range(2):
        for i in range(args.runs):
            for w in workloads:
                seed = args.seed_base + 1000 * s + i
                result = run_once(w, seed, args.seconds)
                if not result["correct"]:
                    print(f"{w} seed {seed}: wrong output", file=sys.stderr)
                    return 1
                results[s][w].append(result)
                print(f"set {s + 1} run {i + 1} {w} seed {seed}: " +
                      " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                      file=sys.stderr, flush=True)

    ok = True
    header = f"{'workload':16} {'metric':22} {'median1':>12} {'median2':>12} " \
             f"{'spread1':>8} {'spread2':>8} {'pooled':>8} {'bound':>6}  agree"
    print(header)
    for w in workloads:
        shares = [sum(r["failed"] for r in results[s][w]) /
                  sum(r["attempted"] for r in results[s][w]) for s in range(2)]
        if shares[0] != shares[1]:
            ok = False
            print(f"{w}: failed share differs between sets: {shares}")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            values = [[r["metrics"][name]["value"] for r in results[s][w]] for s in range(2)]
            medians = [statistics.median(v) for v in values]
            spreads = [spread(v) for v in values]
            pooled = spread(values[0] + values[1])
            change = (medians[1] - medians[0]) / medians[0] if medians[0] else float("inf")
            worse = change if m["better"] == "lower" else -change
            agree = worse <= bound and (name == "setup_s" or max(spreads) <= bound)
            ok = ok and agree
            print(f"{w:16} {name:22} {medians[0]:12.6g} {medians[1]:12.6g} "
                  f"{spreads[0]:8.4f} {spreads[1]:8.4f} {pooled:8.4f} {bound:6.2f}  "
                  f"{'yes' if agree else 'NO'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
