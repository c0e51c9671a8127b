#!/usr/bin/env python3
"""Repeat the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --runs 10 --trace 0 [--workload W ...]

For every workload x metric prints the median, the first and third
quartiles (statistics.quantiles, n=4) and the spread: the interquartile
distance as a share of the median, the figure the bounds in
BENCHMARK.json are set against.  --json FILE also saves every run's
values.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit("incorrect run: %s seed %d" % (workload, seed))
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--json")
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2 to give quartiles")
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench[section]}
    bounds = {m["name"]: m.get("bound") for m in bench[section]}

    raw = {}
    for w in workloads:
        raw[w] = []
        for i in range(args.runs):
            values = run_once(w, args.first_seed + i, bench["run_seconds"], args.trace)
            raw[w].append(values)
            print("%s seed %d: %s" % (w, args.first_seed + i, json.dumps(values)),
                  file=sys.stderr, flush=True)
    if args.json:
        json.dump(raw, open(args.json, "w"), indent=1)

    print("| workload | metric | unit | median | q1 | q3 | spread | bound |")
    print("|---|---|---|---|---|---|---|---|")
    for w in workloads:
        for name in units:
            vals = [r[name] for r in raw[w]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound = bounds[name]
            print("| %s | %s | %s | %.6g | %.6g | %.6g | %.3f | %s |" % (
                w, name, units[name], med, q1, q3, spread,
                "" if bound is None else bound))


if __name__ == "__main__":
    main()
