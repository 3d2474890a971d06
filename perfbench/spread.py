#!/usr/bin/env python3
"""Runs the benchmark on one workload with several seeds and prints, per
metric, the median and the spread: the distance between the first and
third quartile (statistics.quantiles, n=4) as a share of the median.

    python3 perfbench/spread.py --workload fit-tall --seeds 1-10 [--trace 0]

Run from the repository root. Each run's result line is appended to
perfbench/out/spread-<workload>.jsonl.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace", default="0")
    args = p.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    os.makedirs("perfbench/out", exist_ok=True)
    log = open(f"perfbench/out/spread-{args.workload}.jsonl", "a")
    values = {}
    for seed in seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", args.trace]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=900)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit code {out.returncode}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        log.write(json.dumps({"seed": seed, **result}) + "\n")
        log.flush()
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", file=sys.stderr)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    for name, vals in values.items():
        med = statistics.median(vals)
        spread = float("nan")
        if len(vals) >= 2 and med:
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / abs(med)
        bound = bounds.get(name)
        flag = "" if bound is None else f"  bound {bound}  {'ok' if spread <= bound / 3 else 'WIDE'}"
        print(f"{name:40s} median {med:14.6g}  spread {spread:7.4f}{flag}")


if __name__ == "__main__":
    main()
