#!/usr/bin/env python3
"""Steadiness report of the repository benchmark.

Runs one workload k times, each with another seed, and prints for every
metric of the result line its median, IQR/median (the distance between
the first and third quartile of `statistics.quantiles(values, n=4)`, over
the median) and range/median.

    python3 perfbench/steady.py --workload l2-orgs --runs 10 --first-seed 101

Run it from the repository root. It runs the command named in
`BENCHMARK.json` with that file's `run_seconds`. A run that exits
non-zero, prints no result line or reports `correct: false` is listed and
makes the report exit 1.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(cmd, workload, seed, seconds, trace):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True)
    elapsed = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, result, elapsed, proc.stderr


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=101)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    cmd = list(bench["command"])
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values = {}
    units = {}
    bad = []
    for i in range(opts.runs):
        seed = opts.first_seed + i
        code, result, elapsed, stderr = run_once(
            cmd, opts.workload, seed, seconds, opts.trace)
        if result is None or not result.get("correct") or result.get("failed"):
            bad.append((seed, code, result, stderr.strip()[-400:]))
            print(f"seed {seed}: FAILED (exit {code}, {elapsed:.1f} s)", flush=True)
            continue
        shown = ", ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: {elapsed:.1f} s, {result['attempted']} attempted; {shown}",
              flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]

    print()
    print(f"{opts.workload}, trace {opts.trace}: {opts.runs} runs of {seconds} s, "
          f"seeds {opts.first_seed}..{opts.first_seed + opts.runs - 1}")
    print(f"  {'metric':<34} {'median':>12} {'IQR/med':>8} {'range/med':>9} "
          f"{'bound':>6}  unit")
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            iqr = (q3 - q1) / med if med else float("nan")
            rng = (max(vals) - min(vals)) / med if med else float("nan")
        else:
            iqr = rng = float("nan")
        bound = bounds.get(name)
        shown_bound = f"{bound:.2f}" if bound is not None else "-"
        print(f"  {name:<34} {med:>12.6g} {iqr:>8.4f} {rng:>9.4f} {shown_bound:>6}  "
              f"{units[name]}")
    for seed, code, result, stderr in bad:
        print(f"  seed {seed} failed: exit {code}; result {result}; {stderr}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
