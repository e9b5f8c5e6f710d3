#!/usr/bin/env python3
"""Repeat mode for the benchmark: runs each workload N times, one seed
per run (or one seed for every run), and prints for every metric the median, the quartiles, the
quartile spread as a share of the median, (max - min) / median, and the
metric's bound from BENCHMARK.json.

Run from the root of the repository:

    python3 perfbench/steady.py --runs 10 --seed0 1
    python3 perfbench/steady.py --workloads quad-paper --runs 5 --trace 1
    python3 perfbench/steady.py --runs 5 --seed0 1 --fixed-seed

Quartiles are `statistics.quantiles(values, n=4)`. A metric is flagged
`WIDE` when its quartile spread exceeds a third of its bound (`setup_s`
is exempt: its spread is not bounded, only its median).

Seeds are seed0, seed0+1, ... so that the spread includes the
differences between the task sets of different seeds, as when the
benchmark is checked. With `--fixed-seed` every run uses seed0 and the
spread is the run-to-run noise of one command alone.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True)
    elapsed = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    info = [l for l in lines if l.startswith("perfbench:")]
    return result, info, elapsed


def summarize(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    iqr = (q3 - q1) / med if med else float("inf")
    rng = (max(values) - min(values)) / med if med else float("inf")
    return med, q1, q3, iqr, rng


def main():
    bench = json.load(open("BENCHMARK.json"))
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--fixed-seed", action="store_true",
                    help="run every repetition with seed0")
    opts = ap.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    for workload in opts.workloads.split(","):
        runs = []
        for k in range(opts.runs):
            seed = opts.seed0 if opts.fixed_seed else opts.seed0 + k
            result, info, elapsed = run_once(bench["command"], workload, seed,
                                             opts.seconds, opts.trace)
            if not result["correct"] or result["failed"]:
                raise SystemExit(f"{workload} seed {seed}: correctness check failed")
            runs.append(result)
            print(f"[{workload} seed {seed}] {elapsed:.1f} s  {info[1] if len(info) > 1 else ''}",
                  flush=True)
        seeds = (f"seed {opts.seed0}" if opts.fixed_seed
                 else f"seeds {opts.seed0}..{opts.seed0 + opts.runs - 1}")
        print(f"\n{workload}: {opts.runs} runs, {seeds}")
        print(f"  {'metric':<44} {'median':>14} {'q1':>14} {'q3':>14} {'iqr/med':>8} "
              f"{'range/med':>9} {'bound':>6}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            unit = runs[0]["metrics"][name]["unit"]
            med, q1, q3, iqr, rng = summarize(values)
            bound = bounds.get(name) if opts.trace == 0 else None
            flag = ""
            if bound is not None and name != "setup_s" and iqr > bound / 3:
                flag = "WIDE"
            print(f"  {name:<44} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {iqr:>8.4f} "
                  f"{rng:>9.4f} {bound if bound is not None else '':>6} {unit} {flag}")
        print(flush=True)


if __name__ == "__main__":
    main()
