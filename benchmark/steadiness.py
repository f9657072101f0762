#!/usr/bin/env python3
"""Steadiness report for the repository benchmark.

Runs the benchmark command from BENCHMARK.json once per seed on each
workload, then prints, for every end-to-end metric, the median and the
quartile spread (Q3 - Q1 over the median, quartiles as
``statistics.quantiles(values, n=4)`` gives them) next to the metric's
bound. A spread below a third of the bound is ``steady``; below the
bound, ``within``; otherwise ``NOISY``. With ``--sets 2`` every seed list
is run twice and the second median is compared with the first.

Run from the repository root:

    python3 benchmark/steadiness.py --seeds 1-10
    python3 benchmark/steadiness.py --workloads answer_miss --seeds 1-5
    python3 benchmark/steadiness.py --seeds 1-10 --sets 2 --save runs.json
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def seed_list(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(command, workload, seed, seconds, trace, logs=None):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    started = time.time()
    proc = subprocess.run(args, capture_output=True, text=True)
    took = time.time() - started
    if logs:
        os.makedirs(logs, exist_ok=True)
        with open(os.path.join(logs, f"{workload}-{seed}-{trace}.log"), "a") as f:
            f.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}, no result")
    result = json.loads(lines[-1])
    return result, took


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", help="comma-separated (default: all)")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,7,11")
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--save", help="write every result line to this JSON file")
    parser.add_argument("--logs", help="append each run's standard error to a file here")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    command = bench["command"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seeds = seed_list(args.seeds)
    section = "per_layer" if args.trace else "end_to_end"
    metrics = bench[section]

    runs = {}
    worst_ok = True
    for w in workloads:
        sets = []
        for s in range(args.sets):
            results = []
            for seed in seeds:
                result, took = run_once(command, w, seed, bench["run_seconds"], args.trace,
                                        args.logs)
                ok = result["correct"] and result["failed"] == 0
                worst_ok &= ok
                print(f"# {w} set {s + 1} seed {seed}: {took:.1f}s correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']}",
                      file=sys.stderr, flush=True)
                results.append(result)
            sets.append(results)
        runs[w] = sets

        print(f"\n## {w} ({len(seeds)} seeds x {args.sets} set(s))")
        print(f"{'metric':34} {'median':>14} {'Q1':>14} {'Q3':>14} {'spread':>8} "
              f"{'bound':>6}  verdict")
        for m in metrics:
            name = m["name"]
            bound = m.get("bound")
            first = [r["metrics"][name]["value"] for r in sets[0]]
            med, q1, q3, sp = spread(first)
            verdict = ""
            if bound is not None:
                if sp < bound / 3:
                    verdict = "steady"
                elif sp <= bound:
                    verdict = "within"
                else:
                    verdict = "NOISY"
                    worst_ok = False
                if args.sets == 2:
                    second = [r["metrics"][name]["value"] for r in sets[1]]
                    med2 = statistics.median(second)
                    worse = (med2 - med) / med if m["better"] == "lower" else (med - med2) / med
                    agree = worse <= bound
                    worst_ok &= agree
                    verdict += f"; set 2 median {med2:.6g} ({'ok' if agree else 'WORSE'} "
                    verdict += f"{worse:+.3f})"
            print(f"{name:34} {med:14.6g} {q1:14.6g} {q3:14.6g} {sp:8.3f} "
                  f"{bound if bound is not None else '-':>6}  {verdict}")

    if args.save:
        with open(args.save, "w") as f:
            json.dump(runs, f, indent=1)
    return 0 if worst_ok else 1


if __name__ == "__main__":
    sys.exit(main())
