#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 e2ebench/spread.py --workload NAME [--seeds 1-10]

Runs the benchmark with --trace 0 for BENCHMARK.json's run_seconds, once
per seed and one process at a time. Prints each run's determinism digest
and metrics, then, for every end-to-end metric, the median and the
distance between the first and third quartile as a share of the median,
next to the metric's bound from BENCHMARK.json. Exits 1 when a run failed
or was not correct.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values, ok = {}, True
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}")
            ok = False
            continue
        result = json.loads(lines[-1])
        shown = " ".join(f"{k}={m['value']:.4g}"
                         for k, m in result["metrics"].items())
        print(f"seed {seed}: {lines[-2]} correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"{shown}")
        ok = ok and result["correct"] and result["failed"] == 0
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    print(f"{'metric':34} {'median':>14} {'iqr/median':>10} {'bound':>6}")
    for name, vs in values.items():
        med = statistics.median(vs)
        if len(vs) >= 2:
            q1, _, q3 = statistics.quantiles(vs, n=4)
            share = (q3 - q1) / med if med else float("nan")
        else:
            share = float("nan")
        bound = bounds.get(name)
        print(f"{name:34} {med:14.6g} {share:10.4f} "
              f"{'' if bound is None else bound:>6}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
