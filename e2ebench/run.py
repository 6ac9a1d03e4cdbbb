#!/usr/bin/env python3
"""End-to-end benchmark of the radiomc library.

Builds the e2ebench program (this directory's CMake package, which compiles
the library from ../src) and runs one workload:

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

The build lands in $CARGO_TARGET_DIR, or .bench_build, under the repository
root; build output goes to stderr. The last stdout line is the program's
JSON result. Exits non-zero, printing no result, when the build or the run
fails.

    python3 e2ebench/run.py --self-test

runs toy-size versions of every workload through the same code path in
both trace modes, and checks that every run passes its correctness checks
and that the metrics it prints are exactly the ones BENCHMARK.json names.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "e2ebench")


def build():
    """Configures and brings the program up to date; returns its path.

    Configuring on every run is cheap, and it makes CMake stop with an error
    when the build directory's cache belongs to another checkout, instead of
    silently building that checkout's sources.
    """
    out = build_dir()
    log = sys.stderr
    subprocess.run(["cmake", "-S", HERE, "-B", out,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                   stdout=log, stderr=log, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "--target", "e2ebench", "-j", jobs],
                   stdout=log, stderr=log, check=True)
    return os.path.join(out, "e2ebench")


def run_binary(binary, workload, seed, seconds, trace, toy=False):
    """Runs the program once; returns (exit code, stdout lines).

    Raises subprocess.TimeoutExpired when the run outlasts its length by
    more than 170 s.
    """
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if toy:
        cmd.append("--toy")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=seconds + 170)
    return proc.returncode, proc.stdout.splitlines()


def parse_result(lines):
    """The program's result line as a dict, or None when it is malformed."""
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return None
    return result


def self_test(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            tag = f"{workload} --trace {trace}"
            try:
                code, lines = run_binary(binary, workload, 1, 0.01, trace,
                                         toy=True)
            except subprocess.TimeoutExpired:
                problems.append(f"{tag}: timed out")
                continue
            result = parse_result(lines)
            if code != 0 or result is None:
                problems.append(f"{tag}: exit {code}, no result line")
                continue
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{tag}: checks failed ({result['failed']} "
                                f"of {result['attempted']} operations)")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                units = sorted(k for k in set(got) & set(expected[trace])
                               if got[k] != expected[trace][k])
                problems.append(f"{tag}: metrics differ from BENCHMARK.json "
                                f"(missing {missing}, not listed {extra}, "
                                f"unit mismatch {units})")
            print(f"self-test {tag}: {lines[-2] if len(lines) > 1 else ''}")
    for p in problems:
        print(f"self-test FAILED: {p}", file=sys.stderr)
    print("self-test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"e2ebench: build failed: {e}", file=sys.stderr)
        return 1
    if args.self_test:
        return self_test(binary)

    try:
        code, lines = run_binary(binary, args.workload, args.seed,
                                 args.seconds, args.trace)
    except subprocess.TimeoutExpired:
        print("e2ebench: the benchmark program timed out", file=sys.stderr)
        return 1
    if code != 0 or parse_result(lines) is None:
        print(f"e2ebench: the benchmark program exited {code} without a valid "
              "result",
              file=sys.stderr)
        return code or 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
