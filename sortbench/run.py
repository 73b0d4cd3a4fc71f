#!/usr/bin/env python3
"""Builds the sort benchmark from source and runs one workload.

    python3 sortbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds
`sortbench` (Release) under .bench_build/; later calls rebuild only what
changed. Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. The exit code is the benchmark's: 0 only when
every sort was correct.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY_DIR = os.path.join(BUILD, "sortbench")
WORK = os.path.join(BUILD, "work")

# One run measures --seconds, plus set-up and the last sort's overrun.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 800


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BINARY_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BINARY_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BINARY_DIR, "--target", "sortbench",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            sys.exit("sortbench: build step failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    build()
    os.makedirs(WORK, exist_ok=True)
    command = [os.path.join(BINARY_DIR, "sortbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--work-dir", WORK]
    with subprocess.Popen(command) as bench:
        try:
            return bench.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            bench.kill()
            bench.wait()
            print("sortbench: timed out", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
