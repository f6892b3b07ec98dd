#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload ycsb-c-point --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout. It builds perfbench/perfbench.exe with
dune (the first build compiles the libraries it links), then runs it. Build
output goes to standard error; the benchmark's report goes to standard output
and ends with one JSON line. The exit code is the benchmark's: 0 when every
answer was correct. Scratch files (the e-served data directory, span dumps)
go to .perfbench_run/ in the checkout.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["ycsb-c-point", "ycsb-a-batch", "ycsb-e-served"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        sys.exit("perfbench: %s holds no dune project to build" % ROOT)
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ROOT, "--cache", "disabled",
             "perfbench/perfbench.exe"],
            stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit("perfbench: build failed: %s" % e)
    if build.returncode != 0:
        sys.exit("perfbench: build failed (exit %d)" % build.returncode)

    exe = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
    try:
        run = subprocess.run(
            [exe, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--dir", os.path.join(ROOT, ".perfbench_run")],
            timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
