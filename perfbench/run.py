#!/usr/bin/env python3
"""Builds the serving benchmark from source and runs one workload.

    python3 perfbench/run.py --workload hot_keys --seed 1 --seconds 16 --trace 0

Run from the root of a checkout. The first run configures and builds
perfbench/ (the shlcp library, shlcpd, shlcp_router and the driver) in
Release mode under .bench_build/perfbench; later runs only rebuild what
changed. Build output goes to stderr, so the last stdout line is the
driver's JSON result. Exits nonzero without a result when the sources
are missing, the build fails, or the driver fails or times out.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_DIR = os.path.join(ROOT, ".bench_build", "perfbench-run")
TARGETS = ["shlcpd", "shlcp_router", "perfbench_driver"]
# The driver measures for --seconds, or up to half as long again when
# the host steals CPU time; set-up, the layer ladder and the checks
# around it take well under a minute more.
SETUP_ALLOWANCE_S = 90


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no shlcp sources next to perfbench/", file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target"] + TARGETS)
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["hot_keys", "cold_keys", "routed_fleet",
                                 "sessions"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if not build():
        return 3
    os.makedirs(RUN_DIR, exist_ok=True)
    command = [os.path.join(BUILD, "perfbench_driver"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--run-dir", RUN_DIR]
    sys.stdout.flush()
    try:
        return subprocess.run(
            command, timeout=2 * args.seconds + SETUP_ALLOWANCE_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: driver timed out", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
