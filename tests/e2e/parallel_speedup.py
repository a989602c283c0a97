#!/usr/bin/env python3
"""parallel_speedup.py BENCH_parallel_enum.json: fails when 2 threads ran
markedly slower than 1 (threads_1 / threads_2 < 0.8) in a smoke report
on a multi-core host. Smoke workloads are too small for the bench's
real speedup gate; a single-core host cannot measure speedup, so it
only warns."""

import json
import os
import sys

report = json.load(open(sys.argv[1]))
cases = {c["name"]: c["values"] for c in report["cases"]}
s1 = cases["threads_1"]["seconds"]
s2 = cases["threads_2"]["seconds"]
ratio = s1 / s2
cores = os.cpu_count() or 1
print(f"threads_1 {s1:.4f}s / threads_2 {s2:.4f}s = {ratio:.2f}x "
      f"({cores} cores)")
if cores >= 2 and ratio < 0.8:
    print("FAIL: 2 threads markedly slower than 1 on a multi-core host",
          file=sys.stderr)
    sys.exit(1)
if ratio < 1.0:
    print("warning: no 2-thread speedup measured (expected on "
          "single-core or smoke-sized workloads)")
