#!/usr/bin/env python3
"""Runs perfbench in two checkouts as alternating pairs and compares them.

    python3 tools/perf_pairs.py PARENT CHANGE --workload hot_keys \\
        --pairs 10 --seed 1 --seconds 16 [--trace 0|1]

PARENT and CHANGE are the roots of two checkouts. Each pair runs
`perfbench/run.py` once in each tree, back to back; the side that goes
first alternates from pair to pair, so a drift of the host over time
does not favour either side. Each run's result is the last JSON line it
prints.

For every metric the summary prints each side's median and quartiles,
how many pairs the change won, the ratio of the medians, and -- for the
end-to-end metrics of BENCHMARK.json -- that metric's bound and whether
the change is worse than the parent by more than it. "beyond IQR" says
whether the medians differ by more than the distance between the
parent's quartiles. Exits 1 if any run failed or reported
`correct: false`, and 2 on a usage error.

`--self-test` checks the summary arithmetic on canned results without
running perfbench.
"""

import argparse
import json
import os
import subprocess
import sys

def quantile(values, q):
    """Linear interpolation between the closest ranks (numpy's default)."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def load_spec(path):
    """{metric: (better, bound or None)} from a BENCHMARK.json."""
    with open(path) as f:
        bench = json.load(f)
    spec = {}
    for m in bench.get("per_layer", []):
        spec[m["name"]] = (m["better"], None)
    for m in bench.get("end_to_end", []):
        spec[m["name"]] = (m["better"], m["bound"])
    return spec


def summarize(parent_runs, change_runs, spec):
    """One row per metric present in every run of both sides.

    Runs are perfbench result documents ({"metrics": {name: {"value":
    v}}}); parent_runs[i] and change_runs[i] form pair i.
    """
    assert len(parent_runs) == len(change_runs) and parent_runs
    names = None
    for run in parent_runs + change_runs:
        present = set(run.get("metrics", {}))
        names = present if names is None else names & present
    def order(name):  # end-to-end metrics (those with a bound) first
        return spec.get(name, ("", None))[1] is None, name

    rows = []
    for name in sorted(names, key=order):
        better, bound = spec.get(name, ("lower", None))
        p = [run["metrics"][name]["value"] for run in parent_runs]
        c = [run["metrics"][name]["value"] for run in change_runs]
        if better == "higher":
            wins = sum(1 for a, b in zip(p, c) if b > a)
        else:
            wins = sum(1 for a, b in zip(p, c) if b < a)
        p_med, c_med = quantile(p, 0.5), quantile(c, 0.5)
        p_q1, p_q3 = quantile(p, 0.25), quantile(p, 0.75)
        ratio = c_med / p_med if p_med else None
        worse = None
        if bound is not None and ratio is not None:
            if better == "lower":
                worse = ratio > 1 + bound
            else:
                worse = ratio < 1 - bound
        rows.append({
            "metric": name,
            "better": better,
            "parent": {"median": p_med, "q1": p_q1, "q3": p_q3},
            "change": {"median": c_med, "q1": quantile(c, 0.25),
                       "q3": quantile(c, 0.75)},
            "wins": wins,
            "pairs": len(p),
            "ratio": ratio,
            "bound": bound,
            "worse": worse,
            "beyond_iqr": abs(c_med - p_med) > p_q3 - p_q1,
        })
    return rows


def fmt(x):
    return "%.4g" % x


def print_rows(rows, out=sys.stdout):
    header = ("metric", "parent med [q1, q3]", "change med [q1, q3]", "wins",
              "ratio", "bound", "verdict", "beyond IQR")
    table = [header]
    for r in rows:
        p, c = r["parent"], r["change"]
        verdict = "-"
        if r["worse"] is not None:
            verdict = "WORSE" if r["worse"] else "ok"
        table.append((
            r["metric"],
            "%s [%s, %s]" % (fmt(p["median"]), fmt(p["q1"]), fmt(p["q3"])),
            "%s [%s, %s]" % (fmt(c["median"]), fmt(c["q1"]), fmt(c["q3"])),
            "%d/%d" % (r["wins"], r["pairs"]),
            "-" if r["ratio"] is None else "%.3f" % r["ratio"],
            "-" if r["bound"] is None else "%g" % r["bound"],
            verdict,
            "yes" if r["beyond_iqr"] else "no",
        ))
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    for row in table:
        line = "  ".join(cell.ljust(w) for cell, w in zip(row, widths))
        print(line.rstrip(), file=out)


def run_once(tree, args):
    """One perfbench run in `tree`; its result document, or None."""
    command = [sys.executable, os.path.join("perfbench", "run.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    proc = subprocess.run(command, cwd=tree, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        print("perf_pairs: run in %s exited %d" % (tree, proc.returncode),
              file=sys.stderr)
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        print("perf_pairs: run in %s printed no JSON result" % tree,
              file=sys.stderr)
        return None


def self_test():
    def run(values):
        return {"correct": True,
                "metrics": {k: {"value": v} for k, v in values.items()}}

    spec = {"cpu": ("lower", 0.25), "rps": ("higher", 0.25),
            "rung": ("lower", None)}
    parent = [run({"cpu": v, "rps": 100.0, "rung": 5.0, "only_p": 1.0})
              for v in (10.0, 12.0, 11.0, 13.0)]
    change = [run({"cpu": v, "rps": r, "rung": 5.0})
              for v, r in ((5.0, 70.0), (6.0, 72.0), (13.0, 74.0),
                           (5.5, 80.0))]
    rows = {r["metric"]: r for r in summarize(parent, change, spec)}
    assert sorted(rows) == ["cpu", "rps", "rung"], rows  # common metrics
    cpu = rows["cpu"]
    assert cpu["parent"]["median"] == 11.5, cpu
    assert cpu["parent"]["q1"] == 10.75 and cpu["parent"]["q3"] == 12.25, cpu
    assert cpu["change"]["median"] == 5.75, cpu
    assert cpu["wins"] == 3 and cpu["pairs"] == 4, cpu  # pair 3 lost
    assert cpu["ratio"] == 0.5 and cpu["worse"] is False, cpu
    assert cpu["beyond_iqr"] is True, cpu
    rps = rows["rps"]  # higher is better: 0.73x is past the 0.25 bound
    assert rps["wins"] == 0 and rps["worse"] is True, rps
    assert abs(rps["ratio"] - 0.73) < 1e-12, rps
    rung = rows["rung"]  # per-layer: no bound, no verdict, no win on ties
    assert rung["bound"] is None and rung["worse"] is None, rung
    assert rung["wins"] == 0 and rung["beyond_iqr"] is False, rung
    assert quantile([3.0], 0.25) == 3.0
    with open(os.devnull, "w") as devnull:
        print_rows(list(rows.values()), out=devnull)
    print("perf_pairs self-test: ok")
    return 0


def main(argv):
    if "--self-test" in argv:
        return self_test()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    for tree in (args.parent, args.change):
        if not os.path.isfile(os.path.join(tree, "perfbench", "run.py")):
            parser.error("%s has no perfbench/run.py" % tree)

    parent_runs, change_runs = [], []
    failed = False
    for i in range(args.pairs):
        order = [("parent", args.parent), ("change", args.change)]
        if i % 2:
            order.reverse()
        results = {}
        for side, tree in order:
            results[side] = run_once(tree, args)
            doc = results[side]
            ok = doc is not None and doc.get("correct") is True
            failed = failed or not ok
            print("pair %d %s: %s" % (i + 1, side, "ok" if ok else "FAILED"),
                  file=sys.stderr)
        if results["parent"] is not None and results["change"] is not None:
            parent_runs.append(results["parent"])
            change_runs.append(results["change"])

    if parent_runs:
        print("%s, seed %d, %g s, %d pair(s)" %
              (args.workload, args.seed, args.seconds, len(parent_runs)))
        spec = load_spec(os.path.join(args.change, "BENCHMARK.json"))
        print_rows(summarize(parent_runs, change_runs, spec))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
