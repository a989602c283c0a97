#!/usr/bin/env python3
"""Validate BENCH_*.json files against the shlcp.bench.v2 schema.

Usage:
    check_bench_json.py BENCH_sim.json [BENCH_parallel_enum.json ...]
    check_bench_json.py --trace trace.jsonl
    check_bench_json.py --ckpt CKPT_DIR [CKPT_DIR ...]
    check_bench_json.py --self-test

The schema is pinned in bench/report.h and tests/bench_report_test.cpp;
this script is the outside check that the bench_<name>_report ctests run
against the files the smoke benches actually wrote. Besides the document shape it evaluates the
report's "gates" array (format in bench/report.h): every gate is
recomputed from the raw fields of the file, so an edited count, a
broken accounting sum, or a missing case or histogram fails here even
though the bench that wrote the file passed. The gate names each gated
bench must declare are pinned in REQUIRED_GATES, so a report whose
gates were deleted fails too.
With --trace it instead validates a JSONL trace file (one span/event
object per line, as emitted by src/util/trace.cpp).
With --ckpt it validates checkpoint directories written by the resumable
V(D, n) builders (schema shlcp.ckpt.v1, pinned in src/nbhd/checkpoint.h):
exact manifest keys and types, frames_done <= num_frames, known status
and stop_reason values, digest format, and that the state file's FNV-1a
hash matches the recorded state_digest.

With --self-test it validates itself: it writes known-good and
known-bad fixtures to a temporary directory, re-invokes this script on
each, and asserts every documented exit code below.

Exit codes (the overall code is the maximum across all files checked):
    0  every file validates
    1  a file parsed but violated its schema or one of its gates
    2  usage error: no arguments, no files, or an unknown --mode flag
    3  a named file or directory is missing or unreadable
    4  a named file exists but is not well-formed JSON

Prints one line per problem.
"""

import json
import operator
import os
import re
import subprocess
import sys
import tempfile

# The documented exit-code contract. Checkers return one of these per
# file; main() reports the maximum across all files, so the most severe
# problem wins (MALFORMED > MISSING > FAIL > PASS).
PASS = 0
FAIL = 1
USAGE = 2
MISSING = 3
MALFORMED = 4

SCHEMA = "shlcp.bench.v2"
# Every schema id this checker knows how to validate. A document whose
# "schema" member is not listed here is an error, never a silent pass:
# a renamed or future schema must come with an updated checker.
KNOWN_SCHEMAS = {SCHEMA}
TOP_KEYS = ["schema", "bench", "run", "meta", "cases", "metrics", "gates"]
RUN_KEYS = ["git", "unix_time", "hardware_concurrency", "num_threads", "smoke"]
METRIC_KEYS = ["counters", "gauges", "histograms"]
GATE_KEYS = ["name", "observed", "relation", "bound"]
RELATIONS = {"==": operator.eq, ">=": operator.ge, "<=": operator.le,
             ">": operator.gt, "<": operator.lt}
TRACE_TYPES = {"span", "event"}

CKPT_SCHEMA = "shlcp.ckpt.v1"
CKPT_KEYS = ["schema", "git", "decoder", "build", "k", "options_hash",
             "num_frames", "frames_done", "instances_absorbed", "status",
             "stop_reason", "state_file", "state_digest", "frames_digest"]
CKPT_STR_KEYS = ["schema", "git", "decoder", "build", "options_hash",
                 "status", "stop_reason", "state_file", "state_digest",
                 "frames_digest"]
CKPT_INT_KEYS = ["k", "num_frames", "frames_done", "instances_absorbed"]
CKPT_STATUSES = {"in_progress", "complete"}
CKPT_STOP_REASONS = {"none", "cancel_requested", "interrupt", "deadline",
                     "frame_budget", "instance_budget", "memory_budget",
                     "stall"}
DIGEST_RE = re.compile(r"^fnv:[0-9a-f]{16}$")


def _per_case(cases, fields):
    return [f"{c}.{f}" for c in cases for f in fields]


# The gates every run of a gated bench must declare, smoke or full: the
# names the two sizes share (a full run adds more, e.g. fleet's
# backends_4 and parallel_enum's threads_4/threads_8 cases). A report
# of one of these benches that lacks any of them fails, so a bench (or
# an edit to its report) cannot drop a gate and still pass.
REQUIRED_GATES = {
    "service": [
        "verified", "drain_refused", "requests", "cold_errors",
        "warm_errors", "hit_rate_warm_floor", "hit_rate_warm_ceiling",
    ] + [f"{op}_latency_recorded" for op in (
        "run_decoder", "check_coloring", "search_witness", "build_nbhd")],
    "chaos": [
        "wrong_responses", "kills", "repro_round_trip", "replay_match",
        "reserves_primed", "disk_hit_after_restart", "torn_entry_is_miss",
    ] + [f"{p}_{f}" for p in ("chaos", "crash") for f in (
        "requests", "accounting", "errors", "retries", "reconnects",
        "timeouts", "digest_mismatches")]
    + ["chaos_lost_minority", "crash_lost"],
    "fleet": ["distinct_keys"] + _per_case(
        ["backends_1", "backends_2"],
        ["backends", "requests", "accounting", "errors", "wrong",
         "duplicate_computes", "reroutes", "sum_misses", "ownership_ok",
         "req_per_s"]),
    "supervisor": [
        "wrong_responses", "kills", "restarts", "any_quarantined",
        "budget_ok", "warm_hit_after_restart", "all_running_at_end",
        "stream_requests", "stream_accounting", "stream_errors",
        "stream_lost",
    ],
    "interactive": [
        "binding_violations", "binding_ok", "binding_sessions",
        "forgeries_tried", "binding_attacks", "hiding_ok",
        "hiding_colorings", "hiding_coloring_0", "hiding_coloring_1",
    ] + _per_case(
        [f"rounds_{r}" for r in (1, 2, 4, 8, 16)],
        ["rounds", "sessions", "accepted", "rate_min", "rate_max",
         "envelope_min", "envelope_max", "within"])
    + ["serving_attempts", "opened_is_attempts", "session_accounting",
       "admission_accounting", "aborted", "live", "sessions",
       "honest_sessions_accepted"],
    "parallel_enum": _per_case(
        ["sequential", "threads_1", "threads_2"],
        ["seconds", "instances_per_sec", "speedup",
         "fingerprint_accounting", "canonical_computes", "steals",
         "chunks_adaptive"]) + ["registrations"],
}


def fnv1a_hex(data):
    """FNV-1a 64 over bytes (src/util/hash.h fnv1a64), rendered exactly
    like src/nbhd/checkpoint.cpp."""
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return f"fnv:{h:016x}"


def fail(path, msg):
    print(f"{path}: {msg}")
    return False


def load_json(path):
    """Returns (code, doc): (PASS, parsed) on success, or (MISSING, None)
    / (MALFORMED, None) after printing the problem."""
    try:
        with open(path, encoding="utf-8") as f:
            return PASS, json.load(f)
    except OSError as e:
        fail(path, f"unreadable: {e}")
        return MISSING, None
    except json.JSONDecodeError as e:
        fail(path, f"not JSON: {e}")
        return MALFORMED, None


def check_report(path):
    code, doc = load_json(path)
    if code:
        return code
    return PASS if check_report_doc(path, doc) else FAIL


def check_report_doc(path, doc):
    ok = True
    if not isinstance(doc, dict) or list(doc.keys()) != TOP_KEYS:
        ok = fail(path, f"top-level keys must be exactly {TOP_KEYS}, "
                        f"got {list(doc) if isinstance(doc, dict) else type(doc).__name__}")
        return ok
    if doc["schema"] not in KNOWN_SCHEMAS:
        ok = fail(path, f"unknown schema id {doc['schema']!r} (known: "
                        f"{sorted(KNOWN_SCHEMAS)}); refusing to validate")
        return ok
    if doc["schema"] != SCHEMA:
        ok = fail(path, f"schema is {doc['schema']!r}, expected {SCHEMA!r}")
    if not isinstance(doc["bench"], str) or not doc["bench"]:
        ok = fail(path, "bench must be a non-empty string")

    run = doc["run"]
    if not isinstance(run, dict) or list(run.keys()) != RUN_KEYS:
        ok = fail(path, f"run keys must be exactly {RUN_KEYS}")
    else:
        if not isinstance(run["git"], str):
            ok = fail(path, "run.git must be a string")
        for key in ("unix_time", "hardware_concurrency", "num_threads"):
            if not isinstance(run[key], int) or isinstance(run[key], bool):
                ok = fail(path, f"run.{key} must be an integer")
        if not isinstance(run["smoke"], bool):
            ok = fail(path, "run.smoke must be a boolean")

    if not isinstance(doc["meta"], dict):
        ok = fail(path, "meta must be an object")

    cases = doc["cases"]
    if not isinstance(cases, list):
        ok = fail(path, "cases must be an array")
    else:
        seen = set()
        for i, case in enumerate(cases):
            if (not isinstance(case, dict)
                    or list(case.keys()) != ["name", "values"]
                    or not isinstance(case["name"], str)
                    or not isinstance(case["values"], dict)):
                ok = fail(path, f"cases[{i}] must be "
                                '{"name": str, "values": object}')
                continue
            if case["name"] in seen:
                ok = fail(path, f"duplicate case name {case['name']!r}")
            seen.add(case["name"])

    metrics = doc["metrics"]
    if not isinstance(metrics, dict) or list(metrics.keys()) != METRIC_KEYS:
        ok = fail(path, f"metrics keys must be exactly {METRIC_KEYS}")
    else:
        for name, hist in metrics["histograms"].items():
            if len(hist.get("counts", [])) != len(hist.get("bounds", [])) + 1:
                ok = fail(path, f"histogram {name!r}: len(counts) must be "
                                "len(bounds) + 1")
            if sum(hist.get("counts", [])) != hist.get("count"):
                ok = fail(path, f"histogram {name!r}: counts do not sum to "
                                "count")

    gates = doc["gates"]
    if not isinstance(gates, list):
        return fail(path, "gates must be an array")
    names = set()
    for i, gate in enumerate(gates):
        if (not isinstance(gate, dict) or list(gate.keys()) != GATE_KEYS
                or not isinstance(gate["name"], str)):
            ok = fail(path, f"gates[{i}] must be {{{', '.join(GATE_KEYS)}}} "
                            "with a string name")
            continue
        if gate["name"] in names:
            ok = fail(path, f"duplicate gate name {gate['name']!r}")
        names.add(gate["name"])
        problem = gate_failure(doc, gate)
        if problem:
            ok = fail(path, f"gate {problem}")
    for name in REQUIRED_GATES.get(doc["bench"], []):
        if name not in names:
            ok = fail(path, f"gate {name!r} is required for bench "
                            f"{doc['bench']!r} but missing")
    return ok


# A resolved path can legitimately hold JSON null, so absence needs its
# own marker.
_MISSING = object()


def _child(node, key):
    """An object member, or the element of an array whose "name" member
    equals `key` (how cases are addressed)."""
    if isinstance(node, dict):
        return node.get(key, _MISSING)
    if isinstance(node, list):
        for item in node:
            if isinstance(item, dict) and item.get("name") == key:
                return item
    return _MISSING


def resolve(doc, path):
    """Resolves a gate path (grammar in bench/report.h), mirroring the
    C++ evaluator: '.'-separated segments, bracketed segments may hold
    any characters but ']'. Returns _MISSING when the path is malformed
    or a segment is absent."""
    node, i = doc, 0
    while i < len(path):
        if path[i] == "[":
            close = path.find("]", i)
            if close < 0:
                return _MISSING
            key, i = path[i + 1:close], close + 1
        else:
            ends = [j for j in (path.find(".", i), path.find("[", i)) if j >= 0]
            end = min(ends, default=len(path))
            key, i = path[i:end], end
        if i < len(path) and path[i] == ".":
            i += 1
            if i == len(path):
                return _MISSING  # trailing '.'
        elif i < len(path) and path[i] != "[":
            return _MISSING  # "[a]b": a bracket must end a segment
        node = _child(node, key) if key else _MISSING
        if node is _MISSING:
            return _MISSING
    return node if path else _MISSING


def _operand(doc, spec):
    """(value, text, error) for a literal bound or a path."""
    if isinstance(spec, str):
        value = resolve(doc, spec)
        if value is _MISSING:
            return None, None, f"{spec} is missing"
        text = f"{spec} = {json.dumps(value)}"
    else:
        value, text = spec, json.dumps(spec)
    if not isinstance(value, (bool, int, float)):
        return None, None, f"{text} is neither a number nor a bool"
    return value, text, None


def _sum(doc, terms):
    """(total, text, error) over counter paths: every term must be a
    non-negative integer, so the sum is exact."""
    if not terms:
        return None, None, "empty sum"
    total = 0
    for term in terms:
        if not isinstance(term, str):
            return None, None, "a sum term is not a path"
        value = resolve(doc, term)
        if value is _MISSING:
            return None, None, f"{term} is missing"
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            return None, None, (f"{term} = {json.dumps(value)} is not a "
                                "non-negative integer")
        total += value
    return total, f"{' + '.join(terms)} = {total}", None


def gate_failure(doc, gate):
    """Evaluates one gate against the document; returns None when it
    holds, else why it fails."""
    name, relation = gate["name"], gate["relation"]
    if not isinstance(relation, str) or relation not in RELATIONS:
        return f"{name}: unknown relation {json.dumps(relation)}"
    observed = gate["observed"]
    if isinstance(observed, list):
        a, a_text, error = _sum(doc, observed)
    elif isinstance(observed, str):
        a, a_text, error = _operand(doc, observed)
    else:
        error = "observed is not a path"
    if not error:
        b, b_text, error = _operand(doc, gate["bound"])
    if error:
        return f"{name}: {error}"
    if isinstance(a, bool) or isinstance(b, bool):
        ok = (isinstance(a, bool) and isinstance(b, bool)
              and relation == "==" and a == b)
    else:
        ok = RELATIONS[relation](a, b)
    return None if ok else f"{name}: {a_text}, expected {relation} {b_text}"


def check_trace(path):
    code = PASS
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.readlines()
    except OSError as e:
        fail(path, f"unreadable: {e}")
        return MISSING
    if not lines:
        fail(path, "trace is empty")
        return FAIL
    for lineno, line in enumerate(lines, 1):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as e:
            fail(path, f"line {lineno}: not JSON: {e}")
            code = max(code, MALFORMED)
            continue
        kind = record.get("type")
        if kind not in TRACE_TYPES:
            fail(path, f"line {lineno}: type must be one of "
                       f"{sorted(TRACE_TYPES)}")
            code = max(code, FAIL)
            continue
        required = {"span": ["type", "name", "tid", "t0_ns", "dur_ns"],
                    "event": ["type", "name", "tid", "t_ns"]}[kind]
        missing = [k for k in required if k not in record]
        if missing:
            fail(path, f"line {lineno}: {kind} missing {missing}")
            code = max(code, FAIL)
        if "attrs" in record and not isinstance(record["attrs"], dict):
            fail(path, f"line {lineno}: attrs must be an object")
            code = max(code, FAIL)
    return code


def check_ckpt(ckpt_dir):
    manifest_path = os.path.join(ckpt_dir, "manifest.json")
    code, doc = load_json(manifest_path)
    if code:
        return code

    ok = True
    if not isinstance(doc, dict) or list(doc.keys()) != CKPT_KEYS:
        fail(manifest_path,
             f"manifest keys must be exactly {CKPT_KEYS}, got "
             f"{list(doc) if isinstance(doc, dict) else type(doc).__name__}")
        return FAIL
    for key in CKPT_STR_KEYS:
        if not isinstance(doc[key], str) or not doc[key]:
            ok = fail(manifest_path, f"{key} must be a non-empty string")
    for key in CKPT_INT_KEYS:
        if not isinstance(doc[key], int) or isinstance(doc[key], bool) \
                or doc[key] < 0:
            ok = fail(manifest_path, f"{key} must be a non-negative integer")
    if not ok:
        return FAIL
    if doc["schema"] != CKPT_SCHEMA:
        ok = fail(manifest_path,
                  f"schema is {doc['schema']!r}, expected {CKPT_SCHEMA!r}")
    if doc["frames_done"] > doc["num_frames"]:
        ok = fail(manifest_path,
                  f"frames_done ({doc['frames_done']}) exceeds num_frames "
                  f"({doc['num_frames']})")
    if doc["status"] not in CKPT_STATUSES:
        ok = fail(manifest_path, f"status {doc['status']!r} must be one of "
                                 f"{sorted(CKPT_STATUSES)}")
    if doc["status"] == "complete" and doc["frames_done"] != doc["num_frames"]:
        ok = fail(manifest_path, "status is \"complete\" but frames_done != "
                                 "num_frames")
    if doc["stop_reason"] not in CKPT_STOP_REASONS:
        ok = fail(manifest_path,
                  f"stop_reason {doc['stop_reason']!r} must be one of "
                  f"{sorted(CKPT_STOP_REASONS)}")
    for key in ("options_hash", "state_digest", "frames_digest"):
        if not DIGEST_RE.match(doc[key]):
            ok = fail(manifest_path,
                      f"{key} {doc[key]!r} must match fnv:<16 hex digits>")
    if os.path.basename(doc["state_file"]) != doc["state_file"]:
        fail(manifest_path, f"state_file {doc['state_file']!r} must be "
                            "a bare filename inside the directory")
        return FAIL
    state_path = os.path.join(ckpt_dir, doc["state_file"])
    try:
        with open(state_path, "rb") as f:
            state_bytes = f.read()
    except OSError as e:
        fail(state_path, f"unreadable: {e}")
        return MISSING
    digest = fnv1a_hex(state_bytes)
    if digest != doc["state_digest"]:
        ok = fail(state_path, f"hashes to {digest} but the manifest records "
                              f"{doc['state_digest']} (torn or tampered)")
    try:
        json.loads(state_bytes)
    except json.JSONDecodeError as e:
        ok = fail(state_path, f"not JSON: {e}")
    return PASS if ok else FAIL


MODES = {
    "--trace": check_trace,
    "--ckpt": check_ckpt,
}


def _selftest_report(gates=()):
    """A minimal document that passes the plain check, with `gates`."""
    return {
        "schema": SCHEMA,
        "bench": "selftest",
        "run": {"git": "0000000", "unix_time": 0,
                "hardware_concurrency": 1, "num_threads": 1, "smoke": True},
        "meta": {"kills": 3, "rate": 0.75, "verified": True, "ok": 7,
                 "refused": 2, "lost": 1, "requests": 10, "repro": "x;y"},
        "cases": [{"name": "warm/total", "values": {"errors": 0}}],
        "metrics": {"counters": {}, "gauges": {},
                    "histograms": {"service.op.latency_ns": {
                        "bounds": [10], "counts": [1, 1], "count": 2}}},
        "gates": [{"name": f"g{i}", "observed": observed,
                   "relation": relation, "bound": bound}
                  for i, (observed, relation, bound) in enumerate(gates)],
    }


# One gate per relation, plus a sum, a bool, a bound path, a case by name
# (its name carries '/'), and a histogram whose name carries dots.
SELFTEST_HOLDING_GATES = [
    ("meta.kills", "==", 3),
    ("meta.kills", ">=", 3),
    ("meta.rate", "<=", 1),
    ("meta.rate", ">", 0.5),
    ("meta.kills", "<", "meta.requests"),
    (["meta.ok", "meta.refused", "meta.lost"], "==", "meta.requests"),
    ("meta.verified", "==", True),
    ("cases[warm/total].values.errors", "==", 0),
    ("metrics.histograms[service.op.latency_ns].count", ">", 0),
]

# Each of these must fail the plain check with exit code 1.
SELFTEST_FAILING_GATES = {
    "eq": ("meta.kills", "==", 4),
    "ge": ("meta.kills", ">=", 4),
    "le": ("meta.rate", "<=", 0.5),
    "gt": ("meta.kills", ">", 3),
    "lt": ("meta.kills", "<", 3),
    "sum": (["meta.ok", "meta.refused"], "==", "meta.requests"),
    "bool": ("meta.verified", "==", False),
    "missing_path": ("meta.no_such_field", ">=", 0),
    "missing_case": ("cases[cold/total].values.errors", "==", 0),
    "missing_histogram": ("metrics.histograms[service.x.latency_ns].count",
                          ">", 0),
    "missing_bound": ("meta.kills", "<=", "meta.no_such_bound"),
    "malformed_path": ("meta.kills.", ">=", 0),
    "non_numeric": ("meta.repro", "==", 0),
    "bool_vs_number": ("meta.verified", "==", 1),
    "bool_ordering": ("meta.verified", ">=", True),
    "sum_of_float": (["meta.rate", "meta.ok"], ">=", 0),
    "unknown_relation": ("meta.kills", "!=", 4),
}


def self_test():
    """Asserts the documented exit-code contract by re-invoking this
    script as a subprocess on generated fixtures. Returns 0 iff every
    invocation produced exactly the expected code."""
    script = os.path.abspath(__file__)

    def run(args):
        proc = subprocess.run([sys.executable, script] + args,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        return proc.returncode, proc.stdout

    failures = 0
    with tempfile.TemporaryDirectory(prefix="check_bench_selftest.") as tmp:
        def write(name, content):
            path = os.path.join(tmp, name)
            with open(path, "w", encoding="utf-8") as f:
                if isinstance(content, str):
                    f.write(content)
                else:
                    json.dump(content, f)
            return path

        good = write("good.json", _selftest_report(SELFTEST_HOLDING_GATES))
        bad_schema = _selftest_report()
        bad_schema["schema"] = "shlcp.bench.v999"
        bad = write("bad_schema.json", bad_schema)
        duplicate = _selftest_report(SELFTEST_HOLDING_GATES[:1])
        duplicate["gates"] *= 2
        # A supervisor report carrying every pinned gate passes; the
        # same report with one of them deleted fails.
        pinned = _selftest_report()
        pinned["bench"] = "supervisor"
        pinned["gates"] = [{"name": name, "observed": "meta.kills",
                            "relation": ">=", "bound": 0}
                           for name in REQUIRED_GATES["supervisor"]]
        pinned_good = write("pinned_good.json", pinned)
        del pinned["gates"][3]
        pinned_dropped = write("pinned_dropped.json", pinned)
        malformed = write("malformed.json", '{"schema": "shlcp.bench.v2",')
        missing = os.path.join(tmp, "does_not_exist.json")

        expectations = [
            (PASS, [good]),
            (FAIL, [bad]),
            (FAIL, [write("duplicate_gate.json", duplicate)]),
            (PASS, [pinned_good]),
            (FAIL, [pinned_dropped]),
            (USAGE, []),
            (USAGE, ["--trace"]),
            (USAGE, ["--no-such-mode", good]),
            (MISSING, [missing]),
            (MALFORMED, [malformed]),
            # The overall code is the max across files: a malformed file
            # dominates a merely-failing one.
            (MALFORMED, [bad, malformed]),
            (MALFORMED, [malformed, good]),
        ]
        for label, gate in SELFTEST_FAILING_GATES.items():
            expectations.append((FAIL, [write(f"fails_{label}.json",
                                              _selftest_report([gate]))]))
        for expected, args in expectations:
            code, output = run(args)
            if code != expected:
                failures += 1
                print(f"self-test: {args!r} exited {code}, expected "
                      f"{expected}; output:\n{output}")
    if failures:
        print(f"self-test: {failures} expectation(s) failed")
        return 1
    print(f"self-test: all {len(expectations)} exit-code "
          "expectations hold")
    return 0


def main(argv):
    if len(argv) >= 2 and argv[1] == "--self-test":
        return self_test()
    if len(argv) < 2:
        print(__doc__.strip())
        return USAGE
    if argv[1].startswith("--"):
        checker = MODES.get(argv[1])
        if checker is None:
            print(f"unknown mode {argv[1]!r}; known modes: "
                  f"{' '.join(sorted(MODES))} --self-test")
            return USAGE
        paths = argv[2:]
    else:
        paths, checker = argv[1:], check_report
    if not paths:
        print("no files given")
        return USAGE
    worst = PASS
    for path in paths:
        code = checker(path)
        if code == PASS:
            print(f"{path}: OK")
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main(sys.argv))
