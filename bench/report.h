// Shared experiment-report harness for every bench_* target.
//
// Each bench builds one Report, records its table rows as cases, and
// writes a BENCH_<name>.json file in the working directory before
// handing control to google-benchmark. The emitted document follows one
// uniform schema (version "shlcp.bench.v2", pinned by
// tests/bench_report_test.cpp and validated in CI by
// tools/check_bench_json.py):
//
//   {
//     "schema": "shlcp.bench.v2",
//     "bench": "<name>",                 // BENCH_<name>.json
//     "run": {
//       "git": "<git describe>",         // "unknown" outside a checkout
//       "unix_time": <seconds>,
//       "hardware_concurrency": <int>,
//       "num_threads": <int>,            // resolve_num_threads(0)
//       "smoke": <bool>                  // SHLCP_BENCH_SMOKE set
//     },
//     "meta": { ... },                   // bench-specific scalars
//     "cases": [ {"name": ..., "values": {...}}, ... ],
//     "metrics": { "counters": ..., "gauges": ..., "histograms": ... },
//     "gates": [ {"name": ..., "observed": ..., "relation": ...,
//                 "bound": ...}, ... ]
//   }
//
// "metrics" is the registry snapshot taken at write() time, so every
// report carries the instrumentation totals (frames enumerated, views
// deduped, messages delivered, ...) of the work that produced it.
//
// "gates" is the bench's acceptance contract, declared once with gate()
// / gate_sum() and evaluated by one generic evaluator: write_gated()
// turns it into the bench's exit code, and the checker re-evaluates it
// against the raw fields of the written file. A gate reads
//
//   {"name": "kills", "observed": "meta.kills", "relation": ">=",
//    "bound": 3}
//
//   observed  a path into this document, or a list of paths whose
//             values are summed. Every term of a sum must be a
//             non-negative integer (sums are accounting identities over
//             counters), so they are exact.
//   relation  one of == >= <= > <
//   bound     a number, a bool, or a path.
//
// Paths are '.'-separated member names; a segment in brackets may hold
// any characters but ']' (histogram names carry dots, case names carry
// '/'). A segment applied to an array selects the element whose "name"
// member equals it, so cases are addressed by name:
//
//   meta.kills
//   cases[backends_2].values.ownership_ok
//   metrics.histograms[service.run_decoder.latency_ns].count
//
// A gate fails when a path is missing, when a value is neither a number
// nor a bool, when a bool meets a number, or when the relation is
// false. Bools compare only with "==".

#pragma once

#include <string>
#include <vector>

#include "util/json.h"

namespace shlcp::bench {

inline constexpr const char* kSchemaVersion = "shlcp.bench.v2";

/// True when SHLCP_BENCH_SMOKE is set in the environment: benches
/// shrink their workloads to seconds and skip the google-benchmark
/// timing loops (CI runs every bench this way to validate the reports).
bool smoke();

class Report {
 public:
  /// `name` is the experiment tag: Report("sim") writes BENCH_sim.json.
  explicit Report(std::string name);

  /// Bench-specific scalar metadata, e.g. meta()["seed"] = seed.
  Json& meta() { return meta_; }

  /// Appends a case and returns its "values" object to fill in.
  Json& add_case(std::string name);

  /// Declares a gate: the value at path `observed` must satisfy
  /// `relation` (== >= <= > <) against `bound` (a number, a bool, or a
  /// path). Gate names are unique within a report.
  void gate(std::string name, std::string observed, const char* relation,
            Json bound);

  /// Declares a gate on the sum of the counters at `terms`.
  void gate_sum(std::string name, const std::vector<std::string>& terms,
                const char* relation, Json bound);

  /// The full document, including the current metrics snapshot.
  Json to_json() const;

  /// Writes BENCH_<name>.json to the working directory.
  void write() const;

  /// Writes the document to an explicit path (tests use a temp dir).
  void write_to(const std::string& path) const;

  /// Writes BENCH_<name>.json, then evaluates every declared gate against
  /// the document it wrote. Prints one line per failed gate and returns
  /// the bench's exit code: 0 iff every gate holds.
  int write_gated() const;

 private:
  void add_gate(std::string name, Json observed, const char* relation,
                Json bound);

  std::string name_;
  Json meta_ = Json::object();
  Json cases_ = Json::array();
  Json gates_ = Json::array();
};

/// Evaluates the "gates" array of a report document. Returns one message
/// per failed gate (empty when every gate holds).
std::vector<std::string> failed_gates(const Json& doc);

/// benchmark::Initialize + RunSpecifiedBenchmarks; returns the process
/// exit code. In smoke mode the timing loops are skipped entirely.
int run_benchmarks(int argc, char** argv);

}  // namespace shlcp::bench
