// Fleet scaling + disjoint-sharding acceptance gate for the shard
// router (DESIGN.md §15, EXPERIMENTS.md E22).
//
// Spawns N real shlcpd backends on ephemeral TCP ports (discovered via
// --port-file) and drives a fixed deterministic payload pool through an
// in-process Router -- the same object shlcp_router serves from behind
// its transport loops -- for N along a 1 -> max scaling curve. Three
// gates per fleet size:
//
//  1. Bit-identity: every routed response's result must be
//     byte-identical to an in-process oracle Service answering the
//     same (op, params). The router may never change an answer.
//
//  2. Disjoint sharding, verified by construction: with every backend
//     alive, the sum of per-backend cache misses (read from the
//     router's aggregated `health`) must equal the number of distinct
//     artifact keys in the stream -- each key computed exactly once
//     fleet-wide, zero duplicate computes, zero reroutes.
//
//  3. Ownership: each payload's first-preference backend
//     (Router::preference_for) must be the one that actually answered
//     it, checked against the per-backend forwarded counters.
//
// Results go to BENCH_fleet.json with one case per fleet size carrying
// the requests/sec scaling curve, plus the gates (bench/report.h). On this repo's CI runners the curve
// is a schema artifact, not a perf claim -- single-core machines
// serialize the backends -- so the gates are correctness-shaped (bit
// identity, zero duplicates), never throughput-shaped beyond "> 0".
// Exit status is nonzero if any gate fails.

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/report.h"
#include "service/cache.h"
#include "service/router.h"
#include "service/service.h"
#include "service/supervisor.h"
#include "sim/faults.h"
#include "util/check.h"
#include "util/format.h"
#include "util/json.h"

using namespace shlcp;
using svc::BackendSpec;
using svc::Router;
using svc::RouterOptions;
using svc::Service;

namespace {

int fleet_requests() { return bench::smoke() ? 120 : 400; }
int fleet_workers() { return 3; }
std::vector<int> fleet_sizes() {
  return bench::smoke() ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4};
}

/// The fixed payload pool (the same shape bench_chaos uses): every
/// request draws one of kPoolSize deterministic payloads, so the
/// oracle is computed once and the distinct-key count is exact.
constexpr int kPoolSize = 16;

std::pair<std::string, Json> pool_payload(int slot) {
  const std::uint64_t variant = static_cast<std::uint64_t>(slot) / 4;
  Json params = Json::object();
  switch (slot % 4) {
    case 0: {
      static const std::pair<const char*, const char*> kCombos[] = {
          {"degree-one", "path5"},
          {"spanning-bfs", "cycle6"},
          {"even-cycle", "cycle8"},
          {"degree-one", "star5"},
      };
      const auto& [lcp, inst] = kCombos[variant % std::size(kCombos)];
      params["lcp"] = lcp;
      params["instance"] = inst;
      params["labels"] = "honest";
      if (variant % 2 == 1) {
        FaultPlan plan;
        plan.label = "drop-light";
        plan.seed = 0xC0FFEE + variant;
        plan.drop_permille = 100;
        params["plan"] = plan.describe();
      }
      return {"run_decoder", std::move(params)};
    }
    case 1: {
      static const char* kPool[] = {"path5", "cycle5", "grid23", "theta222"};
      params["instance"] = kPool[variant % std::size(kPool)];
      params["k"] = static_cast<std::int64_t>(2 + variant % 2);
      return {"check_coloring", std::move(params)};
    }
    case 2: {
      params["family"] = variant % 2 == 0 ? "degree-one" : "even-cycle";
      params["max_n"] = 4;
      return {"search_witness", std::move(params)};
    }
    default: {
      static const std::pair<const char*, const char*> kBuilds[] = {
          {"degree-one", "path:4"},
          {"even-cycle", "cycle:4"},
          {"spanning-bfs", "path:4"},
          {"even-cycle", "cycle:6"},
      };
      const auto& [lcp, spec] = kBuilds[variant % std::size(kBuilds)];
      params["lcp"] = lcp;
      Json& graphs = (params["graphs"] = Json::array());
      graphs.push_back(spec);
      params["build"] = "proved";
      return {"build_nbhd", std::move(params)};
    }
  }
}

/// Ground truth: the same library code the backends run, in-process.
std::vector<std::string> compute_oracle() {
  Service oracle;
  std::vector<std::string> dumps;
  for (int slot = 0; slot < kPoolSize; ++slot) {
    auto [op, params] = pool_payload(slot);
    Json req = Json::object();
    req["id"] = static_cast<std::int64_t>(slot);
    req["op"] = op;
    req["params"] = std::move(params);
    const Json resp = oracle.handle(req);
    SHLCP_CHECK_MSG(resp.at("ok").as_bool(),
                    "oracle refused slot " + std::to_string(slot) + ": " +
                        resp.dump());
    dumps.push_back(resp.at("result").dump());
  }
  return dumps;
}

std::size_t distinct_keys() {
  std::set<std::string> keys;
  for (int slot = 0; slot < kPoolSize; ++slot) {
    auto [op, params] = pool_payload(slot);
    keys.insert(svc::artifact_key(op, params));
  }
  return keys.size();
}

struct Backend {
  pid_t pid = -1;
  int port = 0;
};

/// fork+exec one TCP backend on an ephemeral port; blocks until its
/// --port-file handshake lands and returns the bound port.
Backend spawn_backend(const std::string& shlcpd, const std::string& dir,
                      int index) {
  const std::string port_file = format("%s/ports%d.json", dir.c_str(), index);
  const std::string log_path = format("%s/backend%d.log", dir.c_str(), index);
  Backend backend;
  backend.pid = ::fork();
  SHLCP_CHECK_MSG(backend.pid >= 0, "fork failed");
  if (backend.pid == 0) {
    const int log_fd =
        ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (log_fd >= 0) {
      ::dup2(log_fd, 1);
      ::dup2(log_fd, 2);
      ::close(log_fd);
    }
    ::execl(shlcpd.c_str(), shlcpd.c_str(), "--tcp", "127.0.0.1:0",
            "--port-file", port_file.c_str(), "--threads", "1",
            static_cast<char*>(nullptr));
    std::perror("execl shlcpd");
    _exit(127);
  }
  for (int i = 0; i < 200; ++i) {
    std::ifstream in(port_file);
    if (in) {
      std::stringstream buf;
      buf << in.rdbuf();
      const Json ports = Json::parse(buf.str());
      backend.port = static_cast<int>(ports.at("tcp").as_uint());
      return backend;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  SHLCP_CHECK_MSG(false, "backend " + std::to_string(index) +
                             " never published its port file");
  return backend;
}

struct CaseResult {
  int backends = 0;
  std::uint64_t requests = 0;
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;
  std::uint64_t wrong = 0;
  std::uint64_t reroutes = 0;
  std::uint64_t sum_misses = 0;
  std::uint64_t duplicate_computes = 0;
  bool ownership_ok = false;
  double seconds = 0;
  double req_per_s = 0;
};

/// One fleet size: spawn n backends, route the pool through an
/// in-process Router, read the aggregated health back, tear down.
CaseResult run_case(const std::string& shlcpd, int n,
                    const std::vector<std::string>& oracle) {
  char tmpl[] = "/tmp/shlcp-fleet.XXXXXX";
  SHLCP_CHECK_MSG(::mkdtemp(tmpl) != nullptr, "mkdtemp failed");
  const std::string dir = tmpl;

  std::vector<Backend> fleet;
  RouterOptions options;
  for (int b = 0; b < n; ++b) {
    fleet.push_back(spawn_backend(shlcpd, dir, b));
    BackendSpec spec;
    spec.name = format("b%d", b);
    spec.target = format("tcp:127.0.0.1:%d", fleet.back().port);
    options.backends.push_back(std::move(spec));
  }
  Router router(options);
  SHLCP_CHECK_MSG(router.probe_all() == n, "not every backend came up");

  CaseResult result;
  result.backends = n;
  const int total = fleet_requests();
  const int workers = fleet_workers();
  std::vector<CaseResult> outs(static_cast<std::size_t>(workers));
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      CaseResult& out = outs[static_cast<std::size_t>(w)];
      for (int i = w; i < total; i += workers) {
        const int slot = i % kPoolSize;
        auto [op, params] = pool_payload(slot);
        Json req = Json::object();
        req["id"] = static_cast<std::int64_t>(i);
        req["op"] = op;
        req["params"] = std::move(params);
        const Json resp = router.handle(req);
        out.requests += 1;
        if (!resp.at("ok").as_bool()) {
          out.errors += 1;
          std::fprintf(stderr, "bench_fleet: slot %d failed: %s\n", slot,
                       resp.dump().c_str());
        } else if (resp.at("result").dump() !=
                   oracle[static_cast<std::size_t>(slot)]) {
          out.wrong += 1;
          std::fprintf(stderr, "bench_fleet: WRONG RESPONSE slot %d\n", slot);
        } else {
          out.ok += 1;
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  for (const CaseResult& out : outs) {
    result.requests += out.requests;
    result.ok += out.ok;
    result.errors += out.errors;
    result.wrong += out.wrong;
  }
  result.req_per_s = result.seconds > 0
                         ? static_cast<double>(result.requests) / result.seconds
                         : 0;

  // Gate 2: the aggregated health carries each backend's cache misses;
  // with every backend alive their sum must be the distinct-key count.
  Json health_req = Json::object();
  health_req["id"] = "health";
  health_req["op"] = "health";
  const Json health = router.handle(health_req);
  if (health.at("ok").as_bool()) {
    for (const Json& b : health.at("result").at("backends").items()) {
      result.sum_misses += b.at("health").at("cache").at("misses").as_uint();
    }
  } else {
    result.errors += 1;
  }
  const std::uint64_t distinct = distinct_keys();
  result.duplicate_computes =
      result.sum_misses > distinct ? result.sum_misses - distinct : 0;

  // Gate 3: every request went to its key's first-preference backend
  // -- each backend's forwarded count must equal the requests whose
  // preference order starts there (plus the health fan-out), and
  // nothing was rerouted.
  std::vector<std::uint64_t> expected(static_cast<std::size_t>(n), 0);
  for (int i = 0; i < total; ++i) {
    auto [op, params] = pool_payload(i % kPoolSize);
    const std::vector<int> pref = router.preference_for(op, params);
    expected[static_cast<std::size_t>(pref.at(0))] += 1;
  }
  result.ownership_ok = true;
  for (const auto& stats : router.backend_stats()) {
    result.reroutes += stats.rerouted;
    const std::size_t index =
        static_cast<std::size_t>(std::stoi(stats.name.substr(1)));
    // Only routed requests count as forwards (probe_all and the
    // info/health fan-outs bypass the ring), so the match is exact.
    if (stats.forwarded != expected[index]) {
      result.ownership_ok = false;
      std::fprintf(
          stderr,
          "bench_fleet: backend %s forwarded %llu, expected %llu owned\n",
          stats.name.c_str(),
          static_cast<unsigned long long>(stats.forwarded),
          static_cast<unsigned long long>(expected[index]));
    }
  }
  if (result.reroutes != 0) {
    result.ownership_ok = false;
  }

  for (const Backend& b : fleet) {
    ::kill(b.pid, SIGKILL);
    int status = 0;
    ::waitpid(b.pid, &status, 0);
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return result;
}

}  // namespace

int main() {
  const std::string shlcpd = svc::Supervisor::find_shlcpd(nullptr);
  if (shlcpd.empty()) {
    std::fprintf(stderr,
                 "bench_fleet: cannot find shlcpd (set SHLCP_SHLCPD or run "
                 "from the build tree)\n");
    return 1;
  }

  std::printf("== oracle: %d payload slots (%zu distinct keys) ==\n",
              kPoolSize, distinct_keys());
  const std::vector<std::string> oracle = compute_oracle();

  bench::Report report("fleet");
  report.meta()["distinct_keys"] = static_cast<std::uint64_t>(distinct_keys());
  report.gate("distinct_keys", "meta.distinct_keys", ">", 0);
  // The first size is the single-backend baseline, the rest the scaling
  // curve; each case is gated on its own, so a missing one fails too.
  for (const int n : fleet_sizes()) {
    std::printf("== fleet of %d backend(s): %d requests ==\n", n,
                fleet_requests());
    const CaseResult r = run_case(shlcpd, n, oracle);
    std::printf(
        "backends=%d: %.1f req/s (%llu ok, %llu errors, %llu wrong) "
        "misses=%llu distinct=%zu duplicates=%llu reroutes=%llu "
        "ownership=%s\n",
        n, r.req_per_s, static_cast<unsigned long long>(r.ok),
        static_cast<unsigned long long>(r.errors),
        static_cast<unsigned long long>(r.wrong),
        static_cast<unsigned long long>(r.sum_misses), distinct_keys(),
        static_cast<unsigned long long>(r.duplicate_computes),
        static_cast<unsigned long long>(r.reroutes),
        r.ownership_ok ? "ok" : "FAILED");
    const std::string c = format("backends_%d", n);
    Json& values = report.add_case(c);
    values["backends"] = static_cast<std::int64_t>(n);
    values["requests"] = r.requests;
    values["ok"] = r.ok;
    values["errors"] = r.errors;
    values["wrong"] = r.wrong;
    values["seconds"] = r.seconds;
    values["req_per_s"] = r.req_per_s;
    values["sum_misses"] = r.sum_misses;
    values["duplicate_computes"] = r.duplicate_computes;
    values["reroutes"] = r.reroutes;
    values["ownership_ok"] = r.ownership_ok;

    const auto key = [&c](const char* field) {
      return format("cases[%s].values.%s", c.c_str(), field);
    };
    report.gate(c + ".backends", key("backends"), "==", n);
    report.gate(c + ".requests", key("requests"), ">", 0);
    report.gate_sum(c + ".accounting", {key("ok"), key("errors"), key("wrong")},
                    "==", key("requests"));
    // Bit-identity with the oracle, and no failed call.
    for (const char* zero : {"errors", "wrong", "duplicate_computes",
                             "reroutes"}) {
      report.gate(c + "." + zero, key(zero), "==", 0);
    }
    // Disjoint sharding, recomputed from the raw miss count.
    report.gate_sum(c + ".sum_misses", {key("sum_misses")}, "<=",
                    "meta.distinct_keys");
    report.gate(c + ".ownership_ok", key("ownership_ok"), "==", true);
    report.gate(c + ".req_per_s", key("req_per_s"), ">", 0);
  }
  return report.write_gated();
}
