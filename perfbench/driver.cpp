// perfbench_driver -- the serving benchmark of shlcpd and shlcp_router.
//
//   perfbench_driver --workload W --seed N --seconds S --trace 0|1
//                    [--run-dir DIR]
//
// --trace 0 launches the deployed daemons and prints the end-to-end
// metrics; --trace 1 runs the layer ladder and a traced in-process run
// of the same topology and prints the per-layer metrics. Both check
// every answer. The last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}; the exit code is 0
// only when every check held. perfbench/README.md lists the workloads
// and metrics and why they were chosen.

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "hosts.h"
#include "ladder.h"
#include "load.h"
#include "service/cache.h"
#include "service/client.h"
#include "service/router.h"
#include "service/service.h"
#include "stats.h"
#include "tracing.h"
#include "util/metrics.h"
#include "workloads.h"

namespace {

using perfbench::LoadConfig;
using perfbench::LoadResult;
using perfbench::MetricSet;
using perfbench::Pinning;
using perfbench::Workload;
using shlcp::Json;
namespace svc = shlcp::svc;

constexpr int kSetups = 9;
// Untraced runs measure in rounds of kClosedPerRound closed-loop
// windows then kOpenPerRound open-loop windows, kRounds of them
// splitting --seconds kClosedShare : 1 - kClosedShare. Each metric is
// the median over the calmest third of its windows (calm_median); a
// window in which the hypervisor stole kCalmSteal of the machine's CPU
// time or more counts as noisy. Interleaving lets a calm stretch
// anywhere in the run serve both loops.
constexpr int kRounds = 6;
constexpr int kClosedPerRound = 2;
constexpr int kOpenPerRound = 5;
constexpr double kClosedShare = 0.3;
constexpr double kCalmSteal = 0.03;
// A closed-loop warm-up before the windows, checked but not measured:
// it brings cold_keys' cache to its budget, so its windows all see the
// evicting steady state.
constexpr double kWarmupSeconds = 2;
// Every oracle_every-th stateless reply is compared bit for bit.
constexpr std::uint64_t kOracleEvery = 97;

/// Whether to run round k, given the steal of the closed- and open-loop
/// windows run so far: all kRounds, then up to half as many again while
/// fewer than a third of either loop's windows were calm, so that a run
/// meeting a burst of steal still has calm windows to keep.
bool another_round(int k, const std::vector<double>& closed_steal,
                   const std::vector<double>& open_steal) {
  if (k < kRounds) {
    return true;
  }
  auto calm = [](const std::vector<double>& steal) {
    return std::count_if(steal.begin(), steal.end(),
                         [](double s) { return s < kCalmSteal; });
  };
  return k < kRounds + kRounds / 2 &&
         (calm(closed_steal) * 3 < kRounds * kClosedPerRound ||
          calm(open_steal) * 3 < kRounds * kOpenPerRound);
}

/// Open-loop offered rate per workload, in wire requests per second.
/// On a shared 4-vCPU x86 virtual machine the pipelined closed loop
/// saturated hot_keys at 41k-54k, cold_keys at 9k-12k, routed_fleet at
/// 11k-15k and sessions at 42k-55k req/s; the rates are about a sixth
/// of that, not the half a dedicated machine would allow. The open loop
/// sends through 4 synchronous Clients, which at half of saturation
/// would be busy most of the time and send late, and on this machine
/// the hypervisor's steal cuts capacity by a quarter for seconds at a
/// time, which near capacity builds a backlog that swamps the tail.
/// Fixed constants, so a faster server shows as lower latency at the
/// same load rather than as a different load.
double open_loop_rate(Workload w) {
  switch (w) {
    case Workload::kHotKeys: return 6000;
    case Workload::kColdKeys: return 2000;
    case Workload::kRoutedFleet: return 2000;
    case Workload::kSessions: return 8000;
  }
  return 1000;
}

struct Args {
  Workload workload = Workload::kHotKeys;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string run_dir = ".bench_build/perfbench-run";
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      throw std::invalid_argument(arg + " needs a value");
    }
    const std::string value = argv[++i];
    if (arg == "--workload") {
      const auto w = perfbench::parse_workload(value);
      if (!w) throw std::invalid_argument("unknown workload " + value);
      a.workload = *w;
      have_workload = true;
    } else if (arg == "--seed") {
      a.seed = std::stoull(value);
    } else if (arg == "--seconds") {
      a.seconds = std::stod(value);
    } else if (arg == "--trace") {
      a.trace = value == "1";
    } else if (arg == "--run-dir") {
      a.run_dir = value;
    } else {
      throw std::invalid_argument("unknown option " + arg);
    }
  }
  if (!have_workload || a.seconds <= 0) {
    throw std::invalid_argument("need --workload and positive --seconds");
  }
  return a;
}

std::string bin_dir() {
  return std::filesystem::read_symlink("/proc/self/exe").parent_path().string();
}

/// Run environment, printed with every result.
Json environment(const Args& a) {
  Json env = Json::object();
  env["nproc"] = static_cast<std::int64_t>(std::thread::hardware_concurrency());
  env["compiler"] = PERFBENCH_COMPILER;
  env["build_type"] = PERFBENCH_BUILD_TYPE;
  const std::string type = PERFBENCH_BUILD_TYPE;
  env["optimized"] = type == "Release" || type == "RelWithDebInfo";
  env["workload"] = perfbench::workload_name(a.workload);
  env["seed"] = a.seed;
  env["seconds"] = a.seconds;
  env["trace"] = a.trace;
  Json& threads = (env["threads"] = Json::object());
  threads["closed_loop"] = Pinning::kClosedLoadThreads;
  threads["open_loop"] = Pinning::kOpenLoadThreads;
  threads["shlcpd"] = Pinning::kShlcpdThreads;
  threads["router"] = Pinning::kRouterThreads;
  threads["backends"] = Pinning::kBackends;
  threads["backend"] = Pinning::kBackendThreads;
  env["closed_loop_depth"] = Pinning::kClosedDepth;
  env["cache_bytes"] = static_cast<std::uint64_t>(Pinning::kCacheBytes);
  env["open_loop_rate"] = open_loop_rate(a.workload);
  return env;
}

/// Outcome checks; each failure is printed and counted.
struct Checks {
  std::uint64_t failed = 0;
  void expect(bool ok, const std::string& what) {
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
    }
  }
};

Json call_or_throw(const std::string& target, const std::string& op) {
  svc::Client client(svc::Client::connector_for(target, {}), {});
  const svc::CallResult r = client.call(op, Json::object());
  if (!r.ok) throw std::runtime_error(op + " call failed: " + r.error_code);
  return Json::parse(r.result_dump);
}

void print_phase(const char* name, const LoadResult& r) {
  std::printf("%-7s %8llu requests in %6.2f s: %llu ok, %llu errors, %llu "
              "refused, %llu lost, %llu bad digests; %llu unreadable replies retried",
              name, static_cast<unsigned long long>(r.attempted), r.elapsed_s,
              static_cast<unsigned long long>(r.ok),
              static_cast<unsigned long long>(r.errors),
              static_cast<unsigned long long>(r.refused),
              static_cast<unsigned long long>(r.lost),
              static_cast<unsigned long long>(r.bad_digest),
              static_cast<unsigned long long>(r.client.digest_mismatches));
  for (const auto& [op, n] : r.op_counts) {
    std::printf(" %s=%llu", op.c_str(), static_cast<unsigned long long>(n));
  }
  std::printf("\n");
}

/// Bit-exact comparison of the kept replies against an in-process
/// Service.
void check_oracle(const perfbench::RequestStream& stream,
                  const LoadResult& r, Checks& checks) {
  svc::Service oracle;
  std::uint64_t mismatches = 0;
  for (const auto& [i, dump] : r.samples) {
    mismatches += perfbench::matches_oracle(oracle, stream.at(i), dump) ? 0 : 1;
  }
  std::printf("oracle: %zu replies compared, %llu mismatches\n", r.samples.size(),
              static_cast<unsigned long long>(mismatches));
  checks.expect(mismatches == 0, "replies match the in-process oracle");
  checks.expect(!r.samples.empty(), "oracle sample is non-empty");
}

/// Hit ratio of the measured phases: the cache fill of setup (one miss
/// per hot key, no hits) is left out of the base.
double measured_hit_ratio(Workload w, std::uint64_t hits, std::uint64_t misses,
                          std::uint64_t distinct) {
  const std::uint64_t fill = w == Workload::kColdKeys ? 0 : distinct;
  const std::uint64_t lookups = hits + misses - std::min(misses, fill);
  return lookups == 0 ? 0 : static_cast<double>(hits) / static_cast<double>(lookups);
}

/// Cache accounting of a stateless run: hit ratio >= 0.99 on the hot
/// workloads (misses are exactly the distinct keys), exactly 0 on
/// cold_keys (every request a miss).
void check_cache(Workload w, std::uint64_t hits, std::uint64_t misses,
                 std::uint64_t distinct, std::uint64_t requests, Checks& checks) {
  const double ratio = measured_hit_ratio(w, hits, misses, distinct);
  std::printf("cache: measured hit ratio %.6f (%llu hits, %llu misses of which %llu "
              "in setup, %llu distinct keys)\n",
              ratio, static_cast<unsigned long long>(hits),
              static_cast<unsigned long long>(misses),
              static_cast<unsigned long long>(w == Workload::kColdKeys ? 0 : distinct),
              static_cast<unsigned long long>(distinct));
  if (w == Workload::kColdKeys) {
    checks.expect(hits == 0 && misses == requests, "cold_keys never hits the cache");
  } else {
    checks.expect(misses == distinct, "each hot key computed exactly once");
    checks.expect(ratio >= 0.99, "hot hit ratio >= 0.99");
  }
}

/// Session accounting: every honest session accepted and
/// opened == completed + expired + aborted + live.
void check_sessions(const Json& sessions, const LoadResult& r, Checks& checks) {
  const std::uint64_t opened = sessions.at("opened").as_uint();
  const std::uint64_t completed = sessions.at("completed").as_uint();
  const std::uint64_t sum = completed + sessions.at("expired").as_uint() +
                            sessions.at("aborted").as_uint() +
                            sessions.at("live").as_uint();
  std::printf("sessions: %llu started, %llu opened, %llu completed, %llu rejected\n",
              static_cast<unsigned long long>(r.sessions),
              static_cast<unsigned long long>(opened),
              static_cast<unsigned long long>(completed),
              static_cast<unsigned long long>(r.rejected_sessions));
  checks.expect(opened == sum, "opened == completed + expired + aborted + live");
  checks.expect(r.rejected_sessions == 0 && completed == r.sessions,
                "every honest session accepted");
}

/// CPU time and peak RSS summed over the server processes.
perfbench::ProcUsage server_usage(const std::vector<pid_t>& pids) {
  perfbench::ProcUsage total;
  for (const pid_t pid : pids) {
    perfbench::ProcUsage u;
    if (perfbench::read_proc_usage(pid, &u)) {
      total.cpu_s += u.cpu_s;
      total.hwm_mb += u.hwm_mb;
    }
  }
  return total;
}

/// Flushes dirty pages of the run directory's filesystem, so every
/// setup starts from the same page-cache state: the fleet's disk-cache
/// writes slow down several-fold while earlier setups' files await
/// writeback.
void sync_run_dir(const std::string& run_dir) {
  const int fd = open(run_dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    syncfs(fd);
    close(fd);
  }
}

/// Runs one load phase of the workload.
LoadResult phase(const Args& a, const perfbench::RequestStream* stream,
                 LoadConfig config) {
  return stream != nullptr ? perfbench::run_requests(*stream, config)
                           : perfbench::run_sessions(a.seed, config);
}

/// Fleet checks of routed_fleet: every backend computed exactly the
/// keys the ring assigns it (so misses sum to the distinct keys).
void check_ownership(const Json& health, const perfbench::RequestStream& stream,
                     Checks& checks) {
  svc::RouterOptions options;
  std::vector<std::uint64_t> misses;
  for (const Json& b : health.at("backends").items()) {
    options.backends.push_back(
        svc::BackendSpec{b.at("name").as_string(), b.at("target").as_string()});
    misses.push_back(b.at("health").at("cache").at("misses").as_uint());
  }
  const svc::Router ring(options);
  std::vector<std::uint64_t> owned(misses.size(), 0);
  for (const perfbench::Request& r : stream.hot_keys()) {
    ++owned[static_cast<std::size_t>(ring.preference_for(r.op, r.params).front())];
  }
  for (std::size_t b = 0; b < owned.size(); ++b) {
    std::printf("backend %zu: %llu keys owned, %llu computed\n", b,
                static_cast<unsigned long long>(owned[b]),
                static_cast<unsigned long long>(misses[b]));
    checks.expect(owned[b] == misses[b], "backend computes exactly its ring keys");
  }
}

void run_untraced(const Args& a, const std::string& run_dir, MetricSet& metrics,
                  Checks& checks, std::uint64_t* attempted) {
  const Workload w = a.workload;
  std::unique_ptr<perfbench::RequestStream> stream;
  if (w != Workload::kSessions) {
    stream = std::make_unique<perfbench::RequestStream>(w, a.seed);
  }
  const std::string bin = bin_dir();

  // Set up kSetups times (launch, ready, cache fill) and keep the last.
  std::vector<double> setup_s;
  std::unique_ptr<perfbench::DeployedServer> server;
  for (int k = 0; k < kSetups; ++k) {
    if (server) checks.expect(server->stop(), "server exits cleanly");
    sync_run_dir(run_dir);
    const std::uint64_t t0 = perfbench::now_ns();
    server = std::make_unique<perfbench::DeployedServer>(w, bin, run_dir,
                                                         "setup" + std::to_string(k));
    if (stream) {
      checks.expect(perfbench::warm(server->target(), stream->hot_keys()),
                    "cache fill succeeds");
    }
    setup_s.push_back(static_cast<double>(perfbench::now_ns() - t0) / 1e9);
    std::printf("setup %d: ready in %.4f s, warm in %.4f s\n", k, server->ready_s(),
                setup_s.back());
  }

  // The loops run in rounds of short windows, each with the CPU steal
  // the machine saw meanwhile; a stall of the shared host spoils a
  // window rather than the run, and the stolen-from windows are left
  // out. The warm-up's replies are checked with the rest.
  const double cores = std::thread::hardware_concurrency();
  LoadConfig config;
  config.target = server->target();
  config.oracle_every = kOracleEvery;
  config.seconds = kWarmupSeconds;
  LoadResult closed = phase(a, stream.get(), config);
  config.first = closed.next;
  const double closed_s = a.seconds * kClosedShare / (kRounds * kClosedPerRound);
  const double open_s = a.seconds * (1 - kClosedShare) / (kRounds * kOpenPerRound);
  std::vector<double> rps;
  std::vector<double> cpu_per_req;
  std::vector<double> closed_steal;
  LoadResult open;
  std::vector<double> p50;
  std::vector<double> open_steal;
  for (int round = 0; another_round(round, closed_steal, open_steal); ++round) {
    config.seconds = closed_s;
    config.rate = 0;
    for (int k = 0; k < kClosedPerRound; ++k) {
      const double cpu0 = server_usage(server->pids()).cpu_s;
      const perfbench::HostClock host0 = perfbench::read_host_clock();
      const LoadResult r = phase(a, stream.get(), config);
      const perfbench::HostClock host1 = perfbench::read_host_clock();
      const double cpu_s = server_usage(server->pids()).cpu_s - cpu0;
      const double ok = static_cast<double>(std::max<std::uint64_t>(r.ok, 1));
      rps.push_back(static_cast<double>(r.ok) / r.elapsed_s);
      cpu_per_req.push_back(cpu_s * 1e6 / ok);
      closed_steal.push_back(perfbench::steal_share(host0, host1));
      std::printf("closed window %zu: %.1f req/s, %.2f us server CPU per request; "
                  "busy cores: server %.2f, machine %.2f of %.0f; steal %.4f\n",
                  rps.size() - 1, rps.back(), cpu_per_req.back(), cpu_s / r.elapsed_s,
                  perfbench::busy_share(host0, host1) * cores, cores,
                  closed_steal.back());
      perfbench::merge(closed, r);
      config.first = r.next;
    }
    config.seconds = open_s;
    config.rate = open_loop_rate(w);
    for (int k = 0; k < kOpenPerRound; ++k) {
      const perfbench::HostClock host0 = perfbench::read_host_clock();
      LoadResult r = phase(a, stream.get(), config);
      open_steal.push_back(perfbench::steal_share(host0, perfbench::read_host_clock()));
      const perfbench::Quantiles q = perfbench::summarize(r.latency_us);
      const perfbench::Quantiles late = perfbench::summarize(r.late_us);
      std::printf("open window %zu at %.0f req/s: p50 %.2f us, p90 %.2f us, p99 %.2f us "
                  "(n=%zu); generator late p99 %.2f us; steal %.4f\n",
                  p50.size(), config.rate, q.p50, q.p90, q.p99, q.samples, late.p99,
                  open_steal.back());
      p50.push_back(q.p50);
      perfbench::merge(open, r);
      config.first = r.next;
    }
  }
  print_phase("closed", closed);
  print_phase("open", open);

  const Json health = call_or_throw(server->target(), "health");
  LoadResult both = closed;
  perfbench::merge(both, open);
  if (stream) {
    check_oracle(*stream, both, checks);
    std::vector<Json> caches;
    if (w == Workload::kRoutedFleet) {
      check_ownership(health, *stream, checks);
      for (const Json& b : health.at("backends").items()) {
        caches.push_back(b.at("health").at("cache"));
      }
    } else {
      caches.push_back(health.at("cache"));
    }
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    for (const Json& c : caches) {
      hits += c.at("hits").as_uint();
      misses += c.at("misses").as_uint();
    }
    const std::uint64_t distinct =
        w == Workload::kColdKeys ? both.attempted : stream->hot_keys().size();
    check_cache(w, hits, misses, distinct, both.attempted, checks);
  } else {
    check_sessions(health.at("sessions"), both, checks);
  }
  const double rss_mb = server_usage(server->pids()).hwm_mb;
  checks.expect(server->stop(), "server exits cleanly");

  const std::uint64_t total = both.attempted;
  *attempted = total;
  checks.failed += both.failed();
  const std::size_t closed_kept = kRounds * kClosedPerRound / 3;
  const std::size_t open_kept = kRounds * kOpenPerRound / 3;
  metrics.add("throughput_rps", perfbench::calm_median(rps, closed_steal, closed_kept),
              "1/s");
  metrics.add("p50_us", perfbench::calm_median(p50, open_steal, open_kept), "us");
  metrics.add("ok_ratio",
              static_cast<double>(total - std::min(total, checks.failed)) /
                  static_cast<double>(std::max<std::uint64_t>(total, 1)),
              "ratio");
  metrics.add("server_cpu_us_per_req",
              perfbench::calm_median(cpu_per_req, closed_steal, closed_kept), "us");
  metrics.add("server_rss_mb", rss_mb, "MB");
  metrics.add("setup_s", perfbench::median(setup_s), "s");
}

void run_traced(const Args& a, const std::string& run_dir, MetricSet& metrics,
                Checks& checks, std::uint64_t* attempted) {
  const Workload w = a.workload;
  std::vector<double> ladder_router_self;
  perfbench::run_ladder(w, a.seed, metrics, &ladder_router_self, stdout);

  // The supervised fleet is routed_fleet's; the other workloads report
  // a single launch of it, so every traced run carries every metric.
  std::vector<double> ready;
  const int launches = w == Workload::kRoutedFleet ? kSetups : 1;
  for (int k = 0; k < launches; ++k) {
    sync_run_dir(run_dir);
    perfbench::DeployedServer fleet(Workload::kRoutedFleet, bin_dir(), run_dir,
                                    "fleet" + std::to_string(k));
    ready.push_back(fleet.ready_s());
    checks.expect(fleet.stop(), "fleet exits cleanly");
  }
  metrics.add("supervisor.ready_s", perfbench::median(ready), "s");

  std::unique_ptr<perfbench::RequestStream> stream;
  if (w != Workload::kSessions) {
    stream = std::make_unique<perfbench::RequestStream>(w, a.seed);
  }
  perfbench::TracedTopology topo(w);
  if (stream) {
    checks.expect(perfbench::warm(topo.target(), stream->hot_keys()), "cache fill succeeds");
  }
  perfbench::SpanSink& sink = perfbench::SpanSink::global();
  sink.drain();

  // Session occupancy is sampled while the load runs.
  std::atomic<bool> sampling{w == Workload::kSessions};
  std::atomic<std::uint64_t> live_max{0};
  std::thread sampler([&] {
    while (sampling.load()) {
      live_max = std::max<std::uint64_t>(live_max, topo.service(0).session_counters().live);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  // Closed-loop slices run recording off, on, on, off, so drift over
  // the run (a growing cache, a warming CPU) cancels out of the ratio.
  LoadConfig config;
  config.target = topo.target();
  config.oracle_every = kOracleEvery;
  config.seconds = a.seconds / 6;
  std::vector<LoadResult> results;
  double untraced_ok = 0, untraced_s = 0, traced_ok = 0, traced_s = 0;
  double load_cpu = 0, process_cpu = 0;
  shlcp::metrics::reset_values();
  for (int slice = 0; slice < 4; ++slice) {
    const bool on = slice == 1 || slice == 2;
    config.trace = on;
    sink.enable(on);
    perfbench::ProcUsage before;
    perfbench::read_proc_usage(getpid(), &before);
    results.push_back(phase(a, stream.get(), config));
    perfbench::ProcUsage after;
    perfbench::read_proc_usage(getpid(), &after);
    sink.enable(false);
    const LoadResult& r = results.back();
    config.first = r.next;
    (on ? traced_ok : untraced_ok) += static_cast<double>(r.ok);
    (on ? traced_s : untraced_s) += r.elapsed_s;
    load_cpu += r.load_cpu_s;
    process_cpu += after.cpu_s - before.cpu_s;
    print_phase(on ? "traced" : "plain", r);
  }
  config.seconds = a.seconds / 3;
  config.rate = open_loop_rate(w);
  config.trace = true;
  sink.enable(true);
  results.push_back(phase(a, stream.get(), config));
  sink.enable(false);
  sampling = false;
  sampler.join();
  LoadResult& open = results.back();
  print_phase("open", open);

  std::vector<perfbench::Span> spans = sink.drain();
  perfbench::TraceSummary trace = perfbench::analyze(spans);
  const std::string span_file =
      run_dir + "/../trace-" + perfbench::workload_name(w) + ".csv";
  checks.expect(perfbench::write_spans(span_file, spans), "span file written");
  std::printf("trace: %zu spans, %zu of %zu client spans joined, written to %s\n",
              trace.spans, trace.joined, trace.client_us.size(), span_file.c_str());
  checks.expect(trace.joined * 100 >= trace.client_us.size() * 99,
                "at least 99% of client spans join a server span");

  LoadResult all;
  for (const LoadResult& r : results) {
    perfbench::merge(all, r);
  }
  const std::uint64_t total = all.attempted;
  const svc::ClientStats& client = all.client;
  *attempted = total;
  checks.failed += all.failed();

  const svc::CacheStats cache = topo.cache_stats();
  std::uint64_t distinct = 0;
  if (stream) {
    check_oracle(*stream, all, checks);
    distinct = w == Workload::kColdKeys ? total : stream->hot_keys().size();
    check_cache(w, cache.hits, cache.misses, distinct, total, checks);
  } else {
    const shlcp::ia::SessionCounters c = topo.service(0).session_counters();
    Json sessions = Json::object();
    sessions["opened"] = c.opened;
    sessions["completed"] = c.completed;
    sessions["expired"] = c.expired;
    sessions["aborted"] = c.aborted;
    sessions["live"] = c.live;
    check_sessions(sessions, all, checks);
  }

  metrics.add("cache.hit_ratio", measured_hit_ratio(w, cache.hits, cache.misses, distinct),
              "ratio");
  metrics.add("cache.hits", static_cast<double>(cache.hits), "count");
  metrics.add("cache.misses", static_cast<double>(cache.misses), "count");
  metrics.add("cache.evictions", static_cast<double>(cache.evictions), "count");
  metrics.add("netloop.queue_wait_us", perfbench::median(trace.wait_us), "us");
  // The transport loop dequeues everything admitted (up to its batch
  // cap) at each dispatch, so batch sizes are the admission-queue depth
  // at dispatch; the registry keeps them in power-of-4 buckets.
  double depth_max = 0;
  const shlcp::metrics::Snapshot snap = shlcp::metrics::snapshot();
  if (auto h = snap.histograms.find("service.batch.size"); h != snap.histograms.end()) {
    const shlcp::metrics::Snapshot::Hist& hist = h->second;
    for (std::size_t i = 0; i < hist.counts.size() && i < hist.bounds.size(); ++i) {
      depth_max = hist.counts[i] > 0 ? static_cast<double>(hist.bounds[i]) : depth_max;
    }
  }
  metrics.add("netloop.queue_depth_max", depth_max, "count");
  metrics.add("netloop.shed_total", static_cast<double>(topo.shed_total()), "count");
  metrics.add("client.retries", static_cast<double>(client.retries), "count");
  metrics.add("client.reconnects", static_cast<double>(client.reconnects), "count");
  metrics.add("client.digest_mismatches", static_cast<double>(client.digest_mismatches), "count");

  double balance = 1;
  double rerouted = 0;
  if (svc::Router* router = topo.router()) {
    double max_fwd = 0, sum_fwd = 0;
    const auto stats = router->backend_stats();
    for (const auto& b : stats) {
      max_fwd = std::max(max_fwd, static_cast<double>(b.forwarded));
      sum_fwd += static_cast<double>(b.forwarded);
      rerouted += static_cast<double>(b.rerouted);
    }
    balance = sum_fwd > 0 ? max_fwd / (sum_fwd / static_cast<double>(stats.size())) : 1;
  }
  std::vector<double>& router_self =
      topo.router() != nullptr ? trace.router_self_us : ladder_router_self;
  metrics.add("router.self_us", perfbench::median(router_self), "us");
  metrics.add("router.balance", balance, "ratio");
  metrics.add("router.rerouted", rerouted, "count");
  metrics.add("router.duplicate_computes",
              static_cast<double>(cache.misses - std::min(cache.misses, distinct)), "count");
  metrics.add("interactive.live_max", static_cast<double>(live_max.load()), "count");
  const perfbench::Quantiles late = perfbench::summarize(open.late_us);
  const perfbench::Quantiles latency = perfbench::summarize(open.latency_us);
  std::printf("traced open-loop latency: p50 %.2f us, p90 %.2f us, p99 %.2f us (n=%zu)\n",
              latency.p50, latency.p90, latency.p99, latency.samples);
  metrics.add("driver.p99_us", latency.p99, "us");
  metrics.add("driver.late_us_p99", late.p99, "us");
  metrics.add("driver.latency_samples", static_cast<double>(latency.samples), "count");
  metrics.add("driver.cpu_share", process_cpu > 0 ? load_cpu / process_cpu : 0, "ratio");
  metrics.add("trace.overhead_ratio",
              (traced_ok / traced_s) / (untraced_ok / untraced_s), "ratio");
  metrics.add("trace.spans", static_cast<double>(trace.spans), "count");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr,
                 "perfbench_driver: %s\nusage: %s --workload "
                 "hot_keys|cold_keys|routed_fleet|sessions --seed N --seconds S "
                 "--trace 0|1 [--run-dir DIR]\n",
                 e.what(), argv[0]);
    return 2;
  }
  std::printf("env %s\n", environment(args).dump().c_str());
  if (!environment(args).at("optimized").as_bool()) {
    std::fprintf(stderr, "perfbench: WARNING: non-optimized build (%s)\n",
                 PERFBENCH_BUILD_TYPE);
  }
  const std::string run_dir =
      args.run_dir + "/" + perfbench::workload_name(args.workload) + "-" +
      std::to_string(getpid());
  std::filesystem::create_directories(run_dir);

  MetricSet metrics;
  Checks checks;
  std::uint64_t attempted = 0;
  try {
    if (args.trace) {
      run_traced(args, run_dir, metrics, checks, &attempted);
    } else {
      run_untraced(args, run_dir, metrics, checks, &attempted);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    std::filesystem::remove_all(run_dir);
    return 2;
  }
  std::filesystem::remove_all(run_dir);

  const Json metrics_json = metrics.to_json();
  for (const auto& [name, m] : metrics_json.members()) {
    std::printf("metric %-32s %14.6g %s\n", name.c_str(), m.at("value").as_double(),
                m.at("unit").as_string().c_str());
  }
  Json result = Json::object();
  result["correct"] = checks.failed == 0;
  result["attempted"] = std::max<std::uint64_t>(attempted, 1);
  result["failed"] = checks.failed;
  result["metrics"] = metrics_json;
  std::printf("%s\n", result.dump().c_str());
  std::fflush(stdout);
  return checks.failed == 0 ? 0 : 1;
}
