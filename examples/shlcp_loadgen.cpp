// shlcp_loadgen -- load generator for shlcpd and shlcp_router.
//
// Drives a mixed 4-endpoint workload against a daemon it spawns itself,
// or against a running one on a unix socket or a TCP endpoint (a
// backend or the router -- both speak the same framing):
//
//   shlcp_loadgen --spawn build/examples/shlcpd --requests 200
//   shlcp_loadgen --socket /tmp/shlcp.sock --concurrency 16
//   shlcp_loadgen --tcp 127.0.0.1:7400 --open-loop --rate 500
//
// --spawn SHLCPD starts `SHLCPD --socket <tmpdir>/b0.sock --port-file
// ...` (with a disk cache in the same fresh temporary directory), waits
// for its readiness handshake (port file published, one `health`
// answered), runs the load, then SIGINT-drains it: the run fails unless
// the daemon exits 0.
//
// Every mode runs C worker threads (service/loadgen.h), each driving
// its own service/client.h Client over its own connection: per-attempt
// timeouts, capped exponential backoff with deterministic jitter,
// reconnect-on-failure and integrity digests both ways, optionally
// through a client-side FaultyTransport chaos plan. Request i goes to
// worker i mod C. Retry/reconnect/shed accounting is printed at the end.
//
// The request stream is deterministic in --seed: request i draws from a
// fixed generator table at index derived from (seed, i), so two runs
// are comparable. --repeat-keys K folds the stream onto K distinct
// request payloads, which makes the expected warm cache hit-rate
// (K < requests) a controlled quantity -- the CI smoke jobs assert
// hit-rate this way.
//
// Options:
//   --requests N         total requests (default 200)
//   --concurrency C      worker threads = connections (default 8)
//   --mix M              mixed | run | check | witness | build
//   --seed S             stream seed (default 1)
//   --repeat-keys K      distinct payloads; 0 = all distinct (default 32)
//   --deadline-ms D      attach this deadline to every request
//   --allow-refused      "draining" responses and calls lost after all
//                        retries are not failures
//   --require-hit-rate X fail unless final cache hit-rate >= X
//   --slo-p99-us X       fail unless the overall p99 latency <= X us
//
// Closed loop vs open loop. The default closed loop (each worker sends
// its next request when the last one is answered) under-reports tail
// latency: when the server stalls, the generator stops sending, so the
// stall is charged to one request instead of every request that
// *would* have been sent -- coordinated omission. --open-loop fixes
// this: request k has the scheduled send time t0 + k/rate, workers
// sleep until the schedule (never until the server is ready), and
// latency is measured from the *scheduled* time, so server backlog is
// charged to every request it delays. Open-loop mode reports the
// corrected p99 and the achieved vs offered rate.
//
//   --open-loop          scheduled send times (coordinated-omission safe)
//   --rate R             open-loop offered rate, req/s (default 200)
//
// Resilience:
//
//   --timeout-ms T       per-attempt response timeout (default 5000)
//   --retries R          max attempts per request (default 1 = off)
//   --backoff-ms B       base backoff between attempts (default 10)
//   --chaos DESC         client-side ChaosPlan descriptor (see
//                        src/service/chaos.h), e.g. the REPRO string of
//                        a chaos bench failure
//
// Interactive mode (--interactive): instead of the stateless 4-endpoint
// mix, each worker drives honest commit-reveal k-coloring sessions end
// to end over session_open / session_step (schema shlcp.ia.v1): per
// round, commit to a freshly permuted coloring of the pool instance,
// receive the server's edge challenge, open the two endpoints.
// --requests counts whole sessions, --rounds sets the per-session round
// count. Session ids ("lg-<i>") stay out of the reserved c<digits>
// retry-alias namespace (see service/proto.h). The run fails unless
// every honest session is accepted.
//
//   --interactive        drive commit-reveal sessions instead of the mix
//   --rounds R           challenge rounds per session (default 2)
//
// Every numeric flag must be a whole number; a malformed flag or target
// is a usage error (exit 2). Exit status: 0 iff every response was ok
// (or an allowed refusal), the hit-rate / SLO requirements (if any)
// held, and a spawned daemon drained cleanly.

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "graph/algorithms.h"
#include "graph/generators.h"
#include "service/chaos.h"
#include "service/client.h"
#include "service/loadgen.h"
#include "service/supervisor.h"
#include "sim/faults.h"
#include "util/check.h"
#include "util/descriptor.h"
#include "util/format.h"
#include "util/json.h"
#include "util/rng.h"

namespace {

using shlcp::FaultPlan;
using shlcp::Json;
using shlcp::mix64;
using shlcp::svc::ChaosPlan;
using shlcp::svc::Client;
using shlcp::svc::ClientOptions;

/// The generator table: each entry builds one (op, params) pair. All of
/// them are cheap (small named instances, tiny families) so throughput
/// measures the service, not one giant enumeration.
Json make_params(const std::string& op, std::uint64_t variant) {
  Json params = Json::object();
  if (op == "run_decoder") {
    static const std::pair<const char*, const char*> kCombos[] = {
        {"degree-one", "path5"},    {"degree-one", "star5"},
        {"degree-one", "path6"},    {"spanning-bfs", "path6"},
        {"spanning-bfs", "cycle6"}, {"spanning-bfs", "grid23"},
        {"even-cycle", "cycle6"},   {"even-cycle", "cycle8"},
    };
    const auto& [lcp, inst] = kCombos[variant % std::size(kCombos)];
    params["lcp"] = lcp;
    params["instance"] = inst;
    params["labels"] = "honest";
    if (variant % 3 == 2) {
      FaultPlan plan;
      plan.label = "drop-light";
      plan.seed = 0xC0FFEE + variant;
      plan.drop_permille = 100;
      params["plan"] = plan.describe();
    }
  } else if (op == "check_coloring") {
    static const char* kPool[] = {"path5",  "cycle5", "cycle6",  "grid23",
                                  "star5",  "cycle7", "theta222", "complete4"};
    params["instance"] = kPool[variant % std::size(kPool)];
    params["k"] = static_cast<std::int64_t>(2 + variant % 2);
  } else if (op == "search_witness") {
    if (variant % 2 == 0) {
      params["family"] = "degree-one";
      params["max_n"] = static_cast<std::int64_t>(4 + variant % 2);
    } else {
      params["family"] = "even-cycle";
      params["max_n"] = 4;
    }
  } else {  // build_nbhd
    static const std::pair<const char*, const char*> kBuilds[] = {
        {"degree-one", "path:4"},   {"degree-one", "star:4"},
        {"spanning-bfs", "path:4"}, {"spanning-bfs", "cycle:4"},
        {"even-cycle", "cycle:4"},  {"even-cycle", "cycle:6"},
    };
    const auto& [lcp, spec] = kBuilds[variant % std::size(kBuilds)];
    params["lcp"] = lcp;
    Json& graphs = (params["graphs"] = Json::array());
    graphs.push_back(spec);
    params["build"] = "proved";
  }
  return params;
}

const char* pick_op(const std::string& mix, std::uint64_t variant) {
  if (mix == "run") return "run_decoder";
  if (mix == "check") return "check_coloring";
  if (mix == "witness") return "search_witness";
  if (mix == "build") return "build_nbhd";
  static const char* kOps[] = {"run_decoder", "check_coloring",
                               "search_witness", "build_nbhd"};
  return kOps[variant % std::size(kOps)];
}

/// The stream folded onto its distinct payloads: request i is slot
/// i mod size. The variant is a pure function of the slot, so repeated
/// slots repeat byte-identically (same cache key server-side).
std::vector<shlcp::svc::Payload> request_pool(const std::string& mix,
                                              std::uint64_t seed,
                                              std::uint64_t slots) {
  std::vector<shlcp::svc::Payload> pool;
  for (std::uint64_t slot = 0; slot < slots; ++slot) {
    const std::uint64_t variant =
        shlcp::Rng(seed * 7919 + slot).next_u64() >> 8;
    const std::string op = pick_op(mix, variant);
    pool.push_back({op, make_params(op, variant)});
  }
  return pool;
}

/// A whole, finite, non-negative decimal number; throws CheckError.
double real_flag(const char* text) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  SHLCP_CHECK_MSG(std::isdigit(static_cast<unsigned char>(text[0])) &&
                      *end == '\0' && std::isfinite(v),
                  shlcp::format("'%s' is not a number", text));
  return v;
}

/// The server's cache hit-rate, over a clean (chaos-free) connection;
/// -1 when the info call fails.
double probe_hit_rate(const std::string& target, ClientOptions options) {
  options.chaos = ChaosPlan{};
  Client client(Client::connector_for(target, options.chaos), options);
  const shlcp::svc::CallResult r = client.call("info", Json::object());
  if (!r.ok) {
    return -1.0;
  }
  return Json::parse(r.result_dump).at("cache").at("hit_rate").as_double();
}

void print_summary(const shlcp::svc::Tally& t, bool open_loop, double rate) {
  std::printf("%-16s %8s %8s %10s %10s\n", "op", "count", "errors", "p50_us",
              "p99_us");
  for (const auto& [op, per_op] : t.ops) {
    std::printf("%-16s %8zu %8llu %10llu %10llu\n", op.c_str(),
                per_op.latencies_us.size(),
                static_cast<unsigned long long>(per_op.errors),
                static_cast<unsigned long long>(
                    shlcp::svc::percentile(per_op.latencies_us, 0.50)),
                static_cast<unsigned long long>(
                    shlcp::svc::percentile(per_op.latencies_us, 0.99)));
  }
  const double achieved =
      t.seconds > 0 ? static_cast<double>(t.requests) / t.seconds : 0.0;
  std::printf(
      "total %llu requests in %.2fs (%.1f req/s), %llu ok, %llu errors, "
      "%llu refused, %llu lost\n",
      static_cast<unsigned long long>(t.requests), t.seconds, achieved,
      static_cast<unsigned long long>(t.ok),
      static_cast<unsigned long long>(t.errors),
      static_cast<unsigned long long>(t.refused),
      static_cast<unsigned long long>(t.lost));
  if (open_loop) {
    std::printf("open-loop: offered %.1f req/s, achieved %.1f req/s\n", rate,
                achieved);
  }
  std::printf("p99_us_overall=%llu\n",
              static_cast<unsigned long long>(t.percentile_us(0.99)));
  const shlcp::svc::ClientStats& s = t.client;
  std::printf(
      "resilience: attempts=%llu retries=%llu reconnects=%llu timeouts=%llu "
      "transport_errors=%llu digest_mismatches=%llu shed_seen=%llu "
      "integrity_seen=%llu backoff_ms=%llu\n",
      static_cast<unsigned long long>(s.attempts),
      static_cast<unsigned long long>(s.retries),
      static_cast<unsigned long long>(s.reconnects),
      static_cast<unsigned long long>(s.timeouts),
      static_cast<unsigned long long>(s.transport_errors),
      static_cast<unsigned long long>(s.digest_mismatches),
      static_cast<unsigned long long>(s.refused_overloaded),
      static_cast<unsigned long long>(s.refused_integrity),
      static_cast<unsigned long long>(s.backoff_ms_total));
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s (--spawn SHLCPD | --socket PATH | --tcp "
               "[HOST:]PORT) [--requests N] "
               "[--concurrency C] [--mix M] [--seed S] [--repeat-keys K] "
               "[--deadline-ms D] [--allow-refused] "
               "[--require-hit-rate X] [--slo-p99-us X] "
               "[--open-loop] [--rate R] [--timeout-ms T] [--retries R] "
               "[--backoff-ms B] [--chaos DESC] "
               "[--interactive] [--rounds R]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string spawn_path;
  std::string socket_path;
  std::string tcp;
  std::uint64_t total = 200;
  std::uint64_t concurrency = 8;
  std::string mix = "mixed";
  std::uint64_t seed = 1;
  std::uint64_t repeat_keys = 32;
  std::uint64_t deadline_ms = 0;
  bool allow_refused = false;
  double require_hit_rate = -1.0;
  double slo_p99_us = -1.0;
  bool open_loop = false;
  double rate = 200.0;
  std::uint64_t timeout_ms = 5000;
  int retries = 1;
  std::uint64_t backoff_ms = 10;
  std::string chaos_desc;
  bool interactive = false;
  int rounds = 2;

  const shlcp::DescriptorParser strict{"shlcp_loadgen"};
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto next = [&]() -> const char* {
        SHLCP_CHECK_MSG(i + 1 < argc, arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--spawn") {
        spawn_path = next();
      } else if (arg == "--socket") {
        socket_path = next();
      } else if (arg == "--tcp") {
        tcp = next();
      } else if (arg == "--open-loop") {
        open_loop = true;
      } else if (arg == "--rate") {
        rate = real_flag(next());
      } else if (arg == "--slo-p99-us") {
        slo_p99_us = real_flag(next());
      } else if (arg == "--requests") {
        total = static_cast<std::uint64_t>(strict.number(next()));
      } else if (arg == "--concurrency") {
        concurrency = static_cast<std::uint64_t>(strict.number(next()));
      } else if (arg == "--mix") {
        mix = next();
      } else if (arg == "--seed") {
        seed = strict.seed(next());
      } else if (arg == "--repeat-keys") {
        repeat_keys = static_cast<std::uint64_t>(strict.number(next()));
      } else if (arg == "--deadline-ms") {
        deadline_ms = static_cast<std::uint64_t>(strict.number(next()));
      } else if (arg == "--allow-refused") {
        allow_refused = true;
      } else if (arg == "--require-hit-rate") {
        require_hit_rate = real_flag(next());
      } else if (arg == "--timeout-ms") {
        timeout_ms = static_cast<std::uint64_t>(strict.number(next()));
      } else if (arg == "--retries") {
        retries = strict.number(next());
      } else if (arg == "--backoff-ms") {
        backoff_ms = static_cast<std::uint64_t>(strict.number(next()));
      } else if (arg == "--chaos") {
        chaos_desc = next();
      } else if (arg == "--interactive") {
        interactive = true;
      } else if (arg == "--rounds") {
        rounds = strict.number(next());
      } else {
        return usage(argv[0]);
      }
    }
  } catch (const shlcp::CheckError& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return usage(argv[0]);
  }
  const int n_targets = (spawn_path.empty() ? 0 : 1) +
                        (socket_path.empty() ? 0 : 1) + (tcp.empty() ? 0 : 1);
  if (n_targets != 1) {
    std::fprintf(stderr, "%s: need exactly one of --spawn / --socket / --tcp\n",
                 argv[0]);
    return 2;
  }
  if (!tcp.empty() && tcp.find(':') == std::string::npos) {
    tcp = "127.0.0.1:" + tcp;
  }
  std::string target =
      !tcp.empty() ? "tcp:" + tcp : "unix:" + socket_path;
  if (spawn_path.empty() && !Client::connector_for(target, ChaosPlan{})) {
    std::fprintf(stderr, "%s: malformed target '%s'\n", argv[0],
                 target.c_str());
    return 2;
  }
  if (total == 0) {
    std::fprintf(stderr, "%s: --requests must be positive\n", argv[0]);
    return 2;
  }
  if (open_loop && rate <= 0) {
    std::fprintf(stderr, "%s: --rate must be positive\n", argv[0]);
    return 2;
  }
  if (interactive && rounds == 0) {
    std::fprintf(stderr, "%s: --rounds must be positive\n", argv[0]);
    return 2;
  }
  ClientOptions options;
  options.timeout_ms = timeout_ms;
  options.retry.max_attempts = std::max(retries, 1);
  options.retry.base_backoff_ms = backoff_ms;
  options.retry.seed = seed;
  if (!chaos_desc.empty()) {
    try {
      options.chaos = ChaosPlan::parse(chaos_desc);
    } catch (const shlcp::CheckError& e) {
      std::fprintf(stderr, "%s: bad --chaos descriptor: %s\n", argv[0],
                   e.what());
      return 2;
    }
  }

  std::unique_ptr<shlcp::svc::Supervisor> daemon;
  std::string work_dir;
  if (!spawn_path.empty()) {
    char tmpl[] = "/tmp/shlcp-loadgen.XXXXXX";
    SHLCP_CHECK_MSG(::mkdtemp(tmpl) != nullptr, "mkdtemp failed");
    work_dir = tmpl;
    shlcp::svc::SupervisorOptions spawn;
    spawn.shlcpd_path = spawn_path;
    spawn.work_dir = work_dir;
    spawn.backends = 1;
    spawn.backend_threads =
        static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
    daemon = std::make_unique<shlcp::svc::Supervisor>(spawn);
    if (!daemon->start()) {
      std::fprintf(stderr, "%s: spawned daemon never became ready\n",
                   argv[0]);
      return 1;
    }
    target = daemon->backend_specs().at(0).target;
  }

  shlcp::svc::DriveOptions drive;
  drive.workers = static_cast<int>(std::min(concurrency, total));
  drive.total = total;
  drive.rate = open_loop ? rate : 0;
  drive.benign = {"draining"};
  const auto make_caller = [&](int w) {
    // Per-worker fault/jitter streams: same plan shape, independent
    // deterministic schedules (the whole run replays from --seed).
    ClientOptions worker = options;
    const auto uw = static_cast<std::uint64_t>(w);
    worker.chaos.seed = mix64(worker.chaos.seed ^ (0xC4A05ULL + uw));
    worker.retry.seed = mix64(worker.retry.seed ^ (0xBAC0FFULL + uw));
    return shlcp::svc::client_caller(
        Client::connector_for(target, worker.chaos), worker, deadline_ms);
  };

  shlcp::svc::Tally tally;
  if (interactive) {
    const std::vector<int> coloring =
        shlcp::k_coloring(shlcp::make_cycle(6), 2).value();
    tally = shlcp::svc::drive(
        drive, make_caller,
        [&](const shlcp::svc::Caller& caller, std::uint64_t i) {
          const std::string id = shlcp::format(
              "lg-%llu", static_cast<unsigned long long>(i));
          // The wire carries signed ints; keep the per-session seed in
          // the int63 range the server can read back.
          return shlcp::svc::Shot{
              "session",
              shlcp::svc::honest_session(
                  caller, id, coloring, rounds, mix64(seed + i),
                  static_cast<std::int64_t>(mix64(seed ^ i) >> 1))};
        });
    std::printf("interactive: %llu sessions, %d rounds each, %llu accepted\n",
                static_cast<unsigned long long>(tally.requests), rounds,
                static_cast<unsigned long long>(tally.ok));
  } else {
    const std::uint64_t slots =
        repeat_keys == 0 ? total : std::min(repeat_keys, total);
    tally = shlcp::svc::drive_pool(drive, make_caller,
                                   request_pool(mix, seed, slots), nullptr);
  }
  print_summary(tally, open_loop, rate);
  const double hit_rate = probe_hit_rate(target, options);
  if (hit_rate >= 0) {
    std::printf("cache_hit_rate=%.4f\n", hit_rate);
  }

  int code = 0;
  if (interactive ? tally.ok != tally.requests
                  : tally.errors > 0 ||
                        (!allow_refused && (tally.refused + tally.lost) > 0)) {
    code = 1;
  }
  if (require_hit_rate >= 0 && hit_rate < require_hit_rate) {
    std::fprintf(stderr, "loadgen: hit rate %.4f below required %.4f\n",
                 hit_rate, require_hit_rate);
    code = 1;
  }
  const std::uint64_t p99_us = tally.percentile_us(0.99);
  if (slo_p99_us >= 0 && static_cast<double>(p99_us) > slo_p99_us) {
    std::fprintf(stderr, "loadgen: overall p99 %lluus above SLO %.0fus\n",
                 static_cast<unsigned long long>(p99_us), slo_p99_us);
    code = 1;
  }
  if (daemon != nullptr) {
    daemon->stop();  // SIGINT: drain, then exit 0
    const int exit_code = daemon->stats().at(0).last_exit;
    if (exit_code != 0) {
      std::fprintf(stderr,
                   "loadgen: spawned daemon exited %d after SIGINT (log: "
                   "%s/b0.log)\n",
                   exit_code, work_dir.c_str());
      code = 1;
    } else {
      std::error_code ec;
      std::filesystem::remove_all(work_dir, ec);
    }
  }
  return code;
}
