// Chaos harness + acceptance gate for the service resilience layer
// (DESIGN.md §14, EXPERIMENTS.md E21).
//
// Spawns a real shlcpd daemon on a unix socket (binary located via
// SHLCP_SHLCPD or next to the build tree) with a disk-backed artifact
// cache, then drives it through three adversarial passes:
//
//  1. Transport chaos: worker threads call through service/client.h
//     Clients whose FaultyTransport chops, corrupts, resets, and delays
//     both directions of the wire. Every completed response must be
//     byte-identical to an in-process oracle Service answering the same
//     (op, params) -- the zero-wrong-response gate. Failed calls must
//     be attributed (a wire error code or retry exhaustion), never
//     silent.
//
//  2. Kill -9 / restart: with a calm transport, a supervisor SIGKILLs
//     the daemon and restarts it at least kMinKills times while the
//     workers keep an open-ended stream going. Clients must ride
//     through every crash on retries alone: zero lost calls, zero
//     wrong responses.
//
//  3. Crash-consistent cache: after the final restart the daemon must
//     serve a pre-crash payload from its disk cache (cached=true,
//     byte-identical), and after every cache entry on disk is
//     truncated mid-entry the next uncached payload must be treated as
//     a miss and recomputed correctly -- torn writes are misses, never
//     aborts, never wrong artifacts.
//
// A separate determinism check replays one ChaosPlan twice over a
// socketpair and requires identical ChaosStats, plus the
// describe()/parse() REPRO round-trip (a chaos failure's fault
// schedule is reproducible from its printed descriptor).
//
// Results go to BENCH_chaos.json with their gates (bench/report.h);
// exit status is nonzero if any gate fails.

#include <fcntl.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench/report.h"
#include "service/chaos.h"
#include "service/client.h"
#include "service/loadgen.h"
#include "service/service.h"
#include "service/supervisor.h"
#include "util/check.h"
#include "util/format.h"
#include "util/json.h"

using namespace shlcp;
using svc::ChaosPlan;
using svc::ChaosStats;
using svc::Client;
using svc::ClientOptions;
using svc::FaultyTransport;

namespace {

constexpr int kMinKills = 3;

int chaos_requests() { return bench::smoke() ? 90 : 240; }
int chaos_workers() { return 3; }
int kill_spacing_ms() { return bench::smoke() ? 250 : 400; }

/// Two payloads the load passes never touch: primed through the daemon
/// exactly once before the crashes, so after the final restart they can
/// only be on disk, never in the new incarnation's memory cache. That
/// makes them the probes for the crash-consistency checks.
svc::Payload reserve_payload(int which) {
  Json params = Json::object();
  params["instance"] = which == 0 ? "complete4" : "star5";
  params["k"] = 3;
  return {"check_coloring", std::move(params)};
}

/// The oracle covers the load pool, then the two reserves.
const std::string& reserve_truth(const std::vector<std::string>& oracle,
                                 int which) {
  return oracle[oracle.size() - 2 + static_cast<std::size_t>(which)];
}

struct Daemon {
  pid_t pid = -1;
};

/// fork+exec a daemon on `socket_path` with its disk cache in
/// `cache_dir`; stderr goes to `log_path` (append, so restarts stack).
pid_t spawn_daemon(const std::string& shlcpd, const std::string& socket_path,
                   const std::string& cache_dir, const std::string& log_path) {
  const pid_t pid = ::fork();
  SHLCP_CHECK_MSG(pid >= 0, "fork failed");
  if (pid == 0) {
    const int log_fd =
        ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (log_fd >= 0) {
      ::dup2(log_fd, 1);
      ::dup2(log_fd, 2);
      ::close(log_fd);
    }
    ::execl(shlcpd.c_str(), shlcpd.c_str(), "--socket", socket_path.c_str(),
            "--cache-dir", cache_dir.c_str(), "--threads", "2",
            static_cast<char*>(nullptr));
    std::perror("execl shlcpd");
    _exit(127);
  }
  return pid;
}

bool wait_for_socket(const std::string& socket_path, int attempts = 100) {
  for (int i = 0; i < attempts; ++i) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd >= 0) {
      sockaddr_un addr = {};
      addr.sun_family = AF_UNIX;
      std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                    socket_path.c_str());
      const int rc =
          ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof(addr));
      ::close(fd);
      if (rc == 0) {
        return true;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return false;
}

/// Every pass classifies "draining" (the daemon mid-SIGINT) as a
/// benign refusal; "wrong" -- a completed response whose result bytes
/// differ from the oracle -- must stay zero no matter what the
/// transport or the supervisor does.
svc::DriveOptions pass_options(std::uint64_t total) {
  svc::DriveOptions options;
  options.workers = chaos_workers();
  options.total = total;
  options.benign = {svc::kErrDraining};
  options.label = "bench_chaos";
  return options;
}

ClientOptions chaos_client_options(const ChaosPlan& plan, std::uint64_t seed) {
  ClientOptions options;
  options.timeout_ms = 1500;
  options.retry.max_attempts = 10;
  options.retry.base_backoff_ms = 5;
  options.retry.seed = seed;
  options.chaos = plan;
  options.chaos.seed = seed;
  return options;
}

/// Pass 1: fixed request count striped across workers, faulty wire.
svc::Tally run_transport_chaos(const std::string& socket_path,
                               const ChaosPlan& plan,
                               const std::vector<svc::Payload>& pool,
                               const std::vector<std::string>& oracle) {
  return svc::drive_pool(
      pass_options(static_cast<std::uint64_t>(chaos_requests())),
      [&](int w) {
        ClientOptions options = chaos_client_options(
            plan, plan.seed + static_cast<std::uint64_t>(w) * 0x9E37ULL);
        return svc::client_caller(
            Client::unix_connector(socket_path, options.chaos), options);
      },
      pool, &oracle);
}

/// Pass 2: open-ended stream on a calm wire while the supervisor
/// SIGKILLs and restarts the daemon >= kMinKills times. Returns the
/// merged pass result; `daemon` holds the pid of the final incarnation.
svc::Tally run_kill_restart(const std::string& shlcpd,
                            const std::string& socket_path,
                            const std::string& cache_dir,
                            const std::string& log_path,
                            const std::vector<svc::Payload>& pool,
                            const std::vector<std::string>& oracle,
                            Daemon* daemon, int* kills) {
  const auto make_caller = [&](int w) {
    ClientOptions options = chaos_client_options(
        ChaosPlan{}, 0xD00D + static_cast<std::uint64_t>(w));
    options.retry.base_backoff_ms = 20;  // ride out the restart gap
    return svc::client_caller(
        Client::unix_connector(socket_path, options.chaos), options);
  };
  // The supervisor: kill -9 mid-stream, reap, restart, repeat. Each
  // cycle waits for the new incarnation to accept before the next kill
  // so every crash lands on a daemon that was actually serving.
  const auto kill_schedule = [&] {
    for (int cycle = 0; cycle < kMinKills; ++cycle) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(kill_spacing_ms()));
      ::kill(daemon->pid, SIGKILL);
      int status = 0;
      ::waitpid(daemon->pid, &status, 0);
      *kills += 1;
      daemon->pid = spawn_daemon(shlcpd, socket_path, cache_dir, log_path);
      SHLCP_CHECK_MSG(wait_for_socket(socket_path),
                      "restarted daemon never came up");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(kill_spacing_ms()));
  };
  return svc::drive_pool(pass_options(0), make_caller, pool, &oracle,
                         kill_schedule);
}

/// Serves both reserve payloads through the daemon once (misses, so
/// they are persisted to disk) before the crash pass begins.
bool prime_reserves(const std::string& socket_path,
                    const std::vector<std::string>& oracle) {
  Client client(Client::unix_connector(socket_path, ChaosPlan{}),
                ClientOptions{});
  for (int which = 0; which < 2; ++which) {
    const svc::Payload p = reserve_payload(which);
    const svc::CallResult r = client.call(p.op, p.params);
    if (!r.ok || r.result_dump != reserve_truth(oracle, which)) {
      std::fprintf(stderr, "bench_chaos: priming reserve %d failed: %s\n",
                   which, r.error_detail.c_str());
      return false;
    }
  }
  return true;
}

/// Pass 3a: a payload served once before the crashes (and never since)
/// must come back from the restarted daemon's *disk* cache:
/// cached=true and byte-identical.
bool check_disk_hit(const std::string& socket_path,
                    const std::vector<std::string>& oracle) {
  Client client(Client::unix_connector(socket_path, ChaosPlan{}),
                ClientOptions{});
  const svc::Payload p = reserve_payload(0);
  const svc::CallResult r = client.call(p.op, p.params);
  if (!r.ok || r.result_dump != reserve_truth(oracle, 0)) {
    std::fprintf(stderr, "bench_chaos: disk-hit probe failed: %s\n",
                 r.error_detail.c_str());
    return false;
  }
  if (!r.response.at("cached").as_bool()) {
    std::fprintf(stderr,
                 "bench_chaos: pre-crash payload was recomputed, not served "
                 "from the surviving disk cache\n");
    return false;
  }
  return true;
}

/// Pass 3b: truncate every disk entry mid-body (a torn write), then
/// probe the other reserve payload -- absent from the restarted
/// daemon's memory cache, so the daemon must read its torn disk entry,
/// treat it as a miss, and recompute: correct answer, cached=false, no
/// crash.
bool check_torn_entries(const std::string& socket_path,
                        const std::string& cache_dir,
                        const std::vector<std::string>& oracle) {
  int truncated = 0;
  for (const auto& entry : std::filesystem::directory_iterator(cache_dir)) {
    if (entry.is_regular_file()) {
      std::filesystem::resize_file(entry.path(), 10);
      ++truncated;
    }
  }
  if (truncated == 0) {
    std::fprintf(stderr, "bench_chaos: cache dir is empty, nothing to tear\n");
    return false;
  }
  Client client(Client::unix_connector(socket_path, ChaosPlan{}),
                ClientOptions{});
  const svc::Payload p = reserve_payload(1);
  const svc::CallResult r = client.call(p.op, p.params);
  if (!r.ok || r.result_dump != reserve_truth(oracle, 1)) {
    std::fprintf(stderr, "bench_chaos: torn-entry probe failed: %s %s\n",
                 r.error_code.c_str(), r.error_detail.c_str());
    return false;
  }
  if (r.response.at("cached").as_bool()) {
    std::fprintf(stderr,
                 "bench_chaos: a truncated disk entry was served as a hit "
                 "(%d files torn): %s\n",
                 truncated, r.response.dump().c_str());
    return false;
  }
  return true;
}

/// Replays one plan's write schedule twice over fresh socketpairs; the
/// observed fault counts must be identical (and actually nonzero). With
/// the descriptor round-trip gated in main, this is the REPRO contract:
/// the printed descriptor IS the fault schedule.
bool check_replay(const ChaosPlan& base) {
  ChaosPlan plan = base;
  plan.reset_permille = 0;  // keep the connection alive for all writes
  const auto run_once = [&plan]() -> ChaosStats {
    int fds[2];
    SHLCP_CHECK_MSG(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0,
                    "socketpair failed");
    std::thread drain([fd = fds[1]] {
      char buf[4096];
      while (::read(fd, buf, sizeof buf) > 0) {
      }
    });
    ChaosStats stats;
    {
      FaultyTransport wire(::dup(fds[0]), fds[0], plan);
      for (int i = 0; i < 40; ++i) {
        const std::string frame =
            format("frame %d: %s\n", i, std::string(64, 'x').c_str());
        wire.write_all(frame);
      }
      stats = wire.stats();
    }  // closes fds[0]; the drain thread sees EOF
    drain.join();
    return stats;
  };
  const ChaosStats a = run_once();
  const ChaosStats b = run_once();
  const bool identical =
      a.writes == b.writes && a.chopped_writes == b.chopped_writes &&
      a.corrupted_bytes == b.corrupted_bytes && a.delays == b.delays &&
      a.delay_ms_total == b.delay_ms_total;
  if (!identical) {
    std::fprintf(stderr, "bench_chaos: fault schedule did not replay\n");
    return false;
  }
  if (a.chopped_writes == 0 || a.corrupted_bytes == 0) {
    std::fprintf(stderr, "bench_chaos: replay plan injected nothing\n");
    return false;
  }
  return true;
}

void add_pass_meta(Json& meta, const char* prefix, const svc::Tally& pass) {
  meta[format("%s_requests", prefix)] = pass.requests;
  meta[format("%s_ok", prefix)] = pass.ok;
  meta[format("%s_refused", prefix)] = pass.refused;
  meta[format("%s_errors", prefix)] = pass.errors;
  meta[format("%s_lost", prefix)] = pass.lost;
  meta[format("%s_retries", prefix)] = pass.client.retries;
  meta[format("%s_reconnects", prefix)] = pass.client.reconnects;
  meta[format("%s_timeouts", prefix)] = pass.client.timeouts;
  meta[format("%s_digest_mismatches", prefix)] = pass.client.digest_mismatches;
}

}  // namespace

int main() {
  const std::string shlcpd = svc::Supervisor::find_shlcpd(nullptr);
  if (shlcpd.empty()) {
    std::fprintf(stderr,
                 "bench_chaos: cannot find shlcpd (set SHLCP_SHLCPD or run "
                 "from the build tree)\n");
    return 1;
  }

  char tmpl[] = "/tmp/shlcp-chaos.XXXXXX";
  SHLCP_CHECK_MSG(::mkdtemp(tmpl) != nullptr, "mkdtemp failed");
  const std::string dir = tmpl;
  const std::string socket_path = dir + "/shlcp.sock";
  const std::string cache_dir = dir + "/cache";
  const std::string log_path = dir + "/shlcpd.log";
  std::filesystem::create_directory(cache_dir);

  const std::vector<svc::Payload> pool = svc::payload_pool();
  std::vector<svc::Payload> truths = pool;
  truths.push_back(reserve_payload(0));
  truths.push_back(reserve_payload(1));
  std::printf("== oracle: %zu payload slots, in-process ==\n", pool.size());
  const std::vector<std::string> oracle = svc::oracle(truths);

  Daemon daemon;
  daemon.pid = spawn_daemon(shlcpd, socket_path, cache_dir, log_path);
  SHLCP_CHECK_MSG(wait_for_socket(socket_path), "daemon never came up");

  ChaosPlan plan;
  plan.label = "bench-mixed";
  plan.seed = 0xC4A05C4A05ULL;
  plan.write_chop_permille = 300;
  plan.read_chop_permille = 300;
  plan.corrupt_permille = 60;
  plan.reset_permille = 20;
  plan.delay_permille = 50;
  plan.max_delay_ms = 2;

  std::printf("== pass 1: %d requests through chaos plan %s ==\n",
              chaos_requests(), plan.describe().c_str());
  const svc::Tally chaos = run_transport_chaos(socket_path, plan, pool, oracle);
  std::printf(
      "chaos: %llu ok, %llu refused, %llu errors, %llu lost, %llu WRONG "
      "(retries=%llu reconnects=%llu digest_mismatches=%llu)\n",
      static_cast<unsigned long long>(chaos.ok),
      static_cast<unsigned long long>(chaos.refused),
      static_cast<unsigned long long>(chaos.errors),
      static_cast<unsigned long long>(chaos.lost),
      static_cast<unsigned long long>(chaos.wrong),
      static_cast<unsigned long long>(chaos.client.retries),
      static_cast<unsigned long long>(chaos.client.reconnects),
      static_cast<unsigned long long>(chaos.client.digest_mismatches));

  const bool primed = prime_reserves(socket_path, oracle);

  std::printf("== pass 2: kill -9 x%d mid-stream ==\n", kMinKills);
  int kills = 0;
  const svc::Tally crash = run_kill_restart(
      shlcpd, socket_path, cache_dir, log_path, pool, oracle, &daemon, &kills);
  std::printf(
      "crash: %d kills, %llu ok, %llu refused, %llu errors, %llu lost, "
      "%llu WRONG (retries=%llu reconnects=%llu)\n",
      kills, static_cast<unsigned long long>(crash.ok),
      static_cast<unsigned long long>(crash.refused),
      static_cast<unsigned long long>(crash.errors),
      static_cast<unsigned long long>(crash.lost),
      static_cast<unsigned long long>(crash.wrong),
      static_cast<unsigned long long>(crash.client.retries),
      static_cast<unsigned long long>(crash.client.reconnects));

  std::printf("== pass 3: crash-consistent disk cache ==\n");
  const bool disk_hit = check_disk_hit(socket_path, oracle);
  const bool torn_miss = check_torn_entries(socket_path, cache_dir, oracle);
  std::printf("disk hit after restart: %s; torn entry is a miss: %s\n",
              disk_hit ? "ok" : "FAILED", torn_miss ? "ok" : "FAILED");

  const bool replay = check_replay(plan);
  std::printf("fault schedule replay: %s\n", replay ? "ok" : "FAILED");

  ::kill(daemon.pid, SIGKILL);
  int status = 0;
  ::waitpid(daemon.pid, &status, 0);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);

  bench::Report report("chaos");
  report.meta()["repro"] = plan.describe();
  report.meta()["repro_round_trip"] =
      ChaosPlan::parse(plan.describe()) == plan;
  report.meta()["kills"] = static_cast<std::int64_t>(kills);
  report.meta()["wrong_responses"] = chaos.wrong + crash.wrong;
  report.meta()["replay_match"] = replay;
  report.meta()["reserves_primed"] = primed;
  report.meta()["disk_hit_after_restart"] = disk_hit;
  report.meta()["torn_entry_is_miss"] = torn_miss;
  add_pass_meta(report.meta(), "chaos", chaos);
  add_pass_meta(report.meta(), "crash", crash);

  report.gate("wrong_responses", "meta.wrong_responses", "==", 0);
  report.gate("kills", "meta.kills", ">=", kMinKills);
  for (const char* flag : {"repro_round_trip", "replay_match",
                           "reserves_primed", "disk_hit_after_restart",
                           "torn_entry_is_miss"}) {
    report.gate(flag, format("meta.%s", flag), "==", true);
  }
  for (const char* pass : {"chaos", "crash"}) {
    const auto key = [pass](const char* field) {
      return format("meta.%s_%s", pass, field);
    };
    report.gate(format("%s_requests", pass), key("requests"), ">", 0);
    // Every call is accounted for exactly once (wrong responses are
    // gated to zero above).
    report.gate_sum(format("%s_accounting", pass),
                    {key("ok"), key("refused"), key("errors"), key("lost")},
                    "==", key("requests"));
    report.gate(format("%s_errors", pass), key("errors"), "==", 0);
    for (const char* diag :
         {"retries", "reconnects", "timeouts", "digest_mismatches"}) {
      report.gate(format("%s_%s", pass, diag), key(diag), ">=", 0);
    }
  }
  // Under the faulty wire some calls may legitimately exhaust their
  // retries; they must stay a bounded minority (lost * 2 <= requests).
  // Under the calm wire the retry policy must absorb every crash.
  report.gate_sum("chaos_lost_minority", {"meta.chaos_lost", "meta.chaos_lost"},
                  "<=", "meta.chaos_requests");
  report.gate("crash_lost", "meta.crash_lost", "==", 0);
  return report.write_gated();
}
