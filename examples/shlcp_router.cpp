// shlcp_router -- consistent-hash shard router for a shlcpd fleet.
//
// Listens on any combination of unix / TCP / HTTP (the same transports
// and flags as shlcpd) and forwards every request to one of N shlcpd
// backends, chosen by hashing the request's canonical artifact key
// onto a vnode ring (src/service/router.h; DESIGN.md §15). The fleet's
// artifact caches shard disjointly -- a key always lands on the same
// backend -- and a dead backend's keys (only those) fail over to the
// next replica in ring order.
//
//   shlcp_router --backend tcp:127.0.0.1:7401
//                --backend tcp:127.0.0.1:7402
//                --tcp 127.0.0.1:7400 --http 127.0.0.1:7480
//
// Backends are "NAME=TARGET" or bare "TARGET" where TARGET is
// "unix:<path>" or "tcp:<host>:<port>". Naming backends keeps ring
// placement stable when a backend's address changes. SIGINT drains the
// router exactly like shlcpd (in-flight forwards finish; new requests
// get "draining"; exit 0). Options beyond shlcpd's listener set:
//
//   --backend SPEC          repeat per backend (at least one)
//   --vnodes N              ring points per backend (default 64)
//   --replicas N            distinct backends tried per request (default 2)
//   --probe-interval-ms N   down-backend reprobe interval (default 1000)
//   --timeout-ms N          per-attempt backend timeout (default 5000)
//   --retries N             per-backend Client attempts (default 4)
//   --backoff-ms N          Client base backoff (default 10)
//   --seed N                retry-jitter seed (default 0)
//
// Supervised mode (src/service/supervisor.h) replaces --backend: the
// router fork/execs its own shlcpd fleet, monitors it, and restarts
// whatever dies -- crash-looping backends are quarantined by a circuit
// breaker and their keys spill to replicas until a trial restart
// sticks. Each backend gets a unix socket, log, and persistent
// disk-cache directory under --spawn-dir, so restarts are warm. SIGINT
// drains the router, then SIGINTs the fleet and reaps it.
//
//   shlcp_router --spawn 3 --spawn-dir /tmp/fleet --http 127.0.0.1:7480
//
//   --spawn N               spawn and supervise N shlcpd backends
//   --spawn-dir PATH        fleet state root (default /tmp/shlcp_fleet)
//   --shlcpd PATH           backend binary ($SHLCP_SHLCPD / auto-detect)
//   --backend-threads N     worker threads per backend (default 2)
//   --backend-cache-bytes N backend disk-cache budget
//   --restart-backoff-ms N  base restart backoff (default 100)
//   --restart-backoff-max-ms N  backoff cap (default 2000)
//   --breaker-failures N    crashes in window that quarantine (default 5)
//   --breaker-window-ms N   crash-loop window (default 30000)
//   --half-open-ms N        quarantine -> trial-restart delay (default 2000)
//
// Numbers are whole decimals (--seed also takes 0x-hex) and [HOST:]PORT
// is checked up front; a malformed value exits 2.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "service/router.h"
#include "service/server.h"
#include "service/supervisor.h"
#include "util/check.h"
#include "util/descriptor.h"

namespace {

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s (--backend SPEC [--backend SPEC ...] | --spawn N)\n"
      "       (--socket PATH | --tcp [HOST:]PORT | --http [HOST:]PORT ...)\n"
      "       [--port-file PATH] [--vnodes N] [--replicas N]\n"
      "       [--probe-interval-ms N] [--timeout-ms N] [--retries N]\n"
      "       [--backoff-ms N] [--seed N] [--threads N] [--batch N]\n"
      "       [--queue-max N] [--inflight-max N] [--max-frame-bytes N]\n"
      "       [--spawn-dir PATH] [--shlcpd PATH] [--backend-threads N]\n"
      "       [--backend-cache-bytes N] [--restart-backoff-ms N]\n"
      "       [--restart-backoff-max-ms N] [--breaker-failures N]\n"
      "       [--breaker-window-ms N] [--half-open-ms N]\n"
      "  SPEC = [NAME=]unix:<path> | [NAME=]tcp:<host>:<port>\n",
      argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using shlcp::svc::BackendSpec;
  using shlcp::svc::Router;
  using shlcp::svc::RouterOptions;
  using shlcp::svc::ServerOptions;
  using shlcp::svc::Supervisor;
  using shlcp::svc::SupervisorOptions;
  using shlcp::svc::TransportSpec;

  RouterOptions router_options;
  TransportSpec transports;
  ServerOptions options;
  options.arm_sigint = true;
  SupervisorOptions supervisor_options;
  supervisor_options.backends = 0;  // --spawn N turns supervision on
  supervisor_options.work_dir = "/tmp/shlcp_fleet";

  const shlcp::DescriptorParser strict{"shlcp_router"};
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto next = [&]() -> const char* {
        SHLCP_CHECK_MSG(i + 1 < argc, arg + " needs a value");
        return argv[++i];
      };
      const auto hostport = [&]() -> std::string {
        const std::string spec = next();
        std::string host;
        int port = 0;
        SHLCP_CHECK_MSG(shlcp::svc::parse_hostport(spec, &host, &port),
                        arg + " takes [HOST:]PORT, got '" + spec + "'");
        return spec;
      };
      if (arg == "--backend") {
        BackendSpec spec;
        const std::string value = next();
        SHLCP_CHECK_MSG(BackendSpec::parse(value, &spec),
                        "malformed backend spec '" + value + "'");
        router_options.backends.push_back(std::move(spec));
      } else if (arg == "--socket") {
        transports.unix_path = next();
      } else if (arg == "--tcp") {
        transports.tcp = hostport();
      } else if (arg == "--http") {
        transports.http = hostport();
      } else if (arg == "--port-file") {
        transports.port_file = next();
      } else if (arg == "--vnodes") {
        router_options.vnodes = strict.number(next());
      } else if (arg == "--replicas") {
        router_options.replica_attempts = strict.number(next());
      } else if (arg == "--probe-interval-ms") {
        router_options.probe_interval_ms = strict.number64(next());
      } else if (arg == "--timeout-ms") {
        router_options.client.timeout_ms = strict.number64(next());
      } else if (arg == "--retries") {
        router_options.client.retry.max_attempts = strict.number(next());
      } else if (arg == "--backoff-ms") {
        router_options.client.retry.base_backoff_ms = strict.number64(next());
      } else if (arg == "--seed") {
        router_options.client.retry.seed = strict.seed(next());
      } else if (arg == "--threads") {
        options.num_threads = strict.number(next());
      } else if (arg == "--batch") {
        options.batch_max = strict.number(next());
        SHLCP_CHECK_MSG(options.batch_max > 0, "--batch must be positive");
      } else if (arg == "--queue-max") {
        options.queue_max = strict.number64(next());
      } else if (arg == "--inflight-max") {
        options.conn_inflight_max = strict.number64(next());
      } else if (arg == "--max-frame-bytes") {
        options.max_frame_bytes = strict.number64(next());
      } else if (arg == "--spawn") {
        supervisor_options.backends = strict.number(next());
      } else if (arg == "--spawn-dir") {
        supervisor_options.work_dir = next();
      } else if (arg == "--shlcpd") {
        supervisor_options.shlcpd_path = next();
      } else if (arg == "--backend-threads") {
        supervisor_options.backend_threads = strict.number(next());
      } else if (arg == "--backend-cache-bytes") {
        const char* value = next();
        strict.number64(value);  // checked here, parsed by the backend
        supervisor_options.backend_args.emplace_back("--cache-bytes");
        supervisor_options.backend_args.emplace_back(value);
      } else if (arg == "--restart-backoff-ms") {
        supervisor_options.restart.base_backoff_ms = strict.number64(next());
      } else if (arg == "--restart-backoff-max-ms") {
        supervisor_options.restart.max_backoff_ms = strict.number64(next());
      } else if (arg == "--breaker-failures") {
        supervisor_options.breaker_failures = strict.number(next());
      } else if (arg == "--breaker-window-ms") {
        supervisor_options.breaker_window_ms = strict.number64(next());
      } else if (arg == "--half-open-ms") {
        supervisor_options.half_open_after_ms = strict.number64(next());
      } else {
        return usage(argv[0]);
      }
    }
  } catch (const shlcp::CheckError& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return usage(argv[0]);
  }
  const bool spawning = supervisor_options.backends > 0;
  if (spawning == !router_options.backends.empty()) {
    // Exactly one of --spawn / --backend must select the fleet.
    return usage(argv[0]);
  }
  if (transports.unix_path.empty() && transports.tcp.empty() &&
      transports.http.empty()) {
    return usage(argv[0]);
  }

  std::unique_ptr<Supervisor> supervisor;
  if (spawning) {
    if (supervisor_options.shlcpd_path.empty()) {
      supervisor_options.shlcpd_path = Supervisor::find_shlcpd(argv[0]);
    }
    if (supervisor_options.shlcpd_path.empty()) {
      std::fprintf(stderr,
                   "%s: cannot locate shlcpd (pass --shlcpd or set "
                   "$SHLCP_SHLCPD)\n",
                   argv[0]);
      return 2;
    }
    supervisor_options.restart.seed = router_options.client.retry.seed;
    supervisor = std::make_unique<Supervisor>(supervisor_options);
    if (!supervisor->start()) {
      std::fprintf(stderr, "%s: fleet failed to start\n", argv[0]);
      return 1;
    }
    router_options.backends = supervisor->backend_specs();
  }

  Router router(router_options);
  const int alive = router.probe_all();
  std::fprintf(stderr, "shlcp_router: %d/%zu backend(s) alive at startup\n",
               alive, router_options.backends.size());
  for (const auto& b : router.backend_stats()) {
    std::fprintf(stderr, "shlcp_router:   %s -> %s [%s]\n", b.name.c_str(),
                 b.target.c_str(), b.alive ? "up" : "down");
  }
  if (supervisor) {
    supervisor->attach_router(&router);
    supervisor->start_monitor();
  }

  options.dispatcher = &router;
  const int code = shlcp::svc::serve_transports(transports, options);
  if (supervisor) {
    // Drain order matters: the router stopped accepting first, so no
    // request is in flight toward a backend we are about to SIGINT.
    supervisor->stop();
  }
  return code;
}
