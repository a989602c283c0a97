// shlcpd -- the certification service daemon.
//
// Serves the shlcp.svc.v1 protocol (length-prefixed JSONL requests,
// see src/service/proto.h) over stdin/stdout, a unix-domain socket,
// TCP, and/or an HTTP/1.1 JSON gateway (OPERATIONS.md is the operator
// handbook):
//
//   shlcpd --pipe                        # tests / CI / loadgen --spawn
//   shlcpd --socket /tmp/shlcp.sock      # long-lived local daemon
//   shlcpd --tcp 127.0.0.1:7400          # fleet backend (JSONL framing)
//   shlcpd --http 0.0.0.0:7480           # curl-able gateway
//
// The stream transports combine freely (--socket + --tcp + --http is
// one process, one Service, one artifact cache behind all three);
// --pipe is exclusive. Port 0 binds an ephemeral port; pass
// --port-file to have the bound endpoints published as JSON once every
// listener is up -- that is how bench_fleet and scripts discover them.
//
// SIGINT drains: in-flight requests finish, queued and later requests
// get the "draining" error, then the process exits 0. Options:
//
//   --tcp [HOST:]PORT    JSONL-over-TCP listener (default host
//                        127.0.0.1; port 0 = ephemeral)
//   --http [HOST:]PORT   HTTP/1.1 gateway (same host/port grammar)
//   --port-file PATH     write {"unix":..,"tcp":..,"http":..} when ready
//   --threads N          worker threads (0 = SHLCP_NUM_THREADS / auto)
//   --batch N            max requests dispatched per batch (default 32)
//   --queue-max N        admission queue cap; past it requests are shed
//                        with "overloaded" (default 512, 0 = unbounded)
//   --inflight-max N     per-connection in-flight cap (default 128)
//   --cache-bytes N      artifact-cache byte budget (default 64 MiB)
//   --cache-dir PATH     persist artifacts to PATH (default: off)
//   --max-frame-bytes N  per-request frame / HTTP body cap (default 4 MiB)
//
// Every listener shares one serving loop and one worker pool (--threads
// is the total, not per listener). All listeners are bound before any
// is served: a bind failure exits 1 at once, without a port file.
// Numbers are whole decimals and [HOST:]PORT is checked up front; a
// malformed value exits 2.

#include <cstdio>
#include <string>

#include "service/server.h"
#include "util/check.h"
#include "util/descriptor.h"

namespace {

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s (--pipe | --socket PATH | --tcp [HOST:]PORT | --http\n"
      "       [HOST:]PORT ...) [--port-file PATH] [--threads N] [--batch N]\n"
      "       [--queue-max N] [--inflight-max N]\n"
      "       [--cache-bytes N] [--cache-dir PATH] [--max-frame-bytes N]\n",
      argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using shlcp::svc::ServerOptions;
  using shlcp::svc::TransportSpec;

  bool pipe_mode = false;
  TransportSpec transports;
  ServerOptions options;
  options.arm_sigint = true;

  const shlcp::DescriptorParser strict{"shlcpd"};
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
      if (arg == "--pipe") {
        pipe_mode = true;
      } else if (arg == "--socket") {
        transports.unix_path = next();
      } else if (arg == "--tcp") {
        transports.tcp = hostport();
      } else if (arg == "--http") {
        transports.http = hostport();
      } else if (arg == "--port-file") {
        transports.port_file = next();
      } else if (arg == "--threads") {
        options.num_threads = strict.number(next());
      } else if (arg == "--batch") {
        options.batch_max = strict.number(next());
        SHLCP_CHECK_MSG(options.batch_max > 0, "--batch must be positive");
      } else if (arg == "--queue-max") {
        options.queue_max = strict.number64(next());
      } else if (arg == "--inflight-max") {
        options.conn_inflight_max = strict.number64(next());
      } else if (arg == "--cache-bytes") {
        options.service.cache.max_bytes = strict.number64(next());
      } else if (arg == "--cache-dir") {
        options.service.cache.directory = next();
      } else if (arg == "--max-frame-bytes") {
        options.max_frame_bytes = strict.number64(next());
      } else {
        return usage(argv[0]);
      }
    }
  } catch (const shlcp::CheckError& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return usage(argv[0]);
  }
  const bool stream_mode = !transports.unix_path.empty() ||
                           !transports.tcp.empty() ||
                           !transports.http.empty();
  if (pipe_mode == stream_mode) {
    return usage(argv[0]);  // pipe XOR at least one stream listener
  }

  if (pipe_mode) {
    return shlcp::svc::serve_pipe(options);
  }
  return shlcp::svc::serve_transports(transports, options);
}
