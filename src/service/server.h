// Transport entry points of shlcpd and shlcp_router: pipe, unix-domain
// socket, TCP, and HTTP.
//
// Every entry point is one call of serve_stream (netloop.h), the single
// serving loop; they differ only in their endpoints. serve_pipe serves
// (in_fd, out_fd) as one pre-connected JSONL connection; serve_socket
// and serve_tcp put a JSONL listener on a unix path or a TCP port;
// serve_http (http.h) puts the HTTP gateway on a TCP port; and
// serve_transports binds any combination of the three listeners and
// serves them all from one loop -- one dispatcher, one artifact cache,
// one WorkerPool (ServerOptions::num_threads is the total, not a
// per-listener count), one drain. The loop accumulates bytes into the
// connection's protocol, admits complete requests, dispatches up to
// ServerOptions::batch_max of them across the WorkerPool (one request
// per work unit -- the service's operations are internally sequential,
// so the only parallelism is across requests), and writes the
// responses back in arrival order. Each request is stamped at
// admission; the queueing delay is charged against its deadline_ms by
// Service::handle.
//
// serve_transports binds every listener before serving: if any bind
// fails it returns 1 at once, with every listener released and no port
// file written. Otherwise the port file is published as soon as the
// loop is armed, and removed again when it exits.
//
// Readiness is poll()-driven with a short timeout rather than blocking
// reads, because the repo's SigintGuard installs its handler with
// signal() (glibc semantics: SA_RESTART), so a blocking read would
// never observe a ^C -- the loop instead polls the CancelToken every
// wakeup. On a trip the server calls Dispatcher::begin_drain():
// requests already dispatched finish and are delivered, every frame
// still queued (or arriving later) is answered with the "draining"
// error, the listeners stop accepting, and the loop exits 0 once the
// queue is flushed. That three-part contract (finish in-flight, refuse
// queued, exit clean) is pinned by tests/service_test.cpp and
// exercised with a real SIGINT by the e2e_sigint_drain ctest.
//
// A FrameReader protocol error (malformed header, oversized frame) is
// answered with one "bad_frame" error response and ends that
// connection -- framing is unrecoverable once the length prefix is
// lost. A read EOF is a half-close: the connection's remaining answers
// are still written before it closes. The pipe is one connection, so
// either ends pipe mode, once its answers are out.
//
// Socket connections are non-blocking with per-connection write
// buffers: a client that stops reading never stalls dispatch for the
// others -- its responses queue (up to a 64 MiB cap, then the
// connection is closed) and flush on POLLOUT. POLLERR/POLLNVAL close
// the connection, closed slots are reclaimed between poll rounds, and
// a drain flushes still-buffered responses for a bounded grace window
// before teardown. Socket sends use MSG_NOSIGNAL (and the loop ignores
// SIGPIPE) so a vanished client can never kill the daemon. The pipe's
// fds belong to the caller: the loop leaves them blocking and open.
//
// Overload shedding (DESIGN.md §14): admission is bounded by
// ServerOptions::queue_max globally and conn_inflight_max per
// connection. A frame past either cap is answered with the
// "overloaded" error carrying a retry_after_ms hint scaled to the
// backlog -- the client backs off, the queue never grows without
// bound, and accepted requests keep their latency. Admission/shed
// totals and live queue depth feed the service's `health` op through
// a shared HealthState.

#pragma once

#include <atomic>
#include <cstddef>
#include <string>

#include "service/proto.h"
#include "service/service.h"
#include "util/budget.h"

namespace shlcp::svc {

struct ServerOptions {
  /// Dispatcher configuration (LCP registry is fixed; cache is tunable).
  /// Ignored when `dispatcher` is set.
  ServiceConfig service;
  /// The request handler behind the loop. Null (the default) = the
  /// loop owns a Service built from `service`. Non-null (not owned;
  /// must outlive the serve call) lets callers share one Service -- or
  /// put a Router behind the loop.
  Dispatcher* dispatcher = nullptr;
  /// Load counters the `health` op reports (not owned; lets a caller
  /// read them while the loop runs). Null = the loop owns one.
  HealthState* health = nullptr;
  /// Worker threads for batch dispatch, shared by every listener; 0
  /// resolves via SHLCP_NUM_THREADS then the hardware (util/parallel.h).
  int num_threads = 0;
  /// Max requests dispatched as one batch.
  int batch_max = 32;
  /// Admission cap on queued-but-undispatched requests. A frame
  /// arriving past it is refused with "overloaded" plus a
  /// retry_after_ms backpressure hint instead of growing the queue
  /// without bound. 0 = unbounded (the pre-resilience behavior).
  std::size_t queue_max = 512;
  /// Per-connection cap on admitted-but-unanswered requests, so one
  /// pipelining-happy client cannot monopolize the admission queue
  /// (the pipe counts as one connection). 0 = unbounded.
  std::size_t conn_inflight_max = 128;
  /// Per-frame byte cap (FrameReader); HTTP body cap in the gateway.
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Pipe mode endpoints (tests inject socketpair/pipe fds here). The
  /// loop neither makes them non-blocking nor closes them.
  int in_fd = 0;
  int out_fd = 1;
  /// TCP/HTTP: receives the actually-bound port once listening (the
  /// caller passed port 0 for an ephemeral one). Not owned; written
  /// once, from the serving thread, before the first accept.
  /// serve_transports reports its ports in the port file instead.
  std::atomic<int>* bound_port = nullptr;
  /// External stop flag (not owned; must outlive the serve call). When
  /// null the server uses an internal token, reachable only via SIGINT.
  CancelToken* cancel = nullptr;
  /// Route SIGINT into the token for the server's lifetime.
  bool arm_sigint = false;
};

/// Serves length-prefixed JSONL over (in_fd, out_fd) until EOF or a
/// protocol error (once every answer is written), or a drain. Returns
/// a process exit code (0 = clean, including clean drains; 1 =
/// transport failure).
int serve_pipe(const ServerOptions& options);

/// Serves over a unix-domain stream socket bound at `path` (an existing
/// socket file is replaced; the path is unlinked on exit). Accepts any
/// number of concurrent connections; per-connection framing errors close
/// only that connection. Runs until the cancel token trips.
int serve_socket(const std::string& path, const ServerOptions& options);

/// Same loop and framing over TCP at host:port (numeric IPv4; port 0 =
/// ephemeral, reported through options.bound_port). One fleet backend =
/// one serve_tcp daemon; the router (router.h) consistent-hashes
/// request keys across them.
int serve_tcp(const std::string& host, int port,
              const ServerOptions& options);

/// Which listeners serve_transports should run. Empty string = that
/// transport is disabled. tcp/http take "[HOST:]PORT" (default host
/// 127.0.0.1; port 0 = ephemeral).
struct TransportSpec {
  std::string unix_path;
  std::string tcp;
  std::string http;
  /// When set, a JSON document {"unix": path?, "tcp": port?, "http":
  /// port?} is written here once every requested listener is bound and
  /// the loop is armed -- how scripts, bench_fleet, and the supervisor
  /// discover ephemeral ports. Never written when a bind fails; removed
  /// again on graceful exit, so the file's existence is a truthful
  /// readiness signal (a stale file always means a crash).
  std::string port_file;
};

/// Parses "[HOST:]PORT" (host defaults to 127.0.0.1). Returns false on
/// a malformed spec.
bool parse_hostport(const std::string& spec, std::string* host, int* port);

/// Binds every requested listener, then serves them all from one loop
/// over ONE dispatcher, one HealthState, one WorkerPool, and one cancel
/// token (shared cache, shared drain: a SIGINT drains all transports
/// together). Returns 1 at once -- no port file, no listener left --
/// when a spec is malformed or any bind fails; otherwise blocks until
/// the loop exits and returns its exit code. At least one transport
/// must be enabled. Reports to stderr under the program's name: a
/// "<prog>: serving <kind> <spec>" line per listener once all are
/// bound, or "<prog>: cannot bind <kind> <spec>: <reason>".
int serve_transports(const TransportSpec& spec, const ServerOptions& options);

}  // namespace shlcp::svc
