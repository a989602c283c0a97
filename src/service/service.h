// Request dispatcher of the certification service.
//
// Service is the transport-independent core of shlcpd: it owns the LCP
// registry (every named scheme of src/certify, both repaired and
// literal variants), the audit instance pool, and the artifact cache,
// and maps one request to one response. The server (server.h), the
// bench (bench/bench_service.cpp), and the tests all talk to the same
// handle_text() entry point (handle() wraps it for in-process callers),
// which is what makes "daemon responses are bit-identical to direct
// library calls" a checkable claim rather than a hope.
//
// Operations (schema shlcp.svc.v1):
//
//   run_decoder     execute a named LCP's decoder distributively on an
//                   instance (named from the audit pool or inline),
//                   honest or explicit certificates, optionally under a
//                   FaultPlan descriptor. The result and any execution
//                   error carry the lcp/audit repro string of the run.
//   check_coloring  verify a supplied k-coloring (violating edge named)
//                   or solve for one (graph/algorithms::k_coloring).
//   search_witness  replay a hiding-witness family search
//                   (nbhd/witness.h) and report the odd cycle.
//   build_nbhd      build V(D, n) over a graph family spec via
//                   build_exhaustive / build_proved and report its
//                   shape + 2-colorability.
//   info            service metadata + live cache stats (never cached).
//   health          load snapshot for routers and supervisors: queue
//                   depth/cap, admitted/shed totals, drain state, cache
//                   stats, session-table occupancy (never cached; see
//                   HealthState).
//   session_open    open an interactive session (src/interactive,
//                   DESIGN.md §17): params carry the client-chosen
//                   "session" id (proto.h's grammar; the reserved
//                   c<digits> namespace is refused), the "protocol"
//                   (default kcol-commit), an "instance", and protocol
//                   params (k, rounds, optional seed). Refused with
//                   "overloaded" + retry_after_ms when a session cap is
//                   hit -- the same shed path queue admission uses.
//   session_step    deliver one prover message ("msg") to the session;
//                   replies carry the verifier's challenge / verdict. A
//                   message that does not fit the session state is
//                   refused with "session_state" and the session is
//                   unchanged; an unknown (or expired) id gets
//                   "session_not_found".
//   session_close   abort a live session early (aborted sessions are
//                   accounted separately from completed/expired ones).
//
// One pass per request: handle_text() parses the body once, moves id
// and params out of it (parse_request), derives artifact_key(op,
// params) once -- the "check" digest's preimage and the cache key --
// and probes the cache exactly once, after the drain, envelope,
// deadline and integrity checks.
//
// The first four ops are cached: the dispatcher stores the *dumped*
// result string under the artifact key, and a hit splices those bytes
// verbatim into the response text (ok_response_text), with the digest
// recomputed from them -- no tree is built or parsed. A miss dumps its
// result once and uses the same writer. The session ops are stateful
// and therefore never cached. Every op bumps service.<op>.requests and
// records into the service.<op>.latency_ns histogram, both resolved
// once at construction; errors bump service.errors.
//
// Resilience (DESIGN.md §14): a request's optional "check" digest is
// recomputed from the parsed params and a mismatch is refused with
// "integrity" (a corrupted-in-flight request is never answered); every
// ok response carries a "digest" of its result bytes for client-side
// verification. deadline_ms is enforced twice: before work (queue
// delay already past it -> "deadline_exceeded" without dispatch) and
// at frame boundaries inside build_nbhd (the one op long enough to
// expire mid-flight), via the resumable builders' wall budget. A
// request with exactly its whole budget spent is not past it, and
// runs under a 1 ms budget rather than none.
//
// Draining: begin_drain() flips a flag after which every request is
// answered with the "draining" error and nothing new is dispatched --
// in-flight handle() calls finish normally. The server trips this from
// SIGINT; tests and the bench trip it directly.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "interactive/table.h"
#include "lcp/audit.h"
#include "lcp/decoder.h"
#include "service/cache.h"
#include "service/proto.h"

namespace shlcp::metrics {
class Counter;
class Histogram;
}  // namespace shlcp::metrics

namespace shlcp::svc {

/// Error codes of the wire protocol (DESIGN.md §12 lists the contract).
inline constexpr const char* kErrBadFrame = "bad_frame";
inline constexpr const char* kErrInvalidRequest = "invalid_request";
inline constexpr const char* kErrUnknownOp = "unknown_op";
inline constexpr const char* kErrInvalidParams = "invalid_params";
inline constexpr const char* kErrDeadline = "deadline_exceeded";
inline constexpr const char* kErrDraining = "draining";
inline constexpr const char* kErrOverloaded = "overloaded";
inline constexpr const char* kErrIntegrity = "integrity";
inline constexpr const char* kErrInternal = "internal";
/// Session ops only. Both are deliberately NOT in the client's
/// retriable-code whitelist: blindly retrying a non-idempotent session
/// step could double-deliver a message.
inline constexpr const char* kErrSessionNotFound = "session_not_found";
inline constexpr const char* kErrSessionState = "session_state";

/// Limits and determinism knobs of the interactive session table.
struct SessionConfig {
  /// A session untouched this long is expired on the next table op.
  std::uint64_t ttl_ms = 30'000;
  /// Live-session caps; hitting either refuses the open with
  /// "overloaded" + a retry_after_ms hint (the shed path).
  std::size_t global_max = 256;
  std::size_t per_conn_max = 64;
  /// Base of every session's challenge seed (mixed with the session id
  /// and the client's optional "seed" param).
  std::uint64_t seed = 0x1A5EEDULL;
  /// Injectable monotonic clock (ms) for deterministic TTL tests;
  /// empty = steady_clock.
  std::function<std::uint64_t()> clock;
};

struct ServiceConfig {
  CacheConfig cache;
  SessionConfig sessions;
};

/// Live load counters of the transport loop, surfaced by the `health`
/// op -- the fields a shard router polls to steer traffic. The server
/// owns one and attaches it; atomics because the poll thread writes
/// while worker threads read mid-dispatch.
struct HealthState {
  std::atomic<std::uint64_t> queue_depth{0};     // admitted, not dispatched
  std::atomic<std::uint64_t> queue_max{0};       // admission cap (0 = none)
  std::atomic<std::uint64_t> admitted_total{0};  // frames accepted
  std::atomic<std::uint64_t> shed_total{0};      // refused "overloaded"
};

/// What a transport loop needs from whatever answers its requests.
/// Service implements it by computing locally; Router (router.h)
/// implements it by forwarding to a fleet of backends -- which is what
/// lets shlcpd's pipe/unix/TCP/HTTP loops and shlcp_router share one
/// server implementation (netloop.h) verbatim.
///
/// Implementations must be thread-safe: the server dispatches a batch
/// of handle_text() calls concurrently across a WorkerPool.
class Dispatcher {
 public:
  virtual ~Dispatcher() = default;

  /// Handles one raw frame body: parse, dispatch, serialize. Never
  /// throws -- malformed input becomes an error response.
  /// `elapsed_ms` is how long the request has already waited since
  /// admission (the server's queue delay); it is charged against the
  /// request's deadline_ms.
  virtual std::string handle_text(const std::string& body,
                                  std::uint64_t elapsed_ms) = 0;

  /// Connection-aware variant: `conn` is the id of the transport
  /// connection the frame arrived on, never reused within one serving
  /// loop (-1 = none / in-process). The server's batch dispatch calls
  /// this one; stateful dispatchers (Service, for per-connection
  /// session caps) override it, everything else falls through to the
  /// 2-arg overload.
  virtual std::string handle_text(const std::string& body,
                                  std::uint64_t elapsed_ms,
                                  std::int64_t conn) {
    (void)conn;
    return handle_text(body, elapsed_ms);
  }

  /// After this, every request is refused with the "draining" error.
  virtual void begin_drain() = 0;
  [[nodiscard]] virtual bool draining() const = 0;

  /// Surfaces the transport loop's load counters through the `health`
  /// op. Not owned; must outlive every handle call.
  virtual void attach_health(const HealthState* health) = 0;
};

/// Transport-independent request dispatcher. Thread-safe: handle() may
/// be called concurrently (the server batches requests across a
/// WorkerPool); the registries are immutable after construction and the
/// cache locks internally.
class Service : public Dispatcher {
 public:
  explicit Service(ServiceConfig config = {});
  ~Service() override;

  /// Handles one raw frame body: parse, dispatch, serialize. Never
  /// throws -- malformed input becomes an error response.
  /// `elapsed_ms` is how long the request has already waited since
  /// admission (the server's queue delay); it is charged against the
  /// request's deadline_ms.
  std::string handle_text(const std::string& body,
                          std::uint64_t elapsed_ms = 0) override;
  std::string handle_text(const std::string& body, std::uint64_t elapsed_ms,
                          std::int64_t conn) override;

  /// Same, on an already-parsed document, for in-process callers: it
  /// dumps the request, calls handle_text() and parses the reply.
  /// `conn` attributes session opens to a connection for the
  /// per-connection cap (-1 = exempt).
  Json handle(const Json& request, std::uint64_t elapsed_ms = 0,
              std::int64_t conn = -1);

  /// After this, every request is refused with the "draining" error.
  void begin_drain() override {
    draining_.store(true, std::memory_order_relaxed);
  }

  [[nodiscard]] bool draining() const override {
    return draining_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] CacheStats cache_stats() const { return cache_.stats(); }

  /// Live session-table occupancy (also surfaced by info/health).
  /// Sweeps expired sessions first so the snapshot is never stale:
  /// expiry is time-driven and must not wait for the next session op.
  [[nodiscard]] ia::SessionCounters session_counters() {
    sessions_.sweep();
    return sessions_.counters();
  }

  /// Surfaces the transport loop's load counters through the `health`
  /// op. Not owned; must outlive every handle() call. Without one the
  /// op reports zeros (in-process use). Atomic because several
  /// transport loops (serve_transports) attach the same shared state
  /// concurrently at startup.
  void attach_health(const HealthState* health) override {
    health_.store(health, std::memory_order_release);
  }

  /// Stable list of the operations this service answers.
  [[nodiscard]] static std::vector<std::string> ops();

 private:
  /// `remaining_ms` is the request's unexpired deadline budget (0 =
  /// none); long-running ops stop at the next frame boundary past it.
  Json dispatch(const Request& req, std::uint64_t remaining_ms,
                std::int64_t conn);
  Json op_run_decoder(const Json& params) const;
  Json op_check_coloring(const Json& params) const;
  Json op_search_witness(const Json& params) const;
  Json op_build_nbhd(const Json& params, std::uint64_t remaining_ms) const;
  Json op_info();
  Json op_health();
  Json op_session_open(const Json& params, std::int64_t conn);
  Json op_session_step(const Json& params);
  Json op_session_close(const Json& params);

  const Lcp& find_lcp(const std::string& name) const;
  /// Resolves params["instance"]: a pool name or an inline object.
  /// *name_out gets the pool name or "inline" (for repro strings).
  Instance resolve_instance(const Json& spec, std::string* name_out) const;
  std::vector<Graph> resolve_graphs(const Json& specs) const;
  const ia::InteractiveProtocol& find_protocol(const std::string& name) const;
  /// Validated params["session"] (grammar + reserved namespace).
  static std::string session_param(const Json& params);

  /// service.<op>.requests and service.<op>.latency_ns of each op, in
  /// ops() order, resolved once at construction.
  struct OpMetrics {
    metrics::Counter* requests;
    metrics::Histogram* latency;
  };

  ServiceConfig config_;
  std::vector<std::unique_ptr<Lcp>> lcps_;
  std::vector<NamedInstance> pool_;
  ArtifactCache cache_;
  std::vector<std::unique_ptr<ia::InteractiveProtocol>> protocols_;
  ia::SessionTable sessions_;
  std::vector<OpMetrics> op_metrics_;
  std::atomic<bool> draining_{false};
  std::atomic<const HealthState*> health_{nullptr};
};

}  // namespace shlcp::svc
