// Consistent-hash shard router over a fleet of shlcpd backends.
//
// Router is a Dispatcher (service.h), so it sits behind the exact
// transport loops shlcpd uses -- shlcp_router is shlcpd with a Router
// where the Service would be. Each forwarded request keys on
// artifact_key(op, params), the same canonical string the backends key
// their artifact caches on, hashed onto a ring of vnodes (DESIGN.md
// §15). Two consequences, both load-bearing:
//
//   Disjoint cache sharding. A given (op, params) always lands on the
//   same backend, so the fleet's caches partition the key space: N
//   backends hold N caches' worth of artifacts with zero duplicate
//   computes. bench_fleet verifies this by construction (sum of
//   per-backend cache misses == number of distinct keys sent).
//
//   Rebalance-on-death. The ring is never rebuilt; a dead backend is
//   skipped along each key's ring preference order. Keys owned by
//   live backends keep their owner (their caches stay warm), and only
//   the dead backend's keys move -- to the next vnode successor, which
//   recomputes (or re-caches) them. When the backend returns, its keys
//   return with it.
//
// Forwarding uses the resilient Client (client.h): per-attempt
// timeouts, capped backoff, reconnects, end-to-end integrity digests.
// On top of that the router retries *across replicas*: a backend that
// is unreachable, draining, or still overloaded after the Client's own
// retry budget gets marked down and the request moves to the next
// distinct backend in ring order (bounded by replica_attempts).
// Because backends key their caches identically and ops are pure, a
// rerouted request is idempotent -- the worst case is one duplicate
// compute on the fallback replica, never a wrong answer. Backend
// errors that name a caller bug (invalid_params, unknown_op, internal)
// are returned verbatim; rerouting cannot fix those.
//
// A backend marked down is reprobed lazily: after probe_interval_ms it
// gets one live request again (plus explicit probe_all() sweeps, which
// shlcp_router runs at startup). Transport failures are classified by
// CallResult::fail_kind: connection-refused means the process is gone
// (down, reroute) while a timeout means it is alive but slow or wedged
// -- both reroute, but fleet health counts them separately so the
// supervisor's wedge detection has a real signal.
//
// Quarantine is the harder state (supervisor.h): a backend whose
// crash-loop breaker is open is *not* merely down -- it is excluded
// from routing plans, startup probes, and fleet fan-outs entirely, so
// no request (or aggregation) ever blocks on it. Its ring keys spill
// to the next replica in preference order, exactly like death, and
// return when the supervisor closes the breaker. The supervisor pushes
// quarantine flags, restart counts, last exit status, and pids through
// set_backend_runtime(); fleet `health` reports them per backend.
//
// `info` and `health` fan out to every (non-quarantined) backend and
// aggregate, so one curl of the router answers for the fleet.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "service/client.h"
#include "service/service.h"

namespace shlcp::svc {

/// One backend of the fleet.
struct BackendSpec {
  std::string name;    // ring identity (stable across restarts)
  std::string target;  // "unix:<path>" or "tcp:<host>:<port>"

  /// Parses "NAME=TARGET" or bare "TARGET" (name defaults to target).
  /// Returns false on a malformed spec (empty name/target or a target
  /// connector_for rejects).
  static bool parse(const std::string& arg, BackendSpec* out);
};

/// The consistent-hash ring: `vnodes` points per backend, placed at
/// mix64(fnv1a64(name + "#" + i)) -- the splitmix64 finalizer keeps
/// near-identical vnode names from clustering. Key lookup walks
/// clockwise from
/// point_of(key); the preference order is the sequence of *distinct*
/// backends encountered, extended to cover every backend.
class HashRing {
 public:
  HashRing(const std::vector<std::string>& names, int vnodes);

  /// Where a canonical request key lands on the ring.
  [[nodiscard]] static std::uint64_t point_of(std::string_view key);

  /// Backend indexes in failover order for a key at `point`: the
  /// owner first, then each successor backend once, then any backend
  /// with no vnode on the walk. Size == backend count, each index
  /// exactly once.
  [[nodiscard]] std::vector<int> preference(std::uint64_t point) const;

  [[nodiscard]] int backends() const { return num_backends_; }

 private:
  std::vector<std::pair<std::uint64_t, int>> ring_;  // sorted points
  int num_backends_;
};

struct RouterOptions {
  std::vector<BackendSpec> backends;
  /// Vnodes per backend. More = smoother key balance, larger ring.
  int vnodes = 64;
  /// Per-backend Client discipline (timeouts, retry/backoff, chaos,
  /// digest verification). retry.seed seeds the deterministic jitter.
  ClientOptions client;
  /// Distinct backends tried per request before giving up with
  /// "overloaded" (1 = no failover).
  int replica_attempts = 2;
  /// How long a backend marked down stays skipped before a live
  /// request reprobes it.
  std::uint64_t probe_interval_ms = 1000;
};

/// Live per-backend counters (snapshot via Router::backend_stats).
struct RouterBackendStats {
  std::string name;
  std::string target;
  bool alive = true;
  bool quarantined = false;     // breaker open: excluded from routing
  std::uint64_t forwarded = 0;  // requests attempted on this backend
  std::uint64_t answered = 0;   // ok or verbatim backend error
  std::uint64_t rerouted = 0;   // moved on to the next replica
  std::uint64_t conn_refused = 0;  // failures with nothing listening
  std::uint64_t timeouts = 0;      // failures that timed out (slow/wedged)
  std::uint64_t restarts = 0;      // supervisor-pushed respawn count
  std::int64_t last_exit = -1;     // supervisor-pushed; -1 = never exited
  std::int64_t pid = -1;           // supervisor-pushed; -1 = not running
};

/// Supervisor-pushed runtime state for one backend (supervisor.h).
struct BackendRuntime {
  bool quarantined = false;
  std::uint64_t restarts = 0;
  std::int64_t last_exit = -1;
  std::int64_t pid = -1;
};

class Router : public Dispatcher {
 public:
  explicit Router(RouterOptions options);
  ~Router() override;

  std::string handle_text(const std::string& body,
                          std::uint64_t elapsed_ms) override;
  Json handle(const Json& request, std::uint64_t elapsed_ms = 0);

  void begin_drain() override {
    draining_.store(true, std::memory_order_relaxed);
  }
  [[nodiscard]] bool draining() const override {
    return draining_.load(std::memory_order_relaxed);
  }
  void attach_health(const HealthState* health) override {
    health_.store(health, std::memory_order_release);
  }

  /// Probes every non-quarantined backend with a short `health` call;
  /// marks each up/down accordingly (a quarantined backend is skipped
  /// and counted as not alive). Returns the number alive.
  int probe_all();

  /// Stamps supervisor-owned runtime state onto the named backend.
  /// Flipping quarantined on removes the backend from every routing
  /// plan and fan-out until it is flipped off again. Returns false for
  /// an unknown name.
  bool set_backend_runtime(const std::string& name,
                           const BackendRuntime& runtime);

  /// Supervisor hook: force the liveness bit (true right after a
  /// successful respawn so traffic returns without waiting out the
  /// lazy reprobe interval; false the moment a crash is reaped).
  /// Returns false for an unknown name.
  bool set_backend_alive(const std::string& name, bool alive);

  [[nodiscard]] std::vector<RouterBackendStats> backend_stats() const;

  /// The ring's backend preference order for one request's routing
  /// key -- exposed so tests and bench_fleet can verify ownership
  /// without re-deriving the hash.
  [[nodiscard]] std::vector<int> preference_for(
      const std::string& op, const Json& params) const;

  /// What the ring hashes for one request. Stateless ops key on
  /// artifact_key(op, params) (cache locality). Session ops key on the
  /// session id alone, so session_open/step/close of one session share
  /// a routing key regardless of the rest of their params -- every step
  /// lands on the backend that holds the session state, and on a
  /// backend death the whole session fails over to the same successor
  /// (the session is lost, but the replies are coherent: the successor
  /// answers session_not_found rather than half the fleet guessing).
  /// `artifact`, when non-empty, is artifact_key(op, params) already
  /// derived by the caller.
  [[nodiscard]] static std::string routing_key(const std::string& op,
                                               const Json& params,
                                               std::string artifact = {});

 private:
  struct Backend;

  /// The one way the router talks to a backend: borrow a pooled
  /// Client, call, then settle b's state. Returns true when `out` is
  /// b's own final answer -- ok, or (`forwarding`) a caller error to
  /// pass through verbatim; b is then marked alive and the Client
  /// pooled again. false = move to the next replica; b is marked down
  /// on transport death or draining (any failure when not forwarding:
  /// probes and fan-outs).
  /// `check`, when non-empty, is the request's digest the Client would
  /// otherwise derive again (Client::call).
  bool call_backend(Backend& b, const std::string& op, const Json& params,
                    std::uint64_t deadline_ms, bool forwarding,
                    CallResult* out, std::string_view check = {});
  Backend* find_backend(const std::string& name);
  /// Marks b down and bumps its refused/timeout counter per the
  /// failure kind of `r`.
  static void mark_down(Backend& b, const CallResult& r);
  /// Forwards `req` along the ring order of `key`; `check` is its
  /// fnv1a_hex(artifact_key) digest, handed on to the Client.
  Json route(const Request& req, const std::string& key,
             std::string_view check);
  Json aggregate_info(const Request& req);
  Json aggregate_health(const Request& req);

  RouterOptions options_;
  HashRing ring_;
  std::vector<std::unique_ptr<Backend>> backends_;
  std::atomic<bool> draining_{false};
  std::atomic<const HealthState*> health_{nullptr};
};

}  // namespace shlcp::svc
