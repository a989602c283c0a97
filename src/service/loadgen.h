// The one load driver behind shlcp_loadgen and the chaos, fleet,
// supervisor and interactive benches.
//
// Every end-to-end gate in this repo has the same shape: W worker
// threads push a deterministic request stream at the system under
// test, and each answer is classified -- ok, refused (a benign wire
// code the caller names), error, lost (no wire code at all: retries
// exhausted below the protocol) or wrong (ok, but its result bytes
// differ from an in-process oracle Service). This header holds the one
// copy of each piece:
//
//   Payload / payload_pool  the fixed 16-slot pool of cacheable
//                           requests the chaos and fleet benches draw;
//   oracle                  the ground-truth result dumps;
//   Caller                  one worker's view of the system: a resilient
//                           Client over a socket, or an in-process
//                           Service / Router;
//   Tally                   the outcome counters and their scorer;
//   drive                   the worker loop, closed loop (a fixed count
//                           or until a stop point) or open loop;
//   honest_session          one honest commit-reveal session
//                           (shlcp.ia.v1, DESIGN.md §17) end to end.

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "service/client.h"
#include "util/json.h"

namespace shlcp::svc {

/// One request of a load stream.
struct Payload {
  std::string op;
  Json params;
};

/// The fixed pool: 16 deterministic payloads covering all four
/// cacheable endpoints (seeded fault plans, fixed instances), with 16
/// distinct artifact keys.
std::vector<Payload> payload_pool();

/// Ground truth: each payload answered by a fresh in-process Service --
/// the same library code a daemon runs, without transport or shared
/// cache. Returns the compact "result" dumps every wire answer is
/// compared against byte for byte. Throws CheckError if the oracle
/// refuses a payload.
std::vector<std::string> oracle(const std::vector<Payload>& payloads);

/// One worker's connection to the system under test. `stats` is empty
/// for in-process callers (they have no retry loop to account).
struct Caller {
  std::function<CallResult(const std::string& op, const Json& params)> call;
  std::function<ClientStats()> stats;
};

/// A Caller over its own resilient Client; `deadline_ms` > 0 is
/// attached to every call.
Caller client_caller(Client::Connector connector, ClientOptions options,
                     std::uint64_t deadline_ms = 0);

/// A wire response document as Client::call would have reported it:
/// a response without an "ok" member has no error code (lost).
CallResult to_call_result(Json response);

/// A Caller over an in-process dispatcher with a `Json handle(const
/// Json&)` member (Service, Router). Not owned; must outlive the caller.
template <class Handler>
Caller in_process_caller(Handler& handler) {
  return {[&handler](const std::string& op, const Json& params) {
            Json request = Json::object();
            request["id"] = 0;
            request["op"] = op;
            request["params"] = params;
            return to_call_result(handler.handle(request));
          },
          {}};
}

/// What one request of a stream produced, before scoring.
struct Shot {
  std::string op;
  CallResult result;
  /// Oracle result bytes to compare an ok answer with; null = unchecked.
  const std::string* expected = nullptr;
};

struct DriveOptions {
  /// Worker threads, each with its own Caller.
  int workers = 1;
  /// Requests in a fixed-count run, striped i = w, w + W, ... Ignored
  /// when drive() is given a stop point.
  std::uint64_t total = 0;
  /// > 0: open loop. Request i is due at t0 + i / rate; workers sleep
  /// until it is due (never until the server is ready) and its latency
  /// is billed from the due time, so a server stall is charged to every
  /// request it delays (no coordinated omission).
  double rate = 0;
  /// Error codes counted as refused instead of errors.
  std::vector<std::string> benign;
  /// Prefix of the per-failure stderr lines.
  std::string label = "loadgen";
};

/// Outcome counters. requests == ok + refused + errors + lost + wrong.
struct Tally {
  struct PerOp {
    std::uint64_t errors = 0;
    std::vector<std::uint64_t> latencies_us;
  };

  std::uint64_t requests = 0;
  std::uint64_t ok = 0;
  std::uint64_t refused = 0;  // a benign wire code
  std::uint64_t errors = 0;   // any other wire code
  std::uint64_t lost = 0;     // no wire code: failed below the protocol
  std::uint64_t wrong = 0;    // ok, but not the oracle's bytes
  std::map<std::string, PerOp> ops;
  ClientStats client;
  /// Wall time of the drive() that produced this tally.
  double seconds = 0;

  /// Classifies one answer; failures are reported on stderr.
  void score(const Shot& shot, std::uint64_t latency_us,
             const DriveOptions& options);
  Tally& operator+=(const Tally& other);

  /// Nearest-rank percentile (p in [0, 1]) of every latency, in us.
  [[nodiscard]] std::uint64_t percentile_us(double p) const;
};

/// Nearest-rank percentile of `xs` (0 when empty).
std::uint64_t percentile(std::vector<std::uint64_t> xs, double p);

/// Produces request `i` of the stream through `caller`.
using Job = std::function<Shot(const Caller& caller, std::uint64_t i)>;

/// Runs options.workers threads; worker w builds its Caller with
/// make_caller(w) on its own thread and works requests i = w, w + W,
/// ... -- options.total of them, or, when `until` is given, without end
/// until `until` (run on the calling thread) returns. Returns the
/// merged tally, client stats included.
Tally drive(const DriveOptions& options,
            const std::function<Caller(int worker)>& make_caller,
            const Job& job, const std::function<void()>& until = {});

/// drive() over a pool: request i is pool[i % pool.size()], checked
/// against (*expected)[i % pool.size()] when `expected` is given.
Tally drive_pool(const DriveOptions& options,
                 const std::function<Caller(int worker)>& make_caller,
                 const std::vector<Payload>& pool,
                 const std::vector<std::string>* expected,
                 const std::function<void()>& until = {});

/// One honest session on cycle6 with k = 2: session_open, then per
/// round a commit of a freshly permuted `coloring` (a proper
/// 2-coloring of cycle6) and the opening of the challenged edge.
/// `prover_seed` keys the permutations and nonces; `challenge_seed` is
/// the session's "seed" param (0 = the service default). The result is
/// ok iff the verdict accepted; otherwise it is the failing call's
/// result, or the error "rejected" for a rejecting verdict. A session
/// that fails mid-way is closed, best effort.
CallResult honest_session(const Caller& caller, const std::string& id,
                          const std::vector<int>& coloring, int rounds,
                          std::uint64_t prover_seed,
                          std::int64_t challenge_seed = 0);

}  // namespace shlcp::svc
