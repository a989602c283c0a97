// Load phases of the serving benchmark.
//
// Closed loop: Pinning::kClosedLoadThreads workers, one connection
// each, keep Pinning::kClosedDepth requests pipelined on it and send
// the next request as soon as a reply arrives, so the server always has
// work queued; indexes are handed out from one counter so the stream is
// the same whatever the interleaving. Replies are matched to requests
// by wire id, and a request is never retried. Open loop: one Client per
// worker; request k of the phase is due at t0 + k / rate and goes to
// the next free worker; its latency is measured from that due time, so
// a stall is charged to every request it delays, and the generator's
// own lateness is recorded beside it.
//
// The sessions workload runs whole honest commit-reveal sessions
// (open, kRounds x commit + reveal); each wire message is one request.
// In the closed loop each connection keeps kClosedDepth sessions going,
// one message outstanding each. In the open loop a session's first
// message is due on the schedule and its later messages are due when
// the previous reply arrives.
//
// Every ok reply's digest is re-verified here, and every
// `oracle_every`-th stateless reply is kept for a bit-exact comparison
// against an in-process Service after the phase.

#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "service/client.h"
#include "workloads.h"

namespace perfbench {

struct LoadConfig {
  std::string target;          // "tcp:<host>:<port>"
  double seconds = 1;
  double rate = 0;             // requests/s; 0 = closed loop
  std::uint64_t first = 0;     // first stream index of the phase
  std::uint64_t oracle_every = 0;  // 0 = keep no samples
  bool trace = false;          // record client spans
};

struct LoadResult {
  std::uint64_t attempted = 0;       // wire requests
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;          // answered with an error code
  std::uint64_t refused = 0;         // overloaded / draining after retries
  std::uint64_t lost = 0;            // no answer after retries
  std::uint64_t bad_digest = 0;      // ok reply whose digest did not verify
  std::uint64_t rejected_sessions = 0;  // honest sessions not accepted
  std::uint64_t sessions = 0;        // sessions started
  std::uint64_t next = 0;            // first stream index not handed out
  double elapsed_s = 0;
  double load_cpu_s = 0;             // CPU of the load threads
  std::vector<double> latency_us;    // open loop: from the due time
  std::vector<double> late_us;       // open loop: send minus due time
  std::vector<std::pair<std::uint64_t, std::string>> samples;  // index, result
  std::vector<std::pair<std::string, std::uint64_t>> op_counts;
  shlcp::svc::ClientStats client;

  [[nodiscard]] std::uint64_t failed() const {
    return errors + refused + lost + bad_digest + rejected_sessions;
  }
};

/// Adds `from`'s counts, samples and latencies to `into`.
void merge(LoadResult& into, const LoadResult& from);

/// One phase of stateless requests from `stream`.
LoadResult run_requests(const RequestStream& stream, const LoadConfig& config);

/// One phase of honest sessions; `config.first` is the first session
/// index and `config.rate` counts wire requests per second.
LoadResult run_sessions(std::uint64_t seed, const LoadConfig& config);

/// Sends each request once (cache fill); false if any failed.
bool warm(const std::string& target, const std::vector<Request>& requests);

}  // namespace perfbench
