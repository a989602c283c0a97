// Stateful session registry of the service layer.
//
// The batching/caching service stack was built for stateless,
// cacheable requests; interactive sessions are neither. SessionTable is
// the one piece of state that makes them servable anyway: a mutexed
// map from client-chosen session id to a live InteractiveSession, with
//
//   - TTL eviction: a session untouched for ttl_ms is expired on the
//     next table operation (steps refresh the clock). The clock is
//     injectable so tests and the bench drive expiry deterministically.
//   - caps: a global cap and a per-owner cap (the owner is the
//     transport connection's id, never reused by the serving loop;
//     owner < 0 -- in-process callers -- is exempt from the per-owner
//     cap). A refused open feeds the
//     service's overload-shed path (wire error "overloaded" with a
//     retry_after_ms hint).
//   - exact accounting: every successful open ends in exactly one of
//     {completed, expired, aborted} or is still live, so
//
//       opened == completed + expired + aborted + live
//
//     holds at every instant, and with refusals added both sides of
//     bench_interactive's gate `open attempts == completed + expired
//     + refused` are exact counters, never estimates.
//
// A session that reaches its verdict is retired immediately (counted
// completed): the verdict rode the final step's reply, so keeping the
// corpse around would only occupy cap space. session_close on a live
// session counts it aborted.
//
// step() runs the protocol step under the table mutex. Sessions are
// small (pool-sized graphs, O(n) hashing per message), so one lock is
// cheaper than per-session locking plus lifetime juggling against the
// TTL sweeper; the serving benches keep this honest.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "interactive/protocol.h"

namespace shlcp::ia {

struct SessionLimits {
  std::uint64_t ttl_ms = 30'000;
  std::size_t global_max = 256;
  std::size_t per_owner_max = 64;
};

/// Monotonic totals (live is the only gauge).
struct SessionCounters {
  std::uint64_t opened = 0;     // successful opens
  std::uint64_t refused = 0;    // opens refused by a cap
  std::uint64_t completed = 0;  // reached a verdict
  std::uint64_t expired = 0;    // TTL-evicted before a verdict
  std::uint64_t aborted = 0;    // closed by the client before a verdict
  std::uint64_t steps = 0;      // messages delivered to live sessions
  std::uint64_t live = 0;       // currently open
};

class SessionTable {
 public:
  /// `now_ms` must be monotonic; defaults to steady_clock.
  explicit SessionTable(SessionLimits limits,
                        std::function<std::uint64_t()> now_ms = {});

  enum class Refusal { kNone, kExists, kGlobalCap, kOwnerCap };

  /// Opens a session under `id` for `owner`. `make` is invoked (under
  /// the lock) only when the caps admit it; its CheckError propagates.
  Refusal open(const std::string& id, std::int64_t owner,
               const std::function<std::unique_ptr<InteractiveSession>()>& make);

  struct StepResult {
    bool found = false;
    bool state_error = false;  // strict rejection; session unchanged
    std::string error;         // set on state_error
    Json reply;                // set on success
    bool completed = false;    // this step reached the verdict
  };
  StepResult step(const std::string& id, const Json& msg);

  struct CloseResult {
    bool found = false;
    Json final_state;  // describe() of the session at close
  };
  CloseResult close(const std::string& id);

  /// describe() of a live session (session_open echoes it).
  [[nodiscard]] Json describe(const std::string& id) const;

  /// Expires overdue sessions now; returns how many. Every public
  /// operation sweeps first, so expiry needs no background thread.
  std::size_t sweep();

  [[nodiscard]] SessionCounters counters() const;
  [[nodiscard]] const SessionLimits& limits() const { return limits_; }

 private:
  struct Entry {
    std::unique_ptr<InteractiveSession> session;
    std::int64_t owner = -1;
    std::uint64_t last_touch_ms = 0;
  };

  std::size_t sweep_locked();
  void retire_locked(std::unordered_map<std::string, Entry>::iterator it);

  SessionLimits limits_;
  std::function<std::uint64_t()> now_ms_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, Entry> sessions_;
  std::unordered_map<std::int64_t, std::size_t> per_owner_;
  SessionCounters counters_;
};

}  // namespace shlcp::ia
