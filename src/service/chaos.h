// Transport fault injection for the certification service.
//
// sim/faults.h attacks the *message* layer of the LOCAL simulator; this
// module attacks the *byte* layer of the service stack. A ChaosPlan is
// a deterministic, seed-driven description of what a hostile transport
// may do to a stream -- chop writes into partial sends, return short
// split reads, flip bytes in flight, reset the connection, and stall
// deliveries for bounded delays -- and a FaultyTransport realizes it as
// a wrapper around a connected (read_fd, write_fd) pair, sitting
// between a client (or test) and the kernel so that FrameReader and
// the retry protocol are exercised against every torn-frame shape.
//
// Determinism contract (mirrors sim/faults.h): every fault decision is
// drawn from an Rng keyed by (plan.seed, operation index, event kind),
// never from wall-clock time or global state. Two transports driven
// with the same plan over the same operation sequence make identical
// decisions, so a chaos failure is replayable from the plan descriptor
// alone (ChaosPlan::describe / ChaosPlan::parse round-trip, the REPRO
// string of the chaos bench).
//
// Pass-through contract: a FaultyTransport whose plan has no fault
// enabled is byte-for-byte transparent -- same writes, same reads, no
// copies dropped or reordered -- pinned by tests/service_chaos_test.cpp
// so the wrapper can stay installed in the load paths permanently.
//
// What corruption can and cannot do: flipped bytes can tear framing
// (the server answers bad_frame and abandons the stream), turn a
// request into JSON garbage (invalid_request), or silently alter a
// well-formed payload. The last case is why the wire protocol carries
// end-to-end digests (proto.h: the "check" request member and the
// "digest" response member): a corrupted request is refused with the
// "integrity" error instead of being answered, and a corrupted response
// is detected client-side and retried -- no wrong accept, ever, even on
// a hostile transport.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/rng.h"

namespace shlcp::svc {

/// A deterministic description of one hostile transport. Rates are
/// per-mille (0 = never, 1000 = always), evaluated independently per
/// read/write operation.
struct ChaosPlan {
  /// Display name for reports ("chop-heavy", "corrupt-light", ...).
  /// Carried through describe()/parse(); no behavioral effect.
  std::string label = "calm";
  /// Seed of every fault decision (see determinism contract above).
  std::uint64_t seed = 0;
  /// Per-write probability that the payload is delivered as several
  /// partial sends (each a deterministic 1..8-byte prefix slice)
  /// instead of one write.
  int write_chop_permille = 0;
  /// Per-read probability that at most a small deterministic number of
  /// bytes is returned, splitting frames across poll wakeups.
  int read_chop_permille = 0;
  /// Per-operation probability that exactly one byte of the payload is
  /// flipped in flight (requests on write, responses on read).
  int corrupt_permille = 0;
  /// Per-operation probability that the connection is torn down as if
  /// the peer reset it; subsequent operations fail until reconnect.
  int reset_permille = 0;
  /// Per-operation probability of a bounded stall of 1..max_delay_ms
  /// milliseconds before the bytes move.
  int delay_permille = 0;
  int max_delay_ms = 0;

  /// True iff the plan can alter a stream at all.
  [[nodiscard]] bool enabled() const;

  /// Compact single-line descriptor, e.g.
  /// "chop-light;seed=0xc0ffee;wchop=300;rchop=300;corrupt=0;reset=0;delay=0@0ms".
  /// parse(describe()) reconstructs the plan exactly.
  [[nodiscard]] std::string describe() const;

  /// Inverse of describe(). Throws CheckError on malformed input.
  static ChaosPlan parse(const std::string& descriptor);

  /// The standard chaos family: calm, chop-light/heavy,
  /// corrupt-light/heavy, reset, delay, and a mixed plan -- all
  /// derived deterministically from `seed`.
  static std::vector<ChaosPlan> standard_family(std::uint64_t seed);

  friend bool operator==(const ChaosPlan&, const ChaosPlan&) = default;
};

/// Counters of the faults a transport actually injected (a nonzero plan
/// may still inject nothing -- the draws are random).
struct ChaosStats {
  std::uint64_t writes = 0;
  std::uint64_t reads = 0;
  std::uint64_t chopped_writes = 0;
  std::uint64_t chopped_reads = 0;
  std::uint64_t corrupted_bytes = 0;
  std::uint64_t resets = 0;
  std::uint64_t delays = 0;
  std::uint64_t delay_ms_total = 0;
};

/// A connected fd pair behind a ChaosPlan. Owns both fds (closes them on
/// destruction or on an injected reset; pass dup()s to share). The two
/// fds may be equal (a socket).
class FaultyTransport {
 public:
  FaultyTransport(int read_fd, int write_fd, ChaosPlan plan);
  ~FaultyTransport();

  FaultyTransport(const FaultyTransport&) = delete;
  FaultyTransport& operator=(const FaultyTransport&) = delete;

  /// Writes all of `data` (chopped, corrupted, or delayed per the
  /// plan). Returns false once the connection is dead -- injected reset
  /// or a real transport error (EPIPE, ECONNRESET, ...); EINTR is
  /// always retried.
  bool write_all(std::string_view data);

  /// Reads up to `cap` bytes into `buf` (possibly fewer under read
  /// chop). Returns the byte count, 0 on EOF, or -1 once the connection
  /// is dead. Never raises SIGPIPE and retries EINTR.
  [[nodiscard]] std::int64_t read_some(char* buf, std::size_t cap);

  /// The fd to poll for readability (-1 when dead).
  [[nodiscard]] int poll_fd() const { return dead_ ? -1 : read_fd_; }

  [[nodiscard]] bool dead() const { return dead_; }
  [[nodiscard]] const ChaosPlan& plan() const { return plan_; }
  [[nodiscard]] const ChaosStats& stats() const { return stats_; }

 private:
  /// Independent generator for one transport event; the op counters
  /// advance per operation, so decisions are independent of timing.
  [[nodiscard]] Rng event_rng(std::uint64_t op, std::uint64_t salt) const;
  void kill_connection();
  /// Draws the reset/delay faults shared by both directions. Returns
  /// false iff the connection was reset.
  bool pre_op_faults(std::uint64_t op, std::uint64_t salt);

  ChaosPlan plan_;
  int read_fd_ = -1;
  int write_fd_ = -1;
  bool dead_ = false;
  std::uint64_t write_ops_ = 0;
  std::uint64_t read_ops_ = 0;
  ChaosStats stats_;
};

}  // namespace shlcp::svc
