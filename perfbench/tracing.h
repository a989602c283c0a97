// Span recording of the traced benchmark run.
//
// The benchmark traces from its own files only: the load loop records
// one client span around each Client::call, and TracingDispatcher, a
// Dispatcher wrapper the traced run puts between the transport loop and
// a Service or Router, records one span around each handle_text the
// servers make. Spans go to per-thread buffers in memory and are
// drained when the run ends.
//
// Spans of one request are joined by the request's "check" digest
// (fnv1a_hex of its canonical key, which the client and the router both
// attach) plus interval containment: a server span is a child of the
// client span with the same digest whose interval contains it, and a
// backend span a child of the router span that contains it. The joined
// spans take the client's request id.

#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "service/service.h"

namespace perfbench {

enum class SpanKind : std::uint8_t { kClient, kRouter, kService };

struct Span {
  std::uint64_t req = 0;    // client request id (0 on server spans)
  std::uint64_t check = 0;  // request digest, the join key
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;
  SpanKind kind = SpanKind::kClient;
};

std::uint64_t now_ns();

/// The digest value of a "check" hex string (0 when malformed).
std::uint64_t parse_check(std::string_view hex);

/// The "check" member of a wire request body, parsed (0 when absent).
std::uint64_t check_of_body(std::string_view body);

/// Process-wide span store with one buffer per recording thread.
class SpanSink {
 public:
  static SpanSink& global();

  /// Recording switch; record() is a no-op while off.
  void enable(bool on) { on_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return on_.load(std::memory_order_relaxed);
  }

  void record(const Span& span);

  /// Moves every recorded span out. Callers stop recording first.
  std::vector<Span> drain();

 private:
  std::atomic<bool> on_{false};
};

/// Dispatcher wrapper that records a span around every handle_text.
class TracingDispatcher : public shlcp::svc::Dispatcher {
 public:
  TracingDispatcher(shlcp::svc::Dispatcher& inner, SpanKind kind)
      : inner_(inner), kind_(kind) {}

  std::string handle_text(const std::string& body,
                          std::uint64_t elapsed_ms) override;
  std::string handle_text(const std::string& body, std::uint64_t elapsed_ms,
                          std::int64_t conn) override;
  void begin_drain() override { inner_.begin_drain(); }
  [[nodiscard]] bool draining() const override { return inner_.draining(); }
  void attach_health(const shlcp::svc::HealthState* health) override {
    inner_.attach_health(health);
  }

 private:
  shlcp::svc::Dispatcher& inner_;
  SpanKind kind_;
};

/// Per-request figures of a joined trace (microseconds).
struct TraceSummary {
  std::size_t spans = 0;
  std::size_t joined = 0;                // client spans with a server child
  std::vector<double> client_us;         // client span durations
  std::vector<double> client_self_us;    // client minus its server child
  std::vector<double> wait_us;           // server begin - client begin
  std::vector<double> router_self_us;    // router minus its backend child
  std::vector<double> server_us;         // top server span durations
};

/// Joins spans into requests and derives self times. Assigns each
/// joined server span its client's request id.
TraceSummary analyze(std::vector<Span>& spans);

/// Writes spans as CSV (req,kind,begin_ns,end_ns,check).
bool write_spans(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench
