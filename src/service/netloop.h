// Generic poll-driven stream-server loop shared by every network
// transport (DESIGN.md §15).
//
// The unix-socket server already had everything a production listener
// needs -- non-blocking accept, per-connection read buffers, bounded
// write buffers flushed on POLLOUT, admission control with "overloaded"
// shedding, and the three-part drain contract (finish in-flight, refuse
// queued, exit 0). This header extracts that loop so the unix-socket,
// TCP, and HTTP listeners are the *same code* differing only in (a) how
// the listening fd is bound and (b) a ConnProtocol that turns raw bytes
// into request envelopes and dispatcher responses into wire bytes.
//
// The split of responsibilities:
//
//   serve_stream      owns poll(), accept(), admission, batching across
//                     the WorkerPool, ordered write-back, shedding,
//                     drain, and connection lifetime. Protocol-blind.
//   ConnProtocol      one instance per connection. on_bytes() consumes
//                     raw reads and emits zero or more Inbound request
//                     envelopes (plus optional canned bytes -- e.g. an
//                     HTTP 404 -- which are sequenced through the same
//                     ordering path as real responses so a client that
//                     pipelines requests on one connection (perfbench's
//                     driver does) never sees replies out of order).
//                     encode_response()/encode_shed() map dispatcher
//                     output and admission refusals back to the wire.
//   Dispatcher        Service (local compute) or Router (fleet
//                     forwarding); see service.h.
//
// Ordering invariant: within one connection, responses are written in
// request order. The loop guarantees it for dispatched requests (the
// batch preserves queue order and the queue preserves arrival order);
// protocols guarantee it for canned replies by emitting them as
// `raw` Inbounds that ride the queue instead of bypassing it.
//
// serve_pipe (server.cpp) keeps its simpler blocking-write loop but
// shares the admission/dispatch helpers below, so shedding semantics
// and retry_after_ms hints are identical on every transport. The pipe
// carries tests and one-off `printf | shlcpd --pipe` probes only: every
// load generator (shlcp_loadgen, the service benches, perfbench) runs
// over the socket transports this loop serves.

#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "service/server.h"
#include "service/service.h"
#include "util/parallel.h"

namespace shlcp::svc {

/// One admitted request awaiting dispatch.
struct PendingRequest {
  std::string body;           // request envelope (shlcp.svc.v1 JSON)
  std::uint64_t admit_ms = 0; // admission stamp; queue delay charges
                              // against deadline_ms
  int conn = -1;              // owning connection index (-1 = pipe)
  std::uint64_t tag = 0;      // protocol-private cookie (HTTP: request
                              // sequence + keep-alive bit)
  bool raw = false;           // body is already wire bytes: skip the
                              // dispatcher AND the encoder, write as-is
                              // (canned protocol replies ride the queue
                              // to keep per-connection response order)
};

/// Admission policy shared by every transport loop.
struct Admission {
  std::size_t queue_max = 0;          // 0 = unbounded
  std::size_t conn_inflight_max = 0;  // 0 = unbounded
  int batch_max = 32;
  HealthState* health = nullptr;
};

/// Backpressure hint for a shed frame: roughly how long the backlog
/// ahead needs to dispatch, assuming ~10 ms per batch, capped so a
/// wildly overloaded server never tells clients to sleep forever.
std::int64_t retry_after_hint_ms(std::size_t depth, int batch_max);

/// Builds the "overloaded" refusal body for a request that was never
/// admitted. The envelope is parsed only to salvage the request id (the
/// response must be matchable client-side); one too corrupt to parse is
/// shed with a null id.
std::string shed_body(const std::string& body, std::string_view what,
                      std::size_t depth, int batch_max);

/// Outcome of admitting one envelope: empty = admitted (the request is
/// now queued), otherwise the refusal body to send back.
std::string admit_request(std::deque<PendingRequest>& queue,
                          PendingRequest&& request,
                          std::size_t* conn_inflight,
                          const Admission& admission);

/// Dispatches up to batch_max queued requests across the pool and
/// returns the responses in queue order (paired with their Pending).
/// `raw` requests pass through untouched (their body IS the response).
std::vector<std::pair<PendingRequest, std::string>> dispatch_batch(
    Dispatcher& dispatcher, WorkerPool& pool,
    std::deque<PendingRequest>& queue, int batch_max, HealthState* health);

/// Per-connection wire protocol adapter. One instance per accepted
/// connection; the loop owns it. Implementations are single-threaded
/// (only the poll thread touches them).
class ConnProtocol {
 public:
  virtual ~ConnProtocol() = default;

  struct Inbound {
    std::string body;       // envelope (or raw wire bytes when raw)
    std::uint64_t tag = 0;  // echoed to encode_response()
    bool raw = false;       // pre-encoded reply; bypass dispatch+encode
  };

  struct Output {
    std::vector<Inbound> requests;  // admit these, in arrival order
    bool close = false;             // framing lost: flush, then close
  };

  /// Consumes one raw read. Emits complete requests (and canned raw
  /// replies) in arrival order; sets close when the stream is
  /// unrecoverable (the loop stops reading and closes once flushed).
  virtual void on_bytes(std::string_view data, Output* out) = 0;

  /// Encodes a dispatcher response for the request tagged `tag`. Sets
  /// *close_after when the connection must end after this response
  /// (e.g. HTTP "Connection: close").
  virtual std::string encode_response(std::uint64_t tag,
                                      const std::string& response,
                                      bool* close_after) = 0;

  /// Encodes an admission refusal (body built by shed_body) for a
  /// request that was never queued.
  virtual std::string encode_shed(const Inbound& req,
                                  const std::string& refusal_body,
                                  bool* close_after) = 0;
};

using ProtocolFactory =
    std::function<std::unique_ptr<ConnProtocol>(std::size_t max_frame_bytes)>;

/// A bound, listening stream socket handed to serve_stream.
struct StreamListener {
  int fd = -1;
  /// Undoes the bind when the listener stops accepting (unix: unlink
  /// the socket path). May be empty.
  std::function<void()> unbind;
};

/// Binds + listens on a unix-domain socket at `path` (an existing
/// socket file is replaced). Returns fd < 0 on failure. The returned
/// unbind unlinks the path.
StreamListener listen_unix(const std::string& path);

/// Binds + listens on TCP `host:port` (port 0 picks an ephemeral port).
/// Returns fd < 0 on failure; *bound_port (optional) receives the
/// actual port. Numeric IPv4 hosts only ("127.0.0.1", "0.0.0.0") --
/// the daemon is an internal-fleet component, not a resolver.
StreamListener listen_tcp(const std::string& host, int port,
                          int* bound_port);

/// The shared server loop: accepts connections on `listener`, speaks
/// `make_protocol` on each, dispatches through options.dispatcher (or
/// an owned Service when null), and honors the admission/drain
/// contract documented in server.h. Owns and closes listener.fd.
/// Returns a process exit code (0 = clean, including clean drains).
int serve_stream(StreamListener listener, const ServerOptions& options,
                 const ProtocolFactory& make_protocol);

}  // namespace shlcp::svc
