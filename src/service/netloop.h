// The one serving loop of shlcpd and shlcp_router (DESIGN.md §15).
//
// serve_stream owns everything a transport needs beyond its bytes:
// poll(), non-blocking accept on any number of listeners, per-connection
// read buffers and bounded write buffers flushed on POLLOUT, admission
// control with "overloaded" shedding, batching across one WorkerPool,
// ordered write-back, and the three-part drain contract (finish
// in-flight, refuse queued, exit 0). Pipe, unix-socket, TCP and HTTP
// serving are this loop with different endpoints:
//
//   listeners         each bound fd carries the ProtocolFactory its
//                     accepted connections speak, so one loop (and one
//                     WorkerPool, one dispatcher, one SIGINT guard)
//                     serves unix + TCP + HTTP together.
//   pipe              no listener; (ServerOptions::in_fd, out_fd) is one
//                     pre-connected connection, and the loop ends when
//                     it finishes. The loop did not open those fds, so
//                     it neither makes them non-blocking (stdin/stdout
//                     share their open file description with the
//                     parent) nor closes them.
//
// The split of responsibilities:
//
//   serve_stream      protocol-blind: connection lifetime, admission,
//                     dispatch, shedding, drain.
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
// protocols guarantee it for canned replies by emitting them as `raw`
// Inbounds that ride the queue instead of bypassing it. Shed refusals
// ride the queue the same way.
//
// Connection lifetime: a read EOF is a half-close -- the loop stops
// reading and closes once everything the connection is owed has been
// written. Lost framing and an HTTP "Connection: close" end the
// connection the same way. Every connection gets an id that is never
// reused; it is the `conn` the dispatcher sees (the per-connection
// session cap keys on it), so state a closed connection left behind
// can never be charged to a later one.

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "service/server.h"
#include "service/service.h"

namespace shlcp::svc {

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

  /// Encodes an admission refusal (an "overloaded" error body) for a
  /// request that was never queued.
  virtual std::string encode_shed(const Inbound& req,
                                  const std::string& refusal_body,
                                  bool* close_after) = 0;
};

using ProtocolFactory =
    std::function<std::unique_ptr<ConnProtocol>(std::size_t max_frame_bytes)>;

/// A bound, listening stream socket and the protocol its accepted
/// connections speak.
struct StreamListener {
  int fd = -1;
  /// Undoes the bind when the listener stops accepting (unix: unlink
  /// the socket path). May be empty.
  std::function<void()> unbind;
  ProtocolFactory protocol;

  /// Closes fd and undoes the bind; idempotent.
  void close();
};

/// Binds + listens on a unix-domain socket at `path` (an existing
/// socket file is replaced). Returns fd < 0 on failure, with errno
/// saying why. The returned unbind unlinks the path.
StreamListener listen_unix(const std::string& path, ProtocolFactory protocol);

/// Binds + listens on TCP `host:port` (port 0 picks an ephemeral port).
/// Returns fd < 0 on failure, with errno saying why; *bound_port
/// (optional) receives the actual port. Numeric IPv4 hosts only
/// ("127.0.0.1", "0.0.0.0") --
/// the daemon is an internal-fleet component, not a resolver.
StreamListener listen_tcp(const std::string& host, int port,
                          ProtocolFactory protocol, int* bound_port);

/// What serve_stream serves.
struct StreamEndpoints {
  /// Bound listeners; serve_stream owns them from here on.
  std::vector<StreamListener> listeners;
  /// Pipe mode: when set, (ServerOptions::in_fd, out_fd) is served as
  /// one pre-connected connection speaking this protocol.
  ProtocolFactory pipe;
  /// Called once the loop is armed (dispatcher attached, SIGINT routed)
  /// and before the first poll -- where serve_transports publishes its
  /// port file, so whoever reads the file may SIGINT at once.
  std::function<void()> on_ready;
};

/// The serving loop: accepts connections on every listener, serves the
/// pipe connection if any, dispatches through options.dispatcher (or an
/// owned Service when null), and honors the admission/drain contract
/// documented in server.h. Runs until a drain, or in pipe mode until
/// the pipe connection finishes. Returns a process exit code: 0 =
/// clean (including clean drains), 1 = a listener that failed to bind
/// (every listener is then released before anything is served) or a
/// transport failure on the pipe.
int serve_stream(StreamEndpoints endpoints, const ServerOptions& options);

}  // namespace shlcp::svc
