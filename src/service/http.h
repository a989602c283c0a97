// Minimal HTTP/1.1 JSON gateway onto the shlcp.svc.v1 service.
//
// Modeled on shasta's embedded AssemblerHttpServer: a small, dependency
// -free HTTP surface over the same dispatcher the binary protocol uses,
// not a general web server. It exists so curl, load balancers, and
// non-C++ fleet tooling can reach a shlcpd (or a shlcp_router) without
// speaking length-prefixed JSONL.
//
// Routes (DESIGN.md §15; OPERATIONS.md has the operator view):
//
//   POST /v1/<op>    body = the op's params JSON object ("" = {}).
//                    Optional headers X-Shlcp-Deadline-Ms (deadline_ms)
//                    and X-Shlcp-Check (integrity digest) map onto the
//                    matching envelope members. The response body is
//                    the full wire response (id/ok/result|error), so
//                    digests and repro strings survive the gateway.
//   GET /healthz     the `health` op (also /v1/health, /v1/info).
//
// The gateway builds a shlcp.svc.v1 envelope per request and rides the
// exact serve_stream loop the JSONL transports use -- same admission
// caps, same shedding, same drain contract, same batching. Error codes
// map onto statuses:
//
//   ok -> 200        invalid_request / invalid_params / bad_frame /
//   unknown_op       integrity -> 400
//     -> 404         overloaded -> 429 (Retry-After from the hint)
//   draining -> 503  deadline_exceeded -> 504    internal -> 500
//
// HTTP/1.1 keep-alive is the default (HTTP/1.0 closes unless asked);
// pipelined requests are answered in order because canned replies
// (404/405/parse errors) ride the dispatch queue rather than jumping
// it. Limits: request line + headers <= 16 KiB (431), body <=
// ServerOptions::max_frame_bytes (413), Transfer-Encoding: chunked is
// refused (501) -- fleet clients know their content lengths.

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "service/server.h"

namespace shlcp::svc {

/// Cap on the request line + headers of one request (431 past it).
inline constexpr std::size_t kMaxHttpHeaderBytes = 16u << 10;

/// One parsed HTTP request.
struct HttpRequest {
  std::string method;
  std::string target;
  std::string body;
  bool keep_alive = true;           // resolved from version + Connection
  std::uint64_t deadline_ms = 0;    // X-Shlcp-Deadline-Ms (0 = none)
  std::string check;                // X-Shlcp-Check ("" = none)
};

/// Incremental HTTP/1.1 request parser with the FrameReader calling
/// convention: feed() bytes, then next() until kNeedMore. A protocol
/// violation puts the parser into a sticky failed state and reports
/// the status the reply must carry (400/413/431/501).
class HttpParser {
 public:
  explicit HttpParser(std::size_t max_body_bytes = kDefaultMaxFrameBytes)
      : max_body_bytes_(max_body_bytes) {}

  void feed(std::string_view bytes);

  enum class Next { kRequest, kNeedMore, kError };

  /// kRequest: *request is the next complete request. kError: *status
  /// and *error describe the violation; the parser stays failed.
  Next next(HttpRequest* request, int* status, std::string* error);

  [[nodiscard]] bool failed() const { return failed_; }

 private:
  Next fail(int status, std::string what, int* status_out,
            std::string* error_out);

  std::size_t max_body_bytes_;
  std::string buffer_;
  bool have_head_ = false;     // parsed up to the blank line
  HttpRequest pending_;        // head parsed, awaiting body bytes
  std::size_t body_needed_ = 0;
  bool failed_ = false;
};

class ConnProtocol;

/// The gateway's per-connection protocol (a netloop.h ProtocolFactory):
/// serve_transports puts it on the HTTP listener.
std::unique_ptr<ConnProtocol> make_http_protocol(std::size_t max_body_bytes);

/// Serves the gateway at host:port over the shared stream loop
/// (netloop.h). Same contract as serve_tcp: numeric IPv4 host, port 0
/// = ephemeral via options.bound_port, runs until the cancel token
/// trips, returns a process exit code.
int serve_http(const std::string& host, int port,
               const ServerOptions& options);

}  // namespace shlcp::svc
