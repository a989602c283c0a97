#include "service/server.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <utility>
#include <vector>

#include "service/http.h"
#include "service/netloop.h"

namespace shlcp::svc {

namespace {

/// JSONL framing over a stream connection: requests and responses are
/// matched by their "id" member, so tags carry nothing and responses
/// never force a close. A framing error emits one canned bad_frame
/// frame and ends the stream.
class JsonlProtocol final : public ConnProtocol {
 public:
  explicit JsonlProtocol(std::size_t max_frame_bytes)
      : reader_(max_frame_bytes) {}

  void on_bytes(std::string_view data, Output* out) override {
    if (reader_.failed()) {
      return;  // stream already condemned; drop trailing bytes
    }
    reader_.feed(data);
    std::string frame;
    std::string error;
    while (true) {
      switch (reader_.next(&frame, &error)) {
        case FrameReader::Next::kFrame:
          out->requests.push_back(Inbound{std::move(frame), 0, false});
          frame.clear();
          break;
        case FrameReader::Next::kNeedMore:
          return;
        case FrameReader::Next::kError:
          out->requests.push_back(Inbound{
              encode_frame(
                  error_response(Json(), kErrBadFrame, error).dump()),
              0, true});
          out->close = true;
          return;
      }
    }
  }

  std::string encode_response(std::uint64_t /*tag*/,
                              const std::string& response,
                              bool* /*close_after*/) override {
    return encode_frame(response);
  }

  std::string encode_shed(const Inbound& /*req*/,
                          const std::string& refusal_body,
                          bool* /*close_after*/) override {
    return encode_frame(refusal_body);
  }

 private:
  FrameReader reader_;
};

std::unique_ptr<ConnProtocol> make_jsonl(std::size_t max_frame_bytes) {
  return std::make_unique<JsonlProtocol>(max_frame_bytes);
}

}  // namespace

int serve_pipe(const ServerOptions& options) {
  StreamEndpoints endpoints;
  endpoints.pipe = make_jsonl;
  return serve_stream(std::move(endpoints), options);
}

int serve_socket(const std::string& path, const ServerOptions& options) {
  StreamEndpoints endpoints;
  endpoints.listeners.push_back(listen_unix(path, make_jsonl));
  return serve_stream(std::move(endpoints), options);
}

int serve_tcp(const std::string& host, int port,
              const ServerOptions& options) {
  int bound = 0;
  StreamEndpoints endpoints;
  endpoints.listeners.push_back(listen_tcp(host, port, make_jsonl, &bound));
  if (endpoints.listeners[0].fd >= 0 && options.bound_port != nullptr) {
    options.bound_port->store(bound, std::memory_order_release);
  }
  return serve_stream(std::move(endpoints), options);
}

bool parse_hostport(const std::string& spec, std::string* host, int* port) {
  std::string host_part = "127.0.0.1";
  std::string port_part = spec;
  const std::size_t colon = spec.rfind(':');
  if (colon != std::string::npos) {
    host_part = spec.substr(0, colon);
    port_part = spec.substr(colon + 1);
  }
  if (host_part.empty() || port_part.empty() ||
      port_part.find_first_not_of("0123456789") != std::string::npos ||
      port_part.size() > 5) {
    return false;
  }
  const long value = std::strtol(port_part.c_str(), nullptr, 10);
  if (value < 0 || value > 65535) {
    return false;
  }
  *host = host_part;
  *port = static_cast<int>(value);
  return true;
}

int serve_transports(const TransportSpec& spec,
                     const ServerOptions& options) {
  std::string tcp_host;
  int tcp_port = 0;
  std::string http_host;
  int http_port = 0;
  if ((spec.unix_path.empty() && spec.tcp.empty() && spec.http.empty()) ||
      (!spec.tcp.empty() && !parse_hostport(spec.tcp, &tcp_host, &tcp_port)) ||
      (!spec.http.empty() &&
       !parse_hostport(spec.http, &http_host, &http_port))) {
    return 1;
  }

  // Bind everything first, on this thread: one listener that fails to
  // bind fails the whole daemon at once (every listener bound so far is
  // released), and the port file is only ever written for a complete
  // set. The "serving" lines likewise wait for the complete set.
  StreamEndpoints endpoints;
  Json ports = Json::object();
  ports["schema"] = "shlcp.ports.v1";
  std::vector<std::string> serving;
  // Takes over a listener, reporting why it could not be bound if so.
  const auto add = [&](const char* kind, const std::string& where,
                       StreamListener listener) {
    const bool bound = listener.fd >= 0;
    if (bound) {
      serving.push_back(std::string(kind) + " " + where);
    } else {
      std::fprintf(stderr, "%s: cannot bind %s %s: %s\n",
                   program_invocation_short_name, kind, where.c_str(),
                   std::strerror(errno));
    }
    endpoints.listeners.push_back(std::move(listener));
    return bound;
  };
  bool ok = true;
  if (!spec.unix_path.empty()) {
    ok = add("unix", spec.unix_path, listen_unix(spec.unix_path, make_jsonl));
    ports["unix"] = spec.unix_path;
  }
  if (ok && !spec.tcp.empty()) {
    int bound = 0;
    ok = add("tcp", spec.tcp,
             listen_tcp(tcp_host, tcp_port, make_jsonl, &bound));
    ports["tcp"] = bound;
  }
  if (ok && !spec.http.empty()) {
    int bound = 0;
    ok = add("http", spec.http,
             listen_tcp(http_host, http_port, make_http_protocol, &bound));
    ports["http"] = bound;
  }
  if (!ok) {
    // serve_stream never serves a partial set: it releases every
    // listener bound so far and returns 1.
    return serve_stream(std::move(endpoints), options);
  }
  for (const std::string& line : serving) {
    std::fprintf(stderr, "%s: serving %s\n", program_invocation_short_name,
                 line.c_str());
  }
  if (!spec.port_file.empty()) {
    endpoints.on_ready = [&] {
      // Atomic publish: the handshake scripts, bench_fleet and the
      // supervisor use to discover ephemeral ports.
      const std::string tmp = spec.port_file + ".tmp";
      {
        std::ofstream out(tmp, std::ios::trunc);
        out << ports.dump() << "\n";
      }
      std::filesystem::rename(tmp, spec.port_file);
    };
  }

  // One loop behind every listener: one dispatcher, one cache, one
  // WorkerPool, and a single SIGINT drains all transports together.
  const int code = serve_stream(std::move(endpoints), options);
  if (!spec.port_file.empty()) {
    // The readiness handshake in reverse: remove the published port
    // file once the loop has exited, so a supervisor or script can
    // never mistake a previous incarnation's file for a live one. A
    // crash (SIGKILL) leaves the file behind by definition -- which is
    // why the supervisor also removes it before each spawn.
    std::error_code ec;
    std::filesystem::remove(spec.port_file, ec);
  }
  return code;
}

}  // namespace shlcp::svc
