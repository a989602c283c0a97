#include "service/http.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <memory>
#include <vector>

#include "service/netloop.h"
#include "util/format.h"

namespace shlcp::svc {

namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

std::string lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

bool all_digits(std::string_view s) {
  return !s.empty() &&
         s.find_first_not_of("0123456789") == std::string_view::npos;
}

const char* reason_of(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 409: return "Conflict";
    case 413: return "Payload Too Large";
    case 429: return "Too Many Requests";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
    default: return "Error";
  }
}

/// Wire error code -> HTTP status (the table in http.h).
int status_of(std::string_view code) {
  if (code == kErrUnknownOp) return 404;
  if (code == kErrSessionNotFound) return 404;
  if (code == kErrSessionState) return 409;
  if (code == kErrOverloaded) return 429;
  if (code == kErrDraining) return 503;
  if (code == kErrDeadline) return 504;
  if (code == kErrInternal) return 500;
  // bad_frame / invalid_request / invalid_params / integrity: the
  // caller sent something the service refuses to act on.
  return 400;
}

/// Serializes one response message. retry_after_ms >= 0 adds a
/// Retry-After header (seconds, rounded up); `allow` adds an Allow
/// header (405 replies).
std::string http_message(int status, bool keep_alive,
                         std::string_view body,
                         std::int64_t retry_after_ms = -1,
                         const char* allow = nullptr) {
  std::string out = format("HTTP/1.1 %d %s\r\n", status, reason_of(status));
  out += "Content-Type: application/json\r\n";
  out += format("Content-Length: %zu\r\n", body.size());
  if (retry_after_ms >= 0) {
    out += format("Retry-After: %lld\r\n",
                  static_cast<long long>((retry_after_ms + 999) / 1000));
  }
  if (allow != nullptr) {
    out += format("Allow: %s\r\n", allow);
  }
  out += keep_alive ? "Connection: keep-alive\r\n" : "Connection: close\r\n";
  out += "\r\n";
  out += body;
  return out;
}

/// Gateway adapter for the shared stream loop: parses HTTP requests,
/// wraps them in shlcp.svc.v1 envelopes, and maps responses back to
/// statuses. Tags carry the per-request keep-alive decision (bit 0 =
/// close after this response).
class HttpProtocol final : public ConnProtocol {
 public:
  explicit HttpProtocol(std::size_t max_frame_bytes)
      : parser_(max_frame_bytes) {}

  void on_bytes(std::string_view data, Output* out) override {
    if (done_) {
      return;  // a Connection: close request ends the request stream
    }
    parser_.feed(data);
    HttpRequest req;
    int status = 0;
    std::string error;
    while (!done_) {
      switch (parser_.next(&req, &status, &error)) {
        case HttpParser::Next::kRequest:
          route(req, out);
          break;
        case HttpParser::Next::kNeedMore:
          return;
        case HttpParser::Next::kError: {
          const std::string body =
              error_response(Json(), kErrBadFrame, error).dump();
          out->requests.push_back(
              Inbound{http_message(status, false, body), 1, true});
          out->close = true;
          return;
        }
      }
    }
  }

  std::string encode_response(std::uint64_t tag,
                              const std::string& response,
                              bool* close_after) override {
    *close_after = (tag & 1) != 0;
    int status = 500;
    std::int64_t retry_after_ms = -1;
    try {
      const Json parsed = Json::parse(response);
      if (parsed.is_object() && parsed.contains("ok")) {
        if (parsed.at("ok").as_bool()) {
          status = 200;
        } else {
          const Json& err = parsed.at("error");
          status = status_of(err.at("code").as_string());
          if (err.contains("retry_after_ms")) {
            retry_after_ms = err.at("retry_after_ms").as_int();
          }
        }
      }
    } catch (const CheckError&) {
      // A dispatcher response that does not parse is a server bug;
      // surface it as a 500 with the raw body.
    }
    return http_message(status, !*close_after, response, retry_after_ms);
  }

  std::string encode_shed(const Inbound& req,
                          const std::string& refusal_body,
                          bool* close_after) override {
    return encode_response(req.tag, refusal_body, close_after);
  }

 private:
  /// Routes one parsed request: either a canned raw reply (404 / 405 /
  /// unparseable params) or an envelope for the dispatcher. Both ride
  /// out->requests so pipelined responses stay ordered.
  void route(const HttpRequest& req, Output* out) {
    const std::uint64_t tag = req.keep_alive ? 0 : 1;
    if (!req.keep_alive) {
      done_ = true;  // last request on this connection
    }
    const auto canned = [&](int status, std::string_view code,
                            std::string_view message,
                            const char* allow = nullptr) {
      const std::string body =
          error_response(Json(), code, message).dump();
      out->requests.push_back(Inbound{
          http_message(status, req.keep_alive, body, -1, allow), tag,
          true});
    };

    std::string op;
    Json params = Json::object();
    if (req.method == "GET") {
      if (req.target == "/healthz" || req.target == "/v1/health") {
        op = "health";
      } else if (req.target == "/v1/info") {
        op = "info";
      } else {
        canned(404, kErrUnknownOp,
               format("no route for GET %s", req.target.c_str()));
        return;
      }
    } else if (req.method == "POST") {
      if (req.target.rfind("/v1/", 0) != 0 || req.target.size() <= 4) {
        canned(404, kErrUnknownOp,
               format("no route for POST %s", req.target.c_str()));
        return;
      }
      op = req.target.substr(4);
      if (op.find_first_not_of("abcdefghijklmnopqrstuvwxyz_") !=
          std::string::npos) {
        canned(404, kErrUnknownOp,
               format("no route for POST %s", req.target.c_str()));
        return;
      }
      if (!req.body.empty()) {
        try {
          params = Json::parse(req.body);
        } catch (const CheckError& e) {
          canned(400, kErrInvalidRequest,
                 format("request body is not JSON: %s", e.what()));
          return;
        }
        if (!params.is_object()) {
          canned(400, kErrInvalidRequest,
                 "request body must be a JSON object of params");
          return;
        }
      }
    } else {
      canned(405, kErrInvalidRequest,
             format("method %s not allowed", req.method.c_str()),
             "GET, POST");
      return;
    }

    Json envelope = Json::object();
    envelope["id"] = format("h%llu", static_cast<unsigned long long>(seq_++));
    envelope["op"] = op;
    envelope["params"] = std::move(params);
    if (req.deadline_ms > 0) {
      envelope["deadline_ms"] = req.deadline_ms;
    }
    if (!req.check.empty()) {
      envelope["check"] = req.check;
    }
    out->requests.push_back(Inbound{envelope.dump(), tag, false});
  }

  HttpParser parser_;
  std::uint64_t seq_ = 0;
  bool done_ = false;
};

}  // namespace

void HttpParser::feed(std::string_view bytes) {
  if (failed_) {
    return;
  }
  buffer_.append(bytes.data(), bytes.size());
}

HttpParser::Next HttpParser::fail(int status, std::string what,
                                  int* status_out, std::string* error_out) {
  failed_ = true;
  buffer_.clear();
  *status_out = status;
  *error_out = std::move(what);
  return Next::kError;
}

HttpParser::Next HttpParser::next(HttpRequest* request, int* status,
                                  std::string* error) {
  if (failed_) {
    return Next::kNeedMore;  // sticky: the reply was already emitted
  }
  if (!have_head_) {
    // Scan for the blank line ending the head; lines end in \n with an
    // optional \r (curl and friends send \r\n; tests may not).
    std::size_t pos = 0;
    std::size_t head_end = std::string::npos;
    std::size_t body_start = 0;
    while (true) {
      const std::size_t nl = buffer_.find('\n', pos);
      if (nl == std::string::npos) {
        if (buffer_.size() > kMaxHttpHeaderBytes) {
          return fail(431, "request head exceeds 16 KiB", status, error);
        }
        return Next::kNeedMore;
      }
      std::size_t line_len = nl - pos;
      if (line_len > 0 && buffer_[pos + line_len - 1] == '\r') {
        --line_len;
      }
      if (line_len == 0) {
        head_end = pos;
        body_start = nl + 1;
        break;
      }
      pos = nl + 1;
      if (pos > kMaxHttpHeaderBytes) {
        return fail(431, "request head exceeds 16 KiB", status, error);
      }
    }

    // Split the head into lines and parse.
    std::vector<std::string_view> lines;
    const std::string_view head(buffer_.data(), head_end);
    std::size_t at = 0;
    while (at < head.size()) {
      std::size_t nl = head.find('\n', at);
      if (nl == std::string_view::npos) {
        nl = head.size();
      }
      std::string_view line = head.substr(at, nl - at);
      if (!line.empty() && line.back() == '\r') {
        line.remove_suffix(1);
      }
      lines.push_back(line);
      at = nl + 1;
    }
    if (lines.empty()) {
      return fail(400, "empty request head", status, error);
    }

    HttpRequest req;
    {
      const std::string_view line = lines[0];
      const std::size_t sp1 = line.find(' ');
      const std::size_t sp2 =
          sp1 == std::string_view::npos ? sp1 : line.find(' ', sp1 + 1);
      if (sp1 == std::string_view::npos || sp2 == std::string_view::npos ||
          line.find(' ', sp2 + 1) != std::string_view::npos) {
        return fail(400, "malformed request line", status, error);
      }
      req.method = std::string(line.substr(0, sp1));
      req.target = std::string(line.substr(sp1 + 1, sp2 - sp1 - 1));
      const std::string_view version = line.substr(sp2 + 1);
      if (version.rfind("HTTP/1.", 0) != 0) {
        return fail(400, "unsupported protocol version", status, error);
      }
      req.keep_alive = version != "HTTP/1.0";
      if (req.method.empty() || req.target.empty() ||
          req.target[0] != '/') {
        return fail(400, "malformed request line", status, error);
      }
    }

    std::uint64_t content_length = 0;
    bool saw_content_length = false;
    for (std::size_t i = 1; i < lines.size(); ++i) {
      const std::string_view line = lines[i];
      const std::size_t colon = line.find(':');
      if (colon == std::string_view::npos) {
        return fail(400, "malformed header line", status, error);
      }
      const std::string name = lower(trim(line.substr(0, colon)));
      const std::string_view value = trim(line.substr(colon + 1));
      if (name == "content-length") {
        if (!all_digits(value) || value.size() > 19) {
          return fail(400, "malformed Content-Length", status, error);
        }
        const std::uint64_t parsed =
            std::strtoull(std::string(value).c_str(), nullptr, 10);
        if (saw_content_length && parsed != content_length) {
          return fail(400, "conflicting Content-Length headers", status,
                      error);
        }
        saw_content_length = true;
        content_length = parsed;
      } else if (name == "transfer-encoding") {
        return fail(501, "Transfer-Encoding is not supported", status,
                    error);
      } else if (name == "connection") {
        const std::string v = lower(value);
        if (v.find("close") != std::string::npos) {
          req.keep_alive = false;
        } else if (v.find("keep-alive") != std::string::npos) {
          req.keep_alive = true;
        }
      } else if (name == "x-shlcp-deadline-ms") {
        if (!all_digits(value) || value.size() > 19) {
          return fail(400, "malformed X-Shlcp-Deadline-Ms", status, error);
        }
        req.deadline_ms =
            std::strtoull(std::string(value).c_str(), nullptr, 10);
      } else if (name == "x-shlcp-check") {
        req.check = std::string(value);
      }
      // Unknown headers (Host, User-Agent, Accept, ...) are ignored.
    }
    if (content_length > max_body_bytes_) {
      return fail(413,
                  format("body of %llu bytes exceeds the %zu-byte cap",
                         static_cast<unsigned long long>(content_length),
                         max_body_bytes_),
                  status, error);
    }

    buffer_.erase(0, body_start);
    pending_ = std::move(req);
    body_needed_ = static_cast<std::size_t>(content_length);
    have_head_ = true;
  }

  if (buffer_.size() < body_needed_) {
    return Next::kNeedMore;
  }
  *request = std::move(pending_);
  request->body = buffer_.substr(0, body_needed_);
  buffer_.erase(0, body_needed_);
  pending_ = HttpRequest{};
  body_needed_ = 0;
  have_head_ = false;
  return Next::kRequest;
}

std::unique_ptr<ConnProtocol> make_http_protocol(std::size_t max_body_bytes) {
  return std::make_unique<HttpProtocol>(max_body_bytes);
}

int serve_http(const std::string& host, int port,
               const ServerOptions& options) {
  int bound = 0;
  StreamEndpoints endpoints;
  endpoints.listeners.push_back(
      listen_tcp(host, port, make_http_protocol, &bound));
  if (endpoints.listeners[0].fd >= 0 && options.bound_port != nullptr) {
    options.bound_port->store(bound, std::memory_order_release);
  }
  return serve_stream(std::move(endpoints), options);
}

}  // namespace shlcp::svc
