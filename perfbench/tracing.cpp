#include "tracing.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>

#include "stats.h"

namespace perfbench {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t parse_check(std::string_view hex) {
  constexpr std::string_view kPrefix = "fnv:";
  if (hex.substr(0, kPrefix.size()) == kPrefix) {
    hex.remove_prefix(kPrefix.size());
  }
  if (hex.empty() || hex.size() > 16) {
    return 0;
  }
  std::uint64_t v = 0;
  for (const char c : hex) {
    int d = 0;
    if (c >= '0' && c <= '9') {
      d = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      d = c - 'a' + 10;
    } else {
      return 0;
    }
    v = v << 4 | static_cast<std::uint64_t>(d);
  }
  return v;
}

std::uint64_t check_of_body(std::string_view body) {
  constexpr std::string_view kKey = "\"check\":\"";
  const std::size_t at = body.find(kKey);
  if (at == std::string_view::npos) {
    return 0;
  }
  const std::size_t begin = at + kKey.size();
  const std::size_t end = body.find('"', begin);
  if (end == std::string_view::npos) {
    return 0;
  }
  return parse_check(body.substr(begin, end - begin));
}

namespace {

// Buffers outlive their threads (server worker pools come and go);
// the sink owns them and threads keep a raw pointer to their own.
std::mutex g_buffers_mu;
std::vector<std::unique_ptr<std::vector<Span>>>& buffers() {
  static std::vector<std::unique_ptr<std::vector<Span>>> all;
  return all;
}

std::vector<Span>& thread_buffer() {
  thread_local std::vector<Span>* mine = nullptr;
  if (mine == nullptr) {
    auto owned = std::make_unique<std::vector<Span>>();
    owned->reserve(1 << 16);
    mine = owned.get();
    const std::lock_guard<std::mutex> lock(g_buffers_mu);
    buffers().push_back(std::move(owned));
  }
  return *mine;
}

}  // namespace

SpanSink& SpanSink::global() {
  static SpanSink sink;
  return sink;
}

void SpanSink::record(const Span& span) {
  if (enabled()) {
    thread_buffer().push_back(span);
  }
}

std::vector<Span> SpanSink::drain() {
  std::vector<Span> out;
  const std::lock_guard<std::mutex> lock(g_buffers_mu);
  for (auto& buffer : buffers()) {
    out.insert(out.end(), buffer->begin(), buffer->end());
    buffer->clear();
  }
  return out;
}

std::string TracingDispatcher::handle_text(const std::string& body,
                                           std::uint64_t elapsed_ms) {
  return handle_text(body, elapsed_ms, -1);
}

std::string TracingDispatcher::handle_text(const std::string& body,
                                           std::uint64_t elapsed_ms,
                                           std::int64_t conn) {
  SpanSink& sink = SpanSink::global();
  if (!sink.enabled()) {
    return inner_.handle_text(body, elapsed_ms, conn);
  }
  Span span;
  span.kind = kind_;
  span.check = check_of_body(body);
  span.begin_ns = now_ns();
  std::string out = inner_.handle_text(body, elapsed_ms, conn);
  span.end_ns = now_ns();
  sink.record(span);
  return out;
}

namespace {

/// Unclaimed span of `kind` in `group` (sorted by begin) lying inside
/// [begin, end]; nullptr when none.
Span* claim_child(std::vector<Span*>& group, SpanKind kind,
                  std::uint64_t begin, std::uint64_t end,
                  std::vector<bool>& claimed, const Span* base) {
  auto it = std::lower_bound(
      group.begin(), group.end(), begin,
      [](const Span* s, std::uint64_t t) { return s->begin_ns < t; });
  for (; it != group.end() && (*it)->begin_ns <= end; ++it) {
    Span* s = *it;
    const std::size_t idx = static_cast<std::size_t>(s - base);
    if (s->kind == kind && s->end_ns <= end && !claimed[idx]) {
      claimed[idx] = true;
      return s;
    }
  }
  return nullptr;
}

double us(std::uint64_t ns) { return static_cast<double>(ns) / 1e3; }

}  // namespace

TraceSummary analyze(std::vector<Span>& spans) {
  TraceSummary out;
  out.spans = spans.size();
  std::map<std::uint64_t, std::vector<Span*>> by_check;
  bool routed = false;
  for (Span& s : spans) {
    if (s.kind != SpanKind::kClient) {
      by_check[s.check].push_back(&s);
      routed = routed || s.kind == SpanKind::kRouter;
    }
  }
  for (auto& [check, group] : by_check) {
    std::sort(group.begin(), group.end(), [](const Span* a, const Span* b) {
      return a->begin_ns < b->begin_ns;
    });
  }
  // Client spans claim in order of their end, each the earliest
  // unclaimed server span inside it: when concurrent requests of one
  // key overlap, the one that must finish first cannot lose its server
  // span to one that could still use a later span.
  std::vector<Span*> clients;
  for (Span& s : spans) {
    if (s.kind == SpanKind::kClient) {
      clients.push_back(&s);
    }
  }
  std::sort(clients.begin(), clients.end(), [](const Span* a, const Span* b) {
    return a->end_ns < b->end_ns;
  });
  std::vector<bool> claimed(spans.size(), false);
  for (Span* client : clients) {
    Span& c = *client;
    out.client_us.push_back(us(c.end_ns - c.begin_ns));
    auto found = by_check.find(c.check);
    if (found == by_check.end()) {
      continue;
    }
    std::vector<Span*>& group = found->second;
    Span* top = claim_child(group, routed ? SpanKind::kRouter : SpanKind::kService,
                            c.begin_ns, c.end_ns, claimed, spans.data());
    if (top == nullptr) {
      continue;
    }
    ++out.joined;
    top->req = c.req;
    out.server_us.push_back(us(top->end_ns - top->begin_ns));
    out.wait_us.push_back(us(top->begin_ns - c.begin_ns));
    out.client_self_us.push_back(
        us(self_time_ns({c.begin_ns, c.end_ns}, {{top->begin_ns, top->end_ns}})));
    if (routed) {
      Span* backend = claim_child(group, SpanKind::kService, top->begin_ns,
                                  top->end_ns, claimed, spans.data());
      std::vector<Interval> children;
      if (backend != nullptr) {
        backend->req = c.req;
        children.push_back({backend->begin_ns, backend->end_ns});
      }
      out.router_self_us.push_back(
          us(self_time_ns({top->begin_ns, top->end_ns}, children)));
    }
  }
  return out;
}

bool write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  static const char* kKinds[] = {"client", "router", "service"};
  std::fprintf(f, "req,kind,begin_ns,end_ns,check\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%llu,%s,%llu,%llu,%016llx\n",
                 static_cast<unsigned long long>(s.req),
                 kKinds[static_cast<int>(s.kind)],
                 static_cast<unsigned long long>(s.begin_ns),
                 static_cast<unsigned long long>(s.end_ns),
                 static_cast<unsigned long long>(s.check));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
