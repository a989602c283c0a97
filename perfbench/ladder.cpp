#include "ladder.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <map>
#include <memory>
#include <stdexcept>
#include <thread>

#include "certify/degree_one.h"
#include "certify/even_cycle.h"
#include "certify/revealing.h"
#include "certify/spanning_bfs.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "hosts.h"
#include "interactive/commit.h"
#include "interactive/protocol.h"
#include "interactive/table.h"
#include "load.h"
#include "lcp/audit.h"
#include "nbhd/aviews.h"
#include "nbhd/checkpoint.h"
#include "service/cache.h"
#include "service/client.h"
#include "service/proto.h"
#include "service/router.h"
#include "service/service.h"
#include "sim/engine.h"
#include "sim/faults.h"
#include "tracing.h"
#include "util/format.h"
#include "util/metrics.h"

namespace perfbench {

using shlcp::Json;
namespace svc = shlcp::svc;

namespace {

constexpr int kHitReps = 400;   // per op and rung
constexpr int kMissReps = 100;  // per cold op and rung
constexpr int kCodecPasses = 30;
constexpr int kComputeInputs = 200;
constexpr int kSessions = 200;
// Ladder key domains, apart from every workload's.
constexpr std::uint64_t kDomLadder = 0x6c61646465720000ULL;

const std::vector<std::string> kColdOps = {"run_decoder", "check_coloring",
                                           "build_nbhd"};

Request cold_request(const std::string& op, std::uint64_t domain,
                     std::uint64_t index) {
  if (op == "run_decoder") return decoder_request(domain, index);
  if (op == "check_coloring") return coloring_request(domain, index);
  return build_request(domain, index);
}

/// Median ns per call of fn(i), each sample timing `batch` calls.
template <typename F>
double median_ns(int reps, int batch, F&& fn) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const std::uint64_t t0 = now_ns();
    for (int b = 0; b < batch; ++b) {
      fn(r * batch + b);
    }
    samples.push_back(static_cast<double>(now_ns() - t0) / batch);
  }
  return median(samples);
}

void check_ok(bool ok, const char* what) {
  if (!ok) {
    throw std::runtime_error(std::string("ladder: ") + what + " failed");
  }
}

int listen_loopback(int* port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  if (fd < 0 || bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      listen(fd, 1) != 0 ||
      getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    throw std::runtime_error("ladder: cannot listen on loopback");
  }
  *port = ntohs(addr.sin_port);
  return fd;
}

int connect_loopback(int port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (fd < 0 || connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    throw std::runtime_error("ladder: cannot connect on loopback");
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool send_all(int fd, const std::string& bytes) {
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = send(fd, bytes.data() + done, bytes.size() - done, MSG_NOSIGNAL);
    if (n <= 0) return false;
    done += static_cast<std::size_t>(n);
  }
  return true;
}

bool recv_exact(int fd, std::size_t bytes, std::string* buf) {
  buf->resize(bytes);
  std::size_t done = 0;
  while (done < bytes) {
    const ssize_t n = recv(fd, buf->data() + done, bytes - done, 0);
    if (n <= 0) return false;
    done += static_cast<std::size_t>(n);
  }
  return true;
}

/// Raw TCP ping-pong with the workload's median frame sizes: the floor
/// under every request's latency.
double loopback_rtt_us(std::size_t request_bytes, std::size_t response_bytes,
                       int reps) {
  int port = 0;
  const int listener = listen_loopback(&port);
  std::thread echo([&] {
    const int fd = accept(listener, nullptr, nullptr);
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const std::string reply(response_bytes, 'r');
    std::string buf;
    while (recv_exact(fd, request_bytes, &buf) && send_all(fd, reply)) {
    }
    close(fd);
  });
  const int fd = connect_loopback(port);
  const std::string request(request_bytes, 'q');
  std::string buf;
  std::vector<double> us;
  for (int r = 0; r < reps; ++r) {
    const std::uint64_t t0 = now_ns();
    check_ok(send_all(fd, request) && recv_exact(fd, response_bytes, &buf),
             "loopback ping-pong");
    us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
  }
  close(fd);
  echo.join();
  close(listener);
  return median(us);
}

/// Keep-alive HTTP/1.1 client of the shlcpd gateway (POST /v1/<op>).
class HttpClient {
 public:
  explicit HttpClient(int port) : fd_(connect_loopback(port)) {}
  ~HttpClient() { close(fd_); }
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  /// True when the reply is 200 with an ok wire response.
  bool post(const Request& r) {
    const std::string body = r.params.dump();
    const std::string head = shlcp::format(
        "POST /v1/%s HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: "
        "application/json\r\nContent-Length: %zu\r\n\r\n",
        r.op.c_str(), body.size());
    if (!send_all(fd_, head + body)) return false;
    std::size_t end = 0;
    while ((end = buf_.find("\r\n\r\n")) == std::string::npos) {
      if (!fill()) return false;
    }
    const std::string headers = buf_.substr(0, end);
    const std::size_t cl = headers.find("Content-Length: ");
    if (cl == std::string::npos) return false;
    const std::size_t length = std::stoul(headers.substr(cl + 16));
    while (buf_.size() < end + 4 + length) {
      if (!fill()) return false;
    }
    const std::string reply = buf_.substr(end + 4, length);
    buf_.erase(0, end + 4 + length);
    return headers.rfind("HTTP/1.1 200", 0) == 0 &&
           reply.find("\"ok\":true") != std::string::npos;
  }

 private:
  bool fill() {
    char chunk[4096];
    const ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buf_.append(chunk, static_cast<std::size_t>(n));
    return true;
  }

  int fd_;
  std::string buf_;
};

/// Per-op samples of one rung, in microseconds.
using Rung = std::map<std::string, std::vector<double>>;

std::vector<double> pooled(const Rung& rung) {
  std::vector<double> all;
  for (const auto& [op, v] : rung) {
    all.insert(all.end(), v.begin(), v.end());
  }
  return all;
}

std::map<std::string, std::vector<const Request*>> by_op(
    const std::vector<Request>& keys) {
  std::map<std::string, std::vector<const Request*>> out;
  for (const Request& r : keys) {
    out[r.op].push_back(&r);
  }
  return out;
}

/// Times `call(request)` per op: kHitReps over the hot keys, then
/// kMissReps fresh cold keys from `miss_domain` (when non-zero).
template <typename Call>
void time_rung(const std::vector<Request>& hot, std::uint64_t miss_domain,
               Call&& call, Rung* hits, Rung* misses) {
  for (const auto& [op, keys] : by_op(hot)) {
    for (int r = 0; r < kHitReps; ++r) {
      const Request& req = *keys[static_cast<std::size_t>(r) % keys.size()];
      const std::uint64_t t0 = now_ns();
      check_ok(call(req), "hit rung call");
      (*hits)[op].push_back(static_cast<double>(now_ns() - t0) / 1e3);
    }
  }
  if (misses == nullptr) {
    return;
  }
  for (const std::string& op : kColdOps) {
    for (int r = 0; r < kMissReps; ++r) {
      const Request req = cold_request(op, miss_domain, static_cast<std::uint64_t>(r));
      const std::uint64_t t0 = now_ns();
      check_ok(call(req), "miss rung call");
      (*misses)[op].push_back(static_cast<double>(now_ns() - t0) / 1e3);
    }
  }
}

void log_rung(std::FILE* log, const char* name, Rung& rung) {
  for (auto& [op, v] : rung) {
    const Quantiles q = summarize(v);
    std::fprintf(log, "ladder %-10s %-15s p50 %9.2f us  p99 %9.2f us  n=%zu\n",
                 name, op.c_str(), q.p50, q.p99, q.samples);
  }
}

/// Sample requests and their result documents for the codec rungs.
struct Bodies {
  std::vector<Request> requests;
  std::vector<std::string> envelopes;
  std::vector<Json> results;
  std::vector<std::string> responses;  // full wire responses
};

Bodies workload_bodies(Workload w, std::uint64_t seed) {
  Bodies b;
  svc::Service service;
  auto add = [&](const Request& r) {
    b.requests.push_back(r);
    b.envelopes.push_back(envelope(r, b.envelopes.size()));
    b.responses.push_back(service.handle_text(b.envelopes.back()));
    const Json response = Json::parse(b.responses.back());
    check_ok(response.at("ok").as_bool(), "sample request");
    b.results.push_back(response.at("result"));
  };
  if (w != Workload::kSessions) {
    const RequestStream stream(w, seed);
    for (std::uint64_t i = 0; i < 64; ++i) {
      add(stream.at(i));
    }
    return b;
  }
  for (std::uint64_t s = 0; s < 8; ++s) {
    const SessionPlan plan = session_plan(seed, s);
    add(Request{"session_open", session_open_params(plan)});
    shlcp::ia::CommitProver prover(session_coloring(), 2, plan.id, plan.prover_seed);
    for (int round = 0; round < SessionPlan::kRounds; ++round) {
      add(Request{"session_step", commit_step_params(plan, prover)});
      const Json challenge = b.results.back().at("reply").at("challenge");
      add(Request{"session_step", reveal_step_params(plan, prover, challenge)});
    }
  }
  return b;
}

double median_size(const std::vector<std::string>& xs, bool framed) {
  std::vector<double> sizes;
  for (const std::string& x : xs) {
    sizes.push_back(static_cast<double>(framed ? svc::encode_frame(x).size() : x.size()));
  }
  return median(sizes);
}

void codec_rungs(const Bodies& b, MetricSet& out) {
  const std::size_t n = b.envelopes.size();
  std::vector<Json> parsed;
  for (const std::string& e : b.envelopes) {
    parsed.push_back(Json::parse(e));
  }
  const int reps = kCodecPasses * static_cast<int>(n);
  auto at = [n](int i) { return static_cast<std::size_t>(i) % n; };
  std::size_t sink = 0;
  out.add("json.parse_ns", median_ns(reps, 1, [&](int i) {
            sink += Json::parse(b.envelopes[at(i)]).size();
          }), "ns");
  out.add("json.dump_ns", median_ns(reps, 1, [&](int i) {
            sink += b.results[at(i)].dump().size();
          }), "ns");
  out.add("proto.frame_ns", median_ns(reps, 1, [&](int i) {
            svc::FrameReader reader;
            reader.feed(svc::encode_frame(b.envelopes[at(i)]));
            std::string frame;
            std::string error;
            check_ok(reader.next(&frame, &error) == svc::FrameReader::Next::kFrame,
                     "frame round trip");
            sink += frame.size();
          }), "ns");
  out.add("proto.parse_request_ns", median_ns(reps, 1, [&](int i) {
            sink += svc::parse_request(parsed[at(i)]).op.size();
          }), "ns");
  out.add("cache.artifact_key_ns", median_ns(reps, 1, [&](int i) {
            const Request& r = b.requests[at(i)];
            sink += svc::artifact_key(r.op, r.params).size();
          }), "ns");
  svc::ArtifactCache cache;
  std::vector<std::string> keys;
  for (std::size_t i = 0; i < n; ++i) {
    keys.push_back(svc::artifact_key(b.requests[i].op, b.requests[i].params));
    cache.insert(keys.back(), b.results[i].dump());
  }
  out.add("cache.get_hit_ns", median_ns(reps, 1, [&](int i) {
            sink += cache.get(keys[at(i)])->size();
          }), "ns");
  // Inserts of distinct cold keys into a growing cache, as cold_keys does.
  svc::ArtifactCache fresh;
  std::vector<std::pair<std::string, std::string>> inserts;
  for (int i = 0; i < 2000; ++i) {
    const Request r = cold_request(kColdOps[static_cast<std::size_t>(i) % 3],
                                   kDomLadder ^ 0x1AULL, static_cast<std::uint64_t>(i));
    inserts.emplace_back(svc::artifact_key(r.op, r.params),
                         b.results[at(i)].dump());
  }
  out.add("cache.insert_ns", median_ns(2000, 1, [&](int i) {
            const auto& [key, value] = inserts[static_cast<std::size_t>(i)];
            fresh.insert(key, value);
          }), "ns");
  out.add("metrics.lookup_ns", median_ns(reps, 1, [&](int i) {
            shlcp::metrics::counter(shlcp::format(
                "service.%s.requests", b.requests[at(i)].op.c_str()));
          }), "ns");
  if (sink == 0) {
    throw std::runtime_error("ladder: codec rungs produced nothing");
  }
}

std::unique_ptr<shlcp::Lcp> make_lcp(const std::string& name) {
  if (name == "degree-one") return std::make_unique<shlcp::DegreeOneLcp>();
  if (name == "spanning-bfs") return std::make_unique<shlcp::SpanningBfsLcp>();
  if (name == "even-cycle") return std::make_unique<shlcp::EvenCycleLcp>();
  if (name == "revealing-2-col") return std::make_unique<shlcp::RevealingLcp>(2);
  throw std::runtime_error("ladder: no lcp " + name);
}

/// The graph a build_request spec names (the kinds its pool uses).
shlcp::Graph spec_graph(const std::string& spec) {
  const std::size_t colon = spec.find(':');
  const std::string kind = spec.substr(0, colon);
  const std::string arg = spec.substr(colon + 1);
  if (kind == "path") return shlcp::make_path(std::stoi(arg));
  if (kind == "cycle") return shlcp::make_cycle(std::stoi(arg));
  if (kind == "star") return shlcp::make_star(std::stoi(arg));
  if (kind == "complete") return shlcp::make_complete(std::stoi(arg));
  const std::size_t x = arg.find('x');
  return shlcp::make_grid(std::stoi(arg.substr(0, x)), std::stoi(arg.substr(x + 1)));
}

/// Direct library calls on cold_keys inputs.
void compute_rungs(std::uint64_t seed, MetricSet& out) {
  const std::uint64_t domain = kDomLadder ^ seed;
  std::vector<double> ns;
  for (int j = 0; j < kComputeInputs; ++j) {
    const Request r = coloring_request(domain, static_cast<std::uint64_t>(j));
    const shlcp::Graph g = svc::graph_from_json(r.params.at("graph"));
    const std::uint64_t t0 = now_ns();
    const auto coloring = shlcp::k_coloring(g, 3);
    ns.push_back(static_cast<double>(now_ns() - t0));
    check_ok(!coloring || coloring->size() == 12, "k_coloring");
  }
  out.add("graph.k_coloring_ns", median(ns), "ns");

  std::map<std::string, std::unique_ptr<shlcp::Lcp>> lcps;
  const std::vector<shlcp::NamedInstance> pool = shlcp::audit_instance_pool();
  ns.clear();
  for (int j = 0; j < kComputeInputs; ++j) {
    const Request r = decoder_request(domain, static_cast<std::uint64_t>(j));
    const std::string lcp_name = r.params.at("lcp").as_string();
    auto& lcp = lcps[lcp_name];
    if (!lcp) lcp = make_lcp(lcp_name);
    shlcp::Instance inst;
    for (const shlcp::NamedInstance& named : pool) {
      if (named.name == r.params.at("instance").as_string()) inst = named.inst;
    }
    inst.labels = *lcp->prove(inst.g, inst.ports, inst.ids);
    const shlcp::FaultPlan plan =
        shlcp::FaultPlan::parse(r.params.at("plan").as_string());
    const std::uint64_t t0 = now_ns();
    const shlcp::FaultyRunResult run =
        shlcp::run_decoder_distributed_faulty(lcp->decoder(), inst, plan);
    ns.push_back(static_cast<double>(now_ns() - t0));
    check_ok(run.verdicts.size() == static_cast<std::size_t>(inst.num_nodes()),
             "run_decoder");
  }
  out.add("lcp.run_decoder_ns", median(ns), "ns");

  ns.clear();
  std::uint64_t views = 0;
  for (int j = 0; j < kComputeInputs / 2; ++j) {
    const Request r = build_request(domain, static_cast<std::uint64_t>(j));
    const std::string lcp_name = r.params.at("lcp").as_string();
    auto& lcp = lcps[lcp_name];
    if (!lcp) lcp = make_lcp(lcp_name);
    std::vector<shlcp::Graph> graphs;
    for (const Json& spec : r.params.at("graphs").items()) {
      graphs.push_back(spec_graph(spec.as_string()));
    }
    const std::uint64_t t0 = now_ns();
    const shlcp::NbhdGraph nbhd = shlcp::build_proved(*lcp, graphs, shlcp::EnumOptions{});
    ns.push_back(static_cast<double>(now_ns() - t0));
    views += static_cast<std::uint64_t>(nbhd.num_views());
  }
  check_ok(views > 0, "build_proved");
  out.add("nbhd.build_proved_ns", median(ns), "ns");
}

/// The session table and protocol called directly, as session ops do.
void interactive_rungs(std::uint64_t seed, MetricSet& out) {
  shlcp::ia::SessionTable table(shlcp::ia::SessionLimits{30'000, 4096, 4096});
  shlcp::ia::KColCommitProtocol protocol;
  shlcp::Graph cycle;
  for (const shlcp::NamedInstance& named : shlcp::audit_instance_pool()) {
    if (named.name == "cycle6") cycle = named.inst.g;
  }
  std::vector<double> open_ns;
  std::vector<double> commit_ns;
  std::vector<double> reveal_ns;
  for (int s = 0; s < kSessions; ++s) {
    const SessionPlan plan = session_plan(seed ^ kDomLadder, static_cast<std::uint64_t>(s));
    const Json params = session_open_params(plan);
    shlcp::ia::OpenContext ctx;
    ctx.session_id = plan.id;
    ctx.graph = cycle;
    ctx.params = &params;
    ctx.challenge_seed = plan.seed;
    std::uint64_t t0 = now_ns();
    const auto refusal = table.open(plan.id, -1, [&] { return protocol.open(ctx); });
    open_ns.push_back(static_cast<double>(now_ns() - t0));
    check_ok(refusal == shlcp::ia::SessionTable::Refusal::kNone, "session open");
    shlcp::ia::CommitProver prover(session_coloring(), 2, plan.id, plan.prover_seed);
    bool verdict = false;
    for (int round = 0; round < SessionPlan::kRounds; ++round) {
      const Json commit = commit_step_params(plan, prover).at("msg");
      t0 = now_ns();
      auto step = table.step(plan.id, commit);
      commit_ns.push_back(static_cast<double>(now_ns() - t0));
      check_ok(step.found && !step.state_error, "commit step");
      const Json reveal =
          reveal_step_params(plan, prover, step.reply.at("challenge")).at("msg");
      t0 = now_ns();
      step = table.step(plan.id, reveal);
      reveal_ns.push_back(static_cast<double>(now_ns() - t0));
      check_ok(step.found && !step.state_error, "reveal step");
      if (step.completed) verdict = step.reply.at("verdict").as_bool();
    }
    check_ok(verdict, "honest session verdict");
  }
  out.add("interactive.open_ns", median(open_ns), "ns");
  out.add("interactive.commit_step_ns", median(commit_ns), "ns");
  out.add("interactive.reveal_step_ns", median(reveal_ns), "ns");
  std::uint64_t sink = 0;
  out.add("interactive.commitment_ns", median_ns(400, 64, [&](int i) {
            sink ^= shlcp::ia::commitment("pb-ladder", static_cast<std::uint64_t>(i) & 7,
                                          i % 6, i % 2, static_cast<std::uint64_t>(i));
          }), "ns");
  check_ok(sink != 0, "commitments");
}

}  // namespace

void run_ladder(Workload w, std::uint64_t seed, MetricSet& out,
                std::vector<double>* router_self_us, std::FILE* log) {
  const Bodies bodies = workload_bodies(w, seed);
  const double request_bytes = median_size(bodies.envelopes, true);
  const double response_bytes = median_size(bodies.responses, true);
  const double kernel_us = loopback_rtt_us(static_cast<std::size_t>(request_bytes),
                                           static_cast<std::size_t>(response_bytes), 4000);
  std::fprintf(log, "ladder kernel floor at %.0f B / %.0f B frames: %.2f us\n",
               request_bytes, response_bytes, kernel_us);
  out.add("kernel.loopback_rtt_us", kernel_us, "us");
  codec_rungs(bodies, out);
  compute_rungs(seed, out);
  interactive_rungs(seed, out);

  const std::vector<Request> hot = RequestStream(Workload::kHotKeys, seed).hot_keys();
  // In-process Service.
  Rung service_hits;
  Rung service_misses;
  {
    svc::Service service;
    std::uint64_t id = 0;
    for (const Request& r : hot) service.handle_text(envelope(r, id++));
    time_rung(hot, kDomLadder ^ 1, [&](const Request& r) {
      return service.handle_text(envelope(r, id++)).find("\"ok\":true") != std::string::npos;
    }, &service_hits, &service_misses);
  }
  // TCP and HTTP over one Service, then router -> backend.
  Rung tcp_hits;
  Rung tcp_misses;
  Rung http_hits;
  Rung router_hits;
  {
    svc::Service service;
    InProcessServer tcp(service, Pinning::kShlcpdThreads);
    InProcessServer http(service, Pinning::kShlcpdThreads, /*http=*/true);
    svc::Client client(svc::Client::connector_for(tcp.target(), {}), {});
    auto call = [&](const Request& r) { return client.call(r.op, r.params).ok; };
    check_ok(warm(tcp.target(), hot), "tcp warm-up");
    time_rung(hot, kDomLadder ^ 2, call, &tcp_hits, &tcp_misses);
    HttpClient http_client(http.port());
    time_rung(hot, 0, [&](const Request& r) { return http_client.post(r); },
              &http_hits, nullptr);
  }
  {
    svc::Service service;
    TracingDispatcher traced_service(service, SpanKind::kService);
    InProcessServer backend(traced_service, Pinning::kBackendThreads);
    svc::RouterOptions options;
    options.backends.push_back(svc::BackendSpec{"b0", backend.target()});
    svc::Router router(options);
    TracingDispatcher traced_router(router, SpanKind::kRouter);
    InProcessServer front(traced_router, Pinning::kRouterThreads);
    check_ok(warm(front.target(), hot), "router warm-up");
    svc::Client client(svc::Client::connector_for(front.target(), {}), {});
    SpanSink& sink = SpanSink::global();
    sink.drain();
    sink.enable(true);
    std::uint64_t req = 0;
    time_rung(hot, 0, [&](const Request& r) {
      Span span;
      span.req = ++req;
      span.check = parse_check(shlcp::fnv1a_hex(svc::artifact_key(r.op, r.params)));
      span.begin_ns = now_ns();
      const bool ok = client.call(r.op, r.params).ok;
      span.end_ns = now_ns();
      sink.record(span);
      return ok;
    }, &router_hits, nullptr);
    sink.enable(false);
    std::vector<Span> spans = sink.drain();
    *router_self_us = analyze(spans).router_self_us;
  }
  log_rung(log, "service", service_hits);
  log_rung(log, "service", service_misses);
  log_rung(log, "tcp", tcp_hits);
  log_rung(log, "tcp", tcp_misses);
  log_rung(log, "http", http_hits);
  log_rung(log, "router", router_hits);

  for (auto& [op, v] : service_hits) {
    out.add("service.hit_ns." + op, median(v) * 1e3, "ns");
  }
  for (auto& [op, v] : service_misses) {
    out.add("service.miss_ns." + op, median(v) * 1e3, "ns");
  }
  std::vector<double> all_service = pooled(service_hits);
  std::vector<double> all_tcp = pooled(tcp_hits);
  std::vector<double> all_tcp_miss = pooled(tcp_misses);
  std::vector<double> all_http = pooled(http_hits);
  std::vector<double> all_router = pooled(router_hits);
  const double tcp_us = median(all_tcp);
  out.add("netloop.tcp_hit_us", tcp_us, "us");
  out.add("netloop.tcp_miss_us", median(all_tcp_miss), "us");
  out.add("netloop.self_us", tcp_us - median(all_service) - kernel_us, "us");
  out.add("http.hit_us", median(all_http), "us");
  out.add("router.hop_us", median(all_router) - tcp_us, "us");
}

}  // namespace perfbench
