#include "service/router.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <utility>

#include "nbhd/checkpoint.h"
#include "service/cache.h"
#include "util/check.h"
#include "util/format.h"
#include "util/hash.h"
#include "util/metrics.h"

namespace shlcp::svc {

namespace {

std::uint64_t now_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The ring hash: the splitmix64 finalizer on top of FNV-1a. Raw FNV
/// of near-identical short strings ("b0#17" vs "b1#17") leaves the low
/// bits correlated, which clusters a backend's vnodes into runs and can
/// starve a backend of keys entirely (observed: 3 one-letter backends,
/// 64 vnodes each, one backend owning 0/600 keys). The finalizer
/// decorrelates placement; balance then scales with vnodes as intended.
std::uint64_t ring_point(std::string_view bytes) {
  return mix64(fnv1a64(bytes));
}

/// Cap kept small: each cached Client holds one live connection to the
/// backend; a burst past the cap just pays a reconnect.
constexpr std::size_t kMaxIdleClients = 8;

}  // namespace

bool BackendSpec::parse(const std::string& arg, BackendSpec* out) {
  std::string name;
  std::string target = arg;
  const std::size_t eq = arg.find('=');
  if (eq != std::string::npos) {
    name = arg.substr(0, eq);
    target = arg.substr(eq + 1);
    if (name.empty()) {
      return false;
    }
  }
  if (target.empty() || !Client::connector_for(target, ChaosPlan{})) {
    return false;
  }
  out->name = name.empty() ? target : name;
  out->target = target;
  return true;
}

HashRing::HashRing(const std::vector<std::string>& names, int vnodes)
    : num_backends_(static_cast<int>(names.size())) {
  SHLCP_CHECK_MSG(!names.empty(), "hash ring needs at least one backend");
  const int per = std::max(vnodes, 1);
  ring_.reserve(names.size() * static_cast<std::size_t>(per));
  for (std::size_t b = 0; b < names.size(); ++b) {
    for (int v = 0; v < per; ++v) {
      ring_.emplace_back(ring_point(format("%s#%d", names[b].c_str(), v)),
                         static_cast<int>(b));
    }
  }
  // Point ties (vanishingly rare) resolve by backend index, so the
  // ring order is deterministic for every (names, vnodes) input.
  std::sort(ring_.begin(), ring_.end());
}

std::uint64_t HashRing::point_of(std::string_view key) {
  return ring_point(key);
}

std::vector<int> HashRing::preference(std::uint64_t point) const {
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(num_backends_));
  std::vector<bool> seen(static_cast<std::size_t>(num_backends_), false);
  // Clockwise walk from the first vnode at or past `point`.
  const auto start = std::lower_bound(
      ring_.begin(), ring_.end(),
      std::make_pair(point, std::numeric_limits<int>::min()));
  const std::size_t begin =
      static_cast<std::size_t>(start - ring_.begin()) % ring_.size();
  for (std::size_t step = 0;
       step < ring_.size() &&
       order.size() < static_cast<std::size_t>(num_backends_);
       ++step) {
    const int b = ring_[(begin + step) % ring_.size()].second;
    if (!seen[static_cast<std::size_t>(b)]) {
      seen[static_cast<std::size_t>(b)] = true;
      order.push_back(b);
    }
  }
  for (int b = 0; b < num_backends_; ++b) {
    if (!seen[static_cast<std::size_t>(b)]) {
      order.push_back(b);
    }
  }
  return order;
}

/// One backend: its spec, liveness, counters, and a pool of resilient
/// Clients (each Client is single-threaded; concurrent router requests
/// to the same backend each borrow their own).
struct Router::Backend {
  BackendSpec spec;
  std::atomic<bool> alive{true};
  std::atomic<bool> quarantined{false};
  std::atomic<std::uint64_t> down_since_ms{0};
  std::atomic<std::uint64_t> forwarded{0};
  std::atomic<std::uint64_t> answered{0};
  std::atomic<std::uint64_t> rerouted{0};
  std::atomic<std::uint64_t> conn_refused{0};
  std::atomic<std::uint64_t> timeouts{0};
  // Supervisor-pushed (set_backend_runtime); surfaced in fleet health.
  std::atomic<std::uint64_t> restarts{0};
  std::atomic<std::int64_t> last_exit{-1};
  std::atomic<std::int64_t> pid{-1};
  std::mutex mu;
  std::vector<std::unique_ptr<Client>> idle;

  std::unique_ptr<Client> borrow(const ClientOptions& options) {
    {
      const std::lock_guard<std::mutex> lock(mu);
      if (!idle.empty()) {
        std::unique_ptr<Client> c = std::move(idle.back());
        idle.pop_back();
        return c;
      }
    }
    return std::make_unique<Client>(
        Client::connector_for(spec.target, options.chaos), options);
  }

  void give_back(std::unique_ptr<Client> c) {
    const std::lock_guard<std::mutex> lock(mu);
    if (idle.size() < kMaxIdleClients) {
      idle.push_back(std::move(c));
    }
  }
};

Router::Router(RouterOptions options)
    : options_(std::move(options)),
      ring_(
          [&] {
            std::vector<std::string> names;
            names.reserve(options_.backends.size());
            for (const BackendSpec& b : options_.backends) {
              names.push_back(b.name);
            }
            return names;
          }(),
          options_.vnodes) {
  backends_.reserve(options_.backends.size());
  for (const BackendSpec& spec : options_.backends) {
    auto backend = std::make_unique<Backend>();
    backend->spec = spec;
    backends_.push_back(std::move(backend));
  }
}

Router::~Router() = default;

std::string Router::handle_text(const std::string& body,
                                std::uint64_t elapsed_ms) {
  Json request;
  try {
    request = Json::parse(body);
  } catch (const CheckError& e) {
    metrics::counter("router.errors").inc();
    return error_response(Json(), kErrInvalidRequest, e.what()).dump();
  }
  return handle(request, elapsed_ms).dump();
}

Json Router::handle(const Json& request, std::uint64_t elapsed_ms) {
  metrics::counter("router.requests").inc();
  const Json id = request.is_object() && request.contains("id")
                      ? request.at("id")
                      : Json();
  if (draining()) {
    metrics::counter("router.errors").inc();
    return error_response(id, kErrDraining,
                          "router is draining; resubmit elsewhere");
  }
  Request req;
  try {
    req = parse_request(request);
  } catch (const CheckError& e) {
    metrics::counter("router.errors").inc();
    return error_response(id, kErrInvalidRequest, e.what());
  }
  if (req.deadline_ms > 0 && elapsed_ms > req.deadline_ms) {
    metrics::counter("router.errors").inc();
    return error_response(
        id, kErrDeadline,
        format("request waited %llu ms past its %llu ms deadline",
               static_cast<unsigned long long>(elapsed_ms),
               static_cast<unsigned long long>(req.deadline_ms)));
  }
  // Refuse a corrupted request here rather than shipping it across the
  // fleet -- same contract as Service::handle_text. The artifact key is
  // derived once: it is the digest's preimage, the ring key, and (as
  // its digest) the check the backend call carries.
  std::string artifact;
  std::string digest;
  if (!req.check.empty()) {
    artifact = artifact_key(req.op, req.params);
    digest = fnv1a_hex(artifact);
    if (req.check != digest) {
      metrics::counter("router.errors").inc();
      return error_response(
          req.id, kErrIntegrity,
          format("request digest %s does not match the received payload "
                 "(%s); the frame was corrupted in transit -- retry",
                 req.check.c_str(), digest.c_str()));
    }
  }
  // Remaining deadline budget travels to the backend. A request with
  // exactly nothing left keeps the smallest budget: a deadline_ms of 0
  // would send it with none at all.
  if (req.deadline_ms > 0) {
    req.deadline_ms = std::max<std::uint64_t>(req.deadline_ms - elapsed_ms, 1);
  }

  if (req.op == "info") {
    return aggregate_info(req);
  }
  if (req.op == "health") {
    return aggregate_health(req);
  }
  if (artifact.empty()) {
    artifact = artifact_key(req.op, req.params);
    digest = fnv1a_hex(artifact);
  }
  return route(req, routing_key(req.op, req.params, std::move(artifact)),
               digest);
}

void Router::mark_down(Backend& b, const CallResult& r) {
  b.alive.store(false, std::memory_order_relaxed);
  b.down_since_ms.store(now_ms(), std::memory_order_relaxed);
  // Connection-refused = nothing listening (the process is gone);
  // timeout = listening but not answering (slow or wedged). Both
  // reroute, but the supervisor's wedge detection and fleet health
  // need them counted apart.
  if (r.fail_kind == CallResult::FailKind::kConnRefused) {
    b.conn_refused.fetch_add(1, std::memory_order_relaxed);
  } else if (r.fail_kind == CallResult::FailKind::kTimeout) {
    b.timeouts.fetch_add(1, std::memory_order_relaxed);
  }
}

Router::Backend* Router::find_backend(const std::string& name) {
  for (const auto& backend : backends_) {
    if (backend->spec.name == name) {
      return backend.get();
    }
  }
  return nullptr;
}

bool Router::set_backend_runtime(const std::string& name,
                                 const BackendRuntime& runtime) {
  Backend* b = find_backend(name);
  if (b == nullptr) {
    return false;
  }
  b->quarantined.store(runtime.quarantined, std::memory_order_relaxed);
  b->restarts.store(runtime.restarts, std::memory_order_relaxed);
  b->last_exit.store(runtime.last_exit, std::memory_order_relaxed);
  b->pid.store(runtime.pid, std::memory_order_relaxed);
  return true;
}

bool Router::set_backend_alive(const std::string& name, bool alive) {
  Backend* b = find_backend(name);
  if (b == nullptr) {
    return false;
  }
  b->alive.store(alive, std::memory_order_relaxed);
  if (!alive) {
    b->down_since_ms.store(now_ms(), std::memory_order_relaxed);
  }
  return true;
}

bool Router::call_backend(Backend& b, const std::string& op,
                          const Json& params, std::uint64_t deadline_ms,
                          bool forwarding, CallResult* out,
                          std::string_view check) {
  std::unique_ptr<Client> client = b.borrow(options_.client);
  *out = client->call(op, params, deadline_ms, check);
  // A forwarded request's caller errors are final too: the backend
  // answered, and the answer is "your request is wrong" (or "I am
  // broken in a way a sibling will be too"). Rerouting cannot fix it
  // -- it is returned verbatim. Session errors are authoritative as
  // well: the ring sent us to the one backend that would hold this
  // session, so a sibling can only say "not found" less honestly.
  const bool answered =
      out->ok ||
      (forwarding &&
       (out->error_code == kErrInvalidParams ||
        out->error_code == kErrUnknownOp || out->error_code == kErrInternal ||
        out->error_code == kErrSessionNotFound ||
        out->error_code == kErrSessionState));
  if (answered) {
    b.alive.store(true, std::memory_order_relaxed);
    b.give_back(std::move(client));
    return true;
  }
  // The pooled client is dropped: its connection state is suspect. A
  // forwarded request that is still overloaded / past deadline after
  // the Client's own retry budget moves on to the next replica without
  // condemning this backend; transport death ("" code) or draining --
  // or any failure of a probe or fan-out -- marks it down.
  if (!forwarding || out->error_code.empty() ||
      out->error_code == kErrDraining) {
    mark_down(b, *out);
  }
  return false;
}

Json Router::route(const Request& req, const std::string& key,
                   std::string_view check) {
  const std::vector<int> pref = ring_.preference(HashRing::point_of(key));
  const int max_tries =
      std::max(1, std::min(options_.replica_attempts,
                           static_cast<int>(pref.size())));
  const std::uint64_t now = now_ms();

  // Pass 1: backends believed alive (plus any due a reprobe). Pass 2
  // (only if pass 1 found none to try): everyone, in ring order --
  // better to probe a "dead" backend than to refuse outright. A
  // quarantined backend is in neither pass: its breaker is open, and
  // no request may block on it (the supervisor owns reprobing it).
  std::vector<int> plan;
  plan.reserve(pref.size());
  for (const int idx : pref) {
    Backend& b = *backends_[static_cast<std::size_t>(idx)];
    if (b.quarantined.load(std::memory_order_relaxed)) {
      continue;
    }
    const bool due_reprobe =
        now - b.down_since_ms.load(std::memory_order_relaxed) >=
        options_.probe_interval_ms;
    if (b.alive.load(std::memory_order_relaxed) || due_reprobe) {
      plan.push_back(idx);
    }
  }
  if (plan.empty()) {
    for (const int idx : pref) {
      if (!backends_[static_cast<std::size_t>(idx)]->quarantined.load(
              std::memory_order_relaxed)) {
        plan.push_back(idx);
      }
    }
  }

  int tried = 0;
  CallResult last;
  for (const int idx : plan) {
    if (tried >= max_tries) {
      break;
    }
    ++tried;
    Backend& b = *backends_[static_cast<std::size_t>(idx)];
    b.forwarded.fetch_add(1, std::memory_order_relaxed);
    if (call_backend(b, req.op, req.params, req.deadline_ms,
                     /*forwarding=*/true, &last, check)) {
      b.answered.fetch_add(1, std::memory_order_relaxed);
      Json response = std::move(last.response);
      response["id"] = req.id;  // restore the caller's id; result bytes
                                // and digest pass through untouched
      return response;
    }
    b.rerouted.fetch_add(1, std::memory_order_relaxed);
    metrics::counter("router.reroutes").inc();
  }

  metrics::counter("router.errors").inc();
  const std::string detail =
      last.error_code.empty()
          ? std::string("unreachable")
          : format("last error '%s': %s", last.error_code.c_str(),
                   last.error_detail.c_str());
  return error_response(
      req.id, kErrOverloaded,
      format("no backend answered after %d replica attempt(s); %s", tried,
             detail.c_str()),
      "", 50);
}

Json Router::aggregate_info(const Request& req) {
  std::vector<std::pair<int, Json>> results;  // backend index, result
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    Backend& b = *backends_[i];
    if (b.quarantined.load(std::memory_order_relaxed)) {
      continue;  // breaker open: never block an aggregation on it
    }
    CallResult r;
    if (call_backend(b, req.op, req.params, req.deadline_ms,
                     /*forwarding=*/false, &r)) {
      results.emplace_back(static_cast<int>(i), r.response.at("result"));
    }
  }
  if (results.empty()) {
    metrics::counter("router.errors").inc();
    return error_response(req.id, kErrOverloaded,
                          "no backend reachable for info", "", 50);
  }

  // Fleet view: registry members from the first healthy backend (they
  // are identical across the fleet), cache counters summed, hit_rate
  // recomputed from the sums.
  const Json& first = results.front().second;
  Json result = Json::object();
  result["schema"] = first.at("schema");
  result["ops"] = first.at("ops");
  result["lcps"] = first.at("lcps");
  result["instances"] = first.at("instances");
  result["draining"] = draining();
  Json& cache = (result["cache"] = Json::object());
  static constexpr const char* kSummed[] = {
      "hits",  "disk_hits", "misses", "evictions",
      "store_failures", "bytes", "entries"};
  std::uint64_t hits = 0;
  std::uint64_t disk_hits = 0;
  std::uint64_t misses = 0;
  for (const char* field : kSummed) {
    std::uint64_t total = 0;
    for (const auto& [idx, r] : results) {
      total += r.at("cache").at(field).as_uint();
    }
    cache[field] = total;
    if (std::string_view(field) == "hits") hits = total;
    if (std::string_view(field) == "disk_hits") disk_hits = total;
    if (std::string_view(field) == "misses") misses = total;
  }
  const std::uint64_t lookups = hits + disk_hits + misses;
  cache["hit_rate"] = lookups == 0 ? 0.0
                                   : static_cast<double>(hits + disk_hits) /
                                         static_cast<double>(lookups);

  Json& router = (result["router"] = Json::object());
  router["backends"] = static_cast<std::uint64_t>(backends_.size());
  router["reachable"] = static_cast<std::uint64_t>(results.size());
  return ok_response(req.id, std::move(result), /*cached=*/false, "");
}

Json Router::aggregate_health(const Request& req) {
  Json result = Json::object();
  result["schema"] = kWireSchema;
  result["draining"] = draining();
  Json& queue = (result["queue"] = Json::object());
  const HealthState* health = health_.load(std::memory_order_acquire);
  queue["depth"] =
      health != nullptr
          ? health->queue_depth.load(std::memory_order_relaxed)
          : 0;
  queue["max"] = health != nullptr
                     ? health->queue_max.load(std::memory_order_relaxed)
                     : 0;
  queue["admitted"] =
      health != nullptr
          ? health->admitted_total.load(std::memory_order_relaxed)
          : 0;
  queue["shed"] = health != nullptr
                      ? health->shed_total.load(std::memory_order_relaxed)
                      : 0;

  Json& fleet = (result["backends"] = Json::array());
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    Backend& b = *backends_[i];
    Json entry = Json::object();
    entry["name"] = b.spec.name;
    entry["target"] = b.spec.target;
    if (b.quarantined.load(std::memory_order_relaxed)) {
      // Breaker open: report without probing -- the health op must
      // never block on a quarantined backend either.
      entry["alive"] = false;
    } else {
      CallResult r;
      const bool up = call_backend(b, req.op, req.params, req.deadline_ms,
                                   /*forwarding=*/false, &r);
      entry["alive"] = up;
      if (up) {
        entry["health"] = r.response.at("result");
      }
    }
    entry["quarantined"] = b.quarantined.load(std::memory_order_relaxed);
    entry["forwarded"] = b.forwarded.load(std::memory_order_relaxed);
    entry["answered"] = b.answered.load(std::memory_order_relaxed);
    entry["rerouted"] = b.rerouted.load(std::memory_order_relaxed);
    entry["conn_refused"] = b.conn_refused.load(std::memory_order_relaxed);
    entry["timeouts"] = b.timeouts.load(std::memory_order_relaxed);
    entry["restarts"] = b.restarts.load(std::memory_order_relaxed);
    entry["last_exit"] = b.last_exit.load(std::memory_order_relaxed);
    entry["pid"] = b.pid.load(std::memory_order_relaxed);
    fleet.push_back(std::move(entry));
  }
  return ok_response(req.id, std::move(result), /*cached=*/false, "");
}

int Router::probe_all() {
  int alive = 0;
  for (const auto& backend : backends_) {
    if (backend->quarantined.load(std::memory_order_relaxed)) {
      continue;  // the supervisor owns reprobing a quarantined backend
    }
    CallResult r;
    if (call_backend(*backend, "health", Json::object(), 0,
                     /*forwarding=*/false, &r)) {
      ++alive;
    }
  }
  return alive;
}

std::vector<RouterBackendStats> Router::backend_stats() const {
  std::vector<RouterBackendStats> out;
  out.reserve(backends_.size());
  for (const auto& backend : backends_) {
    RouterBackendStats s;
    s.name = backend->spec.name;
    s.target = backend->spec.target;
    s.alive = backend->alive.load(std::memory_order_relaxed);
    s.quarantined = backend->quarantined.load(std::memory_order_relaxed);
    s.forwarded = backend->forwarded.load(std::memory_order_relaxed);
    s.answered = backend->answered.load(std::memory_order_relaxed);
    s.rerouted = backend->rerouted.load(std::memory_order_relaxed);
    s.conn_refused = backend->conn_refused.load(std::memory_order_relaxed);
    s.timeouts = backend->timeouts.load(std::memory_order_relaxed);
    s.restarts = backend->restarts.load(std::memory_order_relaxed);
    s.last_exit = backend->last_exit.load(std::memory_order_relaxed);
    s.pid = backend->pid.load(std::memory_order_relaxed);
    out.push_back(std::move(s));
  }
  return out;
}

std::string Router::routing_key(const std::string& op, const Json& params,
                                std::string artifact) {
  const bool is_session_op = op == "session_open" || op == "session_step" ||
                             op == "session_close";
  if (is_session_op && params.is_object() && params.contains("session") &&
      params.at("session").is_string()) {
    // The id alone: every message of one session must hash to the same
    // ring point, and only session_open carries the full params. The
    // "session\n" prefix keeps the namespace disjoint from
    // artifact_key's "<schema>\n<op>\n..." shape. An op with a missing
    // or non-string id falls through to the stateless key; the backend
    // rejects it with invalid_params either way.
    return format("session\n%s", params.at("session").as_string().c_str());
  }
  return artifact.empty() ? artifact_key(op, params) : artifact;
}

std::vector<int> Router::preference_for(const std::string& op,
                                        const Json& params) const {
  return ring_.preference(HashRing::point_of(routing_key(op, params)));
}

}  // namespace shlcp::svc
