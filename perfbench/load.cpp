#include "load.h"

#include <poll.h>
#include <sys/prctl.h>

#include <cerrno>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <thread>

#include "hosts.h"
#include "interactive/commit.h"
#include "nbhd/checkpoint.h"
#include "service/cache.h"
#include "service/chaos.h"
#include "service/proto.h"
#include "tracing.h"
#include "util/rng.h"

namespace perfbench {

using shlcp::Json;
namespace svc = shlcp::svc;

namespace {

constexpr double kSessionRequests = 1 + 2 * SessionPlan::kRounds;

// An open-loop phase that falls this many times its length behind (a
// starved machine cannot keep up with the offered rate) stops sending,
// so a run always ends in bounded time; its sample count shows it.
constexpr std::uint64_t kOverrun = 2;

svc::ClientOptions client_options(int worker) {
  svc::ClientOptions options;
  options.retry.seed = shlcp::mix64(0xBE7C4ULL + static_cast<std::uint64_t>(worker));
  return options;
}

void note_max(std::atomic<std::uint64_t>& max, std::uint64_t value) {
  std::uint64_t seen = max.load();
  while (value > seen && !max.compare_exchange_weak(seen, value)) {
  }
}

/// When the k-th open-loop arrival of a phase started at t0 is due.
std::uint64_t due_ns(std::uint64_t t0, std::uint64_t k, double rate) {
  return t0 + static_cast<std::uint64_t>(static_cast<double>(k) * 1e9 / rate);
}

void sleep_until_ns(std::uint64_t due) {
  const std::uint64_t now = now_ns();
  if (due > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
  }
}

/// Books one call's outcome; true for a verified ok reply.
bool account(const svc::CallResult& r, const std::string& op, LoadResult& out) {
  ++out.attempted;
  if (r.ok) {
    const Json& resp = r.response;
    if (resp.contains("digest") &&
        resp.at("digest").as_string() == shlcp::fnv1a_hex(r.result_dump)) {
      ++out.ok;
      return true;
    }
    ++out.bad_digest;
    std::fprintf(stderr, "perfbench: [%s] reply digest does not verify\n",
                 op.c_str());
    return false;
  }
  if (r.error_code == "overloaded" || r.error_code == "draining") {
    ++out.refused;
  } else if (r.error_code.empty()) {
    ++out.lost;
  } else {
    ++out.errors;
  }
  if (out.errors + out.refused + out.lost <= 5) {
    std::fprintf(stderr, "perfbench: [%s] %s: %s\n", op.c_str(),
                 r.error_code.empty() ? "lost" : r.error_code.c_str(),
                 r.error_detail.c_str());
  }
  return false;
}

/// One traced (or untraced) call.
svc::CallResult timed_call(svc::Client& client, const std::string& op,
                           const Json& params, std::uint64_t req, bool trace,
                           std::uint64_t* begin, std::uint64_t* end) {
  Span span;
  if (trace) {
    span.req = req;
    span.check = parse_check(shlcp::fnv1a_hex(svc::artifact_key(op, params)));
  }
  *begin = now_ns();
  svc::CallResult r = client.call(op, params);
  *end = now_ns();
  if (trace) {
    span.begin_ns = *begin;
    span.end_ns = *end;
    SpanSink::global().record(span);
  }
  return r;
}

}  // namespace

void merge(LoadResult& into, const LoadResult& from) {
  into.attempted += from.attempted;
  into.ok += from.ok;
  into.errors += from.errors;
  into.refused += from.refused;
  into.lost += from.lost;
  into.bad_digest += from.bad_digest;
  into.rejected_sessions += from.rejected_sessions;
  into.sessions += from.sessions;
  into.elapsed_s += from.elapsed_s;
  into.load_cpu_s += from.load_cpu_s;
  into.latency_us.insert(into.latency_us.end(), from.latency_us.begin(),
                         from.latency_us.end());
  into.late_us.insert(into.late_us.end(), from.late_us.begin(),
                      from.late_us.end());
  into.samples.insert(into.samples.end(), from.samples.begin(),
                      from.samples.end());
  const svc::ClientStats& c = from.client;
  into.client.calls += c.calls;
  into.client.attempts += c.attempts;
  into.client.retries += c.retries;
  into.client.reconnects += c.reconnects;
  into.client.timeouts += c.timeouts;
  into.client.transport_errors += c.transport_errors;
  into.client.digest_mismatches += c.digest_mismatches;
  into.client.refused_overloaded += c.refused_overloaded;
  into.client.refused_draining += c.refused_draining;
  std::map<std::string, std::uint64_t> counts(into.op_counts.begin(),
                                              into.op_counts.end());
  for (const auto& [op, n] : from.op_counts) {
    counts[op] += n;
  }
  into.op_counts.assign(counts.begin(), counts.end());
}

namespace {

/// Runs `body(worker, out)` on `workers` threads with tight timer slack
/// and merges their results.
template <typename Body>
LoadResult run_workers(int workers, Body body) {
  std::vector<LoadResult> outs(static_cast<std::size_t>(workers));
  std::vector<std::thread> threads;
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      // Wake open-loop sleeps within microseconds, not the default 50.
      prctl(PR_SET_TIMERSLACK, 1UL);
      const double cpu0 = thread_cpu_s();
      body(w, outs[static_cast<std::size_t>(w)]);
      outs[static_cast<std::size_t>(w)].load_cpu_s = thread_cpu_s() - cpu0;
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  LoadResult total;
  for (LoadResult& out : outs) {
    merge(total, out);
  }
  return total;
}

}  // namespace

namespace {

/// A reply frame as the CallResult Client::call would have returned,
/// and the number in its wire id "c<N>" (0 when unreadable).
svc::CallResult call_result(const std::string& frame, std::uint64_t* id) {
  svc::CallResult r;
  *id = 0;
  try {
    r.response = Json::parse(frame);
    const std::string& wire_id = r.response.at("id").as_string();
    *id = wire_id.size() > 1 ? std::stoull(wire_id.substr(1)) : 0;
    r.ok = r.response.at("ok").as_bool();
    if (r.ok) {
      r.result_dump = r.response.at("result").dump();
    } else {
      const Json& error = r.response.at("error");
      r.error_code = error.at("code").as_string();
      r.error_detail = error.contains("message") ? error.at("message").as_string() : "";
    }
  } catch (const std::exception& e) {
    r = svc::CallResult();
    r.error_code = "unreadable_reply";
    r.error_detail = e.what();
  }
  return r;
}

/// One pipelined connection of the closed loop. Requests go out as soon
/// as they are built; the server answers a connection's requests in
/// order, so each reply belongs to the oldest request in flight, and
/// its wire id must say so. A reply frame that is empty or not JSON is
/// taken as corrupted and its request re-sent under a fresh wire id, up
/// to RetryPolicy::max_attempts attempts, as Client::call does; both
/// count in the client stats.
class Pipeline {
 public:
  struct Sent {
    Request req;
    std::uint64_t tag = 0;  // the caller's: stream index or session index
    std::uint64_t id = 0;   // wire id "c<id>"
    std::string body;
    std::uint64_t sent_ns = 0;
    int attempts = 1;
  };

  explicit Pipeline(const std::string& target)
      : transport_(svc::Client::connector_for(target, {})()) {}

  [[nodiscard]] std::size_t in_flight() const { return sent_.size(); }

  bool send(Request req, std::uint64_t tag, std::uint64_t id) {
    return resend(Sent{std::move(req), tag, id, {}, 0, 1});
  }

  /// The oldest request in flight and its reply; false when the
  /// connection failed or the replies came out of order.
  bool receive(Sent* done, svc::CallResult* reply, svc::ClientStats& stats) {
    static constexpr int kMaxAttempts = svc::RetryPolicy{}.max_attempts;
    std::string frame;
    while (!sent_.empty() && next_frame(&frame)) {
      std::uint64_t id = 0;
      *reply = call_result(frame, &id);
      const bool unreadable = reply->error_code == "unreadable_reply";
      if (unreadable && sent_.front().attempts < kMaxAttempts) {
        ++stats.digest_mismatches;
        ++stats.retries;
        Sent again = std::move(sent_.front());
        sent_.pop_front();
        again.id = kRetryIds + retries_++;
        ++again.attempts;
        if (!resend(std::move(again))) {
          return false;
        }
        continue;
      }
      if (!unreadable && id != sent_.front().id) {
        std::fprintf(stderr, "perfbench: reply c%llu out of order, c%llu expected\n",
                     static_cast<unsigned long long>(id),
                     static_cast<unsigned long long>(sent_.front().id));
        return false;
      }
      *done = std::move(sent_.front());
      sent_.pop_front();
      return true;
    }
    return false;
  }

 private:
  // Wire ids of re-sent requests, above every first-attempt id.
  static constexpr std::uint64_t kRetryIds = 1ULL << 62;

  bool resend(Sent s) {
    s.body = envelope(s.req, s.id);
    s.sent_ns = now_ns();
    const bool ok =
        transport_ != nullptr && transport_->write_all(svc::encode_frame(s.body));
    sent_.push_back(std::move(s));
    return ok;
  }

  /// The next reply frame; false when the connection failed or stayed
  /// silent for kReplyTimeoutMs.
  bool next_frame(std::string* frame) {
    static constexpr int kReplyTimeoutMs = 10'000;
    std::string error;
    for (;;) {
      const svc::FrameReader::Next next = reader_.next(frame, &error);
      if (next != svc::FrameReader::Next::kNeedMore) {
        return next == svc::FrameReader::Next::kFrame;
      }
      if (transport_ == nullptr || transport_->dead()) {
        return false;
      }
      pollfd pfd = {transport_->poll_fd(), POLLIN, 0};
      const int ready = ::poll(&pfd, 1, kReplyTimeoutMs);
      if (ready < 0 && errno == EINTR) {
        continue;
      }
      char buf[64 << 10];
      const std::int64_t n = ready > 0 ? transport_->read_some(buf, sizeof buf) : -1;
      if (n <= 0) {
        return false;
      }
      reader_.feed(std::string_view(buf, static_cast<std::size_t>(n)));
    }
  }

  std::unique_ptr<svc::FaultyTransport> transport_;
  svc::FrameReader reader_;
  std::deque<Sent> sent_;
  std::uint64_t retries_ = 0;
};

/// Books the requests still in flight on a failed connection as lost.
void book_lost(std::size_t in_flight, LoadResult& out) {
  out.attempted += in_flight;
  out.lost += in_flight;
  if (in_flight > 0) {
    std::fprintf(stderr, "perfbench: connection failed with %zu requests in flight\n",
                 in_flight);
  }
}

void record_span(bool trace, std::uint64_t req, const std::string& body,
                 std::uint64_t begin, std::uint64_t end) {
  if (trace) {
    SpanSink::global().record(Span{req, check_of_body(body), begin, end, SpanKind::kClient});
  }
}

}  // namespace

LoadResult run_requests(const RequestStream& stream, const LoadConfig& config) {
  const bool closed = config.rate <= 0;
  const int workers = closed ? Pinning::kClosedLoadThreads : Pinning::kOpenLoadThreads;
  const std::uint64_t t0 = now_ns();
  const std::uint64_t end = t0 + static_cast<std::uint64_t>(config.seconds * 1e9);
  const std::uint64_t give_up = end + (end - t0) * kOverrun;
  std::atomic<std::uint64_t> next{config.first};
  std::vector<std::map<std::string, std::uint64_t>> counts(static_cast<std::size_t>(workers));
  std::atomic<std::uint64_t> last_done{t0};

  // Books a reply to request i; keeps every oracle_every-th ok result.
  auto book = [&](std::uint64_t i, const std::string& op, const svc::CallResult& r,
                  std::uint64_t done, LoadResult& out) {
    if (account(r, op, out) && config.oracle_every > 0 && i % config.oracle_every == 0) {
      out.samples.emplace_back(i, r.result_dump);
    }
    note_max(last_done, done);
  };

  LoadResult total = run_workers(workers, [&](int w, LoadResult& out) {
    auto& op_counts = counts[static_cast<std::size_t>(w)];
    if (closed) {
      // Keep kClosedDepth requests in flight until the phase ends.
      Pipeline pipe(config.target);
      auto issue = [&] {
        const std::uint64_t i = next.fetch_add(1);
        Request req = stream.at(i);
        ++op_counts[req.op];
        return pipe.send(std::move(req), i, i + 1);
      };
      bool alive = true;
      for (int d = 0; d < Pinning::kClosedDepth && alive; ++d) {
        alive = issue();
      }
      Pipeline::Sent done;
      svc::CallResult r;
      while (alive && pipe.receive(&done, &r, out.client)) {
        const std::uint64_t done_ns = now_ns();
        record_span(config.trace, done.id, done.body, done.sent_ns, done_ns);
        book(done.tag, done.req.op, r, done_ns, out);
        if (done_ns < end) {
          alive = issue();
        }
      }
      book_lost(pipe.in_flight(), out);
      return;
    }
    // Open loop: workers pull the next index when free, so a slow reply
    // delays only its own request, not the ones due after it. An index
    // pulled but not sent is skipped: the next phase starts after it.
    svc::Client client(svc::Client::connector_for(config.target, {}),
                       client_options(w));
    for (;;) {
      const std::uint64_t i = next.fetch_add(1);
      const std::uint64_t due = due_ns(t0, i - config.first, config.rate);
      if (due >= end || now_ns() >= give_up) {
        break;
      }
      sleep_until_ns(due);
      const Request req = stream.at(i);
      ++op_counts[req.op];
      std::uint64_t begin = 0;
      std::uint64_t done = 0;
      const svc::CallResult r =
          timed_call(client, req.op, req.params, i + 1, config.trace, &begin, &done);
      out.late_us.push_back(static_cast<double>(begin - due) / 1e3);
      out.latency_us.push_back(static_cast<double>(done - due) / 1e3);
      book(i, req.op, r, done, out);
    }
    out.client = client.stats();
  });

  std::map<std::string, std::uint64_t> merged;
  for (const auto& per_worker : counts) {
    for (const auto& [op, n] : per_worker) {
      merged[op] += n;
    }
  }
  total.op_counts.assign(merged.begin(), merged.end());
  total.next = next.load();
  total.elapsed_s = static_cast<double>(last_done.load() - t0) / 1e9;
  return total;
}

namespace {

/// One honest commit-reveal session, driven one wire message at a time:
/// open, then kRounds x (commit, reveal).
class SessionRun {
 public:
  SessionRun(std::uint64_t seed, std::uint64_t index)
      : index_(index),
        plan_(session_plan(seed, index)),
        prover_(session_coloring(), 2, plan_.id, plan_.prover_seed) {}

  /// The next message: op and params.
  [[nodiscard]] Request next_message() {
    if (msg_ == 0) {
      return {"session_open", session_open_params(plan_)};
    }
    if (challenge_.is_null()) {
      return {"session_step", commit_step_params(plan_, prover_)};
    }
    Request r{"session_step", reveal_step_params(plan_, prover_, challenge_)};
    challenge_ = Json();
    return r;
  }

  /// The wire request id of the message last built; unique across the
  /// sessions of a run.
  [[nodiscard]] std::uint64_t request_id() const {
    return (index_ << 4 | static_cast<std::uint64_t>(msg_)) + 1;
  }

  /// Takes the ok reply to the message last built; true while more
  /// messages follow.
  bool take_reply(const std::string& result_dump) {
    const Json result = Json::parse(result_dump);
    const bool reveal = msg_ > 0 && msg_ % 2 == 0;
    const bool commit = msg_ % 2 == 1;
    ++msg_;
    if (commit) {
      challenge_ = result.at("reply").at("challenge");
    }
    if (reveal && result.at("completed").as_bool()) {
      verdict_ = result.at("reply").at("verdict").as_bool();
    }
    return msg_ < 1 + 2 * SessionPlan::kRounds;
  }

  [[nodiscard]] std::uint64_t index() const { return index_; }
  [[nodiscard]] bool accepted() const { return verdict_; }
  [[nodiscard]] const std::string& id() const { return plan_.id; }

 private:
  std::uint64_t index_;
  SessionPlan plan_;
  shlcp::ia::CommitProver prover_;
  int msg_ = 0;  // messages answered so far
  Json challenge_;
  bool verdict_ = false;
};

void book_session_end(const SessionRun& s, LoadResult& out) {
  if (!s.accepted()) {
    ++out.rejected_sessions;
    std::fprintf(stderr, "perfbench: honest session %s rejected\n", s.id().c_str());
  }
}

}  // namespace

LoadResult run_sessions(std::uint64_t seed, const LoadConfig& config) {
  const bool closed = config.rate <= 0;
  const int workers = closed ? Pinning::kClosedLoadThreads : Pinning::kOpenLoadThreads;
  const std::uint64_t t0 = now_ns();
  const std::uint64_t end = t0 + static_cast<std::uint64_t>(config.seconds * 1e9);
  const std::uint64_t give_up = end + (end - t0) * kOverrun;
  const double session_rate = config.rate / kSessionRequests;
  std::atomic<std::uint64_t> next{config.first};
  std::atomic<std::uint64_t> last_done{t0};

  LoadResult total = run_workers(workers, [&](int w, LoadResult& out) {
    if (closed) {
      // kClosedDepth sessions in flight, one message outstanding each.
      Pipeline pipe(config.target);
      std::map<std::uint64_t, SessionRun> live;  // by session index
      auto send = [&](SessionRun& session) {
        return pipe.send(session.next_message(), session.index(), session.request_id());
      };
      auto start = [&] {
        ++out.sessions;
        const std::uint64_t index = next.fetch_add(1);
        return send(live.try_emplace(index, seed, index).first->second);
      };
      bool alive = true;
      for (int d = 0; d < Pinning::kClosedDepth && alive; ++d) {
        alive = start();
      }
      Pipeline::Sent done;
      svc::CallResult r;
      while (alive && pipe.receive(&done, &r, out.client)) {
        const std::uint64_t done_ns = now_ns();
        record_span(config.trace, done.id, done.body, done.sent_ns, done_ns);
        note_max(last_done, done_ns);
        SessionRun& session = live.at(done.tag);
        const bool ok = account(r, done.req.op, out);
        if (ok && session.take_reply(r.result_dump)) {
          alive = send(session);
          continue;
        }
        if (ok) {
          book_session_end(session, out);
        }
        live.erase(done.tag);
        if (done_ns < end) {
          alive = start();
        }
      }
      book_lost(pipe.in_flight(), out);
      return;
    }
    // Open loop: a session's first message is due on the schedule, its
    // later messages when the previous reply arrives.
    svc::Client client(svc::Client::connector_for(config.target, {}),
                       client_options(w));
    for (;;) {
      const std::uint64_t index = next.fetch_add(1);
      const std::uint64_t due = due_ns(t0, index - config.first, session_rate);
      if (due >= end || now_ns() >= give_up) {
        break;
      }
      sleep_until_ns(due);
      ++out.sessions;
      SessionRun session(seed, index);
      for (std::uint64_t msg_due = due;; msg_due = now_ns()) {
        const Request req = session.next_message();
        std::uint64_t begin = 0;
        std::uint64_t done = 0;
        const svc::CallResult r = timed_call(client, req.op, req.params,
                                             session.request_id(), config.trace,
                                             &begin, &done);
        out.late_us.push_back(static_cast<double>(begin - msg_due) / 1e3);
        out.latency_us.push_back(static_cast<double>(done - msg_due) / 1e3);
        note_max(last_done, done);
        if (!account(r, req.op, out)) {
          break;
        }
        if (!session.take_reply(r.result_dump)) {
          book_session_end(session, out);
          break;
        }
      }
    }
    out.client = client.stats();
  });
  total.next = next.load();
  total.op_counts = {{"sessions", total.sessions}};
  total.elapsed_s = static_cast<double>(last_done.load() - t0) / 1e9;
  return total;
}

bool warm(const std::string& target, const std::vector<Request>& requests) {
  svc::Client client(svc::Client::connector_for(target, {}), client_options(99));
  bool all_ok = true;
  for (const Request& r : requests) {
    all_ok = client.call(r.op, r.params).ok && all_ok;
  }
  return all_ok;
}

}  // namespace perfbench
