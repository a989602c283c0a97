#include "service/netloop.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <deque>
#include <optional>
#include <utility>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "util/check.h"
#include "util/format.h"
#include "util/metrics.h"
#include "util/parallel.h"

namespace shlcp::svc {

namespace {

/// Poll timeout: how stale the CancelToken check may get. The SIGINT
/// handler is installed with signal() (SA_RESTART on glibc), so the
/// token -- never an interrupted syscall -- is the wake-up signal.
constexpr int kPollTimeoutMs = 100;

/// Per-connection cap on buffered-but-unsent response bytes. A client
/// that stops reading gets its connection closed instead of growing
/// the buffer (and stalling nothing else -- sockets are non-blocking).
constexpr std::size_t kMaxConnWriteBufferBytes = 64u << 20;

/// Grace window after drain for flushing buffered responses to slow
/// readers before the sockets are torn down.
constexpr std::uint64_t kDrainFlushMs = 2000;

/// Every socket the loop opens or accepts is born with these flags.
/// Nonblocking: poll's readability hint on a listener is advisory -- a
/// queued connection can be gone again by the time accept runs, and a
/// blocking accept would then pin the loop past every cancel check.
/// CLOEXEC, set atomically: the supervisor fork/execs backends from
/// another thread of a process running this loop, and a flag set by a
/// later fcntl would leave a window in which a child inherits the fd.
constexpr int kSockFlags = SOCK_NONBLOCK | SOCK_CLOEXEC;

/// Closes fd without clobbering the errno of the failure being reported.
void close_keep_errno(int fd) {
  const int saved = errno;
  ::close(fd);
  errno = saved;
}

std::uint64_t now_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One admitted request (or canned reply) awaiting dispatch.
struct PendingRequest {
  std::string body;           // request envelope (shlcp.svc.v1 JSON)
  std::uint64_t admit_ms = 0; // admission stamp; queue delay charges
                              // against deadline_ms
  std::size_t slot = 0;       // owning connection's index in the loop's
                              // table (stable while anything is queued)
  std::int64_t conn = -1;     // owning connection's id: the `conn` the
                              // dispatcher sees
  std::uint64_t tag = 0;      // protocol-private cookie (HTTP: request
                              // sequence + keep-alive bit)
  bool raw = false;           // body is already wire bytes: skip the
                              // dispatcher AND the encoder, write as-is
};

/// Backpressure hint for a shed frame: roughly how long the backlog
/// ahead needs to dispatch, assuming ~10 ms per batch, capped so a
/// wildly overloaded server never tells clients to sleep forever.
std::int64_t retry_after_hint_ms(std::size_t depth, int batch_max) {
  const std::size_t batches =
      depth / static_cast<std::size_t>(std::max(batch_max, 1)) + 1;
  return static_cast<std::int64_t>(std::min<std::size_t>(batches * 10, 1000));
}

/// Builds the "overloaded" refusal body for a request that was never
/// admitted. The envelope is parsed only to salvage the request id (the
/// response must be matchable client-side); one too corrupt to parse is
/// shed with a null id.
std::string shed_body(const std::string& body, std::string_view what,
                      std::size_t depth, int batch_max) {
  Json id;
  try {
    const Json req = Json::parse(body);
    if (req.is_object() && req.contains("id")) {
      id = req.at("id");
    }
  } catch (const CheckError&) {
  }
  metrics::counter("service.shed").inc();
  return error_response(id, kErrOverloaded, what, "",
                        retry_after_hint_ms(depth, batch_max))
      .dump();
}

/// Dispatches up to batch_max queued requests across the pool and
/// returns the responses in queue order (paired with their Pending).
/// `raw` requests pass through untouched (their body IS the response).
std::vector<std::pair<PendingRequest, std::string>> dispatch_batch(
    Dispatcher& dispatcher, WorkerPool& pool,
    std::deque<PendingRequest>& queue, int batch_max, HealthState* health) {
  const std::size_t count =
      std::min(queue.size(), static_cast<std::size_t>(batch_max));
  std::vector<PendingRequest> batch;
  batch.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    batch.push_back(std::move(queue.front()));
    queue.pop_front();
  }
  static metrics::Histogram& batch_size = metrics::histogram(
      "service.batch.size", metrics::HistogramLayout::count());
  static metrics::Gauge& queue_depth = metrics::gauge("service.queue.depth");
  batch_size.record(count);
  queue_depth.set(static_cast<std::int64_t>(queue.size()));
  if (health != nullptr) {
    health->queue_depth.store(queue.size(), std::memory_order_relaxed);
  }

  const std::uint64_t dispatch_ms = now_ms();
  std::vector<std::string> responses(count);
  const auto run_one = [&](std::size_t i) {
    if (batch[i].raw) {
      return;  // pre-encoded: the body IS the wire bytes
    }
    const std::uint64_t elapsed = dispatch_ms > batch[i].admit_ms
                                      ? dispatch_ms - batch[i].admit_ms
                                      : 0;
    responses[i] = dispatcher.handle_text(batch[i].body, elapsed,
                                          batch[i].conn);
  };
  if (count == 1) {
    run_one(0);
  } else {
    pool.parallel_for_chunks(count, 1,
                             [&](std::size_t, std::size_t begin,
                                 std::size_t end) {
                               for (std::size_t i = begin; i < end; ++i) {
                                 run_one(i);
                               }
                             });
  }

  std::vector<std::pair<PendingRequest, std::string>> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.emplace_back(std::move(batch[i]), std::move(responses[i]));
  }
  return out;
}

}  // namespace

void StreamListener::close() {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
    if (unbind) {
      unbind();
    }
  }
}

StreamListener listen_unix(const std::string& path, ProtocolFactory protocol) {
  if (path.size() >= sizeof(sockaddr_un{}.sun_path)) {
    errno = ENAMETOOLONG;  // too long to bind: a bind failure like any other
    return {};
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | kSockFlags, 0);
  if (fd < 0) {
    return {};
  }
  ::unlink(path.c_str());
  sockaddr_un addr = {};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(fd, 64) != 0) {
    close_keep_errno(fd);
    return {};
  }
  return {fd, [path] { ::unlink(path.c_str()); }, std::move(protocol)};
}

StreamListener listen_tcp(const std::string& host, int port,
                          ProtocolFactory protocol, int* bound_port) {
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    errno = EINVAL;
    return {};
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM | kSockFlags, 0);
  if (fd < 0) {
    return {};
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(fd, 64) != 0) {
    close_keep_errno(fd);
    return {};
  }
  if (bound_port != nullptr) {
    sockaddr_in bound = {};
    socklen_t len = sizeof(bound);
    *bound_port = ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound),
                                &len) == 0
                      ? static_cast<int>(ntohs(bound.sin_port))
                      : port;
  }
  return {fd, nullptr, std::move(protocol)};
}

int serve_stream(StreamEndpoints endpoints, const ServerOptions& options) {
  ::signal(SIGPIPE, SIG_IGN);
  std::vector<StreamListener>& listeners = endpoints.listeners;
  const auto close_listeners = [&] {
    for (StreamListener& l : listeners) {
      l.close();
    }
  };
  if (std::any_of(listeners.begin(), listeners.end(),
                  [](const StreamListener& l) { return l.fd < 0; })) {
    close_listeners();  // all or nothing: never serve a partial set
    return 1;
  }

  // The dispatcher, health counters, and cancel token are injectable
  // (a Router behind the loop, perfbench reading health, tests
  // cancelling); standalone use owns all three.
  std::unique_ptr<Service> owned_service;
  Dispatcher* dispatcher = options.dispatcher;
  if (dispatcher == nullptr) {
    owned_service = std::make_unique<Service>(options.service);
    dispatcher = owned_service.get();
  }
  HealthState owned_health;
  HealthState* health =
      options.health != nullptr ? options.health : &owned_health;
  health->queue_max.store(options.queue_max, std::memory_order_relaxed);
  dispatcher->attach_health(health);
  CancelToken local_token;
  CancelToken* cancel =
      options.cancel != nullptr ? options.cancel : &local_token;
  std::optional<SigintGuard> sigint;
  if (options.arm_sigint) {
    sigint.emplace(*cancel);
  }
  WorkerPool pool(resolve_num_threads(options.num_threads));

  struct Connection {
    std::int64_t id;
    int in_fd;
    int out_fd;  // == in_fd except for the pipe; both -1 once closed
    bool owned;  // accepted here: non-blocking, and ours to close
    std::unique_ptr<ConnProtocol> proto;
    bool reading = true;  // false after EOF, lost framing, or a
                          // protocol-requested close: flush, then close
    std::size_t inflight = 0;    // admitted frames not yet answered
    std::size_t queued_raw = 0;  // canned replies still in the queue
    std::string outbuf;        // responses the fd has not accepted
    std::size_t outpos = 0;    // consumed prefix of outbuf

    Connection(std::int64_t i, int in, int out, bool own,
               std::unique_ptr<ConnProtocol> p)
        : id(i), in_fd(in), out_fd(out), owned(own), proto(std::move(p)) {}

    [[nodiscard]] std::size_t pending_out() const {
      return outbuf.size() - outpos;
    }
    // Done with its work: close once everything owed is out.
    [[nodiscard]] bool finished() const {
      return !reading && inflight == 0 && queued_raw == 0 &&
             pending_out() == 0;
    }
  };
  std::vector<Connection> conns;
  std::deque<PendingRequest> queue;
  std::int64_t next_id = 0;  // connection ids are never reused
  int exit_code = 0;
  if (endpoints.pipe) {
    conns.emplace_back(next_id++, options.in_fd, options.out_fd, false,
                       endpoints.pipe(options.max_frame_bytes));
  }

  // `failed` = the connection died owing or reading something; on the
  // pipe that is a transport failure of the whole server.
  const auto close_conn = [&](Connection& c, bool failed) {
    if (c.in_fd < 0) {
      return;
    }
    if (c.owned) {
      ::close(c.in_fd);
    } else if (failed) {
      exit_code = 1;
    }
    c.in_fd = -1;
    c.out_fd = -1;
    c.outbuf.clear();
    c.outpos = 0;
  };

  // Writes as much of c.outbuf as the fd accepts. Returns false if the
  // connection died. A full socket buffer is not an error: the
  // remainder stays queued and the poll loop watches POLLOUT -- one
  // slow reader must never stall dispatch for the rest. (The pipe's
  // fds stay blocking, so its writes complete or fail.)
  const auto flush_conn = [&](Connection& c) -> bool {
    while (c.outpos < c.outbuf.size()) {
      const char* data = c.outbuf.data() + c.outpos;
      const std::size_t len = c.outbuf.size() - c.outpos;
      // MSG_NOSIGNAL: a client that vanished mid-response must produce
      // EPIPE (slot reclaimed below), never a process-killing SIGPIPE
      // -- belt to the SIG_IGN suspenders above.
      const ssize_t n = c.owned ? ::send(c.out_fd, data, len, MSG_NOSIGNAL)
                                : ::write(c.out_fd, data, len);
      if (n > 0) {
        c.outpos += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) {
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return true;
      }
      close_conn(c, true);
      return false;
    }
    c.outbuf.clear();
    c.outpos = 0;
    return true;
  };

  const auto send_conn = [&](Connection& c, std::string_view bytes) {
    if (c.in_fd < 0) {
      return;
    }
    c.outbuf.append(bytes.data(), bytes.size());
    if (flush_conn(c) && c.pending_out() > kMaxConnWriteBufferBytes) {
      close_conn(c, true);  // reader has stalled; do not buffer unboundedly
    }
  };

  // Canned replies and shed refusals ride the queue so they are written
  // in request order relative to dispatched responses.
  const auto queue_raw = [&](Connection& c, std::size_t slot,
                             std::string bytes, std::uint64_t tag) {
    queue.push_back(PendingRequest{std::move(bytes), now_ms(), slot, c.id,
                                   tag, true});
    ++c.queued_raw;
  };

  // Admission: "" = admit, otherwise why the frame is shed.
  const auto refusal = [&](const Connection& c) -> std::string {
    if (options.queue_max > 0 && queue.size() >= options.queue_max) {
      return format("admission queue full (%zu queued); back off and retry",
                    queue.size());
    }
    if (options.conn_inflight_max > 0 &&
        c.inflight >= options.conn_inflight_max) {
      return format("connection in-flight cap (%zu) reached; await "
                    "responses before pipelining more",
                    options.conn_inflight_max);
    }
    return {};
  };

  const auto check_cancel = [&] {
    if (cancel->stop_requested() && !dispatcher->draining()) {
      dispatcher->begin_drain();
      close_listeners();
    }
  };

  if (endpoints.on_ready) {
    endpoints.on_ready();
  }

  std::vector<pollfd> pfds;
  std::vector<std::size_t> owner_of_pfd;  // listener index, then conn slot
  while (true) {
    check_cancel();
    while (!queue.empty()) {
      for (auto& [req, response] : dispatch_batch(
               *dispatcher, pool, queue, options.batch_max, health)) {
        Connection& owner = conns[req.slot];
        if (req.raw) {
          --owner.queued_raw;
          send_conn(owner, req.body);
          continue;
        }
        --owner.inflight;
        if (owner.in_fd >= 0) {
          bool close_after = false;
          send_conn(owner, owner.proto->encode_response(req.tag, response,
                                                        &close_after));
          if (close_after) {
            owner.reading = false;
          }
        }
      }
      check_cancel();
    }
    if (dispatcher->draining()) {
      break;  // queue flushed above; refuse everything else
    }

    // The queue is empty here, so no PendingRequest.slot is live:
    // retire connections whose work is done, then reclaim the slots
    // (and protocol buffers) of closed connections.
    for (Connection& c : conns) {
      if (c.finished()) {
        close_conn(c, false);
      }
    }
    conns.erase(std::remove_if(conns.begin(), conns.end(),
                               [](const Connection& c) { return c.in_fd < 0; }),
                conns.end());
    if (endpoints.pipe && conns.empty()) {
      break;  // pipe mode ends with its one connection
    }

    pfds.clear();
    owner_of_pfd.clear();
    for (std::size_t i = 0; i < listeners.size(); ++i) {
      if (listeners[i].fd >= 0) {
        pfds.push_back({listeners[i].fd, POLLIN, 0});
        owner_of_pfd.push_back(i);
      }
    }
    const std::size_t first_conn_pfd = pfds.size();
    for (std::size_t i = 0; i < conns.size(); ++i) {
      // A connection that stopped reading only lingers to flush what
      // it is owed.
      const Connection& c = conns[i];
      const short in = c.reading ? POLLIN : 0;
      const short out = c.pending_out() > 0 ? POLLOUT : 0;
      if (c.in_fd == c.out_fd) {
        pfds.push_back({c.in_fd, static_cast<short>(in | out), 0});
        owner_of_pfd.push_back(i);
        continue;
      }
      if (in != 0) {
        pfds.push_back({c.in_fd, in, 0});
        owner_of_pfd.push_back(i);
      }
      if (out != 0) {
        pfds.push_back({c.out_fd, out, 0});
        owner_of_pfd.push_back(i);
      }
    }
    const int rc = ::poll(pfds.data(), pfds.size(), kPollTimeoutMs);
    if (rc < 0 && errno != EINTR) {
      exit_code = 1;
      break;
    }
    if (rc <= 0) {
      continue;
    }

    for (std::size_t pi = 0; pi < first_conn_pfd; ++pi) {
      if ((pfds[pi].revents & POLLIN) != 0) {
        // EAGAIN is normal here (nonblocking listener, advisory
        // POLLIN); the connection will be re-reported if still queued.
        const StreamListener& l = listeners[owner_of_pfd[pi]];
        const int client = ::accept4(l.fd, nullptr, nullptr, kSockFlags);
        if (client >= 0) {
          conns.emplace_back(next_id++, client, client, true,
                             l.protocol(options.max_frame_bytes));
        }
      }
    }
    for (std::size_t pi = first_conn_pfd; pi < pfds.size(); ++pi) {
      const short revents = pfds[pi].revents;
      const std::size_t slot = owner_of_pfd[pi];
      Connection& c = conns[slot];
      if (revents == 0 || c.in_fd < 0) {
        continue;
      }
      if ((revents & (POLLERR | POLLNVAL)) != 0) {
        close_conn(c, true);  // a dead fd must not busy-spin the poll loop
        continue;
      }
      if ((revents & POLLOUT) != 0 && !flush_conn(c)) {
        continue;
      }
      if (!c.reading) {
        if ((revents & POLLHUP) != 0) {
          close_conn(c, true);  // the peer left before taking its answers
        }
        continue;
      }
      if (pfds[pi].fd != c.in_fd || (revents & (POLLIN | POLLHUP)) == 0) {
        continue;
      }
      char buf[64 << 10];
      const ssize_t n = ::read(c.in_fd, buf, sizeof buf);
      if (n == 0) {
        c.reading = false;  // half-close: answer what was sent, then close
        continue;
      }
      if (n < 0) {
        if (errno != EINTR && errno != EAGAIN && errno != EWOULDBLOCK) {
          close_conn(c, true);
        }
        continue;
      }
      ConnProtocol::Output out;
      c.proto->on_bytes(std::string_view(buf, static_cast<std::size_t>(n)),
                        &out);
      for (ConnProtocol::Inbound& in : out.requests) {
        if (in.raw) {
          queue_raw(c, slot, std::move(in.body), in.tag);
          continue;
        }
        const std::string why = refusal(c);
        if (why.empty()) {
          queue.push_back(PendingRequest{std::move(in.body), now_ms(), slot,
                                         c.id, in.tag, false});
          ++c.inflight;
          health->admitted_total.fetch_add(1, std::memory_order_relaxed);
          health->queue_depth.store(queue.size(), std::memory_order_relaxed);
          continue;
        }
        health->shed_total.fetch_add(1, std::memory_order_relaxed);
        bool close_after = false;
        std::string wire = c.proto->encode_shed(
            in, shed_body(in.body, why, queue.size(), options.batch_max),
            &close_after);
        queue_raw(c, slot, std::move(wire), in.tag);
        if (close_after) {
          c.reading = false;
        }
      }
      if (out.close) {
        metrics::counter("service.errors").inc();
        c.reading = false;
      }
    }
  }

  // Drain contract: in-flight requests were answered above, but their
  // frames may still sit in write buffers. Give slow readers a bounded
  // grace window before tearing the sockets down.
  const std::uint64_t flush_deadline = now_ms() + kDrainFlushMs;
  while (now_ms() < flush_deadline) {
    pfds.clear();
    owner_of_pfd.clear();
    for (std::size_t i = 0; i < conns.size(); ++i) {
      if (conns[i].in_fd >= 0 && conns[i].pending_out() > 0) {
        pfds.push_back({conns[i].out_fd, POLLOUT, 0});
        owner_of_pfd.push_back(i);
      }
    }
    if (pfds.empty()) {
      break;
    }
    if (::poll(pfds.data(), pfds.size(), kPollTimeoutMs) < 0 &&
        errno != EINTR) {
      break;
    }
    for (std::size_t pi = 0; pi < pfds.size(); ++pi) {
      Connection& c = conns[owner_of_pfd[pi]];
      if ((pfds[pi].revents & (POLLERR | POLLNVAL | POLLHUP)) != 0) {
        close_conn(c, true);
      } else if ((pfds[pi].revents & POLLOUT) != 0) {
        flush_conn(c);
      }
    }
  }

  for (Connection& c : conns) {
    close_conn(c, false);
  }
  close_listeners();
  return exit_code;
}

}  // namespace shlcp::svc
