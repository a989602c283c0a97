#include "hosts.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "service/client.h"
#include "service/http.h"
#include "util/format.h"

namespace perfbench {

using shlcp::Json;
namespace svc = shlcp::svc;

bool read_proc_usage(pid_t pid, ProcUsage* out) {
  std::ifstream stat("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!std::getline(stat, line)) {
    return false;
  }
  // Fields after the parenthesized command name; utime and stime are
  // fields 14 and 15 of the whole line.
  const std::size_t close = line.rfind(')');
  if (close == std::string::npos) {
    return false;
  }
  std::istringstream rest(line.substr(close + 2));
  std::string field;
  unsigned long long utime = 0;
  unsigned long long stime = 0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14) utime = std::stoull(field);
    if (i == 15) stime = std::stoull(field);
  }
  out->cpu_s = static_cast<double>(utime + stime) /
               static_cast<double>(sysconf(_SC_CLK_TCK));
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      out->hwm_mb = std::stod(line.substr(6)) / 1024.0;
    }
  }
  return true;
}

double thread_cpu_s() {
  timespec ts = {};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

HostClock read_host_clock() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  // user nice system idle iowait irq softirq steal; guest time is
  // already counted in user and nice.
  HostClock clock;
  std::uint64_t ticks = 0;
  for (int field = 1; field <= 8 && stat >> ticks; ++field) {
    clock.total += ticks;
    clock.idle += field == 4 || field == 5 ? ticks : 0;
    clock.steal = field == 8 ? ticks : clock.steal;
  }
  return clock;
}

double steal_share(const HostClock& from, const HostClock& to) {
  const std::uint64_t total = to.total - from.total;
  return total == 0 ? 0
                    : static_cast<double>(to.steal - from.steal) /
                          static_cast<double>(total);
}

double busy_share(const HostClock& from, const HostClock& to) {
  const std::uint64_t total = to.total - from.total;
  return total == 0 ? 0
                    : 1 - static_cast<double>(to.idle - from.idle) /
                              static_cast<double>(total);
}

ChildProcess::ChildProcess(const std::vector<std::string>& argv,
                           const std::string& cwd,
                           const std::string& log_path) {
  std::vector<char*> args;
  for (const std::string& a : argv) {
    args.push_back(const_cast<char*>(a.c_str()));
  }
  args.push_back(nullptr);
  pid_ = fork();
  if (pid_ < 0) {
    throw std::runtime_error(std::string("fork: ") + std::strerror(errno));
  }
  if (pid_ == 0) {
    // A driver that dies must not leave servers behind.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    const int log = open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (log >= 0) {
      dup2(log, 1);
      dup2(log, 2);
    }
    if (chdir(cwd.c_str()) != 0) {
      _exit(126);
    }
    execv(args[0], args.data());
    _exit(127);
  }
}

ChildProcess::~ChildProcess() { stop(); }

bool ChildProcess::exited() {
  if (!reaped_ && pid_ > 0 && waitpid(pid_, &status_, WNOHANG) == pid_) {
    reaped_ = true;
  }
  return reaped_;
}

int ChildProcess::stop(int grace_ms) {
  if (pid_ <= 0) {
    return -1;
  }
  if (!exited()) {
    kill(pid_, SIGINT);
    for (int waited = 0; waited < grace_ms && !exited(); waited += 2) {
      usleep(2000);
    }
    if (!exited()) {
      kill(pid_, SIGKILL);
      waitpid(pid_, &status_, 0);
      reaped_ = true;
      return -1;
    }
  }
  return WIFEXITED(status_) ? WEXITSTATUS(status_) : -1;
}

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// The "tcp" port from a --port-file, once it has been published.
int read_port_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  if (text.str().empty()) {
    return 0;
  }
  try {
    const Json doc = Json::parse(text.str());
    return doc.contains("tcp") ? static_cast<int>(doc.at("tcp").as_int()) : 0;
  } catch (const std::exception&) {
    return 0;  // partially written
  }
}

}  // namespace

DeployedServer::DeployedServer(Workload w, const std::string& bin_dir,
                               const std::string& run_dir,
                               const std::string& tag) {
  const std::string dir = run_dir + "/" + tag;
  mkdir(dir.c_str(), 0755);
  const std::string cache_bytes = std::to_string(Pinning::kCacheBytes);
  std::vector<std::string> argv;
  if (w == Workload::kRoutedFleet) {
    argv = {bin_dir + "/shlcp_router",
            "--spawn", std::to_string(Pinning::kBackends),
            "--spawn-dir", "fleet",
            "--shlcpd", bin_dir + "/shlcpd",
            "--backend-threads", std::to_string(Pinning::kBackendThreads),
            "--backend-cache-bytes", cache_bytes,
            "--threads", std::to_string(Pinning::kRouterThreads)};
  } else {
    argv = {bin_dir + "/shlcpd",
            "--threads", std::to_string(Pinning::kShlcpdThreads),
            "--cache-bytes", cache_bytes};
  }
  argv.insert(argv.end(), {"--tcp", "127.0.0.1:0", "--port-file", "port.json"});

  const auto t0 = std::chrono::steady_clock::now();
  child_ = std::make_unique<ChildProcess>(argv, dir, dir + "/server.log");
  int port = 0;
  while ((port = read_port_file(dir + "/port.json")) == 0) {
    if (child_->exited() || seconds_since(t0) > 60) {
      throw std::runtime_error("server in " + dir + " never became ready");
    }
    usleep(1000);
  }
  target_ = "tcp:127.0.0.1:" + std::to_string(port);
  svc::Client client(svc::Client::connector_for(target_, {}), {});
  const svc::CallResult health = client.call("health", Json::object());
  if (!health.ok) {
    throw std::runtime_error("server in " + dir + " failed its health call");
  }
  ready_s_ = seconds_since(t0);
  pids_.push_back(child_->pid());
  const Json result = Json::parse(health.result_dump);
  if (result.contains("backends")) {
    for (const Json& b : result.at("backends").items()) {
      pids_.push_back(static_cast<pid_t>(b.at("pid").as_int()));
    }
  }
}

DeployedServer::~DeployedServer() { stop(); }

bool DeployedServer::stop() {
  return child_ == nullptr || child_->stop() == 0;
}

InProcessServer::InProcessServer(svc::Dispatcher& dispatcher, int threads,
                                 bool http) {
  svc::ServerOptions options;
  options.dispatcher = &dispatcher;
  options.health = &health_;
  options.num_threads = threads;
  options.bound_port = &port_;
  options.cancel = &cancel_;
  thread_ = std::thread([options, http] {
    if (http) {
      svc::serve_http("127.0.0.1", 0, options);
    } else {
      svc::serve_tcp("127.0.0.1", 0, options);
    }
  });
  const auto t0 = std::chrono::steady_clock::now();
  while (port_.load() == 0) {
    if (seconds_since(t0) > 10) {
      cancel_.request_stop(shlcp::StopReason::kCancelRequested);
      thread_.join();
      throw std::runtime_error("in-process server never bound a port");
    }
    usleep(200);
  }
}

InProcessServer::~InProcessServer() {
  cancel_.request_stop(shlcp::StopReason::kCancelRequested);
  thread_.join();
}

std::string InProcessServer::target() const {
  return "tcp:127.0.0.1:" + std::to_string(port());
}

TracedTopology::TracedTopology(Workload w) {
  const bool routed = w == Workload::kRoutedFleet;
  const int services = routed ? Pinning::kBackends : 1;
  svc::ServiceConfig config;
  config.cache.max_bytes = Pinning::kCacheBytes;
  for (int i = 0; i < services; ++i) {
    services_.push_back(std::make_unique<svc::Service>(config));
    wrappers_.push_back(
        std::make_unique<TracingDispatcher>(*services_.back(), SpanKind::kService));
  }
  if (!routed) {
    front_ = std::make_unique<InProcessServer>(*wrappers_[0],
                                               Pinning::kShlcpdThreads);
    return;
  }
  svc::RouterOptions options;
  for (int i = 0; i < services; ++i) {
    backends_.push_back(std::make_unique<InProcessServer>(
        *wrappers_[static_cast<std::size_t>(i)], Pinning::kBackendThreads));
    options.backends.push_back(
        svc::BackendSpec{shlcp::format("b%d", i), backends_.back()->target()});
  }
  router_ = std::make_unique<svc::Router>(options);
  router_->probe_all();
  wrappers_.push_back(
      std::make_unique<TracingDispatcher>(*router_, SpanKind::kRouter));
  front_ = std::make_unique<InProcessServer>(*wrappers_.back(),
                                             Pinning::kRouterThreads);
}

std::uint64_t TracedTopology::shed_total() const {
  std::uint64_t total = front_->health().shed_total.load();
  for (const auto& b : backends_) {
    total += b->health().shed_total.load();
  }
  return total;
}

svc::CacheStats TracedTopology::cache_stats() const {
  svc::CacheStats sum;
  for (const auto& s : services_) {
    const svc::CacheStats c = s->cache_stats();
    sum.hits += c.hits;
    sum.disk_hits += c.disk_hits;
    sum.misses += c.misses;
    sum.evictions += c.evictions;
    sum.entries += c.entries;
    sum.bytes += c.bytes;
  }
  return sum;
}

}  // namespace perfbench
