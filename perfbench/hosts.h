// Hosting of the servers under test.
//
// Untraced runs launch the deployed binaries (shlcpd, or shlcp_router
// supervising its own shlcpd fleet) as child processes on loopback TCP,
// with every worker count pinned on the command line. Traced runs and
// the layer ladder host the same Service / Router in the driver
// process, behind TracingDispatcher, so spans can be recorded around
// each handle_text; the traced run's overhead ratio compares that
// hosting with recording on and off.

#pragma once

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "service/router.h"
#include "service/server.h"
#include "service/service.h"
#include "tracing.h"
#include "util/budget.h"
#include "workloads.h"

namespace perfbench {

/// Worker counts and cache budget pinned for every server (recorded
/// with each result). The driver runs at most nproc (4) load threads,
/// one connection each; the closed loop pipelines kClosedDepth requests
/// on each, so the server always has full batches queued. The cache
/// budget is small enough that cold_keys fills it during the warm-up
/// and then evicts, so its memory plateaus instead of growing with the
/// number of requests served.
struct Pinning {
  static constexpr int kClosedLoadThreads = 4;
  static constexpr int kClosedDepth = 64;  // requests in flight per connection
  static constexpr int kOpenLoadThreads = 4;
  static constexpr int kShlcpdThreads = 2;
  static constexpr int kRouterThreads = 2;
  static constexpr int kBackends = 2;
  static constexpr int kBackendThreads = 1;
  static constexpr std::size_t kCacheBytes = 4u << 20;
};

/// CPU time (user + sys) and peak RSS of a process, from /proc.
struct ProcUsage {
  double cpu_s = 0;
  double hwm_mb = 0;
};
bool read_proc_usage(pid_t pid, ProcUsage* out);
/// CPU time of the calling thread.
double thread_cpu_s();

/// The machine's CPU time from the first line of /proc/stat, in clock
/// ticks: all of it, the idle part, and the part the hypervisor stole
/// (time a vCPU was runnable but not running).
struct HostClock {
  std::uint64_t total = 0;
  std::uint64_t idle = 0;
  std::uint64_t steal = 0;
};
HostClock read_host_clock();
/// Share of the machine's CPU time stolen between `from` and `to`.
double steal_share(const HostClock& from, const HostClock& to);
/// Share of the machine's CPU time not idle between `from` and `to`.
double busy_share(const HostClock& from, const HostClock& to);

/// A child process, stopped with SIGINT (then SIGKILL) and reaped on
/// destruction.
class ChildProcess {
 public:
  ChildProcess(const std::vector<std::string>& argv, const std::string& cwd,
               const std::string& log_path);
  ~ChildProcess();
  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;

  [[nodiscard]] pid_t pid() const { return pid_; }
  [[nodiscard]] bool exited();
  /// SIGINT, wait up to `grace_ms`, then SIGKILL; returns the exit
  /// status (or -1 when it had to be killed).
  int stop(int grace_ms = 10'000);

 private:
  pid_t pid_ = -1;
  bool reaped_ = false;
  int status_ = 0;
};

/// The deployed server of one workload, launched and ready.
class DeployedServer {
 public:
  /// Launches shlcpd (direct workloads) or shlcp_router --spawn
  /// (routed_fleet) from `bin_dir`, working in `run_dir/<tag>`, and
  /// waits until it listens and answers. Throws std::runtime_error.
  DeployedServer(Workload w, const std::string& bin_dir,
                 const std::string& run_dir, const std::string& tag);
  ~DeployedServer();

  [[nodiscard]] const std::string& target() const { return target_; }
  /// Every server process: shlcpd, or the router and its backends.
  [[nodiscard]] const std::vector<pid_t>& pids() const { return pids_; }
  /// Launch until the listener answered a `health` call.
  [[nodiscard]] double ready_s() const { return ready_s_; }
  /// Stops every process; true when all exited cleanly.
  bool stop();

 private:
  std::unique_ptr<ChildProcess> child_;
  std::string target_;
  std::vector<pid_t> pids_;
  double ready_s_ = 0;
};

/// A transport loop (TCP or HTTP) serving `dispatcher` on a thread of
/// this process.
class InProcessServer {
 public:
  InProcessServer(shlcp::svc::Dispatcher& dispatcher, int threads,
                  bool http = false);
  ~InProcessServer();
  InProcessServer(const InProcessServer&) = delete;
  InProcessServer& operator=(const InProcessServer&) = delete;

  [[nodiscard]] int port() const { return port_.load(); }
  [[nodiscard]] std::string target() const;
  [[nodiscard]] const shlcp::svc::HealthState& health() const {
    return health_;
  }

 private:
  shlcp::svc::HealthState health_;
  shlcp::CancelToken cancel_;
  std::atomic<int> port_{0};
  std::thread thread_;
};

/// The traced hosting of one workload's topology: a Service (direct)
/// or a Router over kBackends Services (routed), every dispatcher
/// wrapped in TracingDispatcher, all served over loopback TCP.
class TracedTopology {
 public:
  explicit TracedTopology(Workload w);

  [[nodiscard]] std::string target() const { return front_->target(); }
  [[nodiscard]] std::uint64_t shed_total() const;
  /// Sum of cache stats over every Service.
  [[nodiscard]] shlcp::svc::CacheStats cache_stats() const;
  [[nodiscard]] shlcp::svc::Router* router() { return router_.get(); }
  [[nodiscard]] shlcp::svc::Service& service(std::size_t i) {
    return *services_[i];
  }

 private:
  // Declaration order is teardown order in reverse: the front server
  // stops first, so nothing forwards into a backend being torn down.
  std::vector<std::unique_ptr<shlcp::svc::Service>> services_;
  std::vector<std::unique_ptr<TracingDispatcher>> wrappers_;
  std::vector<std::unique_ptr<InProcessServer>> backends_;
  std::unique_ptr<shlcp::svc::Router> router_;
  std::unique_ptr<InProcessServer> front_;
};

}  // namespace perfbench
