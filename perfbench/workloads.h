// Request generation of the serving benchmark.
//
// Everything a server receives is derived from (workload, seed, index),
// so a seed replays the exact same request stream. Op shares are fixed
// by the workload, not by the seed: requests come in blocks of
// OpSchedule::kBlock slots holding each op's share exactly, and the
// seed only permutes the slots inside a block. A run of any length
// therefore realizes each share to within one block.
//
// Keys are real inputs, never padding: a check_coloring key is an
// inline graph, a run_decoder key a seeded fault plan, a build_nbhd key
// a set of graph specs. Each generator is injective in its index (see
// workloads.cpp), so cold_keys sends only distinct keys and its cache
// hit ratio is exactly 0. hot_keys and routed_fleet draw the same kinds
// of request from a small fixed key set that setup pre-warms.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/json.h"

namespace shlcp::svc {
class Service;
}
namespace shlcp::ia {
class CommitProver;
}

namespace perfbench {

enum class Workload { kHotKeys, kColdKeys, kRoutedFleet, kSessions };

std::optional<Workload> parse_workload(std::string_view name);
const char* workload_name(Workload w);

/// One stateless request.
struct Request {
  std::string op;
  shlcp::Json params;
};

/// Fixed per-op request shares, permuted per block by the seed.
class OpSchedule {
 public:
  static constexpr int kBlock = 20;

  /// `slots[k]` = slots per block of op k; must sum to kBlock.
  OpSchedule(std::vector<std::string> ops, std::vector<int> slots,
             std::uint64_t seed);

  /// Op index of request i, and its ordinal among that op's requests
  /// (0, 1, 2, ... in stream order).
  [[nodiscard]] std::pair<int, std::uint64_t> at(std::uint64_t i) const;

  [[nodiscard]] const std::vector<std::string>& ops() const { return ops_; }

 private:
  std::vector<std::string> ops_;
  std::vector<int> slots_;
  std::vector<int> layout_;  // op index per unpermuted slot
  std::uint64_t seed_;
};

/// The stateless request stream of hot_keys, cold_keys and routed_fleet.
class RequestStream {
 public:
  RequestStream(Workload w, std::uint64_t seed);

  /// Request i of the stream.
  [[nodiscard]] Request at(std::uint64_t i) const;

  /// The distinct keys hot_keys / routed_fleet requests are drawn from
  /// (empty for cold_keys). Setup sends each once to fill the cache.
  [[nodiscard]] const std::vector<Request>& hot_keys() const { return keys_; }

 private:
  Workload workload_;
  std::uint64_t seed_;
  OpSchedule schedule_;
  std::vector<Request> keys_;
  std::vector<std::vector<std::size_t>> keys_by_op_;  // indexes into keys_
};

/// Distinct-input generators (injective in `index` for a fixed domain).
Request coloring_request(std::uint64_t domain, std::uint64_t index);
Request decoder_request(std::uint64_t domain, std::uint64_t index);
Request build_request(std::uint64_t domain, std::uint64_t index);
/// shlcp_loadgen's search_witness inputs (index modulo their number).
Request witness_request(std::uint64_t index);

/// Honest commit-reveal sessions of the sessions workload.
struct SessionPlan {
  static constexpr int kRounds = 4;
  std::string id;            // outside the reserved c<digits> namespace
  std::uint64_t seed = 0;    // session_open "seed" param
  std::uint64_t prover_seed = 0;
};
SessionPlan session_plan(std::uint64_t seed, std::uint64_t index);
/// session_open params of a plan (pool instance cycle6, k = 2).
shlcp::Json session_open_params(const SessionPlan& plan);
/// The proper 2-coloring the honest prover commits to.
const std::vector<int>& session_coloring();
/// session_step params: the prover's next round of commitments.
shlcp::Json commit_step_params(const SessionPlan& plan,
                               shlcp::ia::CommitProver& prover);
/// session_step params: the openings of the challenged edge.
shlcp::Json reveal_step_params(const SessionPlan& plan,
                               const shlcp::ia::CommitProver& prover,
                               const shlcp::Json& challenge);

/// Wire envelope as the client sends it (id, op, params, check), for
/// the ladder's codec measurements.
std::string envelope(const Request& r, std::uint64_t id);

/// True when `result_dump` is byte-identical to the oracle's answer.
bool matches_oracle(shlcp::svc::Service& oracle, const Request& r,
                    const std::string& result_dump);

}  // namespace perfbench
