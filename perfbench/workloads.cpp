#include "workloads.h"

#include <array>
#include <numeric>
#include <stdexcept>

#include "graph/algorithms.h"
#include "graph/generators.h"
#include "interactive/commit.h"
#include "interactive/protocol.h"
#include "nbhd/checkpoint.h"
#include "service/cache.h"
#include "service/proto.h"
#include "service/service.h"
#include "sim/faults.h"
#include "util/format.h"
#include "util/rng.h"

namespace perfbench {

using shlcp::Json;
using shlcp::mix64;

namespace {

// Domain tags keep the hot key sets, the cold stream and the slot
// permutations of one seed independent of each other.
constexpr std::uint64_t kDomHot = 0x7065726662686f74ULL;
constexpr std::uint64_t kDomCold = 0x70657266636f6c64ULL;
constexpr std::uint64_t kDomSlots = 0x706572667370726dULL;
constexpr std::uint64_t kDomPick = 0x706572667069636bULL;

// check_coloring: a 12-node path plus chords. The chord set is the bit
// pattern of a bijection of the index over 2^kChordBits, so distinct
// indexes give distinct graphs.
constexpr int kColoringNodes = 12;
constexpr int kChordBits = 24;
constexpr std::uint64_t kChordMask = (1ULL << kChordBits) - 1;

// run_decoder: the honest (lcp, pool instance) pairs shlcp_loadgen uses.
constexpr std::array<std::pair<const char*, const char*>, 8> kDecoderCombos = {{
    {"degree-one", "path5"},    {"degree-one", "star5"},
    {"degree-one", "path6"},    {"spanning-bfs", "path6"},
    {"spanning-bfs", "cycle6"}, {"spanning-bfs", "grid23"},
    {"even-cycle", "cycle6"},   {"even-cycle", "cycle8"},
}};

// build_nbhd: sets of 1..kMaxSpecs graphs from a pool without aliases
// (no two specs name the same graph), under one of four LCPs.
constexpr std::array<const char*, 4> kBuildLcps = {
    "degree-one", "spanning-bfs", "even-cycle", "revealing-2-col"};
constexpr std::array<const char*, 36> kSpecPool = {
    "path:1",    "path:2",    "path:3",    "path:4",    "path:5",
    "path:6",    "path:7",    "path:8",    "path:9",    "path:10",
    "cycle:3",   "cycle:4",   "cycle:5",   "cycle:6",   "cycle:7",
    "cycle:8",   "cycle:9",   "cycle:10",  "star:3",    "star:4",
    "star:5",    "star:6",    "star:7",    "star:8",    "star:9",
    "star:10",   "complete:4", "complete:5", "grid:2x3", "grid:2x4",
    "grid:2x5",  "grid:2x6",  "grid:2x7",  "grid:3x3",  "grid:3x4",
    "grid:4x4"};
constexpr int kMaxSpecs = 4;

// search_witness: the two inputs shlcp_loadgen's generator table
// sends (its max_n = 5 variant is never drawn).
constexpr std::array<std::pair<const char*, int>, 2> kWitnessKeys = {{
    {"degree-one", 4}, {"even-cycle", 4}}};

std::uint64_t binom(int n, int k) {
  if (k < 0 || k > n) {
    return 0;
  }
  std::uint64_t r = 1;
  for (int i = 1; i <= k; ++i) {
    r = r * static_cast<std::uint64_t>(n - k + i) / static_cast<std::uint64_t>(i);
  }
  return r;
}

/// The rank-th k-subset of {0..n-1} in lexicographic order.
std::vector<int> unrank_subset(int n, int k, std::uint64_t rank) {
  std::vector<int> out;
  int next = 0;
  for (int left = k; left > 0; --left) {
    for (;; ++next) {
      const std::uint64_t with = binom(n - next - 1, left - 1);
      if (rank < with) {
        break;
      }
      rank -= with;
    }
    out.push_back(next++);
  }
  return out;
}

/// Bijection of [0, 2^kChordBits) keyed by `domain`.
std::uint64_t permute_bits(std::uint64_t x, std::uint64_t domain) {
  x = (x + domain) & kChordMask;
  x = (x * 0x9E3779B1ULL) & kChordMask;  // odd multiplier: bijective
  x ^= x >> 11;
  x = (x * (mix64(domain) | 1)) & kChordMask;
  x ^= x >> 13;
  return x;
}

std::vector<std::pair<int, int>> chord_candidates(std::uint64_t domain) {
  std::vector<std::pair<int, int>> all;
  for (int u = 0; u < kColoringNodes; ++u) {
    for (int v = u + 2; v < kColoringNodes; ++v) {
      all.emplace_back(u, v);
    }
  }
  shlcp::Rng rng(mix64(domain ^ 0xC40AD5ULL));
  for (std::size_t i = all.size() - 1; i > 0; --i) {
    std::swap(all[i], all[rng.next_below(i + 1)]);
  }
  all.resize(kChordBits);
  return all;
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  if (name == "hot_keys") return Workload::kHotKeys;
  if (name == "cold_keys") return Workload::kColdKeys;
  if (name == "routed_fleet") return Workload::kRoutedFleet;
  if (name == "sessions") return Workload::kSessions;
  return std::nullopt;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kHotKeys: return "hot_keys";
    case Workload::kColdKeys: return "cold_keys";
    case Workload::kRoutedFleet: return "routed_fleet";
    case Workload::kSessions: return "sessions";
  }
  return "?";
}

OpSchedule::OpSchedule(std::vector<std::string> ops, std::vector<int> slots,
                       std::uint64_t seed)
    : ops_(std::move(ops)), slots_(std::move(slots)), seed_(seed) {
  if (ops_.size() != slots_.size() ||
      std::accumulate(slots_.begin(), slots_.end(), 0) != kBlock) {
    throw std::invalid_argument("op shares must fill one block exactly");
  }
  for (std::size_t k = 0; k < slots_.size(); ++k) {
    layout_.insert(layout_.end(), static_cast<std::size_t>(slots_[k]),
                   static_cast<int>(k));
  }
}

std::pair<int, std::uint64_t> OpSchedule::at(std::uint64_t i) const {
  const std::uint64_t block = i / kBlock;
  const int slot = static_cast<int>(i % kBlock);
  std::vector<int> order = layout_;
  shlcp::Rng rng = shlcp::Rng::stream(seed_, kDomSlots, block);
  for (std::size_t s = order.size() - 1; s > 0; --s) {
    std::swap(order[s], order[rng.next_below(s + 1)]);
  }
  const int op = order[static_cast<std::size_t>(slot)];
  std::uint64_t rank = 0;
  for (int s = 0; s < slot; ++s) {
    rank += order[static_cast<std::size_t>(s)] == op ? 1 : 0;
  }
  return {op, block * static_cast<std::uint64_t>(slots_[static_cast<std::size_t>(op)]) + rank};
}

namespace {

// Op shares are shlcp_loadgen's: its default mix draws the four ops
// uniformly. cold_keys leaves search_witness out and splits a block as
// evenly as 20 slots allow.
OpSchedule schedule_for(Workload w, std::uint64_t seed) {
  if (w == Workload::kColdKeys) {
    return OpSchedule({"run_decoder", "check_coloring", "build_nbhd"},
                      {7, 7, 6}, seed);
  }
  return OpSchedule(
      {"run_decoder", "check_coloring", "build_nbhd", "search_witness"},
      {5, 5, 5, 5}, seed);
}

Request generate(const std::string& op, std::uint64_t domain,
                 std::uint64_t index) {
  if (op == "run_decoder") return decoder_request(domain, index);
  if (op == "check_coloring") return coloring_request(domain, index);
  if (op == "build_nbhd") return build_request(domain, index);
  return witness_request(index);
}

}  // namespace

RequestStream::RequestStream(Workload w, std::uint64_t seed)
    : workload_(w), seed_(seed), schedule_(schedule_for(w, seed)) {
  if (w == Workload::kSessions) {
    throw std::invalid_argument("sessions has no stateless request stream");
  }
  if (w == Workload::kColdKeys) {
    return;
  }
  // Distinct keys per op; search_witness has only its two inputs.
  const std::vector<std::size_t> counts =
      w == Workload::kHotKeys ? std::vector<std::size_t>{10, 10, 10, 2}
                              : std::vector<std::size_t>{85, 85, 84, 2};
  const std::uint64_t domain = mix64(seed ^ kDomHot);
  keys_by_op_.resize(counts.size());
  for (std::size_t op = 0; op < counts.size(); ++op) {
    for (std::size_t j = 0; j < counts[op]; ++j) {
      keys_by_op_[op].push_back(keys_.size());
      keys_.push_back(generate(schedule_.ops()[op], domain, j));
    }
  }
}

Request RequestStream::at(std::uint64_t i) const {
  const auto [op, ordinal] = schedule_.at(i);
  if (workload_ == Workload::kColdKeys) {
    return generate(schedule_.ops()[static_cast<std::size_t>(op)],
                    mix64(seed_ ^ kDomCold), ordinal);
  }
  const std::vector<std::size_t>& pool =
      keys_by_op_[static_cast<std::size_t>(op)];
  const std::uint64_t pick =
      shlcp::Rng::stream(seed_, kDomPick, i).next_below(pool.size());
  return keys_[pool[pick]];
}

Request coloring_request(std::uint64_t domain, std::uint64_t index) {
  if (index > kChordMask) {
    throw std::out_of_range("coloring_request: index past the key space");
  }
  const std::vector<std::pair<int, int>> chords = chord_candidates(domain);
  const std::uint64_t bits = permute_bits(index, domain);
  shlcp::Graph g(kColoringNodes);
  for (int v = 0; v + 1 < kColoringNodes; ++v) {
    g.add_edge(v, v + 1);
  }
  for (int b = 0; b < kChordBits; ++b) {
    if ((bits >> b) & 1) {
      g.add_edge(chords[static_cast<std::size_t>(b)].first,
                 chords[static_cast<std::size_t>(b)].second);
    }
  }
  Request r{"check_coloring", Json::object()};
  r.params["graph"] = shlcp::svc::graph_to_json(g);
  r.params["k"] = 3;
  return r;
}

Request decoder_request(std::uint64_t domain, std::uint64_t index) {
  const auto& [lcp, inst] = kDecoderCombos[index % kDecoderCombos.size()];
  shlcp::FaultPlan plan;
  plan.label = "drop-light";
  plan.seed = mix64(domain + index);  // mix64 is a bijection
  plan.drop_permille = 100;
  Request r{"run_decoder", Json::object()};
  r.params["lcp"] = lcp;
  r.params["instance"] = inst;
  r.params["labels"] = "honest";
  r.params["plan"] = plan.describe();
  return r;
}

Request build_request(std::uint64_t domain, std::uint64_t index) {
  std::uint64_t subsets = 0;
  for (int k = 1; k <= kMaxSpecs; ++k) {
    subsets += binom(static_cast<int>(kSpecPool.size()), k);
  }
  if (index >= subsets * kBuildLcps.size()) {
    throw std::out_of_range("build_request: index past the key space");
  }
  // Seeded bijection of the subset ranks: a multiplier coprime to
  // their count, plus an offset.
  std::uint64_t mult = mix64(domain) % subsets | 1;
  while (std::gcd(mult, subsets) != 1) {
    mult += 2;
  }
  std::uint64_t rank = static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(index / kBuildLcps.size()) * mult +
       mix64(domain ^ 0x0FF5E7ULL)) %
      subsets);
  const int n = static_cast<int>(kSpecPool.size());
  int size = 1;
  while (rank >= binom(n, size)) {
    rank -= binom(n, size);
    ++size;
  }
  Request r{"build_nbhd", Json::object()};
  r.params["lcp"] = kBuildLcps[index % kBuildLcps.size()];
  Json& graphs = (r.params["graphs"] = Json::array());
  for (const int s : unrank_subset(n, size, rank)) {
    graphs.push_back(kSpecPool[static_cast<std::size_t>(s)]);
  }
  r.params["build"] = "proved";
  return r;
}

Request witness_request(std::uint64_t index) {
  const auto& [family, max_n] = kWitnessKeys[index % kWitnessKeys.size()];
  Request r{"search_witness", Json::object()};
  r.params["family"] = family;
  r.params["max_n"] = max_n;
  return r;
}

SessionPlan session_plan(std::uint64_t seed, std::uint64_t index) {
  SessionPlan plan;
  plan.id = shlcp::format("pb%llu-%llu", static_cast<unsigned long long>(seed),
                          static_cast<unsigned long long>(index));
  // The wire carries signed ints; keep the seed in the int63 range.
  plan.seed = mix64(seed ^ (index * 0x9E3779B97F4A7C15ULL)) >> 1;
  plan.prover_seed = mix64(seed + index);
  return plan;
}

Json session_open_params(const SessionPlan& plan) {
  Json params = Json::object();
  params["session"] = plan.id;
  params["instance"] = "cycle6";
  params["k"] = 2;
  params["rounds"] = SessionPlan::kRounds;
  params["seed"] = static_cast<std::int64_t>(plan.seed);
  return params;
}

const std::vector<int>& session_coloring() {
  static const std::vector<int> coloring =
      *shlcp::k_coloring(shlcp::make_cycle(6), 2);
  return coloring;
}

Json commit_step_params(const SessionPlan& plan,
                        shlcp::ia::CommitProver& prover) {
  Json msg = Json::object();
  msg["type"] = "commit";
  Json& commitments = (msg["commitments"] = Json::array());
  for (const std::uint64_t c : prover.commit_round()) {
    commitments.push_back(shlcp::ia::hex16(c));
  }
  Json params = Json::object();
  params["session"] = plan.id;
  params["msg"] = std::move(msg);
  return params;
}

Json reveal_step_params(const SessionPlan& plan,
                        const shlcp::ia::CommitProver& prover,
                        const Json& challenge) {
  Json msg = Json::object();
  msg["type"] = "open";
  Json& opens = (msg["opens"] = Json::array());
  for (std::size_t e = 0; e < 2; ++e) {
    const shlcp::ia::Opening o =
        prover.open(static_cast<int>(challenge.at(e).as_int()));
    Json& entry = opens.push_back(Json::array());
    entry.push_back(o.node);
    entry.push_back(o.color);
    entry.push_back(shlcp::ia::hex16(o.nonce));
  }
  Json params = Json::object();
  params["session"] = plan.id;
  params["msg"] = std::move(msg);
  return params;
}

std::string envelope(const Request& r, std::uint64_t id) {
  Json j = Json::object();
  j["id"] = shlcp::format("c%llu", static_cast<unsigned long long>(id));
  j["op"] = r.op;
  j["params"] = r.params;
  j["check"] = shlcp::fnv1a_hex(shlcp::svc::artifact_key(r.op, r.params));
  return j.dump();
}

bool matches_oracle(shlcp::svc::Service& oracle, const Request& r,
                    const std::string& result_dump) {
  Json request = Json::object();
  request["id"] = 0;
  request["op"] = r.op;
  request["params"] = r.params;
  const Json response = oracle.handle(request);
  return response.at("ok").as_bool() &&
         response.at("result").dump() == result_dump;
}

}  // namespace perfbench
