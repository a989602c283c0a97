// Shard-router tests: the hash ring's invariants (deterministic
// placement, complete failover orders, minimal movement when a backend
// dies) and the Router end to end over live unix-socket backends
// (bit-identity with a direct Service, disjoint cache sharding,
// reroute on backend death without duplicate or wrong answers, drain,
// verbatim caller errors, fleet-wide aggregation).

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "service/cache.h"
#include "service/router.h"
#include "service/server.h"
#include "service/service.h"
#include "util/json.h"

namespace shlcp::svc {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------
// BackendSpec parsing.

TEST(BackendSpec, ParsesNamedAndBareTargets) {
  BackendSpec spec;
  ASSERT_TRUE(BackendSpec::parse("cache-a=tcp:127.0.0.1:7401", &spec));
  EXPECT_EQ(spec.name, "cache-a");
  EXPECT_EQ(spec.target, "tcp:127.0.0.1:7401");

  ASSERT_TRUE(BackendSpec::parse("unix:/tmp/shlcp.sock", &spec));
  EXPECT_EQ(spec.name, "unix:/tmp/shlcp.sock");  // name defaults to target

  EXPECT_FALSE(BackendSpec::parse("", &spec));
  EXPECT_FALSE(BackendSpec::parse("a=", &spec));
  EXPECT_FALSE(BackendSpec::parse("=tcp:127.0.0.1:1", &spec));
  EXPECT_FALSE(BackendSpec::parse("a=tcp:127.0.0.1:notaport", &spec));
  EXPECT_FALSE(BackendSpec::parse("a=tcp:nohost", &spec));
}

// ---------------------------------------------------------------------
// HashRing invariants.

TEST(HashRing, PlacementIsDeterministicAndCoversEveryBackend) {
  const std::vector<std::string> names = {"a", "b", "c", "d"};
  const HashRing ring(names, /*vnodes=*/64);
  const HashRing twin(names, /*vnodes=*/64);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t point =
        HashRing::point_of("key-" + std::to_string(i));
    const std::vector<int> pref = ring.preference(point);
    EXPECT_EQ(pref, twin.preference(point));  // same ring, same answer
    // The failover order is a permutation of every backend.
    ASSERT_EQ(pref.size(), names.size());
    EXPECT_EQ(std::set<int>(pref.begin(), pref.end()).size(), names.size());
  }
}

TEST(HashRing, SpreadsKeysAcrossBackends) {
  const HashRing ring({"a", "b", "c"}, /*vnodes=*/64);
  std::vector<int> owned(3, 0);
  const int keys = 600;
  for (int i = 0; i < keys; ++i) {
    const std::uint64_t point =
        HashRing::point_of("spread-key-" + std::to_string(i));
    owned[static_cast<std::size_t>(ring.preference(point).at(0))] += 1;
  }
  // Not a balance guarantee, but with 64 vnodes no backend may own
  // nothing or everything.
  for (int b = 0; b < 3; ++b) {
    EXPECT_GT(owned[static_cast<std::size_t>(b)], 0) << "backend " << b;
    EXPECT_LT(owned[static_cast<std::size_t>(b)], keys) << "backend " << b;
  }
}

TEST(HashRing, DeathMovesOnlyTheDeadBackendsKeys) {
  // Rebalance-on-death is "skip the dead backend in preference order":
  // keys owned by live backends must keep their owner, and a dead
  // backend's keys must land on their *second* preference -- never a
  // reshuffle of the whole space. This is the invariant that keeps the
  // surviving caches warm (DESIGN.md §15).
  const HashRing ring({"a", "b", "c"}, /*vnodes=*/64);
  const int dead = 1;
  for (int i = 0; i < 300; ++i) {
    const std::uint64_t point =
        HashRing::point_of("death-key-" + std::to_string(i));
    const std::vector<int> pref = ring.preference(point);
    std::vector<int> alive_pref;
    for (const int b : pref) {
      if (b != dead) {
        alive_pref.push_back(b);
      }
    }
    if (pref.at(0) != dead) {
      EXPECT_EQ(alive_pref.at(0), pref.at(0));  // live owner keeps its keys
    } else {
      EXPECT_EQ(alive_pref.at(0), pref.at(1));  // dead keys fail over once
    }
  }
}

// ---------------------------------------------------------------------
// Router end to end over live backends.

Json make_request(std::int64_t id, const std::string& op, Json params) {
  Json req = Json::object();
  req["id"] = id;
  req["op"] = op;
  req["params"] = std::move(params);
  return req;
}

Json coloring_params(const std::string& instance, std::int64_t k) {
  Json params = Json::object();
  params["instance"] = instance;
  params["k"] = k;
  return params;
}

/// Two serve_socket backends plus a Router over them; the fixture
/// joins everything down even when a test kills one backend early.
class RouterFleet : public ::testing::Test {
 protected:
  static constexpr int kBackends = 2;

  void SetUp() override {
    for (int b = 0; b < kBackends; ++b) {
      paths_[b] = (fs::path(::testing::TempDir()) /
                   ("shlcp_router_b" + std::to_string(b) + ".sock"))
                      .string();
      options_[b].cancel = &tokens_[b];
      options_[b].num_threads = 2;
      servers_[b] = std::thread([this, b] {
        exit_codes_[b] = serve_socket(paths_[b], options_[b]);
      });
    }
    RouterOptions router_options;
    for (int b = 0; b < kBackends; ++b) {
      BackendSpec spec;
      spec.name = "b" + std::to_string(b);
      spec.target = "unix:" + paths_[b];
      router_options.backends.push_back(std::move(spec));
    }
    // Short client budget: a dead unix socket fails to connect
    // instantly, so rerouting is fast even with retries on.
    router_options.client.timeout_ms = 5000;
    router_options.client.retry.max_attempts = 2;
    router_options.client.retry.base_backoff_ms = 1;
    router_ = std::make_unique<Router>(router_options);
    // Wait for both sockets to accept (probe_all marks them alive).
    for (int i = 0; i < 250; ++i) {
      if (router_->probe_all() == kBackends) {
        return;
      }
      ::usleep(20'000);
    }
    FAIL() << "backends never came up";
  }

  void TearDown() override {
    router_.reset();
    for (int b = 0; b < kBackends; ++b) {
      stop_backend(b);
      EXPECT_EQ(exit_codes_[b], 0);
    }
  }

  void stop_backend(int b) {
    if (!servers_[b].joinable()) {
      return;
    }
    tokens_[b].request_stop(StopReason::kCancelRequested);
    servers_[b].join();
  }

  std::string paths_[kBackends];
  CancelToken tokens_[kBackends];
  ServerOptions options_[kBackends];
  std::thread servers_[kBackends];
  int exit_codes_[kBackends] = {-1, -1};
  std::unique_ptr<Router> router_;
};

TEST_F(RouterFleet, RoutedResponsesAreBitIdenticalToDirectService) {
  Service direct;
  static const char* kInstances[] = {"path5", "cycle5", "cycle6", "grid23",
                                     "star5", "theta222"};
  std::int64_t id = 0;
  for (const char* instance : kInstances) {
    const Json req = make_request(id, "check_coloring",
                                  coloring_params(instance, 2));
    const Json routed = router_->handle(req);
    const Json oracle = direct.handle(req);
    ASSERT_TRUE(routed.at("ok").as_bool()) << routed.dump();
    EXPECT_EQ(routed.at("result").dump(), oracle.at("result").dump())
        << instance;
    EXPECT_EQ(routed.at("id").as_int(), id);  // caller's id restored
    ++id;
  }
}

TEST_F(RouterFleet, ReplayIsACacheHitOnTheOwningBackend) {
  const Json req =
      make_request(7, "check_coloring", coloring_params("cycle6", 2));
  const Json first = router_->handle(req);
  ASSERT_TRUE(first.at("ok").as_bool()) << first.dump();
  EXPECT_FALSE(first.at("cached").as_bool());
  const Json second = router_->handle(req);
  ASSERT_TRUE(second.at("ok").as_bool());
  EXPECT_TRUE(second.at("cached").as_bool());
  EXPECT_EQ(second.at("result").dump(), first.at("result").dump());
}

TEST_F(RouterFleet, CachesShardDisjointly) {
  // Distinct payloads spread over the ring; afterwards the sum of
  // per-backend misses (via the aggregated health) must equal the
  // distinct-key count: every key computed exactly once fleet-wide.
  std::set<std::string> keys;
  std::int64_t id = 0;
  for (const char* instance :
       {"path5", "cycle5", "cycle6", "grid23", "star5"}) {
    for (std::int64_t k = 2; k <= 3; ++k) {
      const Json params = coloring_params(instance, k);
      keys.insert(artifact_key("check_coloring", params));
      for (int repeat = 0; repeat < 2; ++repeat) {  // replays stay owned
        const Json resp =
            router_->handle(make_request(id++, "check_coloring", params));
        ASSERT_TRUE(resp.at("ok").as_bool()) << resp.dump();
      }
    }
  }
  const Json health =
      router_->handle(make_request(0, "health", Json::object()));
  ASSERT_TRUE(health.at("ok").as_bool()) << health.dump();
  std::uint64_t misses = 0;
  for (const Json& b : health.at("result").at("backends").items()) {
    EXPECT_TRUE(b.at("alive").as_bool());
    misses += b.at("health").at("cache").at("misses").as_uint();
  }
  EXPECT_EQ(misses, keys.size());
  std::uint64_t reroutes = 0;
  for (const auto& stats : router_->backend_stats()) {
    reroutes += stats.rerouted;
  }
  EXPECT_EQ(reroutes, 0u);
}

TEST_F(RouterFleet, BackendDeathReroutesWithoutDuplicateOrWrongAnswers) {
  // Find a payload owned by backend 1, prime it, then stop backend 1:
  // the same payload must still be answered (rerouted to backend 0,
  // recomputed there exactly once), and a further replay must hit
  // backend 0's cache -- no duplicate compute per backend, no error
  // surfaced to the caller.
  Json params;
  bool found = false;
  for (const char* instance :
       {"path5", "cycle5", "cycle6", "grid23", "star5", "theta222",
        "complete4", "cycle7"}) {
    params = coloring_params(instance, 2);
    if (router_->preference_for("check_coloring", params).at(0) == 1) {
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found) << "no probe payload hashed onto backend 1";

  const Json primed = router_->handle(make_request(1, "check_coloring",
                                                   params));
  ASSERT_TRUE(primed.at("ok").as_bool()) << primed.dump();

  stop_backend(1);

  const Json rerouted =
      router_->handle(make_request(2, "check_coloring", params));
  ASSERT_TRUE(rerouted.at("ok").as_bool()) << rerouted.dump();
  EXPECT_FALSE(rerouted.at("cached").as_bool());  // recomputed on b0
  EXPECT_EQ(rerouted.at("result").dump(), primed.at("result").dump());

  const Json replay =
      router_->handle(make_request(3, "check_coloring", params));
  ASSERT_TRUE(replay.at("ok").as_bool());
  EXPECT_TRUE(replay.at("cached").as_bool());  // b0 now owns it warm

  const std::vector<RouterBackendStats> stats = router_->backend_stats();
  EXPECT_FALSE(stats.at(1).alive);
  EXPECT_GE(stats.at(1).rerouted, 1u);
  EXPECT_EQ(router_->probe_all(), 1);
}

TEST_F(RouterFleet, CallerErrorsComeBackVerbatim) {
  const Json unknown =
      router_->handle(make_request(1, "frobnicate", Json::object()));
  EXPECT_FALSE(unknown.at("ok").as_bool());
  EXPECT_EQ(unknown.at("error").at("code").as_string(), "unknown_op");

  Json bad = Json::object();
  bad["instance"] = "no-such-instance";
  bad["k"] = 2;
  const Json invalid =
      router_->handle(make_request(2, "check_coloring", bad));
  EXPECT_FALSE(invalid.at("ok").as_bool());
  EXPECT_EQ(invalid.at("error").at("code").as_string(), "invalid_params");
  // A caller error is final: the router must not have burned a
  // failover attempt on the other replica.
  std::uint64_t reroutes = 0;
  for (const auto& stats : router_->backend_stats()) {
    reroutes += stats.rerouted;
  }
  EXPECT_EQ(reroutes, 0u);
}

// A request with exactly no deadline budget left is forwarded with the
// smallest budget, not with none: the backend stops its build at the
// first frame boundary and answers deadline_exceeded.
TEST_F(RouterFleet, ZeroBudgetLeftTravelsAsADeadline) {
  Json params = Json::object();
  params["lcp"] = "degree-one";
  Json& graphs = (params["graphs"] = Json::array());
  for (const char* spec : {"path:8", "cycle:8", "path:9"}) {
    graphs.push_back(spec);
  }
  params["build"] = "exhaustive";
  Json req = make_request(1, "build_nbhd", params);
  req["deadline_ms"] = 5;
  const Json resp = router_->handle(req, /*elapsed_ms=*/5);
  ASSERT_FALSE(resp.at("ok").as_bool()) << resp.dump();
  const std::string message = resp.at("error").at("message").as_string();
  EXPECT_NE(message.find("'deadline_exceeded'"), std::string::npos)
      << resp.dump();
  EXPECT_NE(message.find("expired its 1 ms deadline budget"),
            std::string::npos)
      << resp.dump();
}

TEST_F(RouterFleet, InfoAggregatesTheFleet) {
  const Json resp = router_->handle(make_request(1, "info", Json::object()));
  ASSERT_TRUE(resp.at("ok").as_bool()) << resp.dump();
  const Json& result = resp.at("result");
  EXPECT_EQ(result.at("router").at("backends").as_uint(), 2u);
  EXPECT_EQ(result.at("router").at("reachable").as_uint(), 2u);
  EXPECT_TRUE(result.at("cache").contains("hit_rate"));
}

TEST_F(RouterFleet, DrainRefusesNewRequests) {
  router_->begin_drain();
  const Json resp = router_->handle(
      make_request(1, "check_coloring", coloring_params("path5", 2)));
  EXPECT_FALSE(resp.at("ok").as_bool());
  EXPECT_EQ(resp.at("error").at("code").as_string(), "draining");
}

}  // namespace
}  // namespace shlcp::svc
