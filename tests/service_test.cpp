// Dispatcher, cache, and pipe-server tests for the certification
// service. The load-bearing claims pinned here:
//
//   * every endpoint's response equals what the direct library call
//     computes (the bench re-checks this under load);
//   * a cached replay is byte-identical to the first computation;
//   * the error-code contract (unknown_op, invalid_params,
//     invalid_request, deadline_exceeded, draining) with the lcp/audit
//     repro string echoed for concrete runs;
//   * LRU eviction, on-disk persistence, and corrupt-entry tolerance of
//     the artifact cache;
//   * the pipe server's request/response framing and its drain
//     behavior: after a cancel trip, no request is ever answered ok;
//   * a read EOF is a half-close: pipe and socket clients that send a
//     burst and then EOF get every answer;
//   * serve_transports binds before it publishes: a busy port fails
//     the daemon at once, with no port file and no listener left.

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <arpa/inet.h>
#include <netinet/in.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "certify/degree_one.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "lcp/audit.h"
#include "nbhd/checkpoint.h"
#include "nbhd/witness.h"
#include "service/cache.h"
#include "service/netloop.h"
#include "service/server.h"
#include "service/service.h"
#include "util/budget.h"
#include "util/hash.h"
#include "util/metrics.h"

namespace shlcp::svc {
namespace {

namespace fs = std::filesystem;

Json make_request(std::int64_t id, const std::string& op, Json params) {
  Json req = Json::object();
  req["id"] = id;
  req["op"] = op;
  req["params"] = std::move(params);
  return req;
}

Json ok_result(const Json& response) {
  EXPECT_TRUE(response.at("ok").as_bool()) << response.dump();
  return response.at("result");
}

std::string error_code(const Json& response) {
  EXPECT_FALSE(response.at("ok").as_bool()) << response.dump();
  return response.at("error").at("code").as_string();
}

Instance pool_instance(const std::string& name) {
  for (const NamedInstance& named : audit_instance_pool()) {
    if (named.name == name) {
      return named.inst;
    }
  }
  ADD_FAILURE() << "no pool instance " << name;
  return Instance();
}

// ---------------------------------------------------------------------
// Endpoints vs direct library calls.

TEST(ServiceEndpoints, RunDecoderMatchesDirectRun) {
  Service service;
  Json params = Json::object();
  params["lcp"] = "degree-one";
  params["instance"] = "path5";
  params["labels"] = "honest";
  const Json response = service.handle(make_request(1, "run_decoder", params));
  const Json& result = ok_result(response);

  DegreeOneLcp lcp;
  Instance inst = pool_instance("path5");
  inst.labels = *lcp.prove(inst.g, inst.ports, inst.ids);
  const FaultyRunResult direct =
      run_decoder_distributed_faulty(lcp.decoder(), inst, FaultPlan{});

  ASSERT_EQ(result.at("verdicts").size(),
            static_cast<std::size_t>(inst.num_nodes()));
  for (std::size_t v = 0; v < direct.verdicts.size(); ++v) {
    EXPECT_EQ(result.at("verdicts").at(v).as_bool(), direct.verdicts[v]);
  }
  EXPECT_TRUE(result.at("accepts_all").as_bool());
  EXPECT_EQ(result.at("stats").at("messages").as_uint(),
            static_cast<std::uint64_t>(direct.stats.messages));
  EXPECT_EQ(result.at("repro").as_string(),
            make_repro("degree-one", "path5", "honest", FaultPlan{}));
}

TEST(ServiceEndpoints, RunDecoderHonoursFaultPlanDescriptor) {
  Service service;
  FaultPlan plan;
  plan.label = "droppy";
  plan.seed = 7;
  plan.drop_permille = 400;
  Json params = Json::object();
  params["lcp"] = "degree-one";
  params["instance"] = "path5";
  params["labels"] = "honest";
  params["plan"] = plan.describe();
  const Json& result =
      ok_result(service.handle(make_request(2, "run_decoder", params)));

  DegreeOneLcp lcp;
  Instance inst = pool_instance("path5");
  inst.labels = *lcp.prove(inst.g, inst.ports, inst.ids);
  const FaultyRunResult direct =
      run_decoder_distributed_faulty(lcp.decoder(), inst,
                                     FaultPlan::parse(plan.describe()));
  EXPECT_EQ(result.at("faults").at("dropped").as_uint(),
            static_cast<std::uint64_t>(direct.faults.dropped));
  for (std::size_t v = 0; v < direct.verdicts.size(); ++v) {
    EXPECT_EQ(result.at("verdicts").at(v).as_bool(), direct.verdicts[v]);
  }
}

TEST(ServiceEndpoints, CheckColoringVerifyNamesViolatingEdge) {
  Service service;
  Json good = Json::object();
  good["graph"] = graph_to_json(make_cycle(4));
  good["k"] = 2;
  Json& colors = (good["colors"] = Json::array());
  for (const int c : {0, 1, 0, 1}) {
    colors.push_back(c);
  }
  const Json& proper =
      ok_result(service.handle(make_request(3, "check_coloring", good)));
  EXPECT_EQ(proper.at("mode").as_string(), "verify");
  EXPECT_TRUE(proper.at("proper").as_bool());
  EXPECT_TRUE(proper.at("violation").is_null());

  Json bad = good;
  Json& bad_colors = (bad["colors"] = Json::array());
  for (const int c : {0, 0, 0, 1}) {  // edge (0, 1) monochromatic
    bad_colors.push_back(c);
  }
  const Json& improper =
      ok_result(service.handle(make_request(4, "check_coloring", bad)));
  EXPECT_FALSE(improper.at("proper").as_bool());
  EXPECT_EQ(improper.at("violation").at(std::size_t{0}).as_int(), 0);
  EXPECT_EQ(improper.at("violation").at(std::size_t{1}).as_int(), 1);
}

TEST(ServiceEndpoints, CheckColoringSolveMatchesLibrary) {
  Service service;
  for (const int k : {2, 3}) {
    Json params = Json::object();
    params["instance"] = "cycle5";
    params["k"] = k;
    const Json& result =
        ok_result(service.handle(make_request(5, "check_coloring", params)));
    EXPECT_EQ(result.at("mode").as_string(), "solve");
    EXPECT_EQ(result.at("colorable").as_bool(), k == 3);  // C5 is odd
    const std::optional<std::vector<int>> direct =
        k_coloring(pool_instance("cycle5").g, k);
    EXPECT_EQ(result.at("colorable").as_bool(), direct.has_value());
    if (direct) {
      for (std::size_t v = 0; v < direct->size(); ++v) {
        EXPECT_EQ(result.at("coloring").at(v).as_int(), (*direct)[v]);
      }
    }
  }
}

TEST(ServiceEndpoints, SearchWitnessMatchesDirectSearch) {
  Service service;
  Json params = Json::object();
  params["family"] = "degree-one";
  params["max_n"] = 4;
  const Json& result =
      ok_result(service.handle(make_request(6, "search_witness", params)));

  DegreeOneLcp lcp;
  const std::vector<Instance> instances = degree_one_witnesses(4);
  ParallelEnumOptions options;
  options.num_threads = 1;
  const WitnessSearchResult direct =
      search_hiding_witness(lcp.decoder(), instances, 2, options);
  EXPECT_EQ(result.at("hiding").as_bool(), direct.hiding());
  EXPECT_EQ(result.at("num_views").as_uint(),
            static_cast<std::uint64_t>(direct.nbhd.num_views()));
  if (direct.odd_cycle) {
    EXPECT_EQ(result.at("odd_cycle").size(), direct.odd_cycle->size());
  } else {
    EXPECT_TRUE(result.at("odd_cycle").is_null());
  }
}

TEST(ServiceEndpoints, BuildNbhdMatchesDirectBuild) {
  Service service;
  Json params = Json::object();
  params["lcp"] = "degree-one";
  Json& graphs = (params["graphs"] = Json::array());
  graphs.push_back("path:4");
  params["build"] = "proved";
  const Json& result =
      ok_result(service.handle(make_request(7, "build_nbhd", params)));

  DegreeOneLcp lcp;
  EnumOptions enums;
  const NbhdGraph direct = build_proved(lcp, {make_path(4)}, enums);
  EXPECT_EQ(result.at("num_views").as_uint(),
            static_cast<std::uint64_t>(direct.num_views()));
  EXPECT_EQ(result.at("num_edges").as_uint(),
            static_cast<std::uint64_t>(direct.num_edges()));
  EXPECT_EQ(result.at("k_colorable").as_bool(), direct.k_colorable(2));
}

// ---------------------------------------------------------------------
// Error-code contract.

TEST(ServiceErrors, ErrorCodeContract) {
  Service service;
  EXPECT_EQ(error_code(service.handle(
                make_request(1, "frobnicate", Json::object()))),
            kErrUnknownOp);

  Json bad_lcp = Json::object();
  bad_lcp["lcp"] = "no-such-scheme";
  bad_lcp["instance"] = "path5";
  EXPECT_EQ(error_code(service.handle(make_request(2, "run_decoder", bad_lcp))),
            kErrInvalidParams);

  // Envelope typo: unknown member, rejected before dispatch.
  Json typo = make_request(3, "info", Json::object());
  typo["dedline_ms"] = 5;
  EXPECT_EQ(error_code(service.handle(typo)), kErrInvalidRequest);

  // Queue delay past the deadline.
  Json timed = make_request(4, "info", Json::object());
  timed["deadline_ms"] = 5;
  EXPECT_EQ(error_code(service.handle(timed, /*elapsed_ms=*/50)),
            kErrDeadline);

  // handle_text on unparseable bytes: an error response, not a throw.
  const Json garbage = Json::parse(service.handle_text("{nope"));
  EXPECT_EQ(error_code(garbage), kErrInvalidRequest);
}

// Out-of-range or half-numeric fault-plan fields are the caller's error,
// refused at parse time -- not an internal failure deep in the run.
TEST(ServiceErrors, OutOfRangeFaultPlanIsInvalidParams) {
  Service service;
  for (const char* plan : {
           "x;seed=1;drop=5000;dup=-7;corrupt=0;crash=999@-3;byz=-",
           "x;seed=1;drop=abc;dup=0;corrupt=0;crash=-@1;byz=-",
           "x;seed=1;drop=10junk;dup=0;corrupt=0;crash=-@1;byz=-",
       }) {
    Json params = Json::object();
    params["lcp"] = "degree-one";
    params["instance"] = "path5";
    params["labels"] = "honest";
    params["plan"] = plan;
    EXPECT_EQ(error_code(service.handle(
                  make_request(1, "run_decoder", params))),
              kErrInvalidParams)
        << plan;
  }
}

// A frame of ~2M nested '[' fits the 4 MiB frame cap; the parser's
// depth limit must turn it into an error response instead of letting
// the recursion overflow the stack and kill the daemon.
TEST(ServiceErrors, DeeplyNestedFrameIsErrorResponseNotCrash) {
  Service service;
  const Json bomb = Json::parse(service.handle_text(
      std::string(2u << 20, '[')));
  EXPECT_EQ(error_code(bomb), kErrInvalidRequest);
}

// stoi-parsed grid dimensions whose product overflows int must be
// rejected up front, not wrap around the 16-node bound (UB).
TEST(ServiceErrors, GridDimensionOverflowRejected) {
  Service service;
  for (const char* spec :
       {"grid:65536x65536", "grid:46341x92681", "grid:0x5", "grid:5x0"}) {
    Json params = Json::object();
    params["lcp"] = "degree-one";
    Json& graphs = (params["graphs"] = Json::array());
    graphs.push_back(spec);
    EXPECT_EQ(error_code(service.handle(
                  make_request(1, "build_nbhd", params))),
              kErrInvalidParams)
        << spec;
  }
}

// Cancel-at-boundary deadline enforcement: a build too large for its
// deadline_ms budget is refused with deadline_exceeded at the next
// frame boundary -- a truncated V(D, n) is never answered. One frame
// per graph: three exhaustive 8-9-node enumerations are far past a
// 1 ms budget by the first boundary, yet each individual frame is
// small, so the call both expires reliably and returns promptly.
TEST(ServiceErrors, DeadlineExpiresMidBuildAtFrameBoundary) {
  Service service;
  Json params = Json::object();
  params["lcp"] = "degree-one";
  Json& graphs = (params["graphs"] = Json::array());
  for (const char* spec : {"path:8", "cycle:8", "path:9"}) {
    graphs.push_back(spec);
  }
  params["build"] = "exhaustive";
  Json req = make_request(1, "build_nbhd", params);
  req["deadline_ms"] = 1;
  const Json response = service.handle(req);
  EXPECT_EQ(error_code(response), kErrDeadline);
  EXPECT_NE(response.at("error").at("message").as_string().find("deadline"),
            std::string::npos)
      << response.dump();
}

TEST(ServiceErrors, DrainRefusesEverything) {
  Service service;
  EXPECT_FALSE(service.draining());
  service.begin_drain();
  EXPECT_TRUE(service.draining());
  const Json refused =
      service.handle(make_request(1, "info", Json::object()));
  EXPECT_EQ(error_code(refused), kErrDraining);
  EXPECT_EQ(refused.at("id").as_int(), 1);  // id still echoed
}

// ---------------------------------------------------------------------
// Artifact cache.

TEST(ServiceCache, CachedReplayIsBitIdentical) {
  Service service;
  Json params = Json::object();
  params["instance"] = "cycle5";
  params["k"] = 3;
  const Json first =
      service.handle(make_request(1, "check_coloring", params));
  EXPECT_FALSE(first.at("cached").as_bool());

  // Same payload, different member order: canonical keying must hit.
  Json reordered = Json::object();
  reordered["k"] = 3;
  reordered["instance"] = "cycle5";
  const Json second =
      service.handle(make_request(2, "check_coloring", reordered));
  EXPECT_TRUE(second.at("cached").as_bool());
  EXPECT_EQ(second.at("result").dump(), first.at("result").dump());
  EXPECT_GE(service.cache_stats().hits, 1u);
}

TEST(ServiceCache, LruEvictionUnderByteBudget) {
  CacheConfig config;
  config.max_bytes = 64;
  ArtifactCache cache(config);
  cache.insert("fnv:aaaa", std::string(40, 'x'));
  cache.insert("fnv:bbbb", std::string(40, 'y'));  // evicts aaaa
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_FALSE(cache.get("fnv:aaaa").has_value());
  EXPECT_TRUE(cache.get("fnv:bbbb").has_value());
  EXPECT_LE(cache.stats().bytes, config.max_bytes);

  // Touching an entry protects it: refresh bbbb, insert cccc, and the
  // budget still holds one entry -- the freshest insert.
  cache.insert("fnv:cccc", std::string(40, 'z'));
  EXPECT_TRUE(cache.get("fnv:cccc").has_value());
  EXPECT_FALSE(cache.get("fnv:bbbb").has_value());
}

TEST(ServiceCache, PersistsAcrossInstances) {
  const fs::path dir = fs::path(::testing::TempDir()) / "shlcp_cache_persist";
  fs::remove_all(dir);
  fs::create_directories(dir);
  CacheConfig config;
  config.directory = dir.string();

  const std::string key = artifact_key("check_coloring", Json::parse("{}"));
  {
    ArtifactCache warm(config);
    warm.insert(key, "{\"answer\":42}");
  }
  ArtifactCache cold(config);
  const std::optional<std::string> loaded = cold.get(key);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, "{\"answer\":42}");
  EXPECT_EQ(cold.stats().disk_hits, 1u);
  EXPECT_EQ(cold.stats().misses, 0u);

  // Promoted to memory: the second lookup is an in-memory hit.
  EXPECT_TRUE(cold.get(key).has_value());
  EXPECT_EQ(cold.stats().hits, 1u);
}

TEST(ServiceCache, CreatesMissingDirectoryAndSurvivesUnwritableOne) {
  // A daemon pointed at a fresh --cache-dir must not require an
  // out-of-band mkdir: construction creates the directory.
  const fs::path dir = fs::path(::testing::TempDir()) / "shlcp_cache_mkdir" /
                       "nested" / "deeper";
  fs::remove_all(fs::path(::testing::TempDir()) / "shlcp_cache_mkdir");
  CacheConfig config;
  config.directory = dir.string();

  const std::string key = artifact_key("info", Json::parse("{}"));
  {
    ArtifactCache fresh(config);
    EXPECT_TRUE(fs::is_directory(dir));
    fresh.insert(key, "payload");
    EXPECT_EQ(fresh.stats().store_failures, 0u);
  }
  ArtifactCache cold(config);
  EXPECT_TRUE(cold.get(key).has_value());

  // An unwritable "directory" (here: the path names a regular file, so
  // creation fails) degrades stores to counted non-fatal failures --
  // the computed value stays served from memory, never an exception.
  const fs::path blocker = fs::path(::testing::TempDir()) / "shlcp_cache_file";
  fs::remove_all(blocker);
  { std::ofstream out(blocker); out << "in the way"; }
  CacheConfig bad;
  bad.directory = blocker.string();
  ArtifactCache degraded(bad);
  degraded.insert(key, "payload");
  EXPECT_EQ(degraded.stats().store_failures, 1u);
  const std::optional<std::string> served = degraded.get(key);
  ASSERT_TRUE(served.has_value());
  EXPECT_EQ(*served, "payload");
}

TEST(ServiceCache, CorruptDiskEntryIsMissNotError) {
  const fs::path dir = fs::path(::testing::TempDir()) / "shlcp_cache_corrupt";
  fs::remove_all(dir);
  fs::create_directories(dir);
  CacheConfig config;
  config.directory = dir.string();

  const std::string key = artifact_key("info", Json::parse("{}"));
  {
    ArtifactCache warm(config);
    warm.insert(key, "payload");
  }
  // Entry files are "<dir>/<hex of fnv1a(key), colon stripped>.json".
  const std::string digest = fnv1a_hex(key);
  const fs::path file =
      dir / (digest.substr(digest.find(':') + 1) + ".json");
  ASSERT_TRUE(fs::exists(file));

  const auto write_entry = [&](const std::string& stored_key,
                               const std::string& stored_digest) {
    Json entry = Json::object();
    entry["schema"] = kCacheFileSchema;
    entry["key"] = stored_key;
    entry["digest"] = stored_digest;
    entry["result"] = "payload";
    std::ofstream out(file, std::ios::trunc);
    out << entry.dump();
  };

  {  // Outright garbage.
    std::ofstream out(file, std::ios::trunc);
    out << "not json at all";
  }
  ArtifactCache c1(config);
  EXPECT_FALSE(c1.get(key).has_value());

  // Well-formed but digest-mismatched (torn result).
  write_entry(key, "fnv:0000000000000000");
  ArtifactCache c2(config);
  EXPECT_FALSE(c2.get(key).has_value());

  // Right digest, wrong key: a filename (hash) collision must be a
  // miss, never another request's artifact replayed as a hit.
  write_entry(artifact_key("info", Json::parse(R"({"x":1})")),
              fnv1a_hex("payload"));
  ArtifactCache c3(config);
  EXPECT_FALSE(c3.get(key).has_value());

  // Torn write: a kill -9 mid-write leaves a short prefix of a valid
  // entry on disk. Must be a miss (never an abort), and a subsequent
  // insert repairs the entry in place.
  write_entry(key, fnv1a_hex("payload"));
  fs::resize_file(file, 10);
  ArtifactCache c4(config);
  EXPECT_FALSE(c4.get(key).has_value());
  c4.insert(key, "payload");
  ArtifactCache c5(config);
  EXPECT_TRUE(c5.get(key).has_value());
}

// Two requests must never share an entry unless their canonical
// payloads are identical: the key *is* the payload, so op, schema, and
// every parameter byte participate in the match.
TEST(ServiceCache, KeysMatchExactPayloadsOnly) {
  const Json params = Json::parse(R"({"instance":"path5","k":2})");
  EXPECT_EQ(artifact_key("check_coloring", params),
            artifact_key("check_coloring",
                         Json::parse(R"({"k":2,"instance":"path5"})")));
  EXPECT_NE(artifact_key("check_coloring", params),
            artifact_key("run_decoder", params));
  EXPECT_NE(artifact_key("check_coloring", params),
            artifact_key("check_coloring",
                         Json::parse(R"({"instance":"path5","k":3})")));

  ArtifactCache cache;
  cache.insert(artifact_key("check_coloring", params), "A");
  EXPECT_FALSE(
      cache.get(artifact_key("run_decoder", params)).has_value());
}

// ---------------------------------------------------------------------
// The one request path: spliced replies, one probe, resolved metrics.

/// The response path before hits were spliced, kept as the reference:
/// parse the result bytes into a tree, build the response tree, dump.
std::string tree_path_reply(const Json& id, const std::string& result_bytes,
                            bool cached) {
  return ok_response(id, Json::parse(result_bytes), cached,
                     fnv1a_hex(result_bytes))
      .dump();
}

/// One request body as a client writes it; `id` is spliced verbatim
/// ("" = no id member).
std::string request_text(const std::string& id, const std::string& op,
                         const Json& params) {
  std::string body = "{";
  if (!id.empty()) {
    body += "\"id\":" + id + ",";
  }
  return body + "\"op\":\"" + op + "\",\"params\":" + params.dump() + "}";
}

TEST(ServiceOnePass, RepliesAreByteIdenticalToTheTreePath) {
  Service service;
  const std::vector<std::pair<std::string, Json>> cacheable = {
      {"check_coloring", Json::parse(R"({"instance":"cycle5","k":3})")},
      {"run_decoder",
       Json::parse(R"({"lcp":"degree-one","instance":"path5",)"
                   R"("labels":"honest"})")},
      {"search_witness", Json::parse(R"({"family":"degree-one","max_n":4})")},
      {"build_nbhd",
       Json::parse(R"({"lcp":"degree-one","graphs":["path:3","cycle:3"]})")},
  };
  // A string, a signed and an unsigned integer, null, no id at all,
  // and an object.
  const std::vector<std::string> ids = {
      R"("c17")", "-7", "18446744073709551615", "null", "",
      R"({"z":[1,"x"],"a":{"b":null}})"};
  for (const auto& [op, params] : cacheable) {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const Json id = ids[i].empty() ? Json() : Json::parse(ids[i]);
      const std::string reply =
          service.handle_text(request_text(ids[i], op, params));
      const Json parsed = Json::parse(reply);
      ASSERT_TRUE(parsed.at("ok").as_bool()) << reply;
      const std::string result = parsed.at("result").dump();
      // The first id computes (miss), every later one replays (hit).
      EXPECT_EQ(reply, tree_path_reply(id, result, /*cached=*/i > 0))
          << op << " id " << ids[i];
    }
  }

  // Session ops are never cached; their replies take the same writer.
  const Json open = Json::parse(
      R"({"session":"s-bytes","instance":"cycle6","k":2,"rounds":1})");
  for (const std::string& id : {std::string("5"), std::string()}) {
    const std::string opened =
        service.handle_text(request_text(id, "session_open", open));
    const Json close = Json::parse(R"({"session":"s-bytes"})");
    const std::string closed =
        service.handle_text(request_text(id, "session_close", close));
    const Json id_json = id.empty() ? Json() : Json::parse(id);
    for (const std::string& reply : {opened, closed}) {
      const Json parsed = Json::parse(reply);
      ASSERT_TRUE(parsed.at("ok").as_bool()) << reply;
      EXPECT_EQ(reply, tree_path_reply(id_json, parsed.at("result").dump(),
                                       /*cached=*/false));
    }
  }
}

TEST(ServiceOnePass, EachRequestProbesTheCacheOnce) {
  Service service;
  const Json params = Json::parse(R"({"instance":"grid23","k":2})");
  constexpr int kRepeats = 9;
  for (int i = 0; i < kRepeats; ++i) {
    ok_result(service.handle(make_request(i, "check_coloring", params)));
  }
  CacheStats stats = service.cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, static_cast<std::uint64_t>(kRepeats - 1));

  // A request whose check does not match is refused before the probe.
  Json tampered = make_request(99, "check_coloring", params);
  tampered["check"] = fnv1a_hex(artifact_key("check_coloring",
                                             Json::parse(R"({"k":3})")));
  EXPECT_EQ(error_code(service.handle(tampered)), kErrIntegrity);
  stats = service.cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, static_cast<std::uint64_t>(kRepeats - 1));

  // A matching check does not add a probe either.
  Json checked = make_request(100, "check_coloring", params);
  checked["check"] = fnv1a_hex(artifact_key("check_coloring", params));
  EXPECT_TRUE(service.handle(checked).at("cached").as_bool());
  stats = service.cache_stats();
  EXPECT_EQ(stats.misses + stats.hits, static_cast<std::uint64_t>(kRepeats + 1));
}

/// Sends one request of each op, then compares the "service." names in
/// the metrics registry with those the per-op lookup by formatted name
/// registered. Returns the exit code: 0 when they match.
int one_request_per_op_registers_the_same_names() {
  Service service;
  const std::vector<std::pair<std::string, Json>> requests = {
      {"run_decoder",
       Json::parse(R"({"lcp":"degree-one","instance":"path5",)"
                   R"("labels":"honest"})")},
      {"check_coloring", Json::parse(R"({"instance":"path5","k":2})")},
      {"search_witness", Json::parse(R"({"family":"degree-one","max_n":3})")},
      {"build_nbhd",
       Json::parse(R"({"lcp":"degree-one","graphs":["path:3"]})")},
      {"info", Json::object()},
      {"health", Json::object()},
      {"session_open",
       Json::parse(R"({"session":"s-m","instance":"cycle6","k":2,)"
                   R"("rounds":1})")},
      // Wrong state for the session: an error reply.
      {"session_step",
       Json::parse(R"({"session":"s-m","msg":{"type":"open","opens":[]}})")},
      {"session_close", Json::parse(R"({"session":"s-m"})")},
  };
  for (const auto& [op, params] : requests) {
    service.handle(make_request(1, op, params));
  }
  std::set<std::string> names;
  const metrics::Snapshot snap = metrics::snapshot();
  for (const auto& [name, value] : snap.counters) {
    names.insert(name);
  }
  for (const auto& [name, value] : snap.gauges) {
    names.insert(name);
  }
  for (const auto& [name, hist] : snap.histograms) {
    names.insert(name);
  }
  std::set<std::string> service_names;
  for (const std::string& name : names) {
    if (name.rfind("service.", 0) == 0) {
      service_names.insert(name);
    }
  }
  std::set<std::string> expected = {"service.cache.misses", "service.errors",
                                    "service.requests",
                                    "service.sessions.opened"};
  for (const std::string& op : Service::ops()) {
    expected.insert("service." + op + ".requests");
    expected.insert("service." + op + ".latency_ns");
  }
  for (const std::string& name : service_names) {
    if (expected.count(name) == 0) {
      std::fprintf(stderr, "unexpected metric %s\n", name.c_str());
    }
  }
  for (const std::string& name : expected) {
    if (service_names.count(name) == 0) {
      std::fprintf(stderr, "missing metric %s\n", name.c_str());
    }
  }
  return service_names == expected ? 0 : 1;
}

// Runs in a freshly started copy of this binary (the "threadsafe" death
// test style re-executes it), so the registry holds only what these
// requests register.
TEST(ServiceOnePassDeathTest, OneRequestOfEachOpRegistersTheSameNames) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(std::exit(one_request_per_op_registers_the_same_names()),
              ::testing::ExitedWithCode(0), "");
}

// Exactly no budget left is still a deadline: the request is admitted
// (it is not past its deadline) but runs under the smallest budget,
// never under none.
TEST(ServiceErrors, ZeroBudgetLeftStillRunsUnderADeadline) {
  Service service;
  Json params = Json::object();
  params["lcp"] = "degree-one";
  Json& graphs = (params["graphs"] = Json::array());
  for (const char* spec : {"path:8", "cycle:8", "path:9"}) {
    graphs.push_back(spec);
  }
  params["build"] = "exhaustive";
  Json req = make_request(1, "build_nbhd", params);
  req["deadline_ms"] = 5;
  const Json response = service.handle(req, /*elapsed_ms=*/5);
  EXPECT_EQ(error_code(response), kErrDeadline);
  EXPECT_NE(response.at("error").at("message").as_string().find(
                "expired its 1 ms deadline budget"),
            std::string::npos)
      << response.dump();
}

// ---------------------------------------------------------------------
// Pipe server end to end.

struct Pipe {
  int read_fd = -1;
  int write_fd = -1;
  Pipe() {
    int fds[2] = {-1, -1};
    EXPECT_EQ(::pipe(fds), 0);
    read_fd = fds[0];
    write_fd = fds[1];
  }
  ~Pipe() {
    if (read_fd >= 0) {
      ::close(read_fd);
    }
    if (write_fd >= 0) {
      ::close(write_fd);
    }
  }
};

/// Reads one frame from fd, polling up to timeout_ms. Returns nullopt
/// on timeout or EOF.
std::optional<std::string> read_frame(int fd, FrameReader& reader,
                                      int timeout_ms = 10000) {
  std::string frame;
  std::string error;
  while (true) {
    const FrameReader::Next next = reader.next(&frame, &error);
    if (next == FrameReader::Next::kFrame) {
      return frame;
    }
    EXPECT_NE(next, FrameReader::Next::kError) << error;
    struct pollfd pfd = {fd, POLLIN, 0};
    if (::poll(&pfd, 1, timeout_ms) <= 0) {
      return std::nullopt;
    }
    char buf[4096];
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n <= 0) {
      return std::nullopt;
    }
    reader.feed(std::string_view(buf, static_cast<std::size_t>(n)));
  }
}

TEST(PipeServer, AnswersRequestsAndExitsCleanlyOnEof) {
  Pipe to_server;
  Pipe from_server;
  CancelToken token;
  ServerOptions options;
  options.in_fd = to_server.read_fd;
  options.out_fd = from_server.write_fd;
  options.cancel = &token;
  options.num_threads = 2;

  int exit_code = -1;
  std::thread server([&] { exit_code = serve_pipe(options); });

  FrameReader reader;
  const Json info = make_request(1, "info", Json::object());
  ASSERT_TRUE(write(to_server.write_fd, encode_frame(info.dump()).data(),
                    encode_frame(info.dump()).size()) > 0);
  std::optional<std::string> body = read_frame(from_server.read_fd, reader);
  ASSERT_TRUE(body.has_value());
  const Json info_resp = Json::parse(*body);
  EXPECT_EQ(info_resp.at("id").as_int(), 1);
  EXPECT_TRUE(ok_result(info_resp).at("ops").is_array());

  // A second request through the same stream, batched-path compute.
  Json params = Json::object();
  params["instance"] = "cycle5";
  params["k"] = 3;
  const std::string frame2 =
      encode_frame(make_request(2, "check_coloring", params).dump());
  ASSERT_TRUE(write(to_server.write_fd, frame2.data(), frame2.size()) > 0);
  body = read_frame(from_server.read_fd, reader);
  ASSERT_TRUE(body.has_value());
  const Json col_resp = Json::parse(*body);
  EXPECT_EQ(col_resp.at("id").as_int(), 2);
  EXPECT_TRUE(ok_result(col_resp).at("colorable").as_bool());

  ::close(to_server.write_fd);  // EOF ends the server
  to_server.write_fd = -1;
  server.join();
  EXPECT_EQ(exit_code, 0);
}

TEST(PipeServer, MalformedFrameGetsBadFrameResponse) {
  Pipe to_server;
  Pipe from_server;
  ServerOptions options;
  options.in_fd = to_server.read_fd;
  options.out_fd = from_server.write_fd;
  CancelToken token;
  options.cancel = &token;

  int exit_code = -1;
  std::thread server([&] { exit_code = serve_pipe(options); });

  const std::string garbage = "???\n{}\n";
  ASSERT_TRUE(write(to_server.write_fd, garbage.data(), garbage.size()) > 0);
  FrameReader reader;
  const std::optional<std::string> body =
      read_frame(from_server.read_fd, reader);
  ASSERT_TRUE(body.has_value());
  EXPECT_EQ(error_code(Json::parse(*body)), kErrBadFrame);

  server.join();  // framing lost ends pipe mode
  EXPECT_EQ(exit_code, 0);
}

// After a cancel trip the server must never answer a request ok: a late
// frame is either refused with "draining" or not read at all, and the
// server still exits 0.
TEST(PipeServer, DrainsOnCancelWithoutAcceptingNewWork) {
  Pipe to_server;
  Pipe from_server;
  CancelToken token;
  ServerOptions options;
  options.in_fd = to_server.read_fd;
  options.out_fd = from_server.write_fd;
  options.cancel = &token;

  int exit_code = -1;
  std::thread server([&] { exit_code = serve_pipe(options); });

  FrameReader reader;
  const std::string warmup =
      encode_frame(make_request(1, "info", Json::object()).dump());
  ASSERT_TRUE(write(to_server.write_fd, warmup.data(), warmup.size()) > 0);
  ASSERT_TRUE(read_frame(from_server.read_fd, reader).has_value());

  token.request_stop(StopReason::kCancelRequested);
  const std::string late =
      encode_frame(make_request(2, "info", Json::object()).dump());
  ASSERT_TRUE(write(to_server.write_fd, late.data(), late.size()) > 0);
  server.join();
  EXPECT_EQ(exit_code, 0);

  // Whatever made it out for request 2 must be a draining refusal.
  while (true) {
    const std::optional<std::string> body =
        read_frame(from_server.read_fd, reader, /*timeout_ms=*/0);
    if (!body.has_value()) {
      break;
    }
    EXPECT_EQ(error_code(Json::parse(*body)), kErrDraining);
  }
}

// ---------------------------------------------------------------------
// Overload shedding (DESIGN.md §14).

/// Writes `count` pipelined info requests as ONE atomic pipe write, so
/// the server's read loop ingests the whole burst in one gulp and the
/// admission policy sees it at once (deterministic shed counts).
void write_burst(int fd, std::int64_t count) {
  std::string burst;
  for (std::int64_t id = 1; id <= count; ++id) {
    burst += encode_frame(make_request(id, "info", Json::object()).dump());
  }
  ASSERT_LT(burst.size(), 4096u);  // PIPE_BUF: single-write atomicity
  ASSERT_EQ(::write(fd, burst.data(), burst.size()),
            static_cast<ssize_t>(burst.size()));
}

TEST(PipeServer, ShedsPastQueueCapWithRetryAfterHint) {
  Pipe to_server;
  Pipe from_server;
  CancelToken token;
  ServerOptions options;
  options.in_fd = to_server.read_fd;
  options.out_fd = from_server.write_fd;
  options.cancel = &token;
  options.num_threads = 2;
  options.queue_max = 2;
  options.conn_inflight_max = 0;

  int exit_code = -1;
  std::thread server([&] { exit_code = serve_pipe(options); });

  write_burst(to_server.write_fd, 5);
  FrameReader reader;
  int oks = 0;
  int shed = 0;
  for (int i = 0; i < 5; ++i) {
    const std::optional<std::string> body =
        read_frame(from_server.read_fd, reader);
    ASSERT_TRUE(body.has_value()) << i;
    const Json resp = Json::parse(*body);
    if (resp.at("ok").as_bool()) {
      ++oks;
    } else {
      ++shed;
      EXPECT_EQ(resp.at("error").at("code").as_string(), kErrOverloaded);
      // The refusal carries a positive backpressure hint.
      EXPECT_GT(resp.at("error").at("retry_after_ms").as_int(), 0)
          << resp.dump();
    }
  }
  EXPECT_EQ(oks, 2);  // exactly queue_max admitted
  EXPECT_EQ(shed, 3);

  // The health op reports the episode: cap, admissions, sheds.
  const std::string probe =
      encode_frame(make_request(9, "health", Json::object()).dump());
  ASSERT_EQ(::write(to_server.write_fd, probe.data(), probe.size()),
            static_cast<ssize_t>(probe.size()));
  const std::optional<std::string> body =
      read_frame(from_server.read_fd, reader);
  ASSERT_TRUE(body.has_value());
  const Json health = ok_result(Json::parse(*body));
  EXPECT_FALSE(health.at("draining").as_bool());
  EXPECT_EQ(health.at("queue").at("max").as_uint(), 2u);
  EXPECT_EQ(health.at("queue").at("admitted").as_uint(), 3u);  // 2 + probe
  EXPECT_EQ(health.at("queue").at("shed").as_uint(), 3u);
  EXPECT_TRUE(health.at("cache").contains("hit_rate"));

  ::close(to_server.write_fd);
  to_server.write_fd = -1;
  server.join();
  EXPECT_EQ(exit_code, 0);
}

TEST(PipeServer, ShedsPastConnectionInflightCap) {
  Pipe to_server;
  Pipe from_server;
  CancelToken token;
  ServerOptions options;
  options.in_fd = to_server.read_fd;
  options.out_fd = from_server.write_fd;
  options.cancel = &token;
  options.queue_max = 0;       // the global cap must not be the trigger
  options.conn_inflight_max = 1;

  int exit_code = -1;
  std::thread server([&] { exit_code = serve_pipe(options); });

  write_burst(to_server.write_fd, 3);
  FrameReader reader;
  int oks = 0;
  int shed = 0;
  for (int i = 0; i < 3; ++i) {
    const std::optional<std::string> body =
        read_frame(from_server.read_fd, reader);
    ASSERT_TRUE(body.has_value()) << i;
    const Json resp = Json::parse(*body);
    if (resp.at("ok").as_bool()) {
      ++oks;
    } else {
      ++shed;
      EXPECT_EQ(resp.at("error").at("code").as_string(), kErrOverloaded);
      EXPECT_NE(resp.at("error").at("message").as_string().find("in-flight"),
                std::string::npos)
          << resp.dump();
    }
  }
  EXPECT_EQ(oks, 1);
  EXPECT_EQ(shed, 2);

  // A shed is per-frame, not per-connection: once the in-flight request
  // is answered, the stream accepts work again.
  const std::string more =
      encode_frame(make_request(7, "info", Json::object()).dump());
  ASSERT_EQ(::write(to_server.write_fd, more.data(), more.size()),
            static_cast<ssize_t>(more.size()));
  const std::optional<std::string> body =
      read_frame(from_server.read_fd, reader);
  ASSERT_TRUE(body.has_value());
  EXPECT_TRUE(Json::parse(*body).at("ok").as_bool());

  ::close(to_server.write_fd);
  to_server.write_fd = -1;
  server.join();
  EXPECT_EQ(exit_code, 0);
}

/// The ids of `count` frames read from fd, each checked to be an ok
/// answer. Stops early at EOF or a 10 s silence.
std::vector<std::int64_t> read_answer_ids(int fd, std::int64_t count) {
  FrameReader reader;
  std::vector<std::int64_t> ids;
  for (std::int64_t i = 0; i < count; ++i) {
    const std::optional<std::string> body = read_frame(fd, reader);
    if (!body.has_value()) {
      break;
    }
    const Json resp = Json::parse(*body);
    EXPECT_TRUE(resp.at("ok").as_bool()) << resp.dump();
    ids.push_back(resp.at("id").as_int());
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// `count` pipelined info requests with ids 1..count.
std::string info_burst(std::int64_t count) {
  std::string burst;
  for (std::int64_t id = 1; id <= count; ++id) {
    burst += encode_frame(make_request(id, "info", Json::object()).dump());
  }
  return burst;
}

std::vector<std::int64_t> one_to(std::int64_t count) {
  std::vector<std::int64_t> ids;
  for (std::int64_t id = 1; id <= count; ++id) {
    ids.push_back(id);
  }
  return ids;
}

bool write_fully(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::write(fd, bytes.data(), bytes.size());
    if (n <= 0) {
      return false;
    }
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

TEST(PipeServer, BurstThenEofAnswersEveryRequest) {
  constexpr std::int64_t kRequests = 500;
  Pipe to_server;
  Pipe from_server;
  CancelToken token;
  ServerOptions options;
  options.in_fd = to_server.read_fd;
  options.out_fd = from_server.write_fd;
  options.cancel = &token;
  options.num_threads = 2;
  options.queue_max = 0;  // every request admitted: all answers ok
  options.conn_inflight_max = 0;

  int exit_code = -1;
  std::thread server([&] { exit_code = serve_pipe(options); });
  // Answers are collected concurrently: the server's blocking writes
  // stall once the pipe buffer is full.
  std::vector<std::int64_t> ids;
  std::thread reader(
      [&] { ids = read_answer_ids(from_server.read_fd, kRequests); });

  ASSERT_TRUE(write_fully(to_server.write_fd, info_burst(kRequests)));
  ::close(to_server.write_fd);  // EOF straight after the burst
  to_server.write_fd = -1;
  server.join();
  reader.join();
  EXPECT_EQ(exit_code, 0);
  EXPECT_EQ(ids, one_to(kRequests));
}

// ---------------------------------------------------------------------
// Socket server end to end.

TEST(SocketServer, ServesSequentialConnectionsAndExitsOnCancel) {
  const std::string path =
      (fs::path(::testing::TempDir()) / "shlcp_test.sock").string();
  CancelToken token;
  ServerOptions options;
  options.cancel = &token;
  options.num_threads = 2;

  int exit_code = -1;
  std::thread server([&] { exit_code = serve_socket(path, options); });

  const auto connect_client = [&]() -> int {
    sockaddr_un addr = {};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", path.c_str());
    for (int attempt = 0; attempt < 250; ++attempt) {
      const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (fd >= 0 &&
          ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof(addr)) == 0) {
        return fd;
      }
      if (fd >= 0) {
        ::close(fd);
      }
      ::usleep(20'000);  // server may not have bound yet
    }
    return -1;
  };

  // Sequential connect/request/disconnect rounds: round 2+ exercises
  // accept after earlier slots were closed and reclaimed.
  for (std::int64_t round = 0; round < 3; ++round) {
    const int fd = connect_client();
    ASSERT_GE(fd, 0);
    const std::string frame =
        encode_frame(make_request(round, "info", Json::object()).dump());
    ASSERT_GT(::write(fd, frame.data(), frame.size()), 0);
    FrameReader reader;
    const std::optional<std::string> body = read_frame(fd, reader);
    ASSERT_TRUE(body.has_value());
    const Json resp = Json::parse(*body);
    EXPECT_EQ(resp.at("id").as_int(), round);
    EXPECT_TRUE(ok_result(resp).at("ops").is_array());
    ::close(fd);
  }

  token.request_stop(StopReason::kCancelRequested);
  server.join();
  EXPECT_EQ(exit_code, 0);
  EXPECT_FALSE(fs::exists(path));  // unlinked on exit
}

TEST(TransportServer, PortFileIsPublishedWhileServingAndRemovedOnDrain) {
  // The --port-file readiness handshake, both directions: published
  // (atomically) once the listeners are bound, removed again on a
  // graceful drain. The reverse direction is what makes a *leftover*
  // port file a truthful crash marker for the supervisor -- a clean
  // exit never leaves one behind.
  const std::string sock =
      (fs::path(::testing::TempDir()) / "shlcp_pf.sock").string();
  const std::string port_file =
      (fs::path(::testing::TempDir()) / "shlcp_pf.ports.json").string();
  fs::remove(port_file);

  CancelToken token;
  ServerOptions options;
  options.cancel = &token;
  options.num_threads = 2;
  TransportSpec spec;
  spec.unix_path = sock;
  spec.port_file = port_file;

  int exit_code = -1;
  std::thread server([&] { exit_code = serve_transports(spec, options); });

  bool published = false;
  for (int attempt = 0; attempt < 250; ++attempt) {
    if (fs::exists(port_file)) {
      published = true;
      break;
    }
    ::usleep(20'000);
  }
  ASSERT_TRUE(published) << "port file never published";
  {
    std::ifstream in(port_file);
    std::ostringstream buf;
    buf << in.rdbuf();
    const Json ports = Json::parse(buf.str());
    EXPECT_EQ(ports.at("unix").as_string(), sock);
  }

  token.request_stop(StopReason::kCancelRequested);
  server.join();
  EXPECT_EQ(exit_code, 0);
  EXPECT_FALSE(fs::exists(port_file))  // the satellite assertion
      << "graceful exit must remove the port file";
  EXPECT_FALSE(fs::exists(sock));
}

/// Connects to the unix socket at `path`, retrying while the server
/// binds. Returns -1 if it never comes up.
int connect_unix(const std::string& path) {
  sockaddr_un addr = {};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", path.c_str());
  for (int attempt = 0; attempt < 250; ++attempt) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd >= 0 && ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                             sizeof(addr)) == 0) {
      return fd;
    }
    if (fd >= 0) {
      ::close(fd);
    }
    ::usleep(20'000);
  }
  return -1;
}

// A client that pipelines a burst and then shuts down its write side
// still gets every answer: EOF stops the reading, not the writing. The
// answers (~3000 info results) far exceed the socket buffer, so most of
// them are still queued in the server when the EOF arrives.
TEST(SocketServer, HalfClosedClientGetsEveryAnswer) {
  constexpr std::int64_t kRequests = 3000;
  const std::string path =
      (fs::path(::testing::TempDir()) / "shlcp_halfclose.sock").string();
  CancelToken token;
  ServerOptions options;
  options.cancel = &token;
  options.num_threads = 2;
  options.queue_max = 0;  // every request admitted: all answers ok
  options.conn_inflight_max = 0;
  int exit_code = -1;
  std::thread server([&] { exit_code = serve_socket(path, options); });

  const int fd = connect_unix(path);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(write_fully(fd, info_burst(kRequests)));
  ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);
  ::usleep(200'000);  // a slow reader: the EOF lands long before the
                      // answers can all be written
  EXPECT_EQ(read_answer_ids(fd, kRequests), one_to(kRequests));
  // Every answer out, the server closes its side too.
  char byte = 0;
  EXPECT_EQ(::read(fd, &byte, 1), 0);
  ::close(fd);

  token.request_stop(StopReason::kCancelRequested);
  server.join();
  EXPECT_EQ(exit_code, 0);
}

// serve_transports binds every listener before it serves or publishes
// anything: a TCP port that is already taken fails the whole daemon at
// once (exit 1), alone or next to a unix listener, and so does a unix
// path too long to bind; no port file and no unix socket is left.
TEST(TransportServer, BindFailureExitsAtOnceWithoutPortFile) {
  const int holder = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(holder, 0);
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::bind(holder, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(holder, 4), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(holder, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  const std::string busy_tcp =
      "127.0.0.1:" + std::to_string(ntohs(addr.sin_port));
  const std::string sock =
      (fs::path(::testing::TempDir()) / "shlcp_busy.sock").string();
  const std::string port_file =
      (fs::path(::testing::TempDir()) / "shlcp_busy.ports.json").string();

  struct Case {
    const char* label;
    std::string tcp;
    std::string unix_path;
  };
  for (const Case& c :
       {Case{"tcp alone", busy_tcp, ""}, Case{"tcp + unix", busy_tcp, sock},
        Case{"unix path too long", "",
             sock + std::string(sizeof(sockaddr_un{}.sun_path), 'x')}}) {
    SCOPED_TRACE(c.label);
    fs::remove(port_file);
    fs::remove(sock);

    CancelToken token;
    ServerOptions options;
    options.cancel = &token;
    options.num_threads = 1;
    TransportSpec spec;
    spec.tcp = c.tcp;
    spec.unix_path = c.unix_path;
    spec.port_file = port_file;

    std::atomic<bool> done{false};
    std::atomic<bool> published{false};
    std::thread watcher([&] {
      while (!done.load()) {
        if (fs::exists(port_file)) {
          published.store(true);
        }
        ::usleep(1'000);
      }
    });
    const auto start = std::chrono::steady_clock::now();
    int exit_code = -1;
    std::thread server([&] {
      exit_code = serve_transports(spec, options);
      done.store(true);
    });
    for (int i = 0; i < 200 && !done.load(); ++i) {
      ::usleep(10'000);
    }
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    token.request_stop(StopReason::kCancelRequested);  // if still serving
    server.join();
    watcher.join();
    EXPECT_EQ(exit_code, 1);
    EXPECT_LT(seconds, 2.0);
    EXPECT_FALSE(published.load()) << "port file published for a failed bind";
    EXPECT_FALSE(fs::exists(port_file));
    EXPECT_FALSE(fs::exists(sock)) << "unix listener left behind";
  }
  ::close(holder);
}

// Listeners are born nonblocking and close-on-exec: no window in which
// a fork/exec on another thread (the supervisor's) inherits them.
TEST(TransportServer, ListenersAreNonblockingAndCloseOnExec) {
  const auto no_protocol = [](std::size_t) {
    return std::unique_ptr<ConnProtocol>();
  };
  StreamListener tcp = listen_tcp("127.0.0.1", 0, no_protocol, nullptr);
  StreamListener unix_listener = listen_unix(
      (fs::path(::testing::TempDir()) / "shlcp_flags.sock").string(),
      no_protocol);
  for (const StreamListener* l : {&tcp, &unix_listener}) {
    ASSERT_GE(l->fd, 0);
    EXPECT_NE(::fcntl(l->fd, F_GETFL) & O_NONBLOCK, 0);
    EXPECT_NE(::fcntl(l->fd, F_GETFD) & FD_CLOEXEC, 0);
  }
  tcp.close();
  unix_listener.close();
}

}  // namespace
}  // namespace shlcp::svc
