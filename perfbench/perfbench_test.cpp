// Self-tests of the benchmark's own code: request generation, metric
// names, percentile reporting, and the trace arithmetic.

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "nbhd/checkpoint.h"
#include "service/cache.h"
#include "stats.h"
#include "tracing.h"
#include "util/json.h"
#include "workloads.h"

namespace perfbench {
namespace {

using shlcp::Json;

std::string key_of(const Request& r) {
  return shlcp::svc::artifact_key(r.op, r.params);
}

TEST(Generator, SameSeedSameStream) {
  for (const Workload w :
       {Workload::kHotKeys, Workload::kColdKeys, Workload::kRoutedFleet}) {
    const RequestStream a(w, 7);
    const RequestStream b(w, 7);
    const RequestStream c(w, 8);
    int differs = 0;
    for (std::uint64_t i = 0; i < 400; ++i) {
      EXPECT_EQ(key_of(a.at(i)), key_of(b.at(i)));
      differs += key_of(a.at(i)) != key_of(c.at(i)) ? 1 : 0;
    }
    EXPECT_GT(differs, 200) << workload_name(w);
  }
  EXPECT_EQ(session_plan(3, 9).id, session_plan(3, 9).id);
  EXPECT_EQ(session_plan(3, 9).seed, session_plan(3, 9).seed);
  EXPECT_NE(session_plan(3, 9).seed, session_plan(4, 9).seed);
}

TEST(Generator, OpSharesDoNotDependOnTheSeed) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 99ULL}) {
    const RequestStream stream(Workload::kHotKeys, seed);
    std::map<std::string, int> counts;
    for (std::uint64_t i = 0; i < 20 * OpSchedule::kBlock; ++i) {
      ++counts[stream.at(i).op];
    }
    EXPECT_EQ(counts["run_decoder"], 100);
    EXPECT_EQ(counts["check_coloring"], 100);
    EXPECT_EQ(counts["build_nbhd"], 100);
    EXPECT_EQ(counts["search_witness"], 100);
  }
}

TEST(Generator, OrdinalsCountEachOpInStreamOrder) {
  const OpSchedule schedule({"a", "b"}, {15, 5}, 4);
  std::map<int, std::uint64_t> next;
  for (std::uint64_t i = 0; i < 10 * OpSchedule::kBlock; ++i) {
    const auto [op, ordinal] = schedule.at(i);
    EXPECT_EQ(ordinal, next[op]++);
  }
}

TEST(Generator, ColdKeysAreDistinctRealInputs) {
  const RequestStream stream(Workload::kColdKeys, 5);
  std::set<std::string> keys;
  const std::uint64_t n = 6000;
  for (std::uint64_t i = 0; i < n; ++i) {
    const Request r = stream.at(i);
    EXPECT_NE(r.op, "search_witness");
    EXPECT_FALSE(r.params.contains("nonce"));
    keys.insert(key_of(r));
  }
  EXPECT_EQ(keys.size(), n);
}

TEST(Generator, HotStreamsDrawOnlyFromTheirKeys) {
  for (const auto& [w, expected] :
       {std::pair{Workload::kHotKeys, 32u}, std::pair{Workload::kRoutedFleet, 256u}}) {
    const RequestStream stream(w, 11);
    std::set<std::string> keys;
    for (const Request& r : stream.hot_keys()) {
      keys.insert(key_of(r));
    }
    EXPECT_EQ(keys.size(), expected);
    for (std::uint64_t i = 0; i < 2000; ++i) {
      EXPECT_TRUE(keys.count(key_of(stream.at(i)))) << i;
    }
  }
}

TEST(Metrics, NameGrammar) {
  EXPECT_TRUE(valid_metric_name("p99_us"));
  EXPECT_TRUE(valid_metric_name("service.hit_ns.check_coloring"));
  EXPECT_TRUE(valid_metric_name("9lives-x"));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name(".hidden"));
  EXPECT_FALSE(valid_metric_name("has space"));
  EXPECT_FALSE(valid_metric_name("slash/name"));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
  EXPECT_TRUE(valid_unit("1/s"));
  EXPECT_TRUE(valid_unit("%"));
  EXPECT_FALSE(valid_unit(""));
  EXPECT_FALSE(valid_unit("micro seconds"));

  MetricSet set;
  set.add("a.b", 1.5, "us");
  EXPECT_THROW(set.add("a.b", 2, "us"), std::invalid_argument);
  EXPECT_THROW(set.add("bad name", 2, "us"), std::invalid_argument);
  EXPECT_THROW(set.add("c", 2, "bad unit"), std::invalid_argument);
  EXPECT_EQ(set.to_json().at("a.b").at("unit").as_string(), "us");
}

TEST(Metrics, BenchmarkFileNamesFollowTheGrammar) {
  std::ifstream in(PERFBENCH_SOURCE_DIR "/../BENCHMARK.json");
  ASSERT_TRUE(in.good());
  std::stringstream text;
  text << in.rdbuf();
  const Json doc = Json::parse(text.str());
  std::set<std::string> names;
  for (const char* section : {"workloads", "end_to_end", "per_layer"}) {
    for (const Json& m : doc.at(section).items()) {
      const std::string& name = m.at("name").as_string();
      EXPECT_TRUE(valid_metric_name(name)) << name;
      EXPECT_TRUE(names.insert(name).second) << "duplicate " << name;
      if (m.contains("unit")) {
        EXPECT_TRUE(valid_unit(m.at("unit").as_string())) << name;
      }
      EXPECT_TRUE(parse_workload(name) || std::string(section) != "workloads");
    }
  }
}

TEST(Percentiles, ReportedWithTheirSampleCount) {
  std::vector<double> values;
  for (int i = 100; i >= 1; --i) {
    values.push_back(i);
  }
  const Quantiles q = summarize(values);
  EXPECT_EQ(q.samples, 100u);
  EXPECT_EQ(q.p50, 50);
  EXPECT_EQ(q.p90, 90);
  EXPECT_EQ(q.p99, 99);
  std::vector<double> empty;
  EXPECT_EQ(summarize(empty).samples, 0u);
  std::vector<double> one = {7};
  EXPECT_EQ(summarize(one).p99, 7);
  EXPECT_EQ(summarize(one).samples, 1u);
}

TEST(Percentiles, CalmMedianLeavesOutTheWindowsWithMostSteal) {
  const std::vector<double> values = {10, 900, 30, 20, 800};
  const std::vector<double> steal = {0.0, 0.20, 0.01, 0.0, 0.05};
  EXPECT_EQ(calm_median(values, steal, 3), 20);  // windows 0, 3, 2
  EXPECT_EQ(calm_median(values, steal, 1), 10);  // earlier window wins a tie
  EXPECT_EQ(calm_median(values, steal, 9), 30);  // keeps all five
}

TEST(Trace, SelfTimeSubtractsTheUnionOfChildren) {
  EXPECT_EQ(self_time_ns({0, 100}, {}), 100u);
  EXPECT_EQ(self_time_ns({0, 100}, {{10, 20}, {15, 30}, {90, 120}, {200, 300}}), 70u);
  EXPECT_EQ(self_time_ns({0, 100}, {{0, 100}}), 0u);
  EXPECT_EQ(self_time_ns({50, 100}, {{0, 60}, {70, 80}}), 30u);
}

TEST(Trace, JoinsSpansByDigestAndContainment) {
  const std::uint64_t x = parse_check("fnv:00000000000000aa");
  const std::uint64_t y = parse_check("fnv:00000000000000bb");
  EXPECT_EQ(x, 0xaaU);
  std::vector<Span> spans = {
      {1, x, 0, 100, SpanKind::kClient},
      {2, y, 5, 60, SpanKind::kClient},
      {0, x, 10, 90, SpanKind::kRouter},
      {0, x, 20, 50, SpanKind::kService},
      {0, y, 15, 55, SpanKind::kRouter},
  };
  const TraceSummary t = analyze(spans);
  EXPECT_EQ(t.joined, 2u);
  // Figures come in order of the client spans' ends: y, then x.
  ASSERT_EQ(t.router_self_us.size(), 2u);
  EXPECT_DOUBLE_EQ(t.router_self_us[0], 0.040);  // no backend span joined
  EXPECT_DOUBLE_EQ(t.router_self_us[1], 0.050);  // 80 ns - 30 ns backend
  EXPECT_DOUBLE_EQ(t.client_self_us[1], 0.020);
  EXPECT_DOUBLE_EQ(t.wait_us[1], 0.010);
  EXPECT_EQ(spans[2].req, 1u);
  EXPECT_EQ(spans[3].req, 1u);
  EXPECT_EQ(spans[4].req, 2u);
}

TEST(Trace, OverlappingRequestsOfOneKeyEachFindTheirServerSpan) {
  // The long request 1 must not take the only server span inside the
  // short request 2.
  const std::uint64_t x = parse_check("fnv:00000000000000aa");
  std::vector<Span> spans = {
      {1, x, 0, 100, SpanKind::kClient},
      {2, x, 10, 50, SpanKind::kClient},
      {0, x, 20, 30, SpanKind::kService},
      {0, x, 60, 70, SpanKind::kService},
  };
  const TraceSummary t = analyze(spans);
  EXPECT_EQ(t.joined, 2u);
  EXPECT_EQ(spans[2].req, 2u);
  EXPECT_EQ(spans[3].req, 1u);
}

TEST(Trace, ReadsTheCheckDigestOfAWireBody) {
  const Request r = witness_request(0);
  const std::string body = envelope(r, 3);
  EXPECT_EQ(check_of_body(body),
            parse_check(shlcp::fnv1a_hex(shlcp::svc::artifact_key(r.op, r.params))));
  EXPECT_EQ(check_of_body("{\"id\":1}"), 0u);
}

}  // namespace
}  // namespace perfbench
