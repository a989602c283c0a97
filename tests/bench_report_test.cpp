// Pinned-schema test for the shared bench report harness: every
// BENCH_*.json emitted by bench/report.h must carry exactly the
// "shlcp.bench.v2" shape validated here (and by
// tools/check_bench_json.py in CI). Widening the schema is allowed only
// together with a version bump and an update to this test. The gate
// evaluator is pinned here too; the checker's --self-test pins the same
// cases for its Python twin.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bench/report.h"
#include "util/check.h"
#include "util/json.h"
#include "util/metrics.h"

namespace shlcp {
namespace {

Json build_report_json() {
  bench::Report report("schema_probe");
  report.meta()["family"] = "unit-test";
  metrics::counter("test.bench_report.counter").inc();
  Json& values = report.add_case("case_one");
  values["n"] = std::int64_t{5};
  values["ok"] = true;
  report.gate("n_is_five", "cases[case_one].values.n", "==", 5);
  return report.to_json();
}

TEST(BenchReportTest, SchemaVersionIsPinned) {
  EXPECT_STREQ(bench::kSchemaVersion, "shlcp.bench.v2");
}

TEST(BenchReportTest, ReportMatchesPinnedSchema) {
  const Json j = build_report_json();

  // Top level: exactly these keys, in this order.
  const auto& members = j.members();
  ASSERT_EQ(members.size(), 7u);
  EXPECT_EQ(members[0].first, "schema");
  EXPECT_EQ(members[1].first, "bench");
  EXPECT_EQ(members[2].first, "run");
  EXPECT_EQ(members[3].first, "meta");
  EXPECT_EQ(members[4].first, "cases");
  EXPECT_EQ(members[5].first, "metrics");
  EXPECT_EQ(members[6].first, "gates");

  EXPECT_EQ(j.at("schema").as_string(), "shlcp.bench.v2");
  EXPECT_EQ(j.at("bench").as_string(), "schema_probe");

  const Json& run = j.at("run");
  EXPECT_TRUE(run.at("git").is_string());
  EXPECT_GT(run.at("unix_time").as_int(), 0);
  EXPECT_GE(run.at("hardware_concurrency").as_int(), 1);
  EXPECT_GE(run.at("num_threads").as_int(), 1);
  EXPECT_TRUE(run.at("smoke").is_bool());

  EXPECT_EQ(j.at("meta").at("family").as_string(), "unit-test");

  const Json& cases = j.at("cases");
  ASSERT_EQ(cases.size(), 1u);
  EXPECT_EQ(cases.at(0).at("name").as_string(), "case_one");
  EXPECT_EQ(cases.at(0).at("values").at("n").as_int(), 5);

  const Json& metrics_json = j.at("metrics");
  EXPECT_TRUE(metrics_json.contains("counters"));
  EXPECT_TRUE(metrics_json.contains("gauges"));
  EXPECT_TRUE(metrics_json.contains("histograms"));
  EXPECT_GE(metrics_json.at("counters")
                .at("test.bench_report.counter")
                .as_uint(),
            1u);

  const Json& gates = j.at("gates");
  ASSERT_EQ(gates.size(), 1u);
  const auto& gate = gates.at(0).members();
  ASSERT_EQ(gate.size(), 4u);
  EXPECT_EQ(gate[0].first, "name");
  EXPECT_EQ(gate[1].first, "observed");
  EXPECT_EQ(gate[2].first, "relation");
  EXPECT_EQ(gate[3].first, "bound");
  EXPECT_EQ(gate[0].second.as_string(), "n_is_five");
  EXPECT_EQ(gate[1].second.as_string(), "cases[case_one].values.n");
  EXPECT_EQ(gate[2].second.as_string(), "==");
  EXPECT_EQ(gate[3].second.as_int(), 5);
  EXPECT_TRUE(bench::failed_gates(j).empty());
}

/// The checker self-test's fixture document: every gate in `gates`
/// reads it.
bench::Report gate_fixture() {
  bench::Report report("gate_probe");
  report.meta()["kills"] = 3;
  report.meta()["rate"] = 0.75;
  report.meta()["verified"] = true;
  report.meta()["ok"] = std::uint64_t{7};
  report.meta()["refused"] = std::uint64_t{2};
  report.meta()["lost"] = std::uint64_t{1};
  report.meta()["requests"] = std::uint64_t{10};
  report.meta()["repro"] = "x;y";
  report.meta()["negative"] = -1;
  report.add_case("warm/total")["errors"] = 0;
  metrics::histogram("test.gate_probe.latency_ns").record(5);
  return report;
}

TEST(BenchReportTest, GatesHoldOnEveryRelationAndPathForm) {
  bench::Report report = gate_fixture();
  report.gate("eq", "meta.kills", "==", 3);
  report.gate("ge", "meta.kills", ">=", 3);
  report.gate("le", "meta.rate", "<=", 1);
  report.gate("gt", "meta.rate", ">", 0.5);
  report.gate("lt_path", "meta.kills", "<", "meta.requests");
  report.gate_sum("sum", {"meta.ok", "meta.refused", "meta.lost"}, "==",
                  "meta.requests");
  report.gate("bool", "meta.verified", "==", true);
  report.gate("case_by_name", "cases[warm/total].values.errors", "==", 0);
  report.gate("dotted_histogram",
              "metrics.histograms[test.gate_probe.latency_ns].count", ">", 0);
  const std::vector<std::string> failures =
      bench::failed_gates(report.to_json());
  EXPECT_TRUE(failures.empty()) << failures.front();
}

TEST(BenchReportTest, EachBrokenGateFailsWithItsReason) {
  struct Broken {
    const char* observed;
    const char* relation;
    Json bound;
    const char* reason;
  };
  const std::vector<Broken> cases = {
      {"meta.kills", "==", 4, "meta.kills = 3, expected == 4"},
      {"meta.kills", ">=", 4, "expected >= 4"},
      {"meta.rate", "<=", 0.5, "expected <= 0.5"},
      {"meta.kills", ">", 3, "expected > 3"},
      {"meta.kills", "<", 3, "expected < 3"},
      {"meta.verified", "==", false, "expected == false"},
      {"meta.no_such_field", ">=", 0, "meta.no_such_field is missing"},
      {"cases[cold/total].values.errors", "==", 0, "is missing"},
      {"metrics.histograms[test.none.latency_ns].count", ">", 0,
       "is missing"},
      {"meta.kills", "<=", "meta.no_such_bound", "meta.no_such_bound is "
                                                 "missing"},
      {"meta.kills.", ">=", 0, "is missing"},
      {"cases[warm/total]values.errors", "==", 0, "is missing"},
      {"meta.repro", "==", 0, "neither a number nor a bool"},
      {"meta.verified", "==", 1, "expected == 1"},
      {"meta.verified", ">=", true, "expected >= true"},
  };
  for (const Broken& b : cases) {
    bench::Report report = gate_fixture();
    report.gate("g", b.observed, b.relation, b.bound);
    const std::vector<std::string> failures =
        bench::failed_gates(report.to_json());
    ASSERT_EQ(failures.size(), 1u) << b.observed << " " << b.relation;
    EXPECT_NE(failures[0].find(b.reason), std::string::npos) << failures[0];
  }
}

TEST(BenchReportTest, SumTermsMustBeNonNegativeIntegers) {
  for (const std::vector<std::string>& terms :
       std::vector<std::vector<std::string>>{
           {"meta.ok", "meta.refused"},      // 9 != 10
           {"meta.rate", "meta.ok"},         // a float term
           {"meta.negative", "meta.ok"},     // a negative term
           {"meta.ok", "meta.no_such_term"}  // a missing term
       }) {
    bench::Report report = gate_fixture();
    report.gate_sum("s", terms, "==", "meta.requests");
    EXPECT_EQ(bench::failed_gates(report.to_json()).size(), 1u)
        << terms.back();
  }
}

TEST(BenchReportTest, UnknownRelationIsRejectedAtDeclaration) {
  bench::Report report = gate_fixture();
  EXPECT_THROW(report.gate("g", "meta.kills", "!=", 4), CheckError);
  report.gate("g", "meta.kills", "==", 3);
  EXPECT_THROW(report.gate("g", "meta.kills", "==", 3), CheckError);
}

TEST(BenchReportTest, WriteToEmitsParseableFile) {
  bench::Report report("schema_probe_file");
  report.add_case("only")["x"] = std::int64_t{1};
  const std::string path =
      ::testing::TempDir() + "/BENCH_schema_probe_file.json";
  report.write_to(path);

  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string contents;
  char buf[4096];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) {
    contents.append(buf, got);
  }
  std::fclose(f);
  std::remove(path.c_str());

  const Json parsed = Json::parse(contents);
  EXPECT_EQ(parsed.at("schema").as_string(), "shlcp.bench.v2");
  EXPECT_EQ(parsed.at("bench").as_string(), "schema_probe_file");
  EXPECT_EQ(parsed.at("cases").at(0).at("values").at("x").as_int(), 1);
}

TEST(BenchReportTest, HistogramSnapshotShapeIsConsistent) {
  metrics::histogram("test.bench_report.hist").record(123);
  const Json j = build_report_json();
  const Json& h =
      j.at("metrics").at("histograms").at("test.bench_report.hist");
  EXPECT_EQ(h.at("counts").size(), h.at("bounds").size() + 1);
  EXPECT_GE(h.at("count").as_uint(), 1u);
}

}  // namespace
}  // namespace shlcp
