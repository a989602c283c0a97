// Acceptance gate + measurement harness for the interactive hiding
// subsystem (DESIGN.md §17, EXPERIMENTS.md E24).
//
// Four phases, each feeding BENCH_interactive.json:
//
//  1. Binding: audit_interactive_binding drives the second-preimage
//     search, machine-level forgeries, replay drills, and honest wire
//     sessions whose messages are byte-corrupted under the *real*
//     ChaosPlan standard family (service/chaos.h), converted attack by
//     attack into TranscriptAttack descriptors. Gate: zero violations.
//
//  2. Hiding: audit_interactive_hiding runs permutation-randomized
//     sessions per ground-truth coloring and chi-square-tests the
//     revealed ordered color pairs against uniform. Gate: every
//     coloring passes (the transcript distribution is
//     coloring-independent).
//
//  3. Amplification: a cheating prover (cycle5 is not 2-colorable, so
//     any committed 2-coloring leaves >= 1 monochromatic edge) is run
//     at increasing round counts; measured acceptance must stay under
//     the (1 - 1/m)^R envelope plus 3 sigma of binomial noise.
//
//  4. Serving accounting: a Service with an injected clock opens, runs,
//     expires, and cap-refuses real wire sessions; at the end the
//     identity `open attempts == completed + expired + refused` must be
//     exact (no aborted, none live -- every attempt ends in exactly one
//     bucket).
//
// Results go to BENCH_interactive.json with their gates
// (bench/report.h); exit status is nonzero if any gate fails.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <string>
#include <vector>

#include "bench/report.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "interactive/audit.h"
#include "interactive/protocol.h"
#include "service/chaos.h"
#include "service/loadgen.h"
#include "service/service.h"
#include "util/check.h"
#include "util/format.h"
#include "util/hash.h"
#include "util/json.h"

using namespace shlcp;

namespace {

constexpr std::uint64_t kSeed = 0x1A5EEDB0A7ULL;

int binding_forgeries() { return bench::smoke() ? 512 : 8192; }
int binding_sessions_per_attack() { return bench::smoke() ? 3 : 8; }
int hiding_sessions() { return bench::smoke() ? 48 : 256; }
int amplification_sessions() { return bench::smoke() ? 128 : 1024; }
int accounting_honest() { return bench::smoke() ? 8 : 64; }
int accounting_expired() { return bench::smoke() ? 4 : 16; }

/// The ChaosPlan standard family, converted to transcript attacks: the
/// same labels, seeds, and corruption rates the transport chaos bench
/// replays, applied to session messages instead of wire frames. Plans
/// that cannot corrupt bytes (chop/reset/delay-only) come through at
/// permille 0 and serve as clean controls.
std::vector<ia::TranscriptAttack> attacks_from_chaos(std::uint64_t seed) {
  std::vector<ia::TranscriptAttack> attacks;
  for (const svc::ChaosPlan& plan : svc::ChaosPlan::standard_family(seed)) {
    attacks.push_back(
        ia::TranscriptAttack{plan.label, plan.seed, plan.corrupt_permille});
  }
  return attacks;
}

Json make_request(const std::string& op, Json params) {
  Json req = Json::object();
  req["id"] = 0;
  req["op"] = op;
  req["params"] = std::move(params);
  return req;
}

}  // namespace

int main() {
  bench::Report report("interactive");
  report.meta()["seed"] = format("0x%llx", static_cast<unsigned long long>(kSeed));
  report.meta()["schema_interactive"] = ia::kInteractiveSchema;

  // Phase 1: binding, under the converted ChaosPlan standard family.
  {
    const Graph g = make_cycle(6);
    const std::optional<std::vector<int>> coloring = k_coloring(g, 2);
    SHLCP_CHECK(coloring.has_value());
    ia::BindingAuditOptions opt;
    opt.seed = kSeed;
    opt.forgery_attempts = binding_forgeries();
    opt.sessions_per_attack = binding_sessions_per_attack();
    opt.attacks = attacks_from_chaos(kSeed);
    const ia::BindingAuditResult binding =
        ia::audit_interactive_binding("cycle6", g, *coloring, 2, opt);
    report.meta()["binding_violations"] =
        static_cast<std::int64_t>(binding.violations);
    report.meta()["binding_sessions"] =
        static_cast<std::int64_t>(binding.sessions);
    report.meta()["forgeries_tried"] =
        static_cast<std::int64_t>(binding.forgeries_tried);
    report.meta()["replays_tried"] =
        static_cast<std::int64_t>(binding.replays_tried);
    report.meta()["corrupted_messages"] =
        static_cast<std::int64_t>(binding.corrupted_messages);
    report.meta()["binding_attacks"] =
        static_cast<std::int64_t>(opt.attacks.size());
    report.meta()["binding_ok"] = binding.report.ok;
    if (!binding.report.ok) {
      std::fprintf(stderr, "bench_interactive: binding audit: %s\n",
                   binding.report.summary().c_str());
    }
    report.gate("binding_violations", "meta.binding_violations", "==", 0);
    report.gate("binding_ok", "meta.binding_ok", "==", true);
    // The binding audit actually ran.
    for (const char* key :
         {"binding_sessions", "forgeries_tried", "binding_attacks"}) {
      report.gate(key, format("meta.%s", key), ">", 0);
    }
  }

  // Phase 2: hiding, per ground-truth coloring.
  {
    const Graph g = make_cycle(6);
    const std::optional<std::vector<int>> a = k_coloring(g, 2);
    SHLCP_CHECK(a.has_value());
    std::vector<int> b = *a;
    for (int& c : b) {
      c = 1 - c;
    }
    ia::HidingAuditOptions opt;
    opt.seed = kSeed ^ 0x41D1ULL;
    opt.sessions = hiding_sessions();
    const std::vector<std::vector<int>> colorings = {*a, b};
    const ia::HidingAuditResult hiding =
        ia::audit_interactive_hiding("cycle6", g, colorings, 2, opt);
    bool all_ok = hiding.report.ok;
    for (std::size_t i = 0; i < hiding.per_coloring.size(); ++i) {
      Json& values = report.add_case(format("hiding_coloring_%zu", i));
      values["chi2"] = hiding.per_coloring[i].chi2;
      values["samples"] =
          static_cast<std::int64_t>(hiding.per_coloring[i].samples);
      values["ok"] = hiding.per_coloring[i].ok;
      all_ok = all_ok && hiding.per_coloring[i].ok;
    }
    report.meta()["hiding_ok"] = all_ok;
    report.meta()["hiding_df"] = hiding.df;
    report.meta()["hiding_threshold"] = hiding.threshold;
    report.meta()["hiding_colorings"] =
        static_cast<std::int64_t>(hiding.per_coloring.size());
    if (!all_ok) {
      std::fprintf(stderr, "bench_interactive: hiding audit: %s\n",
                   hiding.report.summary().c_str());
    }
    report.gate("hiding_ok", "meta.hiding_ok", "==", true);
    report.gate("hiding_colorings", "meta.hiding_colorings", ">=", 2);
    for (std::size_t i = 0; i < colorings.size(); ++i) {
      report.gate(format("hiding_coloring_%zu", i),
                  format("cases[hiding_coloring_%zu].values.ok", i), "==",
                  true);
    }
  }

  // Phase 3: soundness amplification on the non-2-colorable cycle5.
  {
    const Graph g = make_cycle(5);
    const std::vector<int> cheat = {0, 1, 0, 1, 0};  // edge {4, 0} is mono
    ia::AmplificationOptions opt;
    opt.seed = kSeed ^ 0xA3B1ULL;
    opt.sessions = amplification_sessions();
    opt.round_counts = {1, 2, 4, 8, 16};
    const std::vector<ia::AmplificationPoint> curve =
        ia::measure_amplification(g, cheat, 2, opt);
    for (const ia::AmplificationPoint& p : curve) {
      Json& values = report.add_case(
          format("rounds_%llu", static_cast<unsigned long long>(p.rounds)));
      values["rounds"] = static_cast<std::int64_t>(p.rounds);
      values["sessions"] = p.sessions;
      values["accepted"] = p.accepted;
      values["rate"] = p.rate;
      values["envelope"] = p.envelope;
      values["sigma"] = p.sigma;
      values["within"] = p.within;
    }
    // Declared from the requested round counts, so a missing point fails.
    for (const std::uint64_t rounds : opt.round_counts) {
      const std::string c =
          format("rounds_%llu", static_cast<unsigned long long>(rounds));
      const auto key = [&c](const char* field) {
        return format("cases[%s].values.%s", c.c_str(), field);
      };
      report.gate(c + ".rounds", key("rounds"), "==", rounds);
      report.gate(c + ".sessions", key("sessions"), ">", 0);
      report.gate(c + ".accepted", key("accepted"), ">", 0);
      for (const char* unit : {"rate", "envelope"}) {
        report.gate(format("%s.%s_min", c.c_str(), unit), key(unit), ">=", 0);
        report.gate(format("%s.%s_max", c.c_str(), unit), key(unit), "<=", 1);
      }
      // Cheating acceptance stays inside the (1 - 1/m)^R envelope.
      report.gate(c + ".within", key("within"), "==", true);
    }
  }

  // Phase 4: serving accounting under an injected clock.
  {
    std::uint64_t now = 0;
    svc::ServiceConfig config;
    config.sessions.ttl_ms = 1'000;
    config.sessions.per_conn_max = 4;
    config.sessions.clock = [&now] { return now; };
    svc::Service service(config);
    const Graph g = make_cycle(6);
    const std::optional<std::vector<int>> coloring = k_coloring(g, 2);
    SHLCP_CHECK(coloring.has_value());

    std::uint64_t attempts = 0;
    std::uint64_t honest_ok = 0;
    const auto t0 = std::chrono::steady_clock::now();
    const svc::Caller caller = svc::in_process_caller(service);
    for (int i = 0; i < accounting_honest(); ++i) {
      ++attempts;
      const std::string id = format("bench-h%d", i);
      honest_ok +=
          svc::honest_session(caller, id, *coloring, 2, fnv1a64(id)).ok;
      now += 10;  // well under the TTL
    }
    // Expired: open, let the TTL lapse, let the next op sweep.
    for (int i = 0; i < accounting_expired(); ++i) {
      Json params = Json::object();
      params["session"] = format("bench-e%d", i);
      params["instance"] = "cycle6";
      params["rounds"] = 1;
      ++attempts;
      SHLCP_CHECK(service
                      .handle(make_request("session_open", params), 0,
                              /*conn=*/100 + i)
                      .at("ok")
                      .as_bool());
    }
    now += 1'001;
    // Refused: fill one connection's cap, then overflow it. The opens
    // also sweep the expired batch above.
    int refused = 0;
    for (int i = 0; i < 6; ++i) {
      Json params = Json::object();
      params["session"] = format("bench-r%d", i);
      params["instance"] = "cycle6";
      params["rounds"] = 1;
      ++attempts;
      const Json response =
          service.handle(make_request("session_open", params), 0, /*conn=*/7);
      if (!response.at("ok").as_bool()) {
        SHLCP_CHECK(response.at("error").at("code").as_string() ==
                    svc::kErrOverloaded);
        SHLCP_CHECK(response.at("error").contains("retry_after_ms"));
        ++refused;
      }
    }
    // The cap-fillers expire too (closing them would count aborted), so
    // every attempt lands in exactly one of {completed, expired,
    // refused}.
    now += 1'001;
    service.handle(make_request("health", Json::object()));  // sweeps

    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    const ia::SessionCounters c = service.session_counters();
    Json& values = report.add_case("serving");
    values["attempts"] = static_cast<std::int64_t>(attempts);
    values["sessions_per_s"] =
        seconds > 0 ? static_cast<double>(attempts) / seconds : 0.0;
    values["steps"] = static_cast<std::int64_t>(c.steps);
    values["honest"] = static_cast<std::int64_t>(accounting_honest());
    values["honest_ok"] = honest_ok;

    report.meta()["opened"] = static_cast<std::int64_t>(attempts);
    report.meta()["completed"] = static_cast<std::int64_t>(c.completed);
    report.meta()["expired"] = static_cast<std::int64_t>(c.expired);
    report.meta()["refused"] = static_cast<std::int64_t>(c.refused);
    report.meta()["aborted"] = static_cast<std::int64_t>(c.aborted);
    report.meta()["live"] = static_cast<std::int64_t>(c.live);
    report.meta()["sessions"] = static_cast<std::int64_t>(c.opened);

    // Every open attempt lands in exactly one of {completed, expired,
    // refused}, and the run drains: nothing aborted, nothing live.
    report.gate("serving_attempts", "cases[serving].values.attempts", ">", 0);
    report.gate("opened_is_attempts", "cases[serving].values.attempts", "==",
                "meta.opened");
    report.gate_sum("session_accounting",
                    {"meta.completed", "meta.expired", "meta.refused"}, "==",
                    "meta.opened");
    report.gate_sum("admission_accounting", {"meta.sessions", "meta.refused"},
                    "==", "cases[serving].values.attempts");
    report.gate("aborted", "meta.aborted", "==", 0);
    report.gate("live", "meta.live", "==", 0);
    report.gate("sessions", "meta.sessions", ">", 0);
    report.gate("honest_sessions_accepted", "cases[serving].values.honest_ok",
                "==", "cases[serving].values.honest");
  }

  return report.write_gated();
}
