// Interactive hiding subsystem tests (src/interactive, DESIGN.md §17).
// The load-bearing claims pinned here:
//
//   * honest prover + verifier complete every round and the recorded
//     transcript re-verifies independently;
//   * strict state-transition rejection: a message in the wrong state
//     or with the wrong shape leaves the session byte-for-byte where it
//     was, while a well-formed-but-failing open consumes it;
//   * the binding audit finds zero violations (second-preimage search,
//     machine forgeries, replays, chaos-corrupted wire messages);
//   * the hiding audit accepts the permuting prover and a hand-rolled
//     non-permuting prover fails its chi-square test (the negative
//     control that proves the test has teeth);
//   * cheating acceptance stays under the (1 - 1/m)^R envelope;
//   * Rng::stream sub-streams derived from one master seed do not
//     alias each other or the chaos/backoff derivations already in the
//     codebase.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/algorithms.h"
#include "graph/generators.h"
#include "interactive/audit.h"
#include "interactive/commit.h"
#include "interactive/protocol.h"
#include "interactive/session.h"
#include "interactive/table.h"
#include "util/rng.h"

namespace shlcp::ia {
namespace {

std::vector<int> proper_coloring(const Graph& g, int k) {
  const std::optional<std::vector<int>> c = k_coloring(g, k);
  EXPECT_TRUE(c.has_value());
  return *c;
}

/// Drives one honest session to its verdict, in place.
void run_honest(SessionMachine& machine, const std::vector<int>& coloring,
                int k, std::uint64_t seed) {
  CommitProver prover(coloring, k, machine.session_id(), seed ^ 0x5eedULL);
  while (machine.state() != SessionState::kDone) {
    StepOutcome committed = machine.on_commit(prover.commit_round());
    EXPECT_TRUE(committed.accepted) << committed.error;
    ASSERT_TRUE(committed.challenge.has_value());
    const Edge e = *committed.challenge;
    StepOutcome opened = machine.on_open(prover.open(e.u), prover.open(e.v));
    EXPECT_TRUE(opened.accepted) << opened.error;
    EXPECT_TRUE(opened.round_ok.value_or(false)) << opened.round_fail;
  }
}

// bench_interactive reports this tag as meta.schema_interactive; bumping
// it must come with an update here.
TEST(Commitment, InteractiveSchemaIsPinned) {
  EXPECT_STREQ(kInteractiveSchema, "shlcp.ia.v1");
}

TEST(Commitment, DomainSeparation) {
  const std::uint64_t base = commitment("s", 0, 0, 0, 0);
  EXPECT_EQ(base, commitment("s", 0, 0, 0, 0));  // deterministic
  EXPECT_NE(base, commitment("t", 0, 0, 0, 0));  // session
  EXPECT_NE(base, commitment("s", 1, 0, 0, 0));  // round
  EXPECT_NE(base, commitment("s", 0, 1, 0, 0));  // node
  EXPECT_NE(base, commitment("s", 0, 0, 1, 0));  // color
  EXPECT_NE(base, commitment("s", 0, 0, 0, 1));  // nonce
}

TEST(SessionMachine, HonestSessionAcceptsAndTranscriptReVerifies) {
  const Graph g = make_cycle(6);
  SessionMachine machine(g, 2, 8, 0xC0FFEE, "t-honest");
  run_honest(machine, proper_coloring(g, 2), 2, 0xC0FFEE);
  EXPECT_TRUE(machine.verdict());
  EXPECT_EQ(machine.rounds_done(), 8u);
  EXPECT_EQ(machine.transcript().size(), 8u);
  EXPECT_EQ(machine.verify_transcript(), "");
}

TEST(SessionMachine, ChallengesArePureInSeedAndRound) {
  const Graph g = make_cycle(5);
  const SessionMachine a(g, 2, 4, 0xABCD, "x");
  const SessionMachine b(g, 2, 4, 0xABCD, "y");  // id does not key challenges
  const SessionMachine c(g, 2, 4, 0xABCE, "x");
  bool some_differ = false;
  for (std::uint64_t r = 0; r < 16; ++r) {
    EXPECT_EQ(a.challenge_for(r), b.challenge_for(r));
    some_differ = some_differ || !(a.challenge_for(r) == c.challenge_for(r));
  }
  EXPECT_TRUE(some_differ);  // a different seed draws a different sequence
}

TEST(SessionMachine, StrictRejectionLeavesSessionUnchanged) {
  const Graph g = make_path(4);
  const std::vector<int> coloring = proper_coloring(g, 2);
  SessionMachine machine(g, 2, 2, 0xD00D, "t-strict");
  CommitProver prover(coloring, 2, "t-strict", 7);

  // Open before any commit: wrong state.
  StepOutcome out = machine.on_open(Opening{0, 0, 0}, Opening{1, 1, 0});
  EXPECT_FALSE(out.accepted);
  EXPECT_EQ(machine.state(), SessionState::kAwaitCommit);

  // Wrong commitment count: wrong shape.
  out = machine.on_commit({1, 2, 3});
  EXPECT_FALSE(out.accepted);
  EXPECT_EQ(machine.state(), SessionState::kAwaitCommit);

  // A proper commit round...
  const std::vector<std::uint64_t> commits = prover.commit_round();
  out = machine.on_commit(commits);
  ASSERT_TRUE(out.accepted);
  const Edge e = *out.challenge;

  // ...then a double commit (wrong state), an open of a non-challenged
  // node, and a duplicate endpoint -- all strictly rejected.
  out = machine.on_commit(commits);
  EXPECT_FALSE(out.accepted);
  int outsider = 0;
  while (outsider == e.u || outsider == e.v) {
    ++outsider;
  }
  out = machine.on_open(prover.open(outsider), prover.open(e.v));
  EXPECT_FALSE(out.accepted);
  out = machine.on_open(prover.open(e.u), prover.open(e.u));
  EXPECT_FALSE(out.accepted);
  EXPECT_EQ(machine.state(), SessionState::kAwaitOpen);
  EXPECT_EQ(machine.rounds_done(), 0u);

  // The original, well-formed open still lands: rejection burned nothing.
  out = machine.on_open(prover.open(e.u), prover.open(e.v));
  EXPECT_TRUE(out.accepted);
  EXPECT_TRUE(out.round_ok.value_or(false));
}

TEST(SessionMachine, FailingOpenConsumesTheSession) {
  const Graph g = make_cycle(6);
  SessionMachine machine(g, 2, 4, 0xBEEF, "t-consume");
  CommitProver prover(proper_coloring(g, 2), 2, "t-consume", 9);
  StepOutcome out = machine.on_commit(prover.commit_round());
  ASSERT_TRUE(out.accepted);
  const Edge e = *out.challenge;
  Opening bad = prover.open(e.u);
  bad.nonce ^= 1;  // well-formed, but the commitment no longer binds
  out = machine.on_open(bad, prover.open(e.v));
  EXPECT_TRUE(out.accepted);  // judged, not strictly rejected
  EXPECT_FALSE(out.round_ok.value_or(true));
  EXPECT_EQ(machine.state(), SessionState::kDone);
  EXPECT_FALSE(machine.verdict());
  // A consumed session strictly rejects everything.
  EXPECT_FALSE(machine.on_commit(prover.commit_round()).accepted);
}

TEST(Audit, BindingFindsNoViolations) {
  const Graph g = make_cycle(6);
  BindingAuditOptions opt;
  opt.forgery_attempts = 512;  // keep the test quick; the bench goes deep
  opt.machine_forgeries = 8;
  const BindingAuditResult result =
      audit_interactive_binding("cycle6", g, proper_coloring(g, 2), 2, opt);
  EXPECT_EQ(result.violations, 0u) << result.report.summary();
  EXPECT_TRUE(result.report.ok) << result.report.summary();
  EXPECT_GT(result.forgeries_tried, 0u);
  EXPECT_GT(result.replays_tried, 0u);
  EXPECT_GT(result.corrupted_messages, 0u);
}

TEST(Audit, HidingAcceptsThePermutingProver) {
  const Graph g = make_cycle(6);
  // Two distinct proper 2-colorings: the invariant is per-coloring
  // uniformity, i.e. the transcript cannot tell them apart.
  std::vector<int> a = proper_coloring(g, 2);
  std::vector<int> b = a;
  for (int& c : b) {
    c = 1 - c;
  }
  HidingAuditOptions opt;
  opt.sessions = 48;
  opt.rounds = 8;
  const HidingAuditResult result =
      audit_interactive_hiding("cycle6", g, {a, b}, 2, opt);
  EXPECT_TRUE(result.report.ok) << result.report.summary();
  ASSERT_EQ(result.per_coloring.size(), 2u);
  for (const HidingColoringStat& stat : result.per_coloring) {
    EXPECT_TRUE(stat.ok) << stat.chi2 << " vs " << result.threshold;
  }
}

TEST(Audit, NonPermutingProverFailsTheHidingTest) {
  // Negative control: commit the coloring verbatim (no per-round
  // permutation). Every challenged edge then reveals its fixed ordered
  // pair, so the cell counts are maximally lopsided and the chi-square
  // statistic must blow past the same threshold the real audit uses.
  const Graph g = make_cycle(6);
  const std::vector<int> coloring = proper_coloring(g, 2);
  const int k = 2;
  const int cells = k * (k - 1);
  std::vector<std::uint64_t> counts(static_cast<std::size_t>(cells), 0);
  std::uint64_t samples = 0;
  Rng seeds(0x1DE47171ULL);
  for (int s = 0; s < 48; ++s) {
    const std::string id = "t-leak-" + std::to_string(s);
    SessionMachine machine(g, k, 8, seeds.next_u64(), id);
    Rng nonces(seeds.next_u64());
    while (machine.state() != SessionState::kDone) {
      const std::uint64_t round = machine.rounds_done();
      std::vector<std::uint64_t> commits;
      std::vector<std::uint64_t> round_nonces;
      for (int v = 0; v < g.num_nodes(); ++v) {
        round_nonces.push_back(nonces.next_u64());
        commits.push_back(commitment(id, round, v,
                                     coloring[static_cast<std::size_t>(v)],
                                     round_nonces.back()));
      }
      StepOutcome out = machine.on_commit(commits);
      ASSERT_TRUE(out.accepted);
      const Edge e = *out.challenge;
      const Opening ou{e.u, coloring[static_cast<std::size_t>(e.u)],
                       round_nonces[static_cast<std::size_t>(e.u)]};
      const Opening ov{e.v, coloring[static_cast<std::size_t>(e.v)],
                       round_nonces[static_cast<std::size_t>(e.v)]};
      out = machine.on_open(ou, ov);
      ASSERT_TRUE(out.accepted);
      ASSERT_TRUE(out.round_ok.value_or(false)) << out.round_fail;
      const int a = ou.color;
      const int b = ov.color;
      counts[static_cast<std::size_t>(a * (k - 1) + (b > a ? b - 1 : b))]++;
      ++samples;
    }
    EXPECT_TRUE(machine.verdict());
  }
  const double expect =
      static_cast<double>(samples) / static_cast<double>(cells);
  double chi2 = 0.0;
  for (const std::uint64_t c : counts) {
    const double d = static_cast<double>(c) - expect;
    chi2 += d * d / expect;
  }
  EXPECT_GT(chi2, chi_square_threshold(cells - 1, 3.09));
}

TEST(Audit, CheatingAcceptanceStaysUnderTheEnvelope) {
  // cycle5 is not 2-colorable: any 2-coloring leaves >= 1 bad edge.
  const Graph g = make_cycle(5);
  const std::vector<int> cheat = {0, 1, 0, 1, 0};  // edge {4,0} is mono
  AmplificationOptions opt;
  opt.sessions = 128;
  const std::vector<AmplificationPoint> curve =
      measure_amplification(g, cheat, 2, opt);
  ASSERT_EQ(curve.size(), opt.round_counts.size());
  for (const AmplificationPoint& p : curve) {
    EXPECT_TRUE(p.within) << p.rounds << " rounds: rate " << p.rate
                          << " vs envelope " << p.envelope;
    EXPECT_NEAR(p.envelope, std::pow(1.0 - 1.0 / 5.0,
                                     static_cast<double>(p.rounds)),
                1e-12);
  }
  // Acceptance must actually decay with rounds (the curve is a curve).
  EXPECT_LT(curve.back().rate, 0.5);
}

TEST(RngStream, SubStreamsFromOneSeedDoNotAlias) {
  // One master seed fans out into every derived stream the codebase
  // uses: the interactive domains (challenge / permutation / nonce,
  // per-round indexes), the chaos transport's event rngs
  // (service/chaos.cpp), and the client's backoff jitter
  // (service/client.cpp). 16 draws from each must be pairwise distinct
  // across all streams -- a collision means two "independent" streams
  // share state.
  const std::uint64_t seed = 0x5EED0F00DULL;
  std::vector<std::vector<std::uint64_t>> streams;
  for (const std::uint64_t dom : {kDomChallenge, kDomPermutation, kDomNonce}) {
    for (std::uint64_t index = 0; index < 4; ++index) {
      Rng rng = Rng::stream(seed, dom, index);
      std::vector<std::uint64_t> draws;
      for (int i = 0; i < 16; ++i) {
        draws.push_back(rng.next_u64());
      }
      streams.push_back(std::move(draws));
    }
  }
  // Chaos-style: h = mix64(seed ^ (const + op)); Rng(mix64(h ^ salt)).
  for (const std::uint64_t op : {0ULL, 1ULL, 2ULL}) {
    const std::uint64_t h = mix64(seed ^ (0x6a09e667f3bcc909ULL + op));
    Rng rng(mix64(h ^ 0x1234ULL));
    std::vector<std::uint64_t> draws;
    for (int i = 0; i < 16; ++i) {
      draws.push_back(rng.next_u64());
    }
    streams.push_back(std::move(draws));
  }
  // Backoff-jitter style: Rng(mix64(seed ^ mix64(phi + call) ^ attempt)).
  for (std::uint64_t call = 0; call < 3; ++call) {
    Rng rng(mix64(seed ^ mix64(0x9e3779b97f4a7c15ULL + call) ^ 1ULL));
    std::vector<std::uint64_t> draws;
    for (int i = 0; i < 16; ++i) {
      draws.push_back(rng.next_u64());
    }
    streams.push_back(std::move(draws));
  }
  std::set<std::uint64_t> seen;
  std::size_t total = 0;
  for (const auto& draws : streams) {
    for (const std::uint64_t v : draws) {
      seen.insert(v);
      ++total;
    }
  }
  EXPECT_EQ(seen.size(), total);  // no value repeats across any stream
}

TEST(Protocol, JsonAdapterRunsAnHonestSession) {
  const Graph g = make_cycle(6);
  const std::vector<int> coloring = proper_coloring(g, 2);
  KColCommitSession session(g, 2, 3, 0xFACE, "t-wire");
  CommitProver prover(coloring, 2, "t-wire", 11);
  while (!session.done()) {
    Json commit = Json::object();
    commit["type"] = "commit";
    Json& arr = (commit["commitments"] = Json::array());
    for (const std::uint64_t c : prover.commit_round()) {
      arr.push_back(hex16(c));
    }
    Json reply = session.step(commit);
    EXPECT_EQ(reply.at("schema").as_string(), kInteractiveSchema);
    const Edge e{static_cast<Node>(
                     reply.at("challenge").at(std::size_t{0}).as_int()),
                 static_cast<Node>(
                     reply.at("challenge").at(std::size_t{1}).as_int())};
    Json open = Json::object();
    open["type"] = "open";
    Json& opens = (open["opens"] = Json::array());
    for (const Node v : {e.u, e.v}) {
      const Opening o = prover.open(v);
      Json& entry = opens.push_back(Json::array());
      entry.push_back(o.node);
      entry.push_back(o.color);
      entry.push_back(hex16(o.nonce));
    }
    reply = session.step(open);
    EXPECT_TRUE(reply.at("round_ok").as_bool());
  }
  EXPECT_TRUE(session.describe().at("verdict").as_bool());
  EXPECT_EQ(session.machine().verify_transcript(), "");
}

TEST(Protocol, MalformedMessagesThrowStateErrorWithoutAdvancing) {
  const Graph g = make_path(3);
  KColCommitSession session(g, 2, 1, 0x1, "t-bad");
  Json msg = Json::object();
  EXPECT_THROW(session.step(msg), StateError);  // no type
  msg["type"] = "open";
  EXPECT_THROW(session.step(msg), StateError);  // wrong state
  msg["type"] = "commit";
  EXPECT_THROW(session.step(msg), StateError);  // no commitments
  msg["commitments"] = Json::array();
  EXPECT_THROW(session.step(msg), StateError);  // wrong count
  EXPECT_EQ(session.describe().at("state").as_string(), "await_commit");
  EXPECT_FALSE(session.done());
}

TEST(SessionTable, TtlCapsAndExactAccounting) {
  std::uint64_t now = 0;
  SessionLimits limits;
  limits.ttl_ms = 100;
  limits.global_max = 3;
  limits.per_owner_max = 2;
  SessionTable table(limits, [&now] { return now; });
  const Graph g = make_path(3);
  const auto make = [&g] {
    return std::unique_ptr<InteractiveSession>(
        new KColCommitSession(g, 2, 1, 0x7, "any"));
  };

  EXPECT_EQ(table.open("a", 0, make), SessionTable::Refusal::kNone);
  EXPECT_EQ(table.open("a", 0, make), SessionTable::Refusal::kExists);
  EXPECT_EQ(table.open("b", 0, make), SessionTable::Refusal::kNone);
  // Per-owner cap for owner 0 is full; owner < 0 is exempt.
  EXPECT_EQ(table.open("c", 0, make), SessionTable::Refusal::kOwnerCap);
  EXPECT_EQ(table.open("d", -1, make), SessionTable::Refusal::kNone);
  EXPECT_EQ(table.open("e", -1, make), SessionTable::Refusal::kGlobalCap);

  // TTL: advance past it; the next op sweeps all three away.
  now += 101;
  EXPECT_EQ(table.sweep(), 3u);
  EXPECT_FALSE(table.step("a", Json::object()).found);

  // Reopen and abort one, complete nothing: counters stay exact.
  EXPECT_EQ(table.open("f", 1, make), SessionTable::Refusal::kNone);
  EXPECT_TRUE(table.close("f").found);
  EXPECT_FALSE(table.close("f").found);

  const SessionCounters c = table.counters();
  EXPECT_EQ(c.opened, 4u);
  EXPECT_EQ(c.refused, 2u);  // kExists does not count as refused
  EXPECT_EQ(c.expired, 3u);
  EXPECT_EQ(c.aborted, 1u);
  EXPECT_EQ(c.completed, 0u);
  EXPECT_EQ(c.live, 0u);
  EXPECT_EQ(c.opened, c.completed + c.expired + c.aborted + c.live);
}

TEST(SessionTable, CompletedSessionIsRetiredImmediately) {
  std::uint64_t now = 0;
  SessionTable table(SessionLimits{}, [&now] { return now; });
  const Graph g = make_path(3);
  const std::vector<int> coloring = {0, 1, 0};
  const std::string id = "t-retire";
  EXPECT_EQ(table.open(id, 0,
                       [&] {
                         return std::unique_ptr<InteractiveSession>(
                             new KColCommitSession(g, 2, 1, 0x99, id));
                       }),
            SessionTable::Refusal::kNone);
  CommitProver prover(coloring, 2, id, 3);

  Json commit = Json::object();
  commit["type"] = "commit";
  Json& arr = (commit["commitments"] = Json::array());
  for (const std::uint64_t c : prover.commit_round()) {
    arr.push_back(hex16(c));
  }
  SessionTable::StepResult step = table.step(id, commit);
  ASSERT_TRUE(step.found);
  ASSERT_FALSE(step.state_error) << step.error;
  const Json& ch = step.reply.at("challenge");
  Json open = Json::object();
  open["type"] = "open";
  Json& opens = (open["opens"] = Json::array());
  for (std::size_t i = 0; i < 2; ++i) {
    const Opening o = prover.open(static_cast<int>(ch.at(i).as_int()));
    Json& entry = opens.push_back(Json::array());
    entry.push_back(o.node);
    entry.push_back(o.color);
    entry.push_back(hex16(o.nonce));
  }
  step = table.step(id, open);
  ASSERT_TRUE(step.found);
  EXPECT_TRUE(step.completed);
  EXPECT_TRUE(step.reply.at("verdict").as_bool());

  // Retired: gone from the table, counted completed, not aborted.
  EXPECT_FALSE(table.step(id, open).found);
  EXPECT_FALSE(table.close(id).found);
  const SessionCounters c = table.counters();
  EXPECT_EQ(c.completed, 1u);
  EXPECT_EQ(c.live, 0u);
  EXPECT_EQ(c.opened, c.completed + c.expired + c.aborted + c.live);
}

}  // namespace
}  // namespace shlcp::ia
