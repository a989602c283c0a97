#include "interactive/audit.h"

#include <cmath>
#include <utility>

#include "util/check.h"
#include "util/format.h"
#include "util/hash.h"

namespace shlcp::ia {

namespace {

/// Monochromatic edges of `coloring` on `g`.
int bad_edge_count(const Graph& g, const std::vector<int>& coloring) {
  int bad = 0;
  for (const Edge& e : g.edges()) {
    bad += coloring[static_cast<std::size_t>(e.u)] ==
                   coloring[static_cast<std::size_t>(e.v)]
               ? 1
               : 0;
  }
  return bad;
}

void add_finding(AuditReport& report, const char* invariant, std::string repro,
                 std::string detail) {
  report.ok = false;
  report.findings.push_back(
      AuditFinding{invariant, std::move(repro), std::move(detail)});
}

/// Drives one full session of SessionMachine with `prover`; returns the
/// machine in its final state.
SessionMachine run_session(const Graph& g, CommitProver& prover, int k,
                           std::uint64_t rounds, std::uint64_t challenge_seed,
                           const std::string& session_id) {
  SessionMachine machine(g, k, rounds, challenge_seed, session_id);
  while (machine.state() != SessionState::kDone) {
    const StepOutcome committed = machine.on_commit(prover.commit_round());
    SHLCP_CHECK(committed.accepted && committed.challenge.has_value());
    const Edge ch = *committed.challenge;
    const StepOutcome opened =
        machine.on_open(prover.open(ch.u), prover.open(ch.v));
    SHLCP_CHECK(opened.accepted);
  }
  return machine;
}

/// Flips one random byte of `text` (never the result of a no-op xor).
void corrupt_byte(std::string& text, Rng& rng) {
  if (text.empty()) {
    return;
  }
  const std::size_t pos = static_cast<std::size_t>(
      rng.next_below(static_cast<std::uint64_t>(text.size())));
  const char mask =
      static_cast<char>(1u << static_cast<unsigned>(rng.next_below(8)));
  text[pos] = static_cast<char>(text[pos] ^ mask);
}

}  // namespace

std::vector<TranscriptAttack> standard_attacks(std::uint64_t seed) {
  return {
      TranscriptAttack{"ia-clean", mix64(seed ^ 0x01), 0},
      TranscriptAttack{"ia-corrupt-light", mix64(seed ^ 0x02), 60},
      TranscriptAttack{"ia-corrupt-heavy", mix64(seed ^ 0x03), 400},
      TranscriptAttack{"ia-corrupt-always", mix64(seed ^ 0x04), 1000},
  };
}

BindingAuditResult audit_interactive_binding(const std::string& instance_name,
                                             const Graph& g,
                                             const std::vector<int>& coloring,
                                             int k,
                                             const BindingAuditOptions& opt) {
  SHLCP_CHECK_MSG(bad_edge_count(g, coloring) == 0,
                  "binding audit: the host coloring must be proper");
  BindingAuditResult res;
  const std::string repro_base =
      format("interactive:binding instance=%s k=%d seed=0x%llx",
             instance_name.c_str(), k, static_cast<unsigned long long>(opt.seed));

  // --- 1. Bounded second-preimage search against the commitment ---
  // Open a round honestly, then search for (wrong color, nonce) pairs
  // that bind to the same commitment. Any hit means a prover could have
  // opened two colors for one commitment: a binding violation.
  {
    const std::string sid = "audit-preimage";
    CommitProver prover(coloring, k, sid, mix64(opt.seed ^ 0x11));
    SessionMachine machine(g, k, /*rounds=*/1, mix64(opt.seed ^ 0x12), sid);
    const StepOutcome committed = machine.on_commit(prover.commit_round());
    SHLCP_CHECK(committed.accepted);
    const Edge ch = *committed.challenge;
    Rng forge_rng = Rng::stream(opt.seed, 0xf02e5ULL, 0);
    for (const int node : {ch.u, ch.v}) {
      const Opening honest = prover.open(node);
      const std::uint64_t bound =
          commitment(sid, 0, node, honest.color, honest.nonce);
      for (int wrong = 0; wrong < k; ++wrong) {
        if (wrong == honest.color) {
          continue;
        }
        for (int t = 0; t < opt.forgery_attempts; ++t) {
          ++res.forgeries_tried;
          if (commitment(sid, 0, node, wrong, forge_rng.next_u64()) == bound) {
            add_finding(res.report, "binding", repro_base,
                        format("second preimage: node %d opens color %d and "
                               "%d for one commitment",
                               node, honest.color, wrong));
          }
        }
      }
    }
  }

  // --- 2. Machine-level forged opens ---
  // Each forgery consumes a session (a caught cheat is final), so each
  // try drives a fresh one: honest commit, then open the challenged
  // edge with one endpoint's color swapped and a random nonce. The
  // round must fail.
  for (int i = 0; i < opt.machine_forgeries; ++i) {
    const std::string sid = format("audit-forge-%d", i);
    CommitProver prover(coloring, k, sid, mix64(opt.seed ^ (0x100u + i)));
    SessionMachine machine(g, k, /*rounds=*/1, mix64(opt.seed ^ (0x200u + i)),
                           sid);
    const StepOutcome committed = machine.on_commit(prover.commit_round());
    const Edge ch = *committed.challenge;
    Opening forged = prover.open(ch.v);
    forged.color = (forged.color + 1 + i % (k - 1)) % k;
    Rng nonce_rng = Rng::stream(opt.seed, 0xf0e9eULL, static_cast<std::uint64_t>(i));
    forged.nonce = nonce_rng.next_u64();
    const StepOutcome opened = machine.on_open(prover.open(ch.u), forged);
    SHLCP_CHECK(opened.accepted);
    if (opened.round_ok.value_or(false)) {
      add_finding(res.report, "binding", repro_base,
                  format("forged open accepted: node %d color %d", ch.v,
                         forged.color));
    }
  }

  // --- 3. Replay / double-delivery drills ---
  // A replayed opening and a double commit must be strictly rejected
  // (session unchanged), never re-judged.
  {
    const std::string sid = "audit-replay";
    CommitProver prover(coloring, k, sid, mix64(opt.seed ^ 0x31));
    SessionMachine machine(g, k, /*rounds=*/2, mix64(opt.seed ^ 0x32), sid);
    const StepOutcome committed = machine.on_commit(prover.commit_round());
    const Edge ch = *committed.challenge;
    const Opening a = prover.open(ch.u);
    const Opening b = prover.open(ch.v);
    // Double commit while an opening is due.
    ++res.replays_tried;
    if (machine.on_commit(prover.commit_round()).accepted) {
      add_finding(res.report, "binding", repro_base,
                  "double commit accepted while awaiting an opening");
    }
    const StepOutcome opened = machine.on_open(a, b);
    SHLCP_CHECK(opened.accepted && opened.round_ok.value_or(false));
    // Replay the same opening into the next round.
    ++res.replays_tried;
    if (machine.on_open(a, b).accepted) {
      add_finding(res.report, "binding", repro_base,
                  "replayed opening accepted across rounds");
    }
  }

  // --- 4. Transcript attacks through the wire adapter ---
  // Honest sessions through KColCommitSession with per-message byte
  // corruption (ChaosPlan-style seed/permille keying). Whatever the
  // corruption does, an accepting session must carry a transcript that
  // re-verifies independently -- and every transcript, accepted or
  // not, must be self-consistent.
  std::vector<TranscriptAttack> attacks =
      opt.attacks.empty() ? standard_attacks(opt.seed) : opt.attacks;
  for (std::size_t a = 0; a < attacks.size(); ++a) {
    const TranscriptAttack& attack = attacks[a];
    for (int s = 0; s < opt.sessions_per_attack; ++s) {
      const std::string sid = format("audit-%s-%d", attack.label.c_str(), s);
      const std::string repro =
          format("%s attack=%s session=%d", repro_base.c_str(),
                 attack.label.c_str(), s);
      CommitProver prover(coloring, k, sid,
                          mix64(opt.seed ^ (0x4000u + (a << 8) + s)));
      KColCommitSession session(g, k, opt.rounds,
                                mix64(opt.seed ^ (0x8000u + (a << 8) + s)),
                                sid);
      ++res.sessions;
      std::uint64_t msg_index = 0;
      Edge challenge{0, 0};
      bool awaiting_open = false;
      while (!session.done()) {
        Json msg = Json::object();
        if (!awaiting_open) {
          msg["type"] = "commit";
          Json& cs = (msg["commitments"] = Json::array());
          for (const std::uint64_t c : prover.commit_round()) {
            cs.push_back(hex16(c));
          }
        } else {
          msg["type"] = "open";
          Json& opens = (msg["opens"] = Json::array());
          for (const int node : {challenge.u, challenge.v}) {
            const Opening o = prover.open(node);
            Json& entry = opens.push_back(Json::array());
            entry.push_back(o.node);
            entry.push_back(o.color);
            entry.push_back(hex16(o.nonce));
          }
        }
        // First delivery may be corrupted in transit; the retry (the
        // prover's original bytes) is clean, so the drill always makes
        // progress.
        std::string wire = msg.dump();
        Rng rng = Rng::stream(attack.seed ^ res.sessions,
                              fnv1a64(attack.label), msg_index++);
        const bool corrupt =
            attack.corrupt_permille > 0 &&
            rng.next_below(1000) <
                static_cast<std::uint64_t>(attack.corrupt_permille);
        if (corrupt) {
          corrupt_byte(wire, rng);
          ++res.corrupted_messages;
        }
        Json reply;
        bool delivered = false;
        try {
          reply = session.step(Json::parse(wire));
          delivered = true;
        } catch (const CheckError&) {
        } catch (const StateError&) {
        }
        if (!delivered) {
          try {
            reply = session.step(msg);
          } catch (const StateError&) {
            // The corrupted delivery was *accepted* in a mangled form
            // (e.g. a commit with altered hex still parses); the honest
            // retry now mismatches the state. Resync from the reply we
            // never saw: abandon via describe().
            reply = session.describe();
          }
        }
        if (session.done()) {
          break;
        }
        const std::string& state = reply.at("state").as_string();
        awaiting_open = state == "await_open";
        if (awaiting_open && reply.contains("challenge")) {
          challenge.u = static_cast<int>(reply.at("challenge").at(0).as_int());
          challenge.v = static_cast<int>(reply.at("challenge").at(1).as_int());
        } else if (awaiting_open) {
          // Resynced mid-round: recover the pending challenge from the
          // machine (the prover would have gotten it in the lost reply).
          challenge = session.machine().transcript().back().challenge;
        }
      }
      const std::string inconsistency = session.machine().verify_transcript();
      if (!inconsistency.empty()) {
        add_finding(res.report, "binding", repro,
                    format("transcript fails re-verification: %s",
                           inconsistency.c_str()));
      }
    }
  }

  res.report.runs = res.sessions;
  for (const AuditFinding& f : res.report.findings) {
    res.violations += f.invariant == "binding" ? 1 : 0;
  }
  return res;
}

double chi_square_threshold(int df, double z) {
  SHLCP_CHECK(df >= 1);
  const double d = static_cast<double>(df);
  const double t = 1.0 - 2.0 / (9.0 * d) + z * std::sqrt(2.0 / (9.0 * d));
  return d * t * t * t;
}

HidingAuditResult audit_interactive_hiding(
    const std::string& instance_name, const Graph& g,
    const std::vector<std::vector<int>>& colorings, int k,
    const HidingAuditOptions& opt) {
  SHLCP_CHECK_MSG(!colorings.empty(), "hiding audit: need >= 1 coloring");
  HidingAuditResult res;
  const int cells = k * (k - 1);
  res.df = cells - 1;
  res.threshold = chi_square_threshold(res.df, opt.z);

  for (std::size_t ci = 0; ci < colorings.size(); ++ci) {
    const std::vector<int>& coloring = colorings[ci];
    SHLCP_CHECK_MSG(bad_edge_count(g, coloring) == 0,
                    "hiding audit: coloring must be proper");
    std::vector<std::uint64_t> counts(static_cast<std::size_t>(cells), 0);
    std::uint64_t samples = 0;
    for (int s = 0; s < opt.sessions; ++s) {
      const std::string sid = format("audit-hide-%zu-%d", ci, s);
      CommitProver prover(
          coloring, k, sid,
          Rng::stream(opt.seed, 0x41d500 + ci, static_cast<std::uint64_t>(s))
              .next_u64());
      SessionMachine machine = run_session(
          g, prover, k, opt.rounds,
          Rng::stream(opt.seed, 0x41d600 + ci, static_cast<std::uint64_t>(s))
              .next_u64(),
          sid);
      SHLCP_CHECK(machine.verdict());
      for (const RoundRecord& rec : machine.transcript()) {
        const int a = rec.open_u.color;
        const int b = rec.open_v.color;
        // Ordered distinct pair (a, b) -> cell a*(k-1) + (b adjusted
        // past the diagonal).
        const int cell = a * (k - 1) + (b > a ? b - 1 : b);
        ++counts[static_cast<std::size_t>(cell)];
        ++samples;
      }
    }
    const double expected =
        static_cast<double>(samples) / static_cast<double>(cells);
    double chi2 = 0.0;
    for (const std::uint64_t c : counts) {
      const double d = static_cast<double>(c) - expected;
      chi2 += d * d / expected;
    }
    HidingColoringStat stat;
    stat.chi2 = chi2;
    stat.samples = samples;
    stat.ok = chi2 <= res.threshold;
    res.per_coloring.push_back(stat);
    res.report.runs += static_cast<std::uint64_t>(opt.sessions);
    if (!stat.ok) {
      add_finding(
          res.report, "hiding",
          format("interactive:hiding instance=%s k=%d coloring=%zu "
                 "seed=0x%llx",
                 instance_name.c_str(), k, ci,
                 static_cast<unsigned long long>(opt.seed)),
          format("revealed color pairs deviate from uniform: chi2 %.2f > "
                 "%.2f (df %d, %llu samples)",
                 chi2, res.threshold, res.df,
                 static_cast<unsigned long long>(samples)));
    }
  }
  return res;
}

std::vector<AmplificationPoint> measure_amplification(
    const Graph& g, const std::vector<int>& cheat_coloring, int k,
    const AmplificationOptions& opt) {
  const int bad = bad_edge_count(g, cheat_coloring);
  SHLCP_CHECK_MSG(bad >= 1,
                  "amplification: the cheat coloring must be improper");
  const double m = static_cast<double>(g.num_edges());
  std::vector<AmplificationPoint> curve;
  for (const std::uint64_t rounds : opt.round_counts) {
    AmplificationPoint point;
    point.rounds = rounds;
    point.sessions = opt.sessions;
    for (int s = 0; s < opt.sessions; ++s) {
      const std::string sid =
          format("amp-%llu-%d", static_cast<unsigned long long>(rounds), s);
      CommitProver prover(
          cheat_coloring, k, sid,
          Rng::stream(opt.seed, 0xa3b100 + rounds, static_cast<std::uint64_t>(s))
              .next_u64());
      SessionMachine machine(
          g, k, rounds,
          Rng::stream(opt.seed, 0xa3b200 + rounds, static_cast<std::uint64_t>(s))
              .next_u64(),
          sid);
      while (machine.state() != SessionState::kDone) {
        const StepOutcome committed = machine.on_commit(prover.commit_round());
        SHLCP_CHECK(committed.accepted);
        const Edge ch = *committed.challenge;
        const StepOutcome opened =
            machine.on_open(prover.open(ch.u), prover.open(ch.v));
        SHLCP_CHECK(opened.accepted);
      }
      point.accepted += machine.verdict() ? 1 : 0;
    }
    point.rate =
        static_cast<double>(point.accepted) / static_cast<double>(opt.sessions);
    point.envelope = std::pow(1.0 - 1.0 / m, static_cast<double>(rounds));
    point.sigma = std::sqrt(point.envelope * (1.0 - point.envelope) /
                            static_cast<double>(opt.sessions));
    point.within = point.rate <= point.envelope + opt.slack_z * point.sigma;
    curve.push_back(point);
  }
  return curve;
}

}  // namespace shlcp::ia
