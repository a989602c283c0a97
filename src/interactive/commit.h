// Commit-reveal primitives of the interactive hiding protocol
// (schema shlcp.ia.v1).
//
// The paper's hiding notion is information-theoretic: the verifier
// learns nothing about the k-coloring beyond its validity. This module
// implements the cryptographic cousin of that guarantee -- the classic
// commit-reveal interactive proof of k-colorability. One round:
//
//   1. The prover draws a fresh uniformly random permutation of the k
//      colors and a fresh nonce per node, and sends one binding
//      commitment per node to (permuted color, nonce).
//   2. The verifier challenges one uniformly random edge {u, v}.
//   3. The prover opens exactly the two challenged endpoints; the
//      verifier recomputes both commitments and accepts the round iff
//      they bind and the revealed colors are distinct and in [0, k).
//
// A cheating prover whose best committed coloring leaves b >= 1
// monochromatic edges survives a round with probability at most
// 1 - b/m <= 1 - 1/m, so R independent rounds amplify soundness to
// (1 - 1/m)^R. Hiding comes from the per-round permutation: for any
// proper coloring the opened ordered pair is uniform over the
// k*(k-1) distinct ordered color pairs, i.e. the transcript
// distribution is independent of which coloring the prover holds
// (interactive/audit.h turns both claims into checked invariants).
//
// The commitment is deliberately *not* cryptographically strong -- it
// is 64-bit FNV-1a + the splitmix64 finalizer, matching the digests
// used everywhere else in the repo (nbhd/checkpoint, service/cache).
// Binding here is an audited engineering property (the audit runs a
// bounded second-preimage search), not a security proof; the protocol
// *structure* is what the subsystem reproduces.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/hash.h"
#include "util/rng.h"

namespace shlcp::ia {

/// Schema tag of the interactive transcript protocol. Session replies
/// and DESIGN.md §17 reference it; bumping it orphans nothing (sessions
/// are ephemeral) but keeps wire archaeology honest.
inline constexpr const char* kInteractiveSchema = "shlcp.ia.v1";

/// Rng::stream domain tags of the subsystem. Disjoint constants per
/// purpose so the verifier's challenge stream, the prover's permutation
/// stream, and the prover's nonce stream never alias even when derived
/// from one master seed (tests/interactive_test.cpp checks this).
inline constexpr std::uint64_t kDomChallenge = 0x1a5e55101c4a11e0ULL;
inline constexpr std::uint64_t kDomPermutation = 0x1a5e5510be23417eULL;
inline constexpr std::uint64_t kDomNonce = 0x1a5e5510a02ce5edULL;

/// The binding commitment of one node's permuted color in one round:
/// mix64(fnv1a64("ia1|<session>|<round>|<node>|<color>|<nonce>")).
/// Domain-separating on the session id and round number means a
/// commitment can never be replayed across rounds or sessions.
std::uint64_t commitment(std::string_view session_id, std::uint64_t round,
                         int node, int color, std::uint64_t nonce);

/// One opened endpoint of a challenged edge: the revealed permuted
/// color and the nonce that binds it to the round's commitment.
struct Opening {
  int node = 0;
  int color = 0;
  std::uint64_t nonce = 0;

  friend bool operator==(const Opening&, const Opening&) = default;
};

/// The prover half of the protocol, honest by construction: it commits
/// to whatever coloring it was handed (hand it an improper one to play
/// the adversary -- bench_interactive's amplification curve does) with
/// a fresh uniform color permutation and fresh nonces every round, and
/// opens exactly what is challenged. Deliberately graph-free: the
/// prover only ever needs its coloring, so shlcp_loadgen can drive
/// sessions over the wire without materializing the instance.
class CommitProver {
 public:
  /// `coloring[v]` in [0, k). `seed` keys the permutation and nonce
  /// streams (per-round sub-streams via Rng::stream).
  CommitProver(std::vector<int> coloring, int k, std::string session_id,
               std::uint64_t seed);

  /// Commitments for the next round (fresh permutation + nonces);
  /// entry v commits node v. Advances the round counter.
  std::vector<std::uint64_t> commit_round();

  /// Opening of `node` for the last committed round.
  [[nodiscard]] Opening open(int node) const;

  /// Rounds committed so far.
  [[nodiscard]] std::uint64_t rounds_committed() const { return round_; }

  [[nodiscard]] int num_nodes() const {
    return static_cast<int>(coloring_.size());
  }

 private:
  std::vector<int> coloring_;
  int k_;
  std::string session_id_;
  std::uint64_t seed_;
  std::uint64_t round_ = 0;          // rounds committed
  std::vector<int> permuted_;        // permuted color per node, current round
  std::vector<std::uint64_t> nonces_;
};

}  // namespace shlcp::ia
