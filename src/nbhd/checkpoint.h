// Checkpoint/resume for the sharded V(D, n) builds (schema shlcp.ckpt.v1).
//
// A checkpoint is a directory holding two files:
//
//   manifest.json -- one shlcp.ckpt.v1 object describing *what* was
//     being built (decoder, build kind, k, an options hash, a digest of
//     the frame list) and *how far* it got (completed frame prefix,
//     instances absorbed, status, stop reason), plus an FNV-1a digest of
//     the state file so torn or tampered state fails loudly.
//   state.json -- NbhdGraph::to_json() of the graph built from the
//     completed frame prefix.
//
// Both files are written atomically (temp file + rename), manifest last,
// so a crash mid-checkpoint leaves either the previous consistent
// checkpoint or a state file the next manifest has not blessed yet --
// never a manifest pointing at torn state.
//
// Resume validation is strict: schema, decoder name, build kind, k,
// options hash, frame count, frame-list digest, and (when both sides
// know it) the git revision must all match, and the state digest must
// verify. Any mismatch is a CheckError carrying a one-line repro string
// naming the field, both values, and the manifest path -- a checkpoint
// is never silently reinterpreted against a different sweep.
//
// The determinism argument (DESIGN.md §11): frames are materialized in
// sequential order, chunks are contiguous, and only the *completed chunk
// prefix* is ever merged into the checkpointed state. Resuming therefore
// continues the exact sequential absorption order from frame
// `frames_done`, which is why an interrupted-then-resumed build is
// bit-identical to an uninterrupted one (tests/checkpoint_test.cpp).

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "lcp/enumerate.h"
#include "nbhd/nbhd_graph.h"

namespace shlcp {

inline constexpr const char* kCheckpointSchema = "shlcp.ckpt.v1";

/// fnv1a64 (util/hash.h) over `bytes`, rendered as "fnv:<16 hex
/// digits>". Used for the state digest, the frame-list digest, and the
/// options hash; tools/check_bench_json.py re-implements it for CI-side
/// validation.
std::string fnv1a_hex(std::string_view bytes);

/// `git describe --always --dirty` of the working tree, or "unknown"
/// outside a checkout (same convention as bench/report.h).
std::string checkpoint_git_rev();

/// Digest of a materialized frame list: frame count plus every frame's
/// (graph_index, ids, bound, ports). Two sweeps with the same digest
/// visit the same frames in the same order.
std::string frames_digest(const std::vector<EnumFrame>& frames);

/// Hash of everything that shapes the enumeration semantics of a build:
/// decoder name, build kind, k, and the EnumOptions dimension toggles.
std::string enum_options_hash(const std::string& decoder_name,
                              const std::string& build_kind, int k,
                              const EnumOptions& enums);

/// The shlcp.ckpt.v1 manifest.
struct CheckpointManifest {
  std::string schema = kCheckpointSchema;
  std::string git;
  std::string decoder;
  /// "exhaustive" or "proved".
  std::string build;
  int k = 0;
  std::string options_hash;
  std::uint64_t num_frames = 0;
  /// Completed frame prefix: frames [0, frames_done) are absorbed into
  /// the state file.
  std::uint64_t frames_done = 0;
  std::uint64_t instances_absorbed = 0;
  /// "in_progress" or "complete".
  std::string status;
  /// StopReason name of the early exit ("none" while complete /
  /// between clean checkpoints).
  std::string stop_reason = "none";
  std::string state_file = "state.json";
  std::string state_digest;
  std::string frames_digest;

  [[nodiscard]] Json to_json() const;
  /// Parses and structurally validates (schema string, field types,
  /// frames_done <= num_frames, status enum). Throws CheckError.
  static CheckpointManifest from_json(const Json& j,
                                      const std::string& origin);
};

/// One checkpoint directory.
class CheckpointStore {
 public:
  explicit CheckpointStore(std::string directory);

  [[nodiscard]] const std::string& directory() const { return dir_; }
  [[nodiscard]] std::string manifest_path() const;
  [[nodiscard]] bool has_manifest() const;

  /// Writes state.json then manifest.json, each atomically (temp +
  /// rename), creating the directory if needed. Fills m.state_digest.
  void write(CheckpointManifest& m, const NbhdGraph& state) const;

  struct Loaded {
    CheckpointManifest manifest;
    NbhdGraph state;
  };

  /// Loads and digest-verifies the checkpoint. Throws CheckError (with
  /// the manifest path in the message) on missing files, digest
  /// mismatch, or malformed content.
  [[nodiscard]] Loaded load() const;

  /// Removes manifest and state files (used by --reset flows).
  void clear() const;

 private:
  std::string dir_;
};

}  // namespace shlcp
