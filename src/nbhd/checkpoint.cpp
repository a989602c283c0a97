#include "nbhd/checkpoint.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/check.h"
#include "util/format.h"
#include "util/hash.h"

namespace shlcp {

namespace fs = std::filesystem;

std::string fnv1a_hex(std::string_view bytes) {
  // "fnv:%016llx", written by hand: every service request and reply
  // takes a digest, and a format() call costs more than the hash.
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out = "fnv:0000000000000000";
  std::uint64_t h = fnv1a64(bytes);
  for (std::size_t i = out.size(); h != 0; h >>= 4) {
    out[--i] = kHex[h & 0xF];
  }
  return out;
}

std::string checkpoint_git_rev() {
  std::FILE* pipe = ::popen("git describe --always --dirty 2>/dev/null", "r");
  if (pipe == nullptr) {
    return "unknown";
  }
  char buf[256];
  std::string out;
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) {
    out += buf;
  }
  ::pclose(pipe);
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  return out.empty() ? "unknown" : out;
}

std::string frames_digest(const std::vector<EnumFrame>& frames) {
  // A compact textual rendering; collisions would need two different
  // frame lists to agree on every field below, which the sweeps cannot
  // produce (frames are materialized deterministically from options).
  std::ostringstream os;
  os << "frames:" << frames.size();
  for (const EnumFrame& f : frames) {
    os << "|g" << f.graph_index << ";N" << f.ids.bound() << ";i";
    for (const Ident id : f.ids.raw()) {
      os << id << ",";
    }
    os << ";p";
    for (Node v = 0; v < f.ports.num_nodes(); ++v) {
      for (const Port p : f.ports.ports_of(v)) {
        os << p << ",";
      }
      os << "/";
    }
  }
  return fnv1a_hex(os.str());
}

std::string enum_options_hash(const std::string& decoder_name,
                              const std::string& build_kind, int k,
                              const EnumOptions& enums) {
  return fnv1a_hex(format(
      "decoder=%s;build=%s;k=%d;all_ports=%d;all_id_orders=%d;max_labelings=%llu",
      decoder_name.c_str(), build_kind.c_str(), k,
      enums.all_ports ? 1 : 0, enums.all_id_orders ? 1 : 0,
      static_cast<unsigned long long>(enums.max_labelings_per_frame)));
}

Json CheckpointManifest::to_json() const {
  Json out = Json::object();
  out["schema"] = schema;
  out["git"] = git;
  out["decoder"] = decoder;
  out["build"] = build;
  out["k"] = k;
  out["options_hash"] = options_hash;
  out["num_frames"] = num_frames;
  out["frames_done"] = frames_done;
  out["instances_absorbed"] = instances_absorbed;
  out["status"] = status;
  out["stop_reason"] = stop_reason;
  out["state_file"] = state_file;
  out["state_digest"] = state_digest;
  out["frames_digest"] = frames_digest;
  return out;
}

CheckpointManifest CheckpointManifest::from_json(const Json& j,
                                                 const std::string& origin) {
  SHLCP_CHECK_MSG(j.is_object(),
                  format("checkpoint manifest %s: not a JSON object",
                         origin.c_str()));
  CheckpointManifest m;
  m.schema = j.at("schema").as_string();
  SHLCP_CHECK_MSG(
      m.schema == kCheckpointSchema,
      format("checkpoint manifest %s: schema is \"%s\", expected \"%s\"",
             origin.c_str(), m.schema.c_str(), kCheckpointSchema));
  m.git = j.at("git").as_string();
  m.decoder = j.at("decoder").as_string();
  m.build = j.at("build").as_string();
  m.k = static_cast<int>(j.at("k").as_int());
  m.options_hash = j.at("options_hash").as_string();
  m.num_frames = j.at("num_frames").as_uint();
  m.frames_done = j.at("frames_done").as_uint();
  m.instances_absorbed = j.at("instances_absorbed").as_uint();
  m.status = j.at("status").as_string();
  m.stop_reason = j.at("stop_reason").as_string();
  m.state_file = j.at("state_file").as_string();
  m.state_digest = j.at("state_digest").as_string();
  m.frames_digest = j.at("frames_digest").as_string();
  SHLCP_CHECK_MSG(m.frames_done <= m.num_frames,
                  format("checkpoint manifest %s: frames_done %llu exceeds "
                         "num_frames %llu",
                         origin.c_str(),
                         static_cast<unsigned long long>(m.frames_done),
                         static_cast<unsigned long long>(m.num_frames)));
  SHLCP_CHECK_MSG(m.status == "in_progress" || m.status == "complete",
                  format("checkpoint manifest %s: status \"%s\" is not "
                         "in_progress|complete",
                         origin.c_str(), m.status.c_str()));
  return m;
}

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  SHLCP_CHECK_MSG(in.good(),
                  format("checkpoint: cannot read %s", path.c_str()));
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Atomic publish: write to <path>.tmp, flush, rename over <path>.
void write_file_atomic(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    SHLCP_CHECK_MSG(out.good(),
                    format("checkpoint: cannot write %s", tmp.c_str()));
    out << content;
    out.flush();
    SHLCP_CHECK_MSG(out.good(),
                    format("checkpoint: short write to %s", tmp.c_str()));
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  SHLCP_CHECK_MSG(!ec, format("checkpoint: rename %s -> %s failed: %s",
                              tmp.c_str(), path.c_str(),
                              ec.message().c_str()));
}

}  // namespace

CheckpointStore::CheckpointStore(std::string directory)
    : dir_(std::move(directory)) {
  SHLCP_CHECK_MSG(!dir_.empty(), "checkpoint directory must be non-empty");
}

std::string CheckpointStore::manifest_path() const {
  return (fs::path(dir_) / "manifest.json").string();
}

bool CheckpointStore::has_manifest() const {
  std::error_code ec;
  return fs::exists(manifest_path(), ec) && !ec;
}

void CheckpointStore::write(CheckpointManifest& m,
                            const NbhdGraph& state) const {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  SHLCP_CHECK_MSG(!ec, format("checkpoint: cannot create directory %s: %s",
                              dir_.c_str(), ec.message().c_str()));
  const std::string state_text = state.to_json().dump();
  m.state_digest = fnv1a_hex(state_text);
  // State first, manifest last: the manifest only ever references state
  // bytes that are already durably in place.
  write_file_atomic((fs::path(dir_) / m.state_file).string(), state_text);
  write_file_atomic(manifest_path(), m.to_json().dump(2) + "\n");
}

CheckpointStore::Loaded CheckpointStore::load() const {
  const std::string mpath = manifest_path();
  Loaded loaded;
  loaded.manifest =
      CheckpointManifest::from_json(Json::parse(read_file(mpath)), mpath);
  const std::string spath =
      (fs::path(dir_) / loaded.manifest.state_file).string();
  const std::string state_text = read_file(spath);
  const std::string digest = fnv1a_hex(state_text);
  SHLCP_CHECK_MSG(
      digest == loaded.manifest.state_digest,
      format("checkpoint state digest mismatch (manifest %s): state file %s "
             "hashes to %s but the manifest records %s -- the checkpoint is "
             "torn or tampered; delete the directory to restart",
             mpath.c_str(), spath.c_str(), digest.c_str(),
             loaded.manifest.state_digest.c_str()));
  loaded.state = NbhdGraph::from_json(Json::parse(state_text));
  SHLCP_CHECK_MSG(
      static_cast<std::uint64_t>(loaded.state.num_instances_absorbed()) ==
          loaded.manifest.instances_absorbed,
      format("checkpoint state/manifest disagreement (manifest %s): state "
             "holds %d absorbed instances, manifest records %llu",
             mpath.c_str(), loaded.state.num_instances_absorbed(),
             static_cast<unsigned long long>(
                 loaded.manifest.instances_absorbed)));
  return loaded;
}

void CheckpointStore::clear() const {
  std::error_code ec;
  fs::remove(manifest_path(), ec);
  fs::remove(fs::path(dir_) / "state.json", ec);
}

}  // namespace shlcp
