#include "service/cache.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "nbhd/checkpoint.h"
#include "service/proto.h"
#include "util/check.h"
#include "util/format.h"
#include "util/metrics.h"

namespace shlcp::svc {

namespace {

metrics::Counter& hit_counter() {
  static metrics::Counter& c = metrics::counter("service.cache.hits");
  return c;
}
metrics::Counter& disk_hit_counter() {
  static metrics::Counter& c = metrics::counter("service.cache.disk_hits");
  return c;
}
metrics::Counter& miss_counter() {
  static metrics::Counter& c = metrics::counter("service.cache.misses");
  return c;
}
metrics::Counter& eviction_counter() {
  static metrics::Counter& c = metrics::counter("service.cache.evictions");
  return c;
}
metrics::Counter& store_failure_counter() {
  static metrics::Counter& c =
      metrics::counter("service.cache.store_failures");
  return c;
}

/// Same temp+rename discipline as nbhd/checkpoint.cpp (whose helper is
/// file-local): a reader never observes a torn entry file.
void write_file_atomic(const std::string& path, const std::string& contents) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    SHLCP_CHECK_MSG(out.good(), format("cache: cannot open '%s'", tmp.c_str()));
    out.write(contents.data(),
              static_cast<std::streamsize>(contents.size()));
    out.flush();
    SHLCP_CHECK_MSG(out.good(),
                    format("cache: short write to '%s'", tmp.c_str()));
  }
  SHLCP_CHECK_MSG(std::rename(tmp.c_str(), path.c_str()) == 0,
                  format("cache: rename '%s' -> '%s': %s", tmp.c_str(),
                         path.c_str(), std::strerror(errno)));
}

}  // namespace

std::string artifact_key(std::string_view op, const Json& params) {
  std::string payload(kWireSchema);
  payload.push_back('\n');
  payload.append(op);
  payload.push_back('\n');
  canonical_dump_to(payload, params);
  return payload;
}

ArtifactCache::ArtifactCache(CacheConfig config) : config_(std::move(config)) {
  if (!config_.directory.empty()) {
    // Best-effort: a daemon pointed at a fresh path should not require
    // an out-of-band mkdir. If creation fails (path is a file, no
    // permission), stores degrade to non-fatal failures below.
    std::error_code ec;
    std::filesystem::create_directories(config_.directory, ec);
  }
}

std::optional<std::string> ArtifactCache::get(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    touch(it->second);
    ++stats_.hits;
    hit_counter().inc();
    return it->second->value;
  }
  if (std::optional<std::string> value = load_from_disk(key)) {
    ++stats_.disk_hits;
    disk_hit_counter().inc();
    // Promote to memory so the next lookup is cheap.
    lru_.push_front(Entry{key, *value});
    index_[key] = lru_.begin();
    stats_.bytes += key.size() + value->size();
    stats_.entries = lru_.size();
    evict_to_fit();
    return value;
  }
  ++stats_.misses;
  miss_counter().inc();
  return std::nullopt;
}

void ArtifactCache::insert(const std::string& key, const std::string& value) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    stats_.bytes -= it->second->value.size();
    stats_.bytes += value.size();
    it->second->value = value;
    touch(it->second);
  } else {
    lru_.push_front(Entry{key, value});
    index_[key] = lru_.begin();
    stats_.bytes += key.size() + value.size();
  }
  stats_.entries = lru_.size();
  evict_to_fit();
  if (!config_.directory.empty()) {
    // Persistence is an optimization, never a correctness dependency:
    // the value just computed is valid whether or not the disk store
    // lands, so a full/unwritable/vanished directory must not turn a
    // successful request into an error. Count the failure and move on;
    // the entry simply will not survive a restart.
    try {
      store_to_disk(key, value);
    } catch (const CheckError&) {
      ++stats_.store_failures;
      store_failure_counter().inc();
    }
  }
}

CacheStats ArtifactCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void ArtifactCache::touch(std::list<Entry>::iterator it) {
  lru_.splice(lru_.begin(), lru_, it);
}

void ArtifactCache::evict_to_fit() {
  while (stats_.bytes > config_.max_bytes && lru_.size() > 1) {
    const Entry& victim = lru_.back();
    stats_.bytes -= victim.key.size() + victim.value.size();
    index_.erase(victim.key);
    lru_.pop_back();
    ++stats_.evictions;
    eviction_counter().inc();
  }
  stats_.entries = lru_.size();
}

std::string ArtifactCache::disk_path(const std::string& key) const {
  // The FNV-1a hex of the key names the entry file ("fnv:<16 hex>",
  // colon stripped). The hash is only an address: load_from_disk
  // authenticates a hit by comparing the stored key verbatim, so a
  // filename collision is a miss, never a wrong artifact.
  const std::string digest = fnv1a_hex(key);
  const std::size_t colon = digest.find(':');
  const std::string hex =
      colon == std::string::npos ? digest : digest.substr(colon + 1);
  return config_.directory + "/" + hex + ".json";
}

std::optional<std::string> ArtifactCache::load_from_disk(
    const std::string& key) {
  if (config_.directory.empty()) {
    return std::nullopt;
  }
  std::ifstream in(disk_path(key), std::ios::binary);
  if (!in.good()) {
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  try {
    const Json entry = Json::parse(buf.str());
    if (!entry.is_object() || !entry.contains("schema") ||
        entry.at("schema").as_string() != kCacheFileSchema ||
        entry.at("key").as_string() != key) {
      return std::nullopt;
    }
    const std::string& result = entry.at("result").as_string();
    if (entry.at("digest").as_string() != fnv1a_hex(result)) {
      return std::nullopt;  // bit rot / truncated rename target
    }
    return result;
  } catch (const CheckError&) {
    return std::nullopt;  // corrupt file == miss, never an error
  }
}

void ArtifactCache::store_to_disk(const std::string& key,
                                  const std::string& value) {
  Json entry = Json::object();
  entry["schema"] = kCacheFileSchema;
  entry["key"] = key;
  entry["digest"] = fnv1a_hex(value);
  entry["result"] = value;
  write_file_atomic(disk_path(key), entry.dump());
}

}  // namespace shlcp::svc
