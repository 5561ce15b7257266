// Persistent content-addressed result store. Entries are keyed by the
// 128-bit hash of a job's canonical input bytes (plus the engine version
// tag, see job.hpp) and live as one file each under the cache directory:
//
//   <dir>/<32-hex-key>.bin = magic "CSDC" | u32 format | u64 payload_fnv
//                            | u64 payload_size | payload bytes
//
// Writes go to a unique temp file followed by an atomic rename, so readers
// never observe a partial entry and concurrent writers of the same key
// simply race to produce identical content. Reads verify the full header
// and the payload FNV; anything inconsistent is deleted and reported as a
// miss (corruption must degrade to recomputation, never to a wrong result).
// The store is size-bounded: after each insert, least-recently-used entries
// (by file mtime, refreshed on every hit) are evicted until the byte budget
// holds.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <string>
#include <vector>

#include "mathx/hash.hpp"

namespace csdac::runtime {

struct CacheCounters {
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::int64_t evictions = 0;
  std::int64_t corrupt = 0;  ///< entries dropped by validation (also missed)
  std::int64_t stores = 0;
  std::int64_t bytes_stored = 0;
};

struct CacheOptions {
  std::string dir = ".csdac-cache";
  /// Total on-disk byte budget (payload + headers). Default 256 MiB.
  std::uint64_t max_bytes = 256ull << 20;
};

class ResultCache {
 public:
  explicit ResultCache(CacheOptions opts);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// On hit fills `payload`, refreshes the entry's LRU stamp and returns
  /// true. Misses (absent or failed validation) return false.
  bool get(const mathx::HashKey128& key, std::vector<unsigned char>& payload);

  /// Stores `payload` under `key` (atomic write-then-rename) and evicts
  /// LRU entries if the byte budget is now exceeded. Storing an existing
  /// key only refreshes its LRU stamp — content-addressed entries for the
  /// same key are identical by construction.
  void put(const mathx::HashKey128& key,
           const std::vector<unsigned char>& payload);

  CacheCounters counters() const;
  const CacheOptions& options() const { return opts_; }

 private:
  std::filesystem::path entry_path(const mathx::HashKey128& key) const;
  void evict_to_fit(const std::filesystem::path& keep);  // lock held

  CacheOptions opts_;
  mutable std::mutex mutex_;
  CacheCounters counters_;
  std::atomic<std::uint64_t> tmp_seq_{0};
};

}  // namespace csdac::runtime
