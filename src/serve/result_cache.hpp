// Bounded on-disk result cache: dedup identical submissions across
// daemon restarts.
//
// The key is (netlist digest, params digest) — two submissions agree on
// both exactly when they are the same deterministic computation, so the
// cached terminal result of the first IS the result of the second, down
// to the bit-exact fingerprint. Only deterministic terminal states are
// cached: kCompleted and kBudgetExhausted (a work budget is part of the
// params, so the partial result it stops at is reproducible). kCancelled
// depends on when the cancel arrived and kFailed may be environmental;
// neither is cached — an identical resubmission re-runs them.
//
// Entries are counter-named files (res-NNNNNN.twr, CRC-framed, written by
// recover::write_atomic) in one directory; the counter resumes above the
// largest file present, and the newer of two files with one key wins.
// The directory is bounded by a *byte* budget, not an entry count —
// that is the resource the disk actually runs out of. Oldest files are
// evicted FIFO after each put until the directory fits; an entry larger
// than the whole budget is refused up front (typed), never written and
// immediately evicted. Like checkpoint retention, every prune failure is
// logged with path and errno and counted, never silent.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>

#include "recover/fault.hpp"
#include "serve/wire.hpp"

namespace tw::serve {

struct CacheKey {
  std::uint64_t netlist = 0;  ///< recover::netlist_digest
  std::uint64_t params = 0;   ///< serve::params_digest

  bool operator==(const CacheKey&) const = default;
  bool operator<(const CacheKey& o) const {
    return netlist != o.netlist ? netlist < o.netlist : params < o.params;
  }
};

/// True for the deterministic terminal states the cache stores.
bool cacheable(JobStatus status);

class ResultCache {
 public:
  /// Creates `dir` if needed and loads every valid entry (invalid files
  /// are logged and skipped — a torn write from a killed daemon must not
  /// poison the cache). `budget_bytes` bounds the directory's total
  /// entry bytes (0 = unbounded); entries beyond it are evicted oldest
  /// first, including at startup when a budget shrank across restarts.
  /// `disk_faults` is the injection seam for put() (site kCacheWrite).
  ResultCache(std::string dir, std::uint64_t budget_bytes,
              recover::DiskFaultInjector* disk_faults = nullptr);

  std::optional<JobResult> lookup(const CacheKey& key) const;

  /// Persists (atomic temp + rename) then indexes the entry; evicts the
  /// oldest files until the directory fits the byte budget again.
  /// Non-cacheable statuses are ignored; an entry that alone exceeds the
  /// whole budget is refused with ServeError(kIo) rather than thrashing
  /// the cache. Throws ServeError(kIo) when the entry cannot be written.
  void put(const CacheKey& key, const JobResult& result);

  int size() const { return static_cast<int>(index_.size()); }
  std::uint64_t bytes() const { return bytes_; }  ///< live entry bytes
  std::uint64_t budget_bytes() const { return budget_bytes_; }
  int loaded() const { return loaded_; }  ///< valid entries found at startup
  std::int64_t evictions() const { return evictions_; }
  int prune_failures() const { return prune_failures_; }
  const std::string& dir() const { return dir_; }

 private:
  struct Entry {
    int counter = 0;          ///< file number backing this entry
    std::uint64_t bytes = 0;  ///< its on-disk size
    JobResult result;
  };

  void prune();

  std::string dir_;
  std::uint64_t budget_bytes_ = 0;
  recover::DiskFaultInjector* disk_faults_ = nullptr;
  int counter_ = 0;  ///< number of the last file written
  int loaded_ = 0;
  std::int64_t evictions_ = 0;
  int prune_failures_ = 0;
  std::uint64_t bytes_ = 0;
  std::map<CacheKey, Entry> index_;
};

}  // namespace tw::serve
