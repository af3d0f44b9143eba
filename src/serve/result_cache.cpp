#include "serve/result_cache.hpp"

#include <algorithm>
#include <filesystem>
#include <string_view>
#include <vector>

#include "recover/durable.hpp"
#include "util/log.hpp"

namespace tw::serve {
namespace {

using recover::ByteReader;
using recover::ByteWriter;

constexpr std::string_view kMagic = "TWRC";
constexpr std::uint32_t kCacheVersion = 1;
constexpr recover::NumberedFiles kEntries{"res-", ".twr"};

/// One entry's payload: its key, then the cached result.
template <class Io, recover::MaybeConst<CacheKey> K,
          recover::MaybeConst<JobResult> R>
void fields(Io& io, K& key, R& r) {
  io.u64(key.netlist);
  io.u64(key.params);
  io.u8(r.status, JobStatus::kFailed, "job status");
  io.u64(r.fingerprint);
  io.f64(r.final_teil);
  io.i64(r.final_chip_area);
  io.i32(r.replicas_succeeded);
  io.i32(r.replicas_total);
  io.i32(r.attempts);
}

/// Reads one entry file back; false when it is unreadable, torn or
/// invalid (the caller logs and skips it).
bool read_entry(const std::optional<std::vector<std::uint8_t>>& bytes,
                CacheKey& key, JobResult& r) {
  if (!bytes) return false;
  try {
    ByteReader pr(recover::unframe(*bytes, kMagic, kCacheVersion, "entry"));
    fields(pr, key, r);
    pr.expect_end();
    return true;
  } catch (const recover::CheckpointError&) {
    return false;
  }
}

}  // namespace

bool cacheable(JobStatus status) {
  return status == JobStatus::kCompleted ||
         status == JobStatus::kBudgetExhausted;
}

ResultCache::ResultCache(std::string dir, std::uint64_t budget_bytes,
                         recover::DiskFaultInjector* disk_faults)
    : dir_(std::move(dir)),
      budget_bytes_(budget_bytes),
      disk_faults_(disk_faults) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec)
    throw ServeError(ServeErrc::kIo,
                     "cannot create cache dir " + dir_ + ": " + ec.message());

  // Load in counter order so that on a duplicate key the newest file
  // wins, matching what put() would have left in memory.
  for (const int n : kEntries.list(dir_)) {
    counter_ = n;
    const std::string path = kEntries.path(dir_, n);
    const auto bytes = recover::read_file(path);
    CacheKey key;
    JobResult r;
    if (!read_entry(bytes, key, r)) {
      log_warn("result cache: unreadable or invalid entry ", path,
               " (torn write or foreign file); skipping");
      continue;
    }
    // Replacing a same-key entry from an older file: drop the old size.
    if (const auto it = index_.find(key); it != index_.end())
      bytes_ -= std::min(bytes_, it->second.bytes);
    index_[key] = Entry{n, bytes->size(), r};
    bytes_ += bytes->size();
    ++loaded_;
  }
  prune();
}

std::optional<JobResult> ResultCache::lookup(const CacheKey& key) const {
  const auto it = index_.find(key);
  if (it == index_.end()) return std::nullopt;
  return it->second.result;
}

void ResultCache::put(const CacheKey& key, const JobResult& result) {
  if (!cacheable(result.status)) return;

  ByteWriter w;
  fields(w, key, result);
  const std::vector<std::uint8_t> framed =
      recover::frame(kMagic, kCacheVersion, w.bytes());
  const std::uint64_t total = framed.size();
  if (budget_bytes_ > 0 && total > budget_bytes_)
    throw ServeError(ServeErrc::kIo,
                     "cache entry of " + std::to_string(total) +
                         " byte(s) exceeds the whole cache budget of " +
                         std::to_string(budget_bytes_));

  const int n = ++counter_;
  const std::string err =
      recover::write_atomic(kEntries.path(dir_, n), framed, disk_faults_,
                            recover::DiskSite::kCacheWrite);
  if (!err.empty()) throw ServeError(ServeErrc::kIo, "cache entry: " + err);
  if (const auto it = index_.find(key); it != index_.end())
    bytes_ -= std::min(bytes_, it->second.bytes);
  index_[key] = Entry{n, total, result};
  bytes_ += total;
  prune();
}

void ResultCache::prune() {
  while (budget_bytes_ > 0 && bytes_ > budget_bytes_ && !index_.empty()) {
    // Evict the entry backed by the oldest file (FIFO by counter).
    auto victim = index_.begin();
    for (auto it = index_.begin(); it != index_.end(); ++it)
      if (it->second.counter < victim->second.counter) victim = it;
    if (!recover::remove_file(kEntries.path(dir_, victim->second.counter)))
      ++prune_failures_;
    bytes_ -= std::min(bytes_, victim->second.bytes);
    ++evictions_;
    index_.erase(victim);
  }

  // Sweep superseded files (same key rewritten under a newer counter):
  // anything on disk not backing a live entry and older than the newest
  // file is garbage.
  for (const int n : kEntries.list(dir_)) {
    if (n >= counter_) continue;
    const bool live =
        std::any_of(index_.begin(), index_.end(),
                    [n](const auto& kv) { return kv.second.counter == n; });
    if (!live && !recover::remove_file(kEntries.path(dir_, n)))
      ++prune_failures_;
  }
}

}  // namespace tw::serve
