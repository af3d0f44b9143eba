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

std::vector<std::uint8_t> encode_entry(const CacheKey& key,
                                       const CachedResult& r) {
  ByteWriter w;
  w.u64(key.netlist);
  w.u64(key.params);
  w.u8(static_cast<std::uint8_t>(r.status));
  w.u64(r.fingerprint);
  w.f64(r.final_teil);
  w.i64(r.final_chip_area);
  w.i32(r.replicas_succeeded);
  w.i32(r.replicas_total);
  w.i32(r.attempts);
  return w.take();
}

bool decode_entry(const std::vector<std::uint8_t>& bytes, CacheKey& key,
                  CachedResult& r) {
  try {
    ByteReader pr(recover::unframe(bytes, kMagic, kCacheVersion, "entry"));
    key.netlist = pr.u64();
    key.params = pr.u64();
    const std::uint8_t status = pr.u8();
    if (status > static_cast<std::uint8_t>(JobStatus::kFailed)) return false;
    r.status = static_cast<JobStatus>(status);
    r.fingerprint = pr.u64();
    r.final_teil = pr.f64();
    r.final_chip_area = pr.i64();
    r.replicas_succeeded = pr.i32();
    r.replicas_total = pr.i32();
    r.attempts = pr.i32();
    pr.expect_end();
    return true;
  } catch (const recover::CheckpointError&) {
    return false;  // truncated/corrupt: caller logs and skips
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
    CachedResult r;
    if (!bytes || !decode_entry(*bytes, key, r)) {
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

std::optional<CachedResult> ResultCache::lookup(const CacheKey& key) const {
  const auto it = index_.find(key);
  if (it == index_.end()) return std::nullopt;
  return it->second.result;
}

void ResultCache::put(const CacheKey& key, const CachedResult& result) {
  if (!cacheable(result.status)) return;

  const std::vector<std::uint8_t> framed =
      recover::frame(kMagic, kCacheVersion, encode_entry(key, result));
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
