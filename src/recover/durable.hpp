// Durable files: how the checkpoint sink, the result cache and the job
// journal name, list, read, frame and atomically write their files. The
// policies (retention, quota, eviction, one directory per live job) stay
// with the stores; failures come back to them to raise as their own
// errors.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "recover/fault.hpp"

namespace tw::recover {

/// A family of numbered files "<prefix>NNNNNN<suffix>" in one directory
/// (ckpt-000042.twcp, res-000007.twr). The number has exactly six digits;
/// any other name is foreign to the family.
struct NumberedFiles {
  std::string_view prefix;
  std::string_view suffix;

  /// `dir`/<prefix>NNNNNN<suffix>.
  std::string path(const std::string& dir, int number) const;

  /// Size of file `number` in `dir`; 0 when it cannot be read.
  std::uint64_t bytes(const std::string& dir, int number) const;

  /// Numbers of the regular files in `dir` of this family, ascending. A
  /// missing or unreadable directory yields an empty list.
  std::vector<int> list(const std::string& dir) const;
};

/// Removes `path`. A failure is logged with its errno (trouble removing
/// is an early sign of a disk going bad) and returns false.
bool remove_file(const std::string& path);

/// The whole contents of `path`; nullopt when it cannot be opened or read.
std::optional<std::vector<std::uint8_t>> read_file(const std::string& path);

/// The frame checkpoint files, cache entries and job records share,
/// little-endian:
///   magic[4] | u32 version | u32 payload size | u32 CRC-32 | payload
/// `magic` has 4 characters.
std::vector<std::uint8_t> frame(std::string_view magic, std::uint32_t version,
                                std::span<const std::uint8_t> payload);

/// Checks a frame and returns a view of its payload inside `bytes`.
/// Checks in order and throws CheckpointError with kTruncated (fewer than
/// 16 bytes), kBadMagic, kBadVersion, kTruncated (the payload size is not
/// what the header promises) or kBadCrc. `what` names the file.
std::span<const std::uint8_t> unframe(std::span<const std::uint8_t> bytes,
                                      std::string_view magic,
                                      std::uint32_t version,
                                      const std::string& what);

/// The one atomic write: `bytes` go to `path + ".tmp"` (open, write,
/// flush, checked close), which is then renamed onto `path`. A failure
/// at any step, ENOSPC at close included, leaves `path` as it was. When
/// `faults` is set it is polled at `site` first; an injected fault fails
/// the write, kShortWrite after leaving a truncated temp file behind, as
/// a dying disk would. Returns the empty string on success, otherwise
/// what failed, for the caller to throw as its own typed kIo error.
[[nodiscard]] std::string write_atomic(const std::string& path,
                                       std::span<const std::uint8_t> bytes,
                                       DiskFaultInjector* faults,
                                       DiskSite site);

}  // namespace tw::recover
