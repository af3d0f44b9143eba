#include "recover/durable.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "recover/serialize.hpp"
#include "util/log.hpp"

namespace tw::recover {
namespace {

constexpr std::size_t kDigits = 6;
constexpr std::size_t kHeaderBytes = 16;  // magic, version, size, CRC

/// The frame header in front of a checkpoint or cache-entry payload.
struct Header {
  std::array<std::uint8_t, 4> magic{};
  std::uint32_t version = 0;
  std::uint32_t size = 0;  ///< payload bytes
  std::uint32_t crc = 0;   ///< CRC-32 of the payload
};

template <class Io, MaybeConst<Header> R>
void fields(Io& io, R& h) {
  for (auto& b : h.magic) io.u8(b);
  io.u32(h.version);
  io.u32(h.size);
  io.u32(h.crc);
}

/// The four characters of `magic` as the header stores them.
std::array<std::uint8_t, 4> magic_bytes(std::string_view magic) {
  std::array<std::uint8_t, 4> out{};
  std::copy_n(magic.begin(), out.size(), out.begin());
  return out;
}

/// The number in a "<prefix>NNNNNN<suffix>" name; -1 for any other name.
int parse_number(std::string_view name, std::string_view prefix,
                 std::string_view suffix) {
  if (name.size() != prefix.size() + kDigits + suffix.size() ||
      !name.starts_with(prefix) || !name.ends_with(suffix))
    return -1;
  int n = 0;
  for (const char c : name.substr(prefix.size(), kDigits)) {
    if (c < '0' || c > '9') return -1;
    n = n * 10 + (c - '0');
  }
  return n;
}

}  // namespace

std::string NumberedFiles::path(const std::string& dir, int number) const {
  char digits[16];
  std::snprintf(digits, sizeof digits, "%06d", number);
  return dir + "/" + std::string(prefix) + digits + std::string(suffix);
}

std::uint64_t NumberedFiles::bytes(const std::string& dir, int number) const {
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path(dir, number), ec);
  return ec ? 0 : size;
}

std::vector<int> NumberedFiles::list(const std::string& dir) const {
  std::vector<int> numbers;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const int n =
        parse_number(entry.path().filename().string(), prefix, suffix);
    if (n >= 0) numbers.push_back(n);
  }
  std::sort(numbers.begin(), numbers.end());
  return numbers;
}

bool remove_file(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove(path, ec);
  if (ec)
    log_warn("cannot remove ", path, ": ", ec.message(), " (errno ",
             ec.value(), ")");
  return !ec;
}

std::optional<std::vector<std::uint8_t>> read_file(const std::string& path) {
  // Sizing by file_size also refuses what is not a regular file: a
  // directory, or a device that would never reach end of file.
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  if (ec) return std::nullopt;
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  if (in.bad()) return std::nullopt;
  bytes.resize(static_cast<std::size_t>(in.gcount()));
  return bytes;
}

std::vector<std::uint8_t> frame(std::string_view magic, std::uint32_t version,
                                std::span<const std::uint8_t> payload) {
  const Header h{magic_bytes(magic), version,
                 static_cast<std::uint32_t>(payload.size()), crc32(payload)};
  ByteWriter w;
  fields(w, h);
  std::vector<std::uint8_t> out = w.take();
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

std::span<const std::uint8_t> unframe(std::span<const std::uint8_t> bytes,
                                      std::string_view magic,
                                      std::uint32_t version,
                                      const std::string& what) {
  const auto fail = [&what](CheckpointErrc code, const std::string& why) {
    return CheckpointError(code, what + ": " + why);
  };
  if (bytes.size() < kHeaderBytes)
    throw fail(CheckpointErrc::kTruncated,
               std::to_string(bytes.size()) + " byte(s), header needs 16");
  ByteReader r(bytes);
  Header h;
  fields(r, h);
  if (h.magic != magic_bytes(magic))
    throw fail(CheckpointErrc::kBadMagic, "bad magic");
  if (h.version != version)
    throw fail(CheckpointErrc::kBadVersion,
               "version " + std::to_string(h.version) + ", expected " +
                   std::to_string(version));
  if (r.remaining() != h.size)
    throw fail(CheckpointErrc::kTruncated,
               "payload holds " + std::to_string(r.remaining()) +
                   " byte(s), header promises " + std::to_string(h.size));
  const std::span<const std::uint8_t> payload = bytes.subspan(kHeaderBytes);
  if (crc32(payload) != h.crc) throw fail(CheckpointErrc::kBadCrc, "bad CRC");
  return payload;
}

std::string write_atomic(const std::string& path,
                         std::span<const std::uint8_t> bytes,
                         DiskFaultInjector* faults, DiskSite site) {
  const DiskFault f =
      faults == nullptr ? DiskFault::kNone : faults->write_fault(site);
  const auto injected = [&] {
    return std::string("injected ") + to_string(f) + " writing " + path;
  };
  if (f != DiskFault::kNone && f != DiskFault::kShortWrite) return injected();

  const std::string tmp = path + ".tmp";
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  if (!out) return "cannot open " + tmp;
  const std::size_t n =
      f == DiskFault::kShortWrite ? bytes.size() / 2 : bytes.size();
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(n));
  out.flush();
  if (!out) return "short write to " + tmp;
  // Check the close as well: a filesystem may report a deferred write
  // error only there, and the destructor would swallow it.
  out.close();
  if (out.fail()) return "close failed on " + tmp;
  if (f == DiskFault::kShortWrite) return injected();
  // The rename is the commit point: readers see the complete new file
  // under the final name, or whatever was there before.
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) return "rename " + tmp + " -> " + path + ": " + ec.message();
  return {};
}

}  // namespace tw::recover
