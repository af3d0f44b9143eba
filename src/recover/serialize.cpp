#include "recover/serialize.hpp"

#include <array>

namespace tw::recover {
namespace {

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  return table;
}

/// Appends the low `N` bytes of `v` to `buf`, least significant first.
template <std::size_t N>
void append_le(std::vector<std::uint8_t>& buf, std::uint64_t v) {
  std::array<std::uint8_t, N> b{};
  for (std::size_t i = 0; i < N; ++i)
    b[i] = static_cast<std::uint8_t>(v >> (8 * i));
  buf.insert(buf.end(), b.begin(), b.end());
}

}  // namespace

const char* to_string(CheckpointErrc code) {
  switch (code) {
    case CheckpointErrc::kIo: return "io";
    case CheckpointErrc::kBadMagic: return "bad_magic";
    case CheckpointErrc::kBadVersion: return "bad_version";
    case CheckpointErrc::kBadCrc: return "bad_crc";
    case CheckpointErrc::kTruncated: return "truncated";
    case CheckpointErrc::kCorrupt: return "corrupt";
    case CheckpointErrc::kNetlistMismatch: return "netlist_mismatch";
    case CheckpointErrc::kSeedMismatch: return "seed_mismatch";
    case CheckpointErrc::kQuotaExceeded: return "quota_exceeded";
  }
  return "unknown";
}

CheckpointError::CheckpointError(CheckpointErrc code, const std::string& detail)
    : std::runtime_error(std::string("checkpoint error [") + to_string(code) +
                         "]: " + detail),
      code_(code) {}

std::uint32_t crc32(std::span<const std::uint8_t> bytes) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t c = 0xFFFFFFFFu;
  for (const std::uint8_t b : bytes) c = table[(c ^ b) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

void ByteWriter::u32(std::uint32_t v) { append_le<4>(buf_, v); }

void ByteWriter::u64(std::uint64_t v) { append_le<8>(buf_, v); }

void ByteWriter::str(const std::string& s) {
  u32(static_cast<std::uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void ByteReader::truncated(std::size_t n) const {
  throw CheckpointError(CheckpointErrc::kTruncated,
                        "need " + std::to_string(n) + " byte(s) at offset " +
                            std::to_string(pos_) + ", only " +
                            std::to_string(bytes_.size() - pos_) + " remain");
}

void ByteReader::out_of_range(const char* what, std::uint64_t value,
                              std::uint64_t max) const {
  throw CheckpointError(CheckpointErrc::kCorrupt,
                        std::string(what) + " " + std::to_string(value) +
                            " out of range (max " + std::to_string(max) +
                            ") at offset " + std::to_string(pos_ - 1));
}

std::size_t ByteReader::length_prefix(std::size_t min_elem_size) {
  std::uint32_t n = 0;
  u32(n);
  if (min_elem_size > 0 && n > remaining() / min_elem_size)
    throw CheckpointError(CheckpointErrc::kCorrupt,
                          "length prefix " + std::to_string(n) +
                              " exceeds the " + std::to_string(remaining()) +
                              " payload byte(s) remaining");
  return n;
}

void ByteReader::str(std::string& s) {
  const std::size_t n = length_prefix(1);
  s.assign(reinterpret_cast<const char*>(bytes_.data() + pos_), n);
  pos_ += n;
}

void ByteReader::expect_end() const {
  if (!at_end())
    throw CheckpointError(CheckpointErrc::kCorrupt,
                          std::to_string(remaining()) +
                              " trailing byte(s) after payload");
}

}  // namespace tw::recover
