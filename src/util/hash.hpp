// The one 64-bit FNV-1a of the library: stream-name seeds (derive_seed),
// the netlist digest, the job-parameter digest and the result fingerprint
// all hash through it, so each stays bit-identical wherever it is taken.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

namespace tw {

/// 64-bit FNV-1a (offset basis 0xCBF29CE484222325, prime 0x100000001B3).
inline std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const char ch : text) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001B3ull;
  }
  return h;
}

inline std::uint64_t fnv1a(std::span<const std::uint8_t> bytes) {
  return fnv1a(std::string_view(reinterpret_cast<const char*>(bytes.data()),
                                bytes.size()));
}

}  // namespace tw
