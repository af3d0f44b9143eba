// Bounds-checked binary serialization for everything the package persists
// or sends: checkpoints, result-cache entries, journal records and wire
// frames.
//
// Each record's layout is written once, as a field list
//
//   template <class Io, MaybeConst<Rect> R>
//   void fields(Io& io, R& r) {
//     io.i64(r.xlo);
//     ...
//   }
//
// that encodes when `io` is a ByteWriter (R is const) and decodes when it
// is a ByteReader. The two share their method names, one per width on the
// wire: fixed-width little-endian integers, bit-exact doubles (IEEE-754
// via bit_cast, so a restored annealer state reproduces the interrupted
// run byte for byte), range-checked one-byte enums, length-prefixed
// strings and vectors. The reader never trusts the input: every read is
// bounds-checked, every length prefix is validated against the bytes
// actually remaining before anything is allocated, and every enum byte
// against its largest value, so a truncated or corrupted payload yields a
// typed CheckpointError — never undefined behavior.
#pragma once

#include <bit>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace tw::recover {

/// Why a checkpoint could not be read (see CheckpointError).
enum class CheckpointErrc {
  kIo,              ///< file could not be opened / read / written
  kBadMagic,        ///< not a checkpoint file
  kBadVersion,      ///< produced by an incompatible format version
  kBadCrc,          ///< payload CRC mismatch (bit rot / partial write)
  kTruncated,       ///< fewer bytes than the format requires
  kCorrupt,         ///< structurally invalid payload (bad enum, size, ...)
  kNetlistMismatch, ///< checkpoint was taken on a different netlist
  kSeedMismatch,    ///< checkpoint was taken under a different master seed
  kQuotaExceeded,   ///< write refused: the directory's byte quota is full
};

/// Human-readable name of an error code ("bad_crc", "truncated", ...).
const char* to_string(CheckpointErrc code);

/// The one exception type of the recover subsystem. Carries a typed code
/// so callers can distinguish "no such file" from "corrupt data".
class CheckpointError : public std::runtime_error {
 public:
  CheckpointError(CheckpointErrc code, const std::string& detail);

  CheckpointErrc code() const { return code_; }

 private:
  CheckpointErrc code_;
};

/// CRC-32 (IEEE 802.3 polynomial, reflected) over a byte range.
std::uint32_t crc32(std::span<const std::uint8_t> bytes);

/// `R` is `T` or `const T`: a field list `fields(Io&, R&)` takes the
/// record const when it encodes and mutable when it decodes.
template <class R, class T>
concept MaybeConst = std::same_as<std::remove_const_t<R>, T>;

/// An integer field exactly `Bytes` wide (`long` and `long long` both
/// pass as 8 bytes; `bool` passes as an unsigned byte).
template <class T, std::size_t Bytes, bool Signed>
concept FixedInt =
    std::integral<T> && sizeof(T) == Bytes && std::is_signed_v<T> == Signed;

/// Appends fixed-width little-endian values to a growing byte buffer.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

  /// A one-byte enum (or small code) whose largest valid value is `max`;
  /// the reader range-checks it.
  template <class E>
  void u8(E v, E /*max*/, const char* /*what*/) {
    u8(static_cast<std::uint8_t>(v));
  }

  /// u32 length, then the characters.
  void str(const std::string& s);

  /// u32 element count, then `each(*this, element)` for every element.
  /// `min_elem_size` is the reader's allocation bound.
  template <class T, class Each>
  void vec(const std::vector<T>& v, std::size_t /*min_elem_size*/,
           Each each) {
    u32(static_cast<std::uint32_t>(v.size()));
    for (const T& x : v) each(*this, x);
  }

  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Reads the ByteWriter encoding back into the fields it is handed. Every
/// read throws CheckpointError(kTruncated) when fewer bytes remain than it
/// needs, so a short payload can never cause an out-of-bounds read.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  /// A `bool` reads leniently: any nonzero byte is true.
  template <FixedInt<1, false> T>
  void u8(T& v) {
    v = static_cast<T>(le<1>());
  }
  template <FixedInt<4, false> T>
  void u32(T& v) {
    v = static_cast<T>(le<4>());
  }
  template <FixedInt<8, false> T>
  void u64(T& v) {
    v = static_cast<T>(le<8>());
  }
  template <FixedInt<4, true> T>
  void i32(T& v) {
    v = static_cast<T>(le<4>());
  }
  template <FixedInt<8, true> T>
  void i64(T& v) {
    v = static_cast<T>(le<8>());
  }
  void f64(double& v) { v = std::bit_cast<double>(le<8>()); }

  /// A byte past `max` is kCorrupt, never an out-of-range enum.
  template <class E>
  void u8(E& v, E max, const char* what) {
    const std::uint64_t b = le<1>();
    const auto top = static_cast<std::uint64_t>(max);
    if (b > top) out_of_range(what, b, top);
    v = static_cast<E>(b);
  }

  void str(std::string& s);

  /// Reads the u32 count and checks it against the bytes left
  /// (`min_elem_size` bytes per element) before allocating, so a corrupt
  /// count cannot trigger a giant allocation; then `each(*this, element)`.
  template <class T, class Each>
  void vec(std::vector<T>& v, std::size_t min_elem_size, Each each) {
    v.resize(length_prefix(min_elem_size));
    for (T& x : v) each(*this, x);
  }

  std::size_t remaining() const { return bytes_.size() - pos_; }
  bool at_end() const { return pos_ == bytes_.size(); }

  /// Fails with kCorrupt unless the whole payload was consumed.
  void expect_end() const;

 private:
  /// The next `N` bytes as a little-endian unsigned value.
  template <std::size_t N>
  std::uint64_t le() {
    need(N);
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < N; ++i)
      v |= static_cast<std::uint64_t>(bytes_[pos_ + i]) << (8 * i);
    pos_ += N;
    return v;
  }
  void need(std::size_t n) const {
    if (bytes_.size() - pos_ < n) truncated(n);
  }
  std::size_t length_prefix(std::size_t min_elem_size);
  [[noreturn]] void truncated(std::size_t n) const;
  [[noreturn]] void out_of_range(const char* what, std::uint64_t value,
                                 std::uint64_t max) const;

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace tw::recover
