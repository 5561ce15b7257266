// Content hashing and canonical byte serialization — the foundation of the
// runtime's persistent result cache. A job's inputs are serialized into a
// canonical little-endian byte stream (ByteWriter), hashed with FNV-1a into
// a 128-bit key (two independent 64-bit lanes), and the same stream format
// round-trips cached results back from disk (ByteReader, bounds-checked).
// Everything here is platform-independent: fixed-width fields, explicit
// byte order, doubles transported as their IEEE-754 bit patterns.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace csdac::mathx {

/// 64-bit FNV-1a. `basis` selects the lane; the default is the standard
/// offset basis.
inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

inline std::uint64_t fnv1a64(const void* data, std::size_t size,
                             std::uint64_t basis = kFnvOffsetBasis) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = basis;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

inline std::uint64_t fnv1a64(std::string_view s,
                             std::uint64_t basis = kFnvOffsetBasis) {
  return fnv1a64(s.data(), s.size(), basis);
}

/// 128-bit content key: two FNV-1a lanes over the same bytes, the second
/// seeded with a decorrelated basis and finalized through an avalanche mix
/// (splitmix64's finalizer) so the lanes do not fail together on the
/// low-entropy structured inputs cache keys are made of.
struct HashKey128 {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator==(const HashKey128& a, const HashKey128& b) {
    return a.hi == b.hi && a.lo == b.lo;
  }
  friend bool operator!=(const HashKey128& a, const HashKey128& b) {
    return !(a == b);
  }
  friend bool operator<(const HashKey128& a, const HashKey128& b) {
    return a.hi != b.hi ? a.hi < b.hi : a.lo < b.lo;
  }

  /// 32 lowercase hex digits (hi then lo) — the on-disk cache filename.
  std::string hex() const;
};

HashKey128 hash128(const void* data, std::size_t size);

/// Canonical serializer: little-endian fixed-width writes regardless of the
/// host. Used both to build cache keys (hash the buffer) and to encode
/// cached results (persist the buffer).
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v) { put_le(v); }
  void u64(std::uint64_t v) { put_le(v); }
  void i32(std::int32_t v) { put_le(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { put_le(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    put_le(bits);
  }
  void boolean(bool v) { u8(v ? 1 : 0); }
  /// Length-prefixed string (u32 length + raw bytes).
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }
  /// Length-prefixed vector of doubles.
  void f64_vec(const std::vector<double>& v) {
    u32(static_cast<std::uint32_t>(v.size()));
    for (double x : v) f64(x);
  }
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    buf_.insert(buf_.end(), p, p + size);
  }

  const std::vector<unsigned char>& data() const { return buf_; }
  std::size_t size() const { return buf_.size(); }
  HashKey128 hash() const { return hash128(buf_.data(), buf_.size()); }

 private:
  /// Appends v's bytes with one capacity check: a per-byte push_back,
  /// inlined into every field of a codec's field-list expansion, bloats
  /// the key and payload encoders enough to slow them measurably.
  template <typename T>
  void put_le(T v) {
    unsigned char b[sizeof(T)];
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      b[i] = static_cast<unsigned char>(v >> (8 * i));
    }
    buf_.insert(buf_.end(), b, b + sizeof(T));
  }

  std::vector<unsigned char> buf_;
};

/// Bounds-checked reader for the ByteWriter format. Any out-of-bounds read
/// latches ok() = false and returns zeros; callers check ok() once at the
/// end instead of wrapping every get — corrupt cache entries must never
/// crash, they just miss.
class ByteReader {
 public:
  ByteReader(const void* data, std::size_t size)
      : p_(static_cast<const unsigned char*>(data)), size_(size) {}
  explicit ByteReader(const std::vector<unsigned char>& buf)
      : ByteReader(buf.data(), buf.size()) {}

  std::uint8_t u8() { return take(1) ? p_[pos_ - 1] : 0; }
  std::uint32_t u32() { return static_cast<std::uint32_t>(get_le(4)); }
  std::uint64_t u64() { return get_le(8); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() {
    const std::uint64_t bits = get_le(8);
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  bool boolean() { return u8() != 0; }
  std::string str() {
    const std::uint32_t n = u32();
    if (!take(n)) return {};
    return std::string(reinterpret_cast<const char*>(p_ + pos_ - n), n);
  }
  std::vector<double> f64_vec() {
    const std::uint32_t n = u32();
    std::vector<double> v;
    if (n > remaining() / 8) {  // reject bogus lengths before allocating
      ok_ = false;
      return v;
    }
    v.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) v.push_back(f64());
    return v;
  }

  /// Latches ok() = false, for callers that find the bytes malformed
  /// (e.g. a length the remaining bytes cannot hold).
  void fail() { ok_ = false; }
  bool ok() const { return ok_; }
  std::size_t remaining() const { return size_ - pos_; }
  /// True when every byte was consumed and no read ran past the end.
  bool done() const { return ok_ && pos_ == size_; }

 private:
  bool take(std::size_t n) {
    if (!ok_ || size_ - pos_ < n) {
      ok_ = false;
      return false;
    }
    pos_ += n;
    return true;
  }
  std::uint64_t get_le(std::size_t n) {
    if (!take(n)) return 0;
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < n; ++i) {
      v |= static_cast<std::uint64_t>(p_[pos_ - n + i]) << (8 * i);
    }
    return v;
  }

  const unsigned char* p_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace csdac::mathx
