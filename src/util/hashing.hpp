// Stable, streaming 64-bit hashing for content-addressed keys and caches.
//
// The mixing scheme the sweep CSV's config_hash stamp has always used (FNV-1a
// offset basis, golden-ratio combine per value), shared by config_hash, the
// stage keys' field digests and the store's file names so they hash alike
// across platforms, runs, and processes. Not cryptographic — collisions are
// guarded at use sites by storing the full canonical key next to the digest.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace ramp {

class Fnv64 {
 public:
  /// Golden-ratio combine of a raw 64-bit value.
  Fnv64& mix(std::uint64_t v) {
    h_ ^= v + 0x9e3779b97f4a7c15ULL + (h_ << 6) + (h_ >> 2);
    return *this;
  }

  /// Combines the IEEE-754 bit pattern, so -0.0 != 0.0 etc. stay distinct
  /// exactly as the sweep cache's legacy hash treated them.
  Fnv64& mix(double v) {
    std::uint64_t bits;
    static_assert(sizeof bits == sizeof v);
    std::memcpy(&bits, &v, sizeof bits);
    return mix(bits);
  }

  /// Byte-wise FNV-1a over the string, then its length (so "ab","c" and
  /// "a","bc" differ).
  Fnv64& mix(std::string_view s) {
    std::uint64_t h = 1469598103934665603ULL;
    for (char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ULL;
    }
    mix(h);
    return mix(static_cast<std::uint64_t>(s.size()));
  }

  std::uint64_t value() const { return h_; }

  /// 16-digit lowercase hex rendering of value().
  std::string hex() const {
    static const char* digits = "0123456789abcdef";
    std::string out(16, '0');
    std::uint64_t v = h_;
    for (int i = 15; i >= 0; --i) {
      out[static_cast<std::size_t>(i)] = digits[v & 0xF];
      v >>= 4;
    }
    return out;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;  ///< FNV-1a 64-bit offset basis
};

}  // namespace ramp
