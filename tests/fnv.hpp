// FNV-1a digests for the golden tests: a hash over 64-bit words and
// strings, printed as 16 hex digits.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>

namespace l2s::testing {

/// FNV-1a, byte by byte; a word is hashed as its 8 little-endian bytes.
class Fnv {
 public:
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
  }
  void text(const std::string& s) {
    u64(s.size());
    for (const char c : s) byte(static_cast<unsigned char>(c));
  }
  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  void byte(unsigned char b) {
    h_ ^= b;
    h_ *= 1099511628211ULL;
  }
  std::uint64_t h_ = 1469598103934665603ULL;
};

}  // namespace l2s::testing
