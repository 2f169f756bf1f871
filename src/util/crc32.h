// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), slicing-by-8.
//
// Guards every framed section of the binary state formats (filter
// snapshots, site checkpoints): a torn write, bit rot, or a truncated file
// is detected before any parsed state is committed, so corruption surfaces
// as a clean Status instead of garbage state or UB. Not cryptographic — it
// protects against accidents, not adversaries.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace rfid {

namespace crc32_internal {

constexpr uint32_t kPolynomial = 0xEDB88320u;

/// tables[0] is the classic bytewise table; tables[k][i] is the CRC update
/// for byte i followed by k zero bytes, which lets the main loop fold eight
/// input bytes per step with eight independent lookups.
using Tables = std::array<std::array<uint32_t, 256>, 8>;

inline const Tables& SlicingTables() {
  static const Tables tables = [] {
    Tables t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? (kPolynomial ^ (c >> 1)) : (c >> 1);
      }
      t[0][i] = c;
    }
    for (size_t k = 1; k < t.size(); ++k) {
      for (uint32_t i = 0; i < 256; ++i) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
      }
    }
    return t;
  }();
  return tables;
}

/// a(x) * b(x) mod P(x), both in the reflected bit order CRC-32 uses.
inline uint32_t MultiplyModP(uint32_t a, uint32_t b) {
  uint32_t product = 0;
  for (uint32_t m = 1u << 31; m != 0; m >>= 1) {
    if (a & m) product ^= b;
    b = (b & 1) ? (b >> 1) ^ kPolynomial : b >> 1;
  }
  return product;
}

/// x^(8 * len) mod P(x): the operator that appends `len` zero bytes to a
/// CRC register, built by squaring.
inline uint32_t ZeroBytesOperator(uint64_t len) {
  uint32_t result = 1u << 31;  // x^0
  uint32_t power = 1u << 23;   // x^8, one zero byte
  for (; len != 0; len >>= 1) {
    if (len & 1) result = MultiplyModP(power, result);
    power = MultiplyModP(power, power);
  }
  return result;
}

}  // namespace crc32_internal

/// CRC of `len` bytes at `data`; chainable by passing a previous result as
/// `seed` (seed 0 starts a fresh checksum).
inline uint32_t Crc32(const void* data, size_t len, uint32_t seed = 0) {
  const auto& t = crc32_internal::SlicingTables();
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t c = seed ^ 0xFFFFFFFFu;
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  for (; len >= 8; len -= 8, p += 8) {
    uint32_t lo, hi;
    std::memcpy(&lo, p, sizeof(lo));
    std::memcpy(&hi, p + 4, sizeof(hi));
    lo ^= c;
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
#endif
  for (; len > 0; --len, ++p) {
    c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

/// CRC of the concatenation A‖B from crc_a = Crc32(A), crc_b = Crc32(B)
/// and len_b = |B|, without touching the bytes. Lets a framed section
/// written straight to the sink be folded into its enclosing section's
/// running checksum.
inline uint32_t Crc32Combine(uint32_t crc_a, uint32_t crc_b, uint64_t len_b) {
  return crc32_internal::MultiplyModP(
             crc32_internal::ZeroBytesOperator(len_b), crc_a) ^
         crc_b;
}

}  // namespace rfid
