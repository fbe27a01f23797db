#pragma once

/// \file crc32.h
/// \brief CRC-32 (IEEE polynomial, table-driven) for WAL and SST integrity.
///
/// Slice-by-8: eight bytes per step through eight derived tables, giving the
/// same values as the bytewise loop at several times its speed.

#include <array>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace evo {

namespace internal {
/// kCrcTables[0] is the bytewise IEEE table; kCrcTables[k][i] is the CRC
/// register after byte i and then k zero bytes, so one step folds in eight
/// bytes at once.
constexpr std::array<std::array<uint32_t, 256>, 8> MakeCrcTables() {
  std::array<std::array<uint32_t, 256>, 8> t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = t[0][t[k - 1][i] & 0xff] ^ (t[k - 1][i] >> 8);
    }
  }
  return t;
}
inline constexpr auto kCrcTables = MakeCrcTables();
}  // namespace internal

/// \brief CRC-32 of a byte string.
inline uint32_t Crc32(std::string_view data, uint32_t seed = 0) {
  const auto& t = internal::kCrcTables;
  uint32_t c = seed ^ 0xffffffffu;
  const char* p = data.data();
  size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    // Little-endian assembly by shifts, so the result is host-independent.
    uint8_t b[8];
    std::memcpy(b, p, 8);
    const uint32_t lo = c ^ (uint32_t{b[0]} | uint32_t{b[1]} << 8 |
                             uint32_t{b[2]} << 16 | uint32_t{b[3]} << 24);
    c = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^ t[5][(lo >> 16) & 0xff] ^
        t[4][lo >> 24] ^ t[3][b[4]] ^ t[2][b[5]] ^ t[1][b[6]] ^ t[0][b[7]];
  }
  for (; n > 0; ++p, --n) {
    c = t[0][(c ^ static_cast<unsigned char>(*p)) & 0xff] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

}  // namespace evo
