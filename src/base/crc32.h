#ifndef TMDB_BASE_CRC32_H_
#define TMDB_BASE_CRC32_H_

#include <array>
#include <cstddef>
#include <cstdint>

namespace tmdb {

namespace internal_crc32 {

using Table = std::array<uint32_t, 256>;

/// Slicing-by-8 lookup tables for the reflected CRC-32 polynomial
/// 0xEDB88320 (the zlib/PNG polynomial), generated at compile time.
/// kTables[0] is the classic byte-wise table; kTables[k][i] is the CRC of
/// byte i followed by k zero bytes, so one round folds eight input bytes
/// with eight independent lookups instead of a chain of eight.
constexpr std::array<Table, 8> MakeTables() {
  std::array<Table, 8> tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

inline constexpr std::array<Table, 8> kTables = MakeTables();

/// Little-endian 32-bit load, independent of host byte order and alignment.
inline uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace internal_crc32

/// CRC-32 (reflected, polynomial 0xEDB88320) over `len` bytes. Pass the
/// previous return value as `seed` to checksum data in chunks; the default
/// seed checksums a single buffer. Deterministic across platforms — spill
/// files written by one build verify under any other. Every wire frame and
/// spill block passes through here, so it runs eight bytes per round
/// (slicing-by-8); the checksums are those of the byte-wise loop.
inline uint32_t Crc32(const void* data, size_t len, uint32_t seed = 0) {
  using internal_crc32::kTables;
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (; len >= 8; p += 8, len -= 8) {
    const uint32_t lo = internal_crc32::LoadLe32(p) ^ c;
    const uint32_t hi = internal_crc32::LoadLe32(p + 4);
    c = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
        kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
        kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
        kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
  }
  for (; len > 0; ++p, --len) {
    c = kTables[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace tmdb

#endif  // TMDB_BASE_CRC32_H_
