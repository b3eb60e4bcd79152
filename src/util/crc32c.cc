#include "util/crc32c.h"

#include <array>
#include <cstddef>
#include <cstring>

namespace sparqlog::util {
namespace {

constexpr uint32_t kPoly = 0x82F63B78u;  // reflected Castagnoli

struct Tables {
  // tab[k][b]: CRC of byte b followed by k zero bytes — the standard
  // slice-by-8 layout (tab[0] is the classic byte-at-a-time table).
  uint32_t tab[8][256];
};

constexpr Tables BuildTables() {
  Tables t{};
  for (uint32_t b = 0; b < 256; ++b) {
    uint32_t crc = b;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    t.tab[0][b] = crc;
  }
  for (int k = 1; k < 8; ++k) {
    for (uint32_t b = 0; b < 256; ++b) {
      uint32_t crc = t.tab[k - 1][b];
      t.tab[k][b] = t.tab[0][crc & 0xFF] ^ (crc >> 8);
    }
  }
  return t;
}

constexpr Tables kTables = BuildTables();

inline uint32_t LoadLE32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

#if defined(__x86_64__) && defined(__GNUC__)
/// SSE4.2's crc32 instruction computes this same CRC (Castagnoli,
/// reflected), eight bytes per step: ~10x the table path's throughput,
/// which the parse memo pays on every log line. Takes and returns the
/// un-inverted register, like the table loop.
__attribute__((target("sse4.2"))) uint32_t ExtendSse42(
    uint32_t crc, const unsigned char* p, size_t n) {
  uint64_t c = crc;
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));  // little-endian: byte order
    c = __builtin_ia32_crc32di(c, word);
  }
  crc = static_cast<uint32_t>(c);
  for (; n > 0; ++p, --n) crc = __builtin_ia32_crc32qi(crc, *p);
  return crc;
}

bool HaveSse42() {
  static const bool have = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  return have;
}
#endif

}  // namespace

uint32_t Crc32cExtend(uint32_t crc, std::string_view data) {
#if defined(__x86_64__) && defined(__GNUC__)
  if (HaveSse42()) {
    return ~ExtendSse42(~crc,
                        reinterpret_cast<const unsigned char*>(data.data()),
                        data.size());
  }
#endif
  return Crc32cExtendTable(crc, data);
}

uint32_t Crc32cExtendTable(uint32_t crc, std::string_view data) {
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  size_t n = data.size();
  crc = ~crc;
  while (n >= 8) {
    uint32_t lo = LoadLE32(p) ^ crc;
    uint32_t hi = LoadLE32(p + 4);
    crc = kTables.tab[7][lo & 0xFF] ^ kTables.tab[6][(lo >> 8) & 0xFF] ^
          kTables.tab[5][(lo >> 16) & 0xFF] ^ kTables.tab[4][lo >> 24] ^
          kTables.tab[3][hi & 0xFF] ^ kTables.tab[2][(hi >> 8) & 0xFF] ^
          kTables.tab[1][(hi >> 16) & 0xFF] ^ kTables.tab[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n--) {
    crc = kTables.tab[0][(crc ^ *p++) & 0xFF] ^ (crc >> 8);
  }
  return ~crc;
}

}  // namespace sparqlog::util
