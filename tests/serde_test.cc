// Property and boundary tests for util/serde.h — the fixed-width
// little-endian words under the snapshot header and manifest
// (util/snapshot_io.h).

#include "util/serde.h"

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "gtest/gtest.h"
#include "util/rng.h"

namespace sparqlog {
namespace {

namespace serde = util::serde;

std::vector<uint64_t> EdgeValues() {
  return {0,
          1,
          0x7F,
          0x80,
          0xFF,
          0x100,
          0xFFFF,
          0x10000,
          0xFFFFFFFFULL,
          0x100000000ULL,
          0x0123456789ABCDEFULL,
          std::numeric_limits<uint64_t>::max() - 1,
          std::numeric_limits<uint64_t>::max()};
}

TEST(SerdeTest, U64RoundTripEdgesAndRandom) {
  std::vector<uint64_t> values = EdgeValues();
  util::Rng rng(2026);
  for (int i = 0; i < 200; ++i) values.push_back(rng.Next());

  std::string buf;
  for (uint64_t v : values) serde::PutU64(buf, v);
  EXPECT_EQ(buf.size(), 8 * values.size());
  std::string_view in = buf;
  for (uint64_t v : values) {
    uint64_t got = ~v;
    ASSERT_TRUE(serde::GetU64(in, got));
    EXPECT_EQ(got, v);
  }
  // The buffer is exactly consumed: one more read fails.
  uint64_t extra;
  EXPECT_TRUE(in.empty());
  EXPECT_FALSE(serde::GetU64(in, extra));
}

TEST(SerdeTest, U64IsLittleEndianOnTheWire) {
  std::string bytes;
  serde::PutU64(bytes, 0x0102030405060708ULL);
  ASSERT_EQ(bytes.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(static_cast<unsigned char>(bytes[static_cast<size_t>(i)]),
              8 - i)
        << "byte " << i;
  }
}

TEST(SerdeTest, TruncatedU64Fails) {
  // Every strict prefix of an 8-byte word must fail, not zero-fill, and
  // must leave the input unconsumed.
  std::string full;
  serde::PutU64(full, 0xDEADBEEFCAFEF00DULL);
  for (size_t cut = 0; cut < full.size(); ++cut) {
    std::string_view in(full.data(), cut);
    uint64_t v;
    EXPECT_FALSE(serde::GetU64(in, v)) << "prefix of " << cut << " bytes";
    EXPECT_EQ(in.size(), cut);
  }
}

TEST(SerdeTest, BufferGetU64ConsumesExactlyEightBytes) {
  std::string buf;
  serde::PutU64(buf, 7);
  buf.push_back('\x7f');  // trailing garbage the reader must not touch
  std::string_view view = buf;
  uint64_t v = 0;
  ASSERT_TRUE(serde::GetU64(view, v));
  EXPECT_EQ(v, 7u);
  EXPECT_EQ(view.size(), 1u);
  // Seven remaining bytes are not a word.
  std::string_view short_view(buf.data(), 7);
  EXPECT_FALSE(serde::GetU64(short_view, v));
}

}  // namespace
}  // namespace sparqlog
