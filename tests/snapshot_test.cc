// Tests for the durable snapshot stack: CRC32C, vbyte streams, the
// snapshot container (every-byte corruption matrix), the
// two-generation store, and the atomic-publish fault hooks
// (util/crc32c.h, util/vbyte.h, util/snapshot_io.h). The dictionary
// section's codec is tested with rdf::Dictionary in rdf_test.cc.

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "util/crc32c.h"
#include "util/rng.h"
#include "util/snapshot_io.h"
#include "util/vbyte.h"

namespace sparqlog {
namespace {

namespace snap = util::snapshot;
namespace vbyte = util::vbyte;

// ---------------------------------------------------------------------------
// CRC32C
// ---------------------------------------------------------------------------

TEST(Crc32cTest, KnownAnswers) {
  // The Castagnoli check value (RFC 3720 appendix B / every CRC
  // catalogue): crc32c("123456789") == 0xE3069283.
  EXPECT_EQ(util::Crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(util::Crc32c(""), 0u);
  // 32 zero bytes — the iSCSI test vector.
  EXPECT_EQ(util::Crc32c(std::string(32, '\0')), 0x8A9136AAu);
  EXPECT_EQ(util::Crc32c(std::string(32, '\xff')), 0x62A8AB43u);
}

TEST(Crc32cTest, DispatchedPathMatchesTableAtEveryLengthAndOffset) {
  // On an SSE4.2 machine Crc32cExtend runs the crc32 instruction; the
  // table implementation is its reference, over every tail length and
  // misalignment of the 8-byte steps, from zero and non-zero seeds.
  util::Rng rng(11);
  std::string data;
  for (int i = 0; i < 300; ++i) {
    data.push_back(static_cast<char>(rng.Below(256)));
  }
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; offset + len <= data.size(); ++len) {
      const std::string_view piece = std::string_view(data).substr(offset, len);
      for (uint32_t seed : {0u, 0xDEADBEEFu}) {
        ASSERT_EQ(util::Crc32cExtend(seed, piece),
                  util::Crc32cExtendTable(seed, piece))
            << "offset " << offset << " length " << len;
      }
    }
  }
  EXPECT_EQ(util::Crc32cExtendTable(0, "123456789"), 0xE3069283u);
}

TEST(Crc32cTest, IncrementalMatchesOneShot) {
  util::Rng rng(7);
  std::string data;
  for (int i = 0; i < 1000; ++i) {
    data.push_back(static_cast<char>(rng.Below(256)));
  }
  const uint32_t whole = util::Crc32c(data);
  // Every split point yields the same value via Crc32cExtend.
  for (size_t cut : {size_t{0}, size_t{1}, size_t{7}, size_t{8}, size_t{63},
                     size_t{500}, data.size()}) {
    const uint32_t a =
        util::Crc32cExtend(0, std::string_view(data).substr(0, cut));
    const uint32_t b =
        util::Crc32cExtend(a, std::string_view(data).substr(cut));
    EXPECT_EQ(b, whole) << "split at " << cut;
  }
}

TEST(Crc32cTest, DetectsSingleBitFlips) {
  std::string data = "the quick brown fox jumps over the lazy dog";
  const uint32_t clean = util::Crc32c(data);
  for (size_t i = 0; i < data.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      data[i] = static_cast<char>(data[i] ^ (1 << bit));
      EXPECT_NE(util::Crc32c(data), clean) << "byte " << i << " bit " << bit;
      data[i] = static_cast<char>(data[i] ^ (1 << bit));
    }
  }
}

// ---------------------------------------------------------------------------
// vbyte
// ---------------------------------------------------------------------------

TEST(VbyteTest, VarintRoundTripEdgesAndRandom) {
  std::vector<uint64_t> values = {0,
                                  1,
                                  127,
                                  128,
                                  16383,
                                  16384,
                                  (1ULL << 56) - 1,
                                  1ULL << 56,
                                  std::numeric_limits<uint64_t>::max()};
  util::Rng rng(11);
  for (int i = 0; i < 500; ++i) values.push_back(rng.Next() >> rng.Below(64));

  std::string buf;
  for (uint64_t v : values) vbyte::PutVarint(buf, v);
  std::string_view in = buf;
  for (uint64_t v : values) {
    uint64_t got = ~v;
    ASSERT_TRUE(vbyte::GetVarint(in, got));
    EXPECT_EQ(got, v);
  }
  EXPECT_TRUE(in.empty());
}

TEST(VbyteTest, VarintLengthIsMinimal) {
  auto encoded_size = [](uint64_t v) {
    std::string buf;
    vbyte::PutVarint(buf, v);
    return buf.size();
  };
  EXPECT_EQ(encoded_size(0), 1u);
  EXPECT_EQ(encoded_size(127), 1u);
  EXPECT_EQ(encoded_size(128), 2u);
  EXPECT_EQ(encoded_size(16383), 2u);
  EXPECT_EQ(encoded_size(16384), 3u);
  EXPECT_EQ(encoded_size(std::numeric_limits<uint64_t>::max()), 10u);
}

TEST(VbyteTest, VarintRejectsTruncation) {
  std::string buf;
  vbyte::PutVarint(buf, std::numeric_limits<uint64_t>::max());
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    std::string_view in(buf.data(), cut);
    uint64_t v;
    EXPECT_FALSE(vbyte::GetVarint(in, v)) << "prefix of " << cut << " bytes";
  }
}

TEST(VbyteTest, VarintRejectsOverlongAndOverflow) {
  // Eleven continuation bytes: more than any u64 needs.
  std::string overlong(10, '\x80');
  overlong.push_back('\x01');
  std::string_view in = overlong;
  uint64_t v;
  EXPECT_FALSE(vbyte::GetVarint(in, v));

  // Ten bytes whose tenth carries bits above 2^63 — would silently
  // truncate if accepted.
  std::string overflow(9, '\x80');
  overflow.push_back('\x02');
  std::string_view in2 = overflow;
  EXPECT_FALSE(vbyte::GetVarint(in2, v));
}

TEST(VbyteTest, ZigzagRoundTrip) {
  const std::vector<int64_t> values = {0,
                                       -1,
                                       1,
                                       -2,
                                       2,
                                       63,
                                       -64,
                                       std::numeric_limits<int64_t>::min(),
                                       std::numeric_limits<int64_t>::max()};
  std::string buf;
  for (int64_t v : values) vbyte::PutZigzag(buf, v);
  std::string_view in = buf;
  for (int64_t v : values) {
    int64_t got = 0;
    ASSERT_TRUE(vbyte::GetZigzag(in, got));
    EXPECT_EQ(got, v);
  }
  // Small magnitudes stay one byte regardless of sign.
  std::string small;
  vbyte::PutZigzag(small, -64);
  EXPECT_EQ(small.size(), 1u);
}

TEST(VbyteTest, LenPrefixedRoundTripAndGuard) {
  std::string buf;
  vbyte::PutLenPrefixed(buf, "payload");
  vbyte::PutLenPrefixed(buf, "");
  std::string_view in = buf;
  std::string_view s;
  ASSERT_TRUE(vbyte::GetLenPrefixed(in, s));
  EXPECT_EQ(s, "payload");
  ASSERT_TRUE(vbyte::GetLenPrefixed(in, s));
  EXPECT_EQ(s, "");
  EXPECT_TRUE(in.empty());

  // A length prefix claiming more than max_len (or than the input
  // holds) is rejected.
  std::string huge;
  vbyte::PutVarint(huge, 1000);
  huge += "way too short";
  std::string_view in2 = huge;
  EXPECT_FALSE(vbyte::GetLenPrefixed(in2, s));
  std::string capped;
  vbyte::PutLenPrefixed(capped, "0123456789");
  std::string_view in3 = capped;
  EXPECT_FALSE(vbyte::GetLenPrefixed(in3, s, /*max_len=*/9));
}

TEST(VbyteTest, DeltaSortedRoundTrip) {
  util::Rng rng(13);
  std::vector<uint64_t> sorted;
  uint64_t v = 0;
  for (int i = 0; i < 300; ++i) {
    v += 1 + rng.Below(1ULL << 40);
    sorted.push_back(v);
  }
  std::string buf;
  vbyte::PutDeltaSorted(buf, sorted);
  std::string_view in = buf;
  std::vector<uint64_t> got;
  ASSERT_TRUE(vbyte::GetDeltaSorted(in, got));
  EXPECT_TRUE(in.empty());
  EXPECT_EQ(got, sorted);

  std::string empty_buf;
  vbyte::PutDeltaSorted(empty_buf, {});
  std::string_view in2 = empty_buf;
  std::vector<uint64_t> got2;
  ASSERT_TRUE(vbyte::GetDeltaSorted(in2, got2));
  EXPECT_TRUE(got2.empty());
}

TEST(VbyteTest, DeltaSortedRejectsCorruptStreams) {
  // A zero delta (duplicate) after the first element.
  std::string dup;
  vbyte::PutVarint(dup, 2);  // count
  vbyte::PutVarint(dup, 5);  // first
  vbyte::PutVarint(dup, 0);  // delta 0 -> duplicate
  std::string_view in = dup;
  std::vector<uint64_t> out;
  EXPECT_FALSE(vbyte::GetDeltaSorted(in, out));

  // A wrapping delta (value decreases mod 2^64).
  std::string wrap;
  vbyte::PutVarint(wrap, 2);
  vbyte::PutVarint(wrap, 10);
  vbyte::PutVarint(wrap, std::numeric_limits<uint64_t>::max());  // 10 + max wraps
  std::string_view in2 = wrap;
  EXPECT_FALSE(vbyte::GetDeltaSorted(in2, out));

  // A count larger than the remaining bytes cannot drive the reserve.
  std::string huge;
  vbyte::PutVarint(huge, 1ULL << 40);
  std::string_view in3 = huge;
  EXPECT_FALSE(vbyte::GetDeltaSorted(in3, out));

  // Truncated mid-stream.
  std::vector<uint64_t> sorted = {1, 2, 3, 4, 5};
  std::string buf;
  vbyte::PutDeltaSorted(buf, sorted);
  for (size_t cut = 0; cut + 1 < buf.size(); ++cut) {
    std::string_view in4(buf.data(), cut);
    EXPECT_FALSE(vbyte::GetDeltaSorted(in4, out)) << "cut " << cut;
  }
}

// ---------------------------------------------------------------------------
// Snapshot container
// ---------------------------------------------------------------------------

class SnapshotFileTest : public ::testing::Test {
 protected:
  std::string Path(const std::string& tag) {
    return (std::filesystem::temp_directory_path() /
            ("sparqlog_snapshot_test_" + tag + "_" +
             std::to_string(::testing::UnitTest::GetInstance()->random_seed())))
        .string();
  }

  static std::string SampleImage() {
    snap::SnapshotWriter writer;
    writer.AddSection(1, "first section payload");
    writer.AddSection(2, "");  // empty payloads are legal
    std::string big;
    for (int i = 0; i < 400; ++i) vbyte::PutVarint(big, uint64_t(i) * 977);
    writer.AddSection(16, big);
    return writer.Finish();
  }

  static void WriteRaw(const std::string& path, std::string_view bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good());
  }
};

TEST_F(SnapshotFileTest, RoundTripStreamAndMmap) {
  const std::string path = Path("roundtrip");
  const std::string image = SampleImage();
  WriteRaw(path, image);
  for (snap::LoadMode mode : {snap::LoadMode::kStream, snap::LoadMode::kMmap}) {
    auto loaded = snap::Snapshot::Load(path, mode);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    const snap::Snapshot& s = loaded.value();
    EXPECT_EQ(s.section_count(), 3u);
    EXPECT_EQ(s.file_bytes(), image.size());
    ASSERT_NE(s.section(1), nullptr);
    EXPECT_EQ(*s.section(1), "first section payload");
    ASSERT_NE(s.section(2), nullptr);
    EXPECT_TRUE(s.section(2)->empty());
    ASSERT_NE(s.section(16), nullptr);
    EXPECT_EQ(s.section(99), nullptr);
  }
  std::filesystem::remove(path);
}

TEST_F(SnapshotFileTest, EveryByteFlipIsDetected) {
  // The tentpole guarantee: no single corrupt byte, anywhere in the
  // file, loads silently. Every byte is under either the header CRC or
  // a section CRC.
  const std::string path = Path("flip");
  const std::string image = SampleImage();
  for (size_t i = 0; i < image.size(); ++i) {
    std::string damaged = image;
    damaged[i] = static_cast<char>(damaged[i] ^ 0x01);
    WriteRaw(path, damaged);
    auto loaded = snap::Snapshot::Load(path, snap::LoadMode::kStream);
    EXPECT_FALSE(loaded.ok()) << "flip at byte " << i << " loaded silently";
  }
  std::filesystem::remove(path);
}

TEST_F(SnapshotFileTest, EveryTruncationIsDetected) {
  const std::string path = Path("trunc");
  const std::string image = SampleImage();
  for (size_t keep = 0; keep < image.size(); ++keep) {
    WriteRaw(path, std::string_view(image).substr(0, keep));
    auto loaded = snap::Snapshot::Load(path, snap::LoadMode::kStream);
    EXPECT_FALSE(loaded.ok()) << "truncation to " << keep
                              << " bytes loaded silently";
  }
  std::filesystem::remove(path);
}

TEST_F(SnapshotFileTest, TrailingGarbageIsDetected) {
  const std::string path = Path("tail");
  for (const std::string& tail :
       {std::string("x"), std::string(4, '\0'),
        std::string("appended garbage")}) {
    WriteRaw(path, SampleImage() + tail);
    auto loaded = snap::Snapshot::Load(path, snap::LoadMode::kStream);
    EXPECT_FALSE(loaded.ok());
  }
  std::filesystem::remove(path);
}

TEST_F(SnapshotFileTest, ErrorsCarryPathAndReason) {
  const std::string path = Path("reason");
  WriteRaw(path, "not a snapshot at all");
  auto loaded = snap::Snapshot::Load(path, snap::LoadMode::kStream);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find(path), std::string::npos)
      << loaded.status().ToString();
  auto missing = snap::Snapshot::Load(Path("missing"),
                                      snap::LoadMode::kStream);
  EXPECT_FALSE(missing.ok());
  std::filesystem::remove(path);
}

TEST_F(SnapshotFileTest, FutureFormatVersionIsRefused) {
  // Bump the version word (bytes 8..15) and re-seal the header CRC so
  // only the version check can object.
  const std::string path = Path("version");
  std::string image = SampleImage();
  image[8] = static_cast<char>(snap::kSnapshotVersion + 1);
  const uint32_t crc = util::Crc32c(std::string_view(image).substr(0, 24));
  for (int i = 0; i < 8; ++i) {
    image[24 + i] =
        static_cast<char>(i < 4 ? (crc >> (8 * i)) & 0xFF : 0);
  }
  WriteRaw(path, image);
  auto loaded = snap::Snapshot::Load(path, snap::LoadMode::kStream);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("version"), std::string::npos)
      << loaded.status().ToString();
  std::filesystem::remove(path);
}

TEST_F(SnapshotFileTest, DuplicateSectionIdIsRefused) {
  snap::SnapshotWriter writer;
  writer.AddSection(5, "one");
  writer.AddSection(5, "two");
  const std::string path = Path("dup");
  WriteRaw(path, writer.Finish());
  auto loaded = snap::Snapshot::Load(path, snap::LoadMode::kStream);
  EXPECT_FALSE(loaded.ok());
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// SnapshotStore
// ---------------------------------------------------------------------------

TEST(SnapshotStoreTest, SaveAdvancesGenerationsAndPrunes) {
  const std::string base =
      (std::filesystem::temp_directory_path() / "sparqlog_store_test.snap")
          .string();
  snap::SnapshotStore store(base);
  store.Remove();

  EXPECT_EQ(store.ReadManifest().status().code(), util::StatusCode::kNotFound);

  for (uint64_t gen = 1; gen <= 4; ++gen) {
    snap::SnapshotWriter writer;
    writer.AddSection(1, "generation " + std::to_string(gen));
    auto saved = store.Save(writer);
    ASSERT_TRUE(saved.ok()) << saved.status().ToString();
    EXPECT_EQ(saved.value(), gen);

    auto manifest = store.ReadManifest();
    ASSERT_TRUE(manifest.ok());
    EXPECT_EQ(manifest.value().current, gen);
    EXPECT_EQ(manifest.value().previous, gen > 1 ? gen - 1 : 0);
    // Exactly the retained generations exist on disk.
    EXPECT_TRUE(std::filesystem::exists(store.GenerationPath(gen)));
    if (gen > 1) {
      EXPECT_TRUE(std::filesystem::exists(store.GenerationPath(gen - 1)));
    }
    if (gen > 2) {
      EXPECT_FALSE(std::filesystem::exists(store.GenerationPath(gen - 2)));
    }
  }

  // Both retained generations load and carry their own payloads.
  auto current = store.LoadGeneration(4, snap::LoadMode::kStream);
  auto previous = store.LoadGeneration(3, snap::LoadMode::kMmap);
  ASSERT_TRUE(current.ok());
  ASSERT_TRUE(previous.ok());
  EXPECT_EQ(*current.value().section(1), "generation 4");
  EXPECT_EQ(*previous.value().section(1), "generation 3");

  store.Remove();
  EXPECT_FALSE(std::filesystem::exists(base));
  EXPECT_FALSE(std::filesystem::exists(store.GenerationPath(4)));
}

TEST(SnapshotStoreTest, DamagedManifestIsReasonedError) {
  const std::string base =
      (std::filesystem::temp_directory_path() / "sparqlog_store_bad.snap")
          .string();
  snap::SnapshotStore store(base);
  store.Remove();
  snap::SnapshotWriter writer;
  writer.AddSection(1, "x");
  ASSERT_TRUE(store.Save(writer).ok());

  // Flip a manifest byte: every byte of the 40 is covered.
  std::error_code ec;
  const auto size = std::filesystem::file_size(base, ec);
  ASSERT_FALSE(ec);
  for (uint64_t i = 0; i < size; ++i) {
    std::string bytes;
    {
      std::ifstream in(base, std::ios::binary);
      bytes.assign(std::istreambuf_iterator<char>(in), {});
    }
    bytes[i] = static_cast<char>(bytes[i] ^ 0x10);
    {
      std::ofstream out(base, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    auto manifest = store.ReadManifest();
    EXPECT_FALSE(manifest.ok()) << "manifest byte " << i << " flip accepted";
    EXPECT_FALSE(manifest.status().message().empty());
    bytes[i] = static_cast<char>(bytes[i] ^ 0x10);
    std::ofstream out(base, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  store.Remove();
}

// ---------------------------------------------------------------------------
// AtomicWriteFile + fault hooks
// ---------------------------------------------------------------------------

TEST(AtomicWriteFileTest, WritesAndReplaces) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "sparqlog_atomic_test.bin")
          .string();
  ASSERT_TRUE(snap::AtomicWriteFile(path, "first contents").ok());
  ASSERT_TRUE(snap::AtomicWriteFile(path, "second").ok());
  std::ifstream in(path, std::ios::binary);
  std::string got((std::istreambuf_iterator<char>(in)), {});
  EXPECT_EQ(got, "second");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::filesystem::remove(path);
}

TEST(AtomicWriteFileTest, FailedFsyncLeavesOldFileIntact) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "sparqlog_atomic_fsync.bin")
          .string();
  ASSERT_TRUE(snap::AtomicWriteFile(path, "stable").ok());
  snap::IoFaultHooks hooks;
  hooks.fail_fsync = [](const std::string&) { return true; };
  snap::SetIoFaultHooksForTest(&hooks);
  util::Status st = snap::AtomicWriteFile(path, "never lands");
  snap::SetIoFaultHooksForTest(nullptr);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("fsync"), std::string::npos) << st.ToString();
  std::ifstream in(path, std::ios::binary);
  std::string got((std::istreambuf_iterator<char>(in)), {});
  EXPECT_EQ(got, "stable");
  std::filesystem::remove(path);
}

TEST(AtomicWriteFileTest, FailedRenameLeavesOldFileIntact) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "sparqlog_atomic_rename.bin")
          .string();
  ASSERT_TRUE(snap::AtomicWriteFile(path, "stable").ok());
  snap::IoFaultHooks hooks;
  hooks.fail_rename = [](const std::string&) { return true; };
  snap::SetIoFaultHooksForTest(&hooks);
  util::Status st = snap::AtomicWriteFile(path, "never lands");
  snap::SetIoFaultHooksForTest(nullptr);
  ASSERT_FALSE(st.ok());
  std::ifstream in(path, std::ios::binary);
  std::string got((std::istreambuf_iterator<char>(in)), {});
  EXPECT_EQ(got, "stable");
  std::filesystem::remove(path);
}

TEST(AtomicWriteFileTest, TornWriteZeroFillsTheTail) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "sparqlog_atomic_torn.bin")
          .string();
  snap::IoFaultHooks hooks;
  hooks.torn_write = [](const std::string&, size_t) -> int64_t { return 4; };
  snap::SetIoFaultHooksForTest(&hooks);
  util::Status st = snap::AtomicWriteFile(path, "0123456789");
  snap::SetIoFaultHooksForTest(nullptr);
  // The tear is silent — like a power cut after an unflushed write the
  // application never observed.
  ASSERT_TRUE(st.ok()) << st.ToString();
  std::ifstream in(path, std::ios::binary);
  std::string got((std::istreambuf_iterator<char>(in)), {});
  EXPECT_EQ(got, std::string("0123") + std::string(6, '\0'));
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace sparqlog
