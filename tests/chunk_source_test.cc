#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "pipeline/chunk_source.h"
#include "pipeline/pipeline.h"
#include "testing/invariants.h"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace sparqlog::pipeline {
namespace {

/// Writes `bytes` verbatim to a fresh temp file and returns its path.
std::filesystem::path WriteTemp(const std::string& bytes) {
  static int counter = 0;
  std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("sparqlog_chunk_test_" + std::to_string(::getpid()) + "_" +
       std::to_string(counter++) + ".log");
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
  return path;
}

struct Drained {
  std::vector<std::string> lines;
  std::vector<size_t> chunk_sizes;
  uint64_t bytes = 0;
};

/// Pulls every chunk out of `source` with the given max_lines bound.
Drained Drain(ChunkSource& source, size_t max_lines) {
  Drained d;
  LineChunk chunk;
  while (source.NextChunk(max_lines, chunk)) {
    EXPECT_FALSE(chunk.lines.empty());
    EXPECT_LE(chunk.lines.size(), max_lines);
    d.chunk_sizes.push_back(chunk.lines.size());
    d.bytes += chunk.bytes;
    for (std::string_view line : chunk.lines) d.lines.emplace_back(line);
  }
  return d;
}

Drained DrainFile(const std::string& bytes, size_t max_lines) {
  const std::filesystem::path path = WriteTemp(bytes);
  auto source = MmapChunkSource::Open(path.string());
  EXPECT_TRUE(source.ok()) << source.status().ToString();
  Drained d = Drain(*source.value(), max_lines);
  std::filesystem::remove(path);
  return d;
}

TEST(MmapChunkSourceTest, SlicesAtNewlines) {
  Drained d = DrainFile("alpha\nbeta\ngamma\n", 64);
  EXPECT_EQ(d.lines, (std::vector<std::string>{"alpha", "beta", "gamma"}));
  EXPECT_EQ(d.bytes, 14u);  // payload only, newlines excluded
}

TEST(MmapChunkSourceTest, StripsCarriageReturns) {
  Drained d = DrainFile("a\r\nbb\r\nccc\r\n", 64);
  EXPECT_EQ(d.lines, (std::vector<std::string>{"a", "bb", "ccc"}));
  EXPECT_EQ(d.bytes, 6u);
}

TEST(MmapChunkSourceTest, PreservesEmptyLines) {
  Drained d = DrainFile("\n\nx\n\n", 64);
  EXPECT_EQ(d.lines, (std::vector<std::string>{"", "", "x", ""}));
}

TEST(MmapChunkSourceTest, EmitsFinalUnterminatedLine) {
  Drained d = DrainFile("one\ntwo", 64);
  EXPECT_EQ(d.lines, (std::vector<std::string>{"one", "two"}));
}

TEST(MmapChunkSourceTest, NoPhantomLineAfterTrailingNewline) {
  // getline parity: "x\n" is one line, not one line plus an empty one.
  Drained d = DrainFile("x\n", 64);
  EXPECT_EQ(d.lines, (std::vector<std::string>{"x"}));
}

TEST(MmapChunkSourceTest, EmptyFileYieldsNoChunks) {
  Drained d = DrainFile("", 64);
  EXPECT_TRUE(d.lines.empty());
  EXPECT_EQ(d.bytes, 0u);
}

TEST(MmapChunkSourceTest, MaxLinesBoundsEachChunk) {
  Drained d = DrainFile("a\nb\nc\nd\ne\n", 2);
  EXPECT_EQ(d.lines, (std::vector<std::string>{"a", "b", "c", "d", "e"}));
  EXPECT_EQ(d.chunk_sizes, (std::vector<size_t>{2, 2, 1}));
}

TEST(MmapChunkSourceTest, ViewsPointIntoTheMapping) {
  const std::filesystem::path path = WriteTemp("stable\nmemory\n");
  auto source = MmapChunkSource::Open(path.string());
  ASSERT_TRUE(source.ok());
  LineChunk chunk;
  ASSERT_TRUE(source.value()->NextChunk(64, chunk));
  ASSERT_EQ(chunk.lines.size(), 2u);
  // Zero-copy: no owned storage, views are 7 bytes apart in one buffer.
  EXPECT_TRUE(chunk.owned.empty());
  EXPECT_EQ(chunk.lines[1].data() - chunk.lines[0].data(), 7);
  std::filesystem::remove(path);
}

TEST(MmapChunkSourceTest, BufferedFallbackMatchesMmap) {
  // Options::use_mmap=false forces the read(2) fallback; it must serve
  // the exact lines, chunking, sizes, and resume cursors of the mapped
  // path. (Regression: the fallback once passed buffer.size() and
  // std::move(buffer) in one argument list — unspecified evaluation
  // order let gcc move first, so the source reported size 0 and served
  // an empty file.)
  const std::string bytes = "alpha\r\nbeta\n\nlast-no-newline";
  const std::filesystem::path path = WriteTemp(bytes);
  MmapChunkSource::Options buffered_opts;
  buffered_opts.use_mmap = false;
  auto mapped = MmapChunkSource::Open(path.string());
  auto buffered = MmapChunkSource::Open(path.string(), buffered_opts);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  ASSERT_TRUE(buffered.ok()) << buffered.status().ToString();
  EXPECT_EQ(buffered.value()->size_bytes(), bytes.size());
  EXPECT_EQ(buffered.value()->size_bytes(), mapped.value()->size_bytes());
  Drained dm = Drain(*mapped.value(), 2);
  Drained db = Drain(*buffered.value(), 2);
  EXPECT_EQ(db.lines, dm.lines);
  EXPECT_EQ(db.chunk_sizes, dm.chunk_sizes);
  EXPECT_EQ(db.bytes, dm.bytes);
  // Resume cursors agree too (the journal runs over either form).
  EXPECT_TRUE(buffered.value()->SupportsResume());
  ASSERT_TRUE(buffered.value()->SeekTo(7));  // start of "beta"
  LineChunk chunk;
  ASSERT_TRUE(buffered.value()->NextChunk(1, chunk));
  ASSERT_EQ(chunk.lines.size(), 1u);
  EXPECT_EQ(chunk.lines[0], "beta");
  std::filesystem::remove(path);
}

TEST(MmapChunkSourceTest, MissingFileIsAnError) {
  auto source = MmapChunkSource::Open("/nonexistent/sparqlog/nope.log");
  EXPECT_FALSE(source.ok());
}

TEST(MmapChunkSourceTest, MissingFileErrorCarriesErrno) {
  auto source = MmapChunkSource::Open("/nonexistent/sparqlog/nope.log");
  ASSERT_FALSE(source.ok());
  // The OS reason must survive into the message — "cannot open" alone
  // hides ENOENT vs EACCES vs EMFILE from the operator.
  EXPECT_NE(source.status().message().find(std::strerror(ENOENT)),
            std::string::npos)
      << source.status().ToString();
}

#if defined(__unix__) || defined(__APPLE__)
TEST(MmapChunkSourceTest, DirectoryIsInvalidArgument) {
  auto source =
      MmapChunkSource::Open(std::filesystem::temp_directory_path().string());
  ASSERT_FALSE(source.ok());
  EXPECT_NE(source.status().message().find("not a regular file"),
            std::string::npos)
      << source.status().ToString();
}
#endif

TEST(VectorChunkSourceTest, ViewsAliasCallerStrings) {
  const std::vector<std::string> lines = {"one", "two", "three"};
  VectorChunkSource source(lines);
  Drained d = Drain(source, 2);
  EXPECT_EQ(d.lines, lines);
  EXPECT_EQ(d.chunk_sizes, (std::vector<size_t>{2, 1}));
  VectorChunkSource again(lines);
  LineChunk chunk;
  ASSERT_TRUE(again.NextChunk(1, chunk));
  EXPECT_EQ(chunk.lines[0].data(), lines[0].data());
}

TEST(IstreamChunkSourceTest, CopiesStreamLinesIntoOwnedStorage) {
  std::istringstream in("first\r\nsecond\nthird");
  IstreamChunkSource stream(in);
  Drained d = Drain(stream, 64);
  EXPECT_EQ(d.lines, (std::vector<std::string>{"first", "second", "third"}));
  EXPECT_EQ(d.bytes, 16u);
}

#if defined(__unix__) || defined(__APPLE__)
// A FIFO cannot be mapped; the stream source is how such input reaches
// the pipeline. Every open below is arranged so that it cannot block: a
// failure fails the test instead of hanging it.
TEST(IstreamChunkSourceTest, ServesAFifo) {
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("sparqlog_chunk_fifo_" + std::to_string(::getpid()));
  std::filesystem::remove(path);
  ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0) << std::strerror(errno);

  // MmapChunkSource::Open must refuse the FIFO without opening it: a
  // blocking open(2) would wait for a writer. If it does block, a
  // writer is supplied so the call returns and the test fails.
  auto mmap_open = std::async(std::launch::async, [&path] {
    return MmapChunkSource::Open(path.string()).ok();
  });
  if (mmap_open.wait_for(std::chrono::seconds(10)) !=
      std::future_status::ready) {
    ADD_FAILURE() << "MmapChunkSource::Open blocked on a FIFO";
    const int unblock = ::open(path.c_str(), O_WRONLY | O_NONBLOCK);
    if (unblock >= 0) ::close(unblock);
  }
  EXPECT_FALSE(mmap_open.get());

  // A non-blocking placeholder reader lets the writer end open without
  // blocking; the writer then lets the stream's blocking open through.
  const int placeholder = ::open(path.c_str(), O_RDONLY | O_NONBLOCK);
  const int writer_fd =
      placeholder < 0 ? -1 : ::open(path.c_str(), O_WRONLY | O_NONBLOCK);
  std::ifstream in;
  if (writer_fd >= 0) in.open(path, std::ios::binary);
  if (placeholder >= 0) ::close(placeholder);
  std::filesystem::remove(path);
  if (!in) {
    if (writer_fd >= 0) ::close(writer_fd);
    FAIL() << "cannot open both ends of the FIFO: " << std::strerror(errno);
  }

  // Blocking writes from here on: the reader drains the pipe to EOF.
  EXPECT_EQ(::fcntl(writer_fd, F_SETFL, 0), 0) << std::strerror(errno);
  std::thread writer([writer_fd] {
    std::string data;
    for (int i = 0; i < 1000; ++i) {
      data += "line " + std::to_string(i) + "\r\n";
    }
    for (size_t done = 0; done < data.size();) {
      const ssize_t n =
          ::write(writer_fd, data.data() + done, data.size() - done);
      if (n <= 0) break;
      done += static_cast<size_t>(n);
    }
    ::close(writer_fd);
  });
  IstreamChunkSource source(in);
  Drained d = Drain(source, 64);
  writer.join();
  ASSERT_EQ(d.lines.size(), 1000u);
  EXPECT_EQ(d.lines.front(), "line 0");
  EXPECT_EQ(d.lines.back(), "line 999");
  EXPECT_EQ(d.chunk_sizes.size(), 16u);  // 15 full chunks of 64, then 40
}
#endif

// ---------------------------------------------------------------------------
// Source equivalence: vector == mmap == stream, full digest
// ---------------------------------------------------------------------------

std::vector<std::string> SampleLog() {
  std::vector<std::string> log;
  for (int i = 0; i < 40; ++i) {
    log.push_back("q" + std::to_string(i % 7) +
                  "\tSELECT ?x WHERE { ?x <p:p" + std::to_string(i % 5) +
                  "> ?y }");
    if (i % 9 == 0) log.push_back("");
    if (i % 11 == 0) log.push_back("not a query at all");
  }
  return log;
}

TEST(SourceEquivalenceTest, AllFramingsAgree) {
  for (const bool crlf : {false, true}) {
    for (const bool trailing : {true, false}) {
      testing::SourceEquivalenceConfig config;
      config.pipeline.threads = 2;
      config.pipeline.chunk_size = 8;
      config.crlf = crlf;
      config.trailing_newline = trailing;
      auto v = testing::CheckSourceEquivalence(SampleLog(), config);
      EXPECT_FALSE(v.has_value()) << (v ? v->invariant + ": " + v->detail : "");
    }
  }
}

// Degenerate file framings: an empty file and a file of blank CRLF
// lines must produce identical (and sane) digests through the vector,
// mmap, and stream sources — the mmap path in particular must treat a
// zero-byte file as a valid zero-line source, not an mmap failure.
TEST(SourceEquivalenceTest, EmptyFileAllSourcesAgree) {
  testing::SourceEquivalenceConfig config;
  config.pipeline.threads = 2;
  config.pipeline.chunk_size = 8;
  config.trailing_newline = false;  // truly zero bytes on disk
  auto v = testing::CheckSourceEquivalence({}, config);
  EXPECT_FALSE(v.has_value()) << (v ? v->invariant + ": " + v->detail : "");
}

TEST(SourceEquivalenceTest, CrlfOnlyFileAllSourcesAgree) {
  // Three blank lines, CRLF-terminated: the file is "\r\n\r\n\r\n".
  const std::vector<std::string> blanks(3, "");
  for (const bool trailing : {true, false}) {
    testing::SourceEquivalenceConfig config;
    config.pipeline.threads = 2;
    config.pipeline.chunk_size = 2;
    config.crlf = true;
    config.trailing_newline = trailing;
    auto v = testing::CheckSourceEquivalence(blanks, config);
    EXPECT_FALSE(v.has_value()) << (v ? v->invariant + ": " + v->detail : "");
  }
}

}  // namespace
}  // namespace sparqlog::pipeline
