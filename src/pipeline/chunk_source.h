#ifndef SPARQLOG_PIPELINE_CHUNK_SOURCE_H_
#define SPARQLOG_PIPELINE_CHUNK_SOURCE_H_

#include <cstddef>
#include <cstdint>
#include <istream>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace sparqlog::pipeline {

/// A chunk read failed in a way that may succeed on retry (short read,
/// EINTR, injected transient fault). The pipeline reader retries a
/// bounded number of times before treating the error as persistent.
class TransientChunkError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A chunk read failed persistently (I/O error, truncated mapping).
/// The pipeline reader stops consuming the source, surfaces the error
/// as PipelineResult::source_status, and finishes the lines it already
/// has — a partial result with honest accounting, not a crash.
class ChunkSourceError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One unit of reader output: a batch of lines as string_views, plus
/// whatever storage those views need when the source cannot hand out
/// stable memory of its own.
///
/// Lifetime contract: the views in `lines` stay valid while (a) the
/// chunk itself is alive — `owned` moves with it, and moving a
/// std::vector never relocates its elements — and (b) the producing
/// ChunkSource is alive, for sources whose views point at long-lived
/// backing memory (an mmap'ed file, a caller's vector). Workers must
/// therefore finish with a chunk before the pipeline run returns;
/// nothing may squirrel a view away past Run().
struct LineChunk {
  std::vector<std::string_view> lines;
  /// Backing storage for `lines` when the source must copy (stream
  /// input). Zero-copy sources leave it empty.
  std::vector<std::string> owned;
  /// Payload bytes: the sum of line lengths, excluding newline bytes —
  /// deterministic across mmap/stream/vector sources for the same
  /// logical lines (feeds the ingest-throughput telemetry).
  uint64_t bytes = 0;

  void Clear() {
    lines.clear();
    owned.clear();
    bytes = 0;
  }
};

/// Streaming source of log-line chunks — the pipeline's one input
/// contract. Implementations that own stable memory hand out views into
/// it and never build per-line strings.
class ChunkSource {
 public:
  virtual ~ChunkSource() = default;

  /// Replaces `out` with up to `max_lines` lines. Returns false when
  /// the source is exhausted and `out` is empty. May throw
  /// TransientChunkError / ChunkSourceError; the pipeline reader
  /// contains both (see ParallelLogPipeline).
  virtual bool NextChunk(size_t max_lines, LineChunk& out) = 0;

  /// Resume support (the crash-safe run journal, pipeline/journal.h).
  /// `offset()` is an opaque cursor naming the next unread line —
  /// a byte offset for file sources, an index for in-memory ones —
  /// valid only for the same source contents. `SeekTo` repositions to a
  /// previously observed cursor. Sources without resume support keep
  /// the defaults (journaling them is rejected up front).
  virtual bool SupportsResume() const { return false; }
  virtual uint64_t offset() const { return 0; }
  virtual bool SeekTo(uint64_t /*offset*/) { return false; }
};

/// Memory-maps a log file and slices it at newline boundaries; every
/// line is a view straight into the mapping (no per-line allocation, no
/// byte copied). Line semantics match std::getline plus CRLF handling:
/// a trailing '\r' is stripped from every line, a file ending in '\n'
/// yields no final empty line, and a final unterminated line is
/// yielded as-is.
class MmapChunkSource : public ChunkSource {
 public:
  struct Options {
    /// false forces the buffered-read fallback even where mmap is
    /// available — identical chunk semantics, exercised by the fault
    /// tests so the EINTR/short-read handling stays covered.
    bool use_mmap = true;
  };

  /// Maps `path` read-only (MADV_SEQUENTIAL). On platforms without
  /// mmap (or with Options::use_mmap false) the file is read into one
  /// heap buffer instead — same view semantics, one copy total rather
  /// than one per line; the read loop retries EINTR/short reads.
  static util::Result<std::unique_ptr<MmapChunkSource>> Open(
      const std::string& path, Options options);
  static util::Result<std::unique_ptr<MmapChunkSource>> Open(
      const std::string& path) {
    return Open(path, Options());
  }

  ~MmapChunkSource() override;
  MmapChunkSource(const MmapChunkSource&) = delete;
  MmapChunkSource& operator=(const MmapChunkSource&) = delete;

  bool NextChunk(size_t max_lines, LineChunk& out) override;

  /// Total mapped (or buffered) file size in bytes.
  size_t size_bytes() const { return size_; }

  /// Resume cursor: the byte offset of the next unread line.
  bool SupportsResume() const override { return true; }
  uint64_t offset() const override { return pos_; }
  bool SeekTo(uint64_t offset) override {
    if (offset > size_) return false;
    pos_ = static_cast<size_t>(offset);
    return true;
  }

 private:
  MmapChunkSource(const char* data, size_t size, bool mapped,
                  std::string fallback);

  const char* data_ = nullptr;
  size_t size_ = 0;
  size_t pos_ = 0;
  bool mapped_ = false;
  std::string fallback_;  ///< engaged only on non-mmap platforms
};

/// Streams lines from an istream — a pipe, FIFO, socket, or any file
/// that cannot be mapped. Line semantics match MmapChunkSource:
/// std::getline splitting plus CRLF handling (a trailing '\r' is
/// stripped), so both sources yield identical lines — and identical
/// digests — for the same bytes. Lines land in the chunk's `owned`
/// storage and the views point at them (one copy per line).
class IstreamChunkSource : public ChunkSource {
 public:
  explicit IstreamChunkSource(std::istream& in) : in_(in) {}
  bool NextChunk(size_t max_lines, LineChunk& out) override;

 private:
  std::istream& in_;
};

/// Serves an in-memory log zero-copy: views point at the caller's
/// strings, which must outlive the pipeline run.
class VectorChunkSource : public ChunkSource {
 public:
  explicit VectorChunkSource(const std::vector<std::string>& lines)
      : lines_(lines) {}
  bool NextChunk(size_t max_lines, LineChunk& out) override;

  /// Resume cursor: the index of the next unread line.
  bool SupportsResume() const override { return true; }
  uint64_t offset() const override { return next_; }
  bool SeekTo(uint64_t offset) override {
    if (offset > lines_.size()) return false;
    next_ = static_cast<size_t>(offset);
    return true;
  }

 private:
  const std::vector<std::string>& lines_;
  size_t next_ = 0;
};

}  // namespace sparqlog::pipeline

#endif  // SPARQLOG_PIPELINE_CHUNK_SOURCE_H_
