#include "pipeline/chunk_source.h"

#include <cerrno>
#include <cstring>
#include <fstream>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#define SPARQLOG_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define SPARQLOG_HAVE_MMAP 0
#endif

namespace sparqlog::pipeline {

using util::Result;
using util::Status;

MmapChunkSource::MmapChunkSource(const char* data, size_t size, bool mapped,
                                 std::string fallback)
    : data_(data), size_(size), mapped_(mapped), fallback_(std::move(fallback)) {
  if (!mapped_) data_ = fallback_.data();
}

MmapChunkSource::~MmapChunkSource() {
#if SPARQLOG_HAVE_MMAP
  if (mapped_ && data_ != nullptr) {
    ::munmap(const_cast<char*>(data_), size_);
  }
#endif
}

#if SPARQLOG_HAVE_MMAP
namespace {

/// open(2) with EINTR retry — a signal between open and the retry loop
/// must not fail the whole run.
int OpenRetryEintr(const char* path) {
  for (;;) {
    int fd = ::open(path, O_RDONLY);
    if (fd >= 0 || errno != EINTR) return fd;
  }
}

/// Reads the whole file into `buffer`, retrying EINTR and continuing
/// after short reads (both are normal on pipes-turned-regular-files and
/// under signal-heavy test harnesses). Returns false on a real error
/// with errno set.
bool ReadAllRetryEintr(int fd, size_t size, std::string& buffer) {
  buffer.resize(size);
  size_t done = 0;
  while (done < size) {
    ssize_t n = ::read(fd, buffer.data() + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) {
      // File shrank underneath us; serve what exists.
      buffer.resize(done);
      return true;
    }
    done += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace
#endif

Result<std::unique_ptr<MmapChunkSource>> MmapChunkSource::Open(
    const std::string& path, Options options) {
#if SPARQLOG_HAVE_MMAP
  // Refuse a FIFO or device before open(2): opening a FIFO blocks until
  // a writer arrives, and closing it again can leave that writer with
  // no reader (EPIPE) before the stream fallback reopens the path.
  struct stat st;
  if (::stat(path.c_str(), &st) == 0 && !S_ISREG(st.st_mode)) {
    return Status::InvalidArgument("mmap source: '" + path +
                                   "' is not a regular file");
  }
  int fd = OpenRetryEintr(path.c_str());
  if (fd < 0) {
    return Status::NotFound("mmap source: cannot open '" + path +
                            "': " + std::strerror(errno));
  }
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::Internal("mmap source: fstat failed for '" + path +
                            "': " + std::strerror(err));
  }
  if (!S_ISREG(st.st_mode)) {
    ::close(fd);
    return Status::InvalidArgument("mmap source: '" + path +
                                   "' is not a regular file");
  }
  const size_t size = static_cast<size_t>(st.st_size);
  if (!options.use_mmap) {
    // Buffered-read path: same view semantics as the mapping, one copy
    // total. This is also the code the fault tests drive.
    std::string buffer;
    if (!ReadAllRetryEintr(fd, size, buffer)) {
      const int err = errno;
      ::close(fd);
      return Status::Internal("mmap source: read failed for '" + path +
                              "': " + std::strerror(err));
    }
    if (::close(fd) != 0) {
      // A failing close can mean lost writeback errors on some
      // filesystems; for a read-only descriptor it still signals a
      // kernel-level problem worth surfacing instead of swallowing.
      return Status::Internal("mmap source: close failed for '" + path +
                              "': " + std::strerror(errno));
    }
    // buffer.size() must be read before std::move(buffer): argument
    // evaluation order is unspecified, and gcc moves first.
    const size_t buffered = buffer.size();
    return std::unique_ptr<MmapChunkSource>(new MmapChunkSource(
        nullptr, buffered, /*mapped=*/false, std::move(buffer)));
  }
  const char* data = nullptr;
  // An empty file is a valid (zero-line) source: mmap(len=0) is EINVAL
  // on Linux, so it must be skipped, not treated as a failure.
  if (size > 0) {
    void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    if (map == MAP_FAILED) {
      const int err = errno;
      ::close(fd);
      return Status::Internal("mmap source: mmap failed for '" + path +
                              "': " + std::strerror(err));
    }
#if defined(MADV_SEQUENTIAL)
    ::madvise(map, size, MADV_SEQUENTIAL);
#endif
    data = static_cast<const char*>(map);
  }
  if (::close(fd) != 0) {  // the mapping outlives the descriptor
    const int err = errno;
    if (data != nullptr) ::munmap(const_cast<char*>(data), size);
    return Status::Internal("mmap source: close failed for '" + path +
                            "': " + std::strerror(err));
  }
  return std::unique_ptr<MmapChunkSource>(
      new MmapChunkSource(data, size, /*mapped=*/true, std::string()));
#else
  // No mmap: one bulk read into a single buffer. Views keep the same
  // semantics; the per-line allocation is still gone.
  (void)options;  // use_mmap has nothing to choose between here
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("mmap source: cannot open '" + path + "'");
  }
  std::string buffer((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
  const size_t buffered = buffer.size();  // before the unsequenced move
  return std::unique_ptr<MmapChunkSource>(new MmapChunkSource(
      nullptr, buffered, /*mapped=*/false, std::move(buffer)));
#endif
}

bool MmapChunkSource::NextChunk(size_t max_lines, LineChunk& out) {
  out.Clear();
  while (pos_ < size_ && out.lines.size() < max_lines) {
    const char* start = data_ + pos_;
    const void* nl = std::memchr(start, '\n', size_ - pos_);
    size_t len;
    if (nl != nullptr) {
      len = static_cast<size_t>(static_cast<const char*>(nl) - start);
      pos_ += len + 1;
    } else {
      // Final line without a trailing newline.
      len = size_ - pos_;
      pos_ = size_;
    }
    if (len > 0 && start[len - 1] == '\r') --len;  // CRLF
    out.lines.emplace_back(start, len);
    out.bytes += len;
  }
  return !out.lines.empty();
}

bool IstreamChunkSource::NextChunk(size_t max_lines, LineChunk& out) {
  out.Clear();
  std::string line;
  while (out.owned.size() < max_lines && std::getline(in_, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();  // CRLF
    out.owned.push_back(std::move(line));
  }
  // Views only after the last push: growing `owned` may move the
  // strings (and relocate short-string buffers).
  out.lines.reserve(out.owned.size());
  for (const std::string& owned : out.owned) {
    out.lines.emplace_back(owned);
    out.bytes += owned.size();
  }
  return !out.lines.empty();
}

bool VectorChunkSource::NextChunk(size_t max_lines, LineChunk& out) {
  out.Clear();
  while (next_ < lines_.size() && out.lines.size() < max_lines) {
    const std::string& line = lines_[next_++];
    out.lines.emplace_back(line);
    out.bytes += line.size();
  }
  return !out.lines.empty();
}

}  // namespace sparqlog::pipeline
