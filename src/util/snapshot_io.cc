#include "util/snapshot_io.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>

#include "util/crc32c.h"
#include "util/serde.h"

#if defined(__unix__) || defined(__APPLE__)
#define SPARQLOG_HAVE_POSIX_IO 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define SPARQLOG_HAVE_POSIX_IO 0
#endif

namespace sparqlog::util::snapshot {

namespace {

constexpr uint64_t kHeaderBytes = 32;        // magic, version, count, crc
constexpr uint64_t kSectionHeaderBytes = 24; // id, size, crc
constexpr uint64_t kManifestBytes = 40;      // magic, version, cur, prev, crc

const IoFaultHooks* g_hooks = nullptr;

std::string Errno(const char* op, const std::string& path) {
  return std::string(op) + " failed for '" + path + "': " +
         std::strerror(errno);
}

std::string ParentDir(const std::string& path) {
  size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

#if SPARQLOG_HAVE_POSIX_IO
bool WriteAllRetryEintr(int fd, const char* data, size_t size) {
  while (size > 0) {
    ssize_t n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

Status FsyncPath(const std::string& path, int fd) {
  if (g_hooks && g_hooks->fail_fsync && g_hooks->fail_fsync(path)) {
    errno = EIO;
    return Status::Internal("injected fault: " + Errno("fsync", path));
  }
  if (::fsync(fd) != 0) return Status::Internal(Errno("fsync", path));
  return Status::OK();
}
#endif

}  // namespace

void SetIoFaultHooksForTest(const IoFaultHooks* hooks) { g_hooks = hooks; }

Status AtomicWriteFile(const std::string& path, std::string_view contents) {
  const std::string tmp = path + ".tmp";

  // A torn publish (power cut between write and fsync) manifests as the
  // final file carrying only a prefix of the payload, with the
  // unflushed tail reading back as zeros. The hook reproduces that end
  // state deterministically for the durability harness.
  int64_t tear = -1;
  if (g_hooks && g_hooks->torn_write) {
    tear = g_hooks->torn_write(path, contents.size());
  }

#if SPARQLOG_HAVE_POSIX_IO
  int fd = -1;
  for (;;) {
    fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0 || errno != EINTR) break;
  }
  if (fd < 0) return Status::Internal(Errno("open", tmp));

  bool wrote;
  if (tear >= 0 && static_cast<uint64_t>(tear) < contents.size()) {
    std::string torn(contents.substr(0, static_cast<size_t>(tear)));
    torn.resize(contents.size(), '\0');
    wrote = WriteAllRetryEintr(fd, torn.data(), torn.size());
  } else {
    wrote = WriteAllRetryEintr(fd, contents.data(), contents.size());
  }
  if (!wrote) {
    Status st = Status::Internal(Errno("write", tmp));
    ::close(fd);
    std::remove(tmp.c_str());
    return st;
  }

  if (tear < 0) {  // a torn publish is precisely a publish without the fsync
    Status st = FsyncPath(tmp, fd);
    if (!st.ok()) {
      ::close(fd);
      std::remove(tmp.c_str());
      return st;
    }
  }
  if (::close(fd) != 0) {
    Status st = Status::Internal(Errno("close", tmp));
    std::remove(tmp.c_str());
    return st;
  }

  if (g_hooks && g_hooks->fail_rename && g_hooks->fail_rename(path)) {
    errno = EIO;
    Status st = Status::Internal("injected fault: " + Errno("rename", path));
    std::remove(tmp.c_str());
    return st;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    Status st = Status::Internal(Errno("rename", tmp));
    std::remove(tmp.c_str());
    return st;
  }

  // fsync the parent directory so the rename itself is durable; without
  // this the new name can vanish on power loss even though the data
  // blocks were synced.
  if (tear < 0) {
    const std::string dir = ParentDir(path);
    int dfd = -1;
    for (;;) {
      dfd = ::open(dir.c_str(), O_RDONLY);
      if (dfd >= 0 || errno != EINTR) break;
    }
    if (dfd < 0) return Status::Internal(Errno("open directory", dir));
    Status st = FsyncPath(dir, dfd);
    ::close(dfd);
    if (!st.ok()) return st;
  }
  return Status::OK();
#else
  // No POSIX fd API: best-effort stream write + rename. The durability
  // guarantee degrades to the filesystem's, but the format-level
  // corruption detection is unaffected.
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (tear >= 0 && static_cast<uint64_t>(tear) < contents.size()) {
      std::string torn(contents.substr(0, static_cast<size_t>(tear)));
      torn.resize(contents.size(), '\0');
      out.write(torn.data(), static_cast<std::streamsize>(torn.size()));
    } else {
      out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
    }
    if (!out) {
      std::remove(tmp.c_str());
      return Status::Internal("write failed for '" + tmp + "'");
    }
  }
  if (g_hooks && g_hooks->fail_rename && g_hooks->fail_rename(path)) {
    std::remove(tmp.c_str());
    return Status::Internal("injected fault: rename failed for '" + path +
                            "': I/O error");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    Status st = Status::Internal(Errno("rename", tmp));
    std::remove(tmp.c_str());
    return st;
  }
  return Status::OK();
#endif
}

void SnapshotWriter::AddSection(uint64_t id, std::string payload) {
  sections_.emplace_back(id, std::move(payload));
}

std::string SnapshotWriter::Finish() const {
  std::string out;
  uint64_t total = kHeaderBytes;
  for (const auto& [id, payload] : sections_) {
    total += kSectionHeaderBytes + payload.size();
  }
  out.reserve(static_cast<size_t>(total));

  serde::PutU64(out, kSnapshotMagic);
  serde::PutU64(out, kSnapshotVersion);
  serde::PutU64(out, sections_.size());
  serde::PutU64(out, Crc32c(std::string_view(out.data(), 24)));

  for (const auto& [id, payload] : sections_) {
    std::string head;
    serde::PutU64(head, id);
    serde::PutU64(head, payload.size());
    uint32_t crc = Crc32cExtend(Crc32c(head), payload);
    out += head;
    serde::PutU64(out, crc);
    out += payload;
  }
  return out;
}

Snapshot::Snapshot(Snapshot&& other) noexcept { *this = std::move(other); }

Snapshot& Snapshot::operator=(Snapshot&& other) noexcept {
  if (this == &other) return *this;
#if SPARQLOG_HAVE_POSIX_IO
  if (mapped_ && data_ != nullptr) ::munmap(const_cast<char*>(data_), size_);
#endif
  data_ = other.data_;
  size_ = other.size_;
  mapped_ = other.mapped_;
  sections_ = std::move(other.sections_);
  if (mapped_) {
    owned_.clear();
  } else {
    // Moving the owning string may relocate its bytes (SSO), so convert
    // the section views to offsets across the move and re-base them.
    std::vector<size_t> offsets;
    offsets.reserve(sections_.size());
    for (const auto& [id, view] : sections_) {
      offsets.push_back(static_cast<size_t>(view.data() - other.owned_.data()));
    }
    owned_ = std::move(other.owned_);
    data_ = owned_.data();
    for (size_t i = 0; i < sections_.size(); ++i) {
      sections_[i].second =
          std::string_view(owned_.data() + offsets[i], sections_[i].second.size());
    }
  }
  other.data_ = nullptr;
  other.size_ = 0;
  other.mapped_ = false;
  other.sections_.clear();
  return *this;
}

Snapshot::~Snapshot() {
#if SPARQLOG_HAVE_POSIX_IO
  if (mapped_ && data_ != nullptr) ::munmap(const_cast<char*>(data_), size_);
#endif
}

const std::string_view* Snapshot::section(uint64_t id) const {
  for (const auto& [sid, view] : sections_) {
    if (sid == id) return &view;
  }
  return nullptr;
}

Result<Snapshot> Snapshot::Load(const std::string& path, LoadMode mode) {
  Snapshot snap;

#if SPARQLOG_HAVE_POSIX_IO
  if (mode == LoadMode::kMmap) {
    int fd = -1;
    for (;;) {
      fd = ::open(path.c_str(), O_RDONLY);
      if (fd >= 0 || errno != EINTR) break;
    }
    if (fd < 0) return Status::NotFound(Errno("open", path));
    struct stat st;
    if (::fstat(fd, &st) != 0) {
      Status s = Status::Internal(Errno("fstat", path));
      ::close(fd);
      return s;
    }
    size_t size = static_cast<size_t>(st.st_size);
    if (size < kHeaderBytes) {
      ::close(fd);
      return Status::InvalidArgument("snapshot '" + path +
                                     "': truncated header (" +
                                     std::to_string(size) + " bytes)");
    }
    void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (map == MAP_FAILED) {
      return Status::Internal(Errno("mmap", path));
    }
    snap.data_ = static_cast<const char*>(map);
    snap.size_ = size;
    snap.mapped_ = true;
  }
#endif

  if (!snap.mapped_) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return Status::NotFound("cannot open snapshot '" + path + "'");
    std::string buffer((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
    if (in.bad()) return Status::Internal("read failed for '" + path + "'");
    snap.owned_ = std::move(buffer);
    snap.data_ = snap.owned_.data();
    snap.size_ = snap.owned_.size();
  }

  // --- eager verification: any damage fails here, never later ---
  std::string_view file(snap.data_, snap.size_);
  auto corrupt = [&path](std::string why) {
    return Status::InvalidArgument("snapshot '" + path + "': " +
                                   std::move(why));
  };

  if (file.size() < kHeaderBytes) {
    return corrupt("truncated header (" + std::to_string(file.size()) +
                   " bytes)");
  }
  std::string_view cursor = file;
  uint64_t magic, version, section_count, header_crc;
  serde::GetU64(cursor, magic);
  serde::GetU64(cursor, version);
  serde::GetU64(cursor, section_count);
  serde::GetU64(cursor, header_crc);
  if (magic != kSnapshotMagic) return corrupt("bad magic");
  if (version != kSnapshotVersion) {
    return corrupt("unsupported format version " + std::to_string(version) +
                   " (have " + std::to_string(kSnapshotVersion) + ")");
  }
  if (header_crc != Crc32c(file.substr(0, 24))) {
    return corrupt("header checksum mismatch");
  }
  if (section_count > file.size() / kSectionHeaderBytes) {
    return corrupt("section count " + std::to_string(section_count) +
                   " exceeds file size");
  }

  snap.sections_.reserve(static_cast<size_t>(section_count));
  size_t offset = kHeaderBytes;
  for (uint64_t i = 0; i < section_count; ++i) {
    if (file.size() - offset < kSectionHeaderBytes) {
      return corrupt("truncated section header at offset " +
                     std::to_string(offset));
    }
    std::string_view head = file.substr(offset, 16);  // id + size words
    std::string_view rest = head;
    uint64_t id, payload_size;
    serde::GetU64(rest, id);
    serde::GetU64(rest, payload_size);
    std::string_view crc_word = file.substr(offset + 16, 8);
    uint64_t stored_crc;
    serde::GetU64(crc_word, stored_crc);
    offset += kSectionHeaderBytes;
    if (payload_size > file.size() - offset) {
      return corrupt("section " + std::to_string(id) +
                     " length overruns file (offset " +
                     std::to_string(offset) + ")");
    }
    std::string_view payload =
        file.substr(offset, static_cast<size_t>(payload_size));
    if (stored_crc != Crc32cExtend(Crc32c(head), payload)) {
      return corrupt("section " + std::to_string(id) +
                     " checksum mismatch at offset " + std::to_string(offset));
    }
    if (snap.section(id) != nullptr) {
      return corrupt("duplicate section id " + std::to_string(id));
    }
    snap.sections_.emplace_back(id, payload);
    offset += static_cast<size_t>(payload_size);
  }
  if (offset != file.size()) {
    return corrupt(std::to_string(file.size() - offset) +
                   " trailing bytes after last section");
  }
  return snap;
}

std::string SnapshotStore::GenerationPath(uint64_t gen) const {
  return base_path_ + ".g" + std::to_string(gen);
}

Result<Generations> SnapshotStore::ReadManifest() const {
  std::ifstream in(base_path_, std::ios::binary);
  if (!in) return Status::NotFound("no manifest at '" + base_path_ + "'");
  std::string buffer((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
  auto corrupt = [this](std::string why) {
    return Status::InvalidArgument("snapshot manifest '" + base_path_ +
                                   "': " + std::move(why));
  };
  if (buffer.size() != kManifestBytes) {
    return corrupt("wrong size " + std::to_string(buffer.size()) +
                   " (want " + std::to_string(kManifestBytes) + ")");
  }
  std::string_view cursor(buffer);
  uint64_t magic, version, crc;
  Generations gens;
  serde::GetU64(cursor, magic);
  serde::GetU64(cursor, version);
  serde::GetU64(cursor, gens.current);
  serde::GetU64(cursor, gens.previous);
  serde::GetU64(cursor, crc);
  if (magic != kManifestMagic) return corrupt("bad magic");
  if (version != kManifestVersion) {
    return corrupt("unsupported manifest version " + std::to_string(version));
  }
  if (crc != Crc32c(std::string_view(buffer.data(), 32))) {
    return corrupt("checksum mismatch");
  }
  if (gens.current == 0 || (gens.previous != 0 && gens.previous >= gens.current)) {
    return corrupt("implausible generations " + std::to_string(gens.current) +
                   "/" + std::to_string(gens.previous));
  }
  return gens;
}

Result<Snapshot> SnapshotStore::LoadGeneration(uint64_t gen,
                                               LoadMode mode) const {
  return Snapshot::Load(GenerationPath(gen), mode);
}

Result<uint64_t> SnapshotStore::Save(const SnapshotWriter& writer) {
  Generations gens;
  auto manifest = ReadManifest();
  if (manifest.ok()) {
    gens = manifest.value();
  } else if (manifest.status().code() != StatusCode::kNotFound) {
    // A damaged manifest is not silently overwritten: the caller must
    // decide (hard error, or Remove() and start over).
    return manifest.status();
  }

  uint64_t gen = gens.current + 1;
  Status st = AtomicWriteFile(GenerationPath(gen), writer.Finish());
  if (!st.ok()) {
    return Status::Internal("saving snapshot generation " +
                            std::to_string(gen) + ": " + st.message());
  }

  std::string manifest_bytes;
  serde::PutU64(manifest_bytes, kManifestMagic);
  serde::PutU64(manifest_bytes, kManifestVersion);
  serde::PutU64(manifest_bytes, gen);
  serde::PutU64(manifest_bytes, gens.current);
  serde::PutU64(manifest_bytes,
                Crc32c(std::string_view(manifest_bytes.data(), 32)));
  st = AtomicWriteFile(base_path_, manifest_bytes);
  if (!st.ok()) {
    // The new generation file exists but no manifest references it; the
    // old manifest (if any) is still in place and fully consistent.
    std::remove(GenerationPath(gen).c_str());
    return Status::Internal("publishing snapshot manifest: " + st.message());
  }

  // Retention: the manifest now references {gen, gens.current}; any
  // generation at or before the old `previous` is garbage. Best-effort.
  if (gens.previous != 0) std::remove(GenerationPath(gens.previous).c_str());
  return gen;
}

void SnapshotStore::Remove() const {
  auto manifest = ReadManifest();
  if (manifest.ok()) {
    if (manifest.value().current != 0) {
      std::remove(GenerationPath(manifest.value().current).c_str());
      // A half-published next generation may exist if a save died
      // between the generation write and the manifest swing.
      std::remove(GenerationPath(manifest.value().current + 1).c_str());
    }
    if (manifest.value().previous != 0) {
      std::remove(GenerationPath(manifest.value().previous).c_str());
    }
  }
  std::remove((base_path_ + ".tmp").c_str());
  std::remove(base_path_.c_str());
}

}  // namespace sparqlog::util::snapshot
