#ifndef SPARQLOG_UTIL_SNAPSHOT_IO_H_
#define SPARQLOG_UTIL_SNAPSHOT_IO_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/result.h"
#include "util/status.h"

namespace sparqlog::util::snapshot {

/// Durable, checksummed snapshot files — the on-disk format behind the
/// run journal's checkpoints (pipeline/journal.h) and the future
/// out-of-core corpus store. Design goals, in order:
///
///   1. Never silently accept a damaged file. Every byte of a snapshot
///      is covered by a CRC32C (header checksum or a per-section
///      checksum over id+length+payload), so any single-byte flip,
///      truncation, torn write, or trailing garbage fails the load.
///   2. Power-loss-atomic publish: write-fsync-rename-fsync(dir), so a
///      crash at any instant leaves either the old file or the new one.
///   3. Two-generation retention behind a manifest, so a damaged newest
///      generation degrades to the previous one instead of losing the
///      run (the caller decides; see SnapshotStore).
///
/// File layout (all words little-endian u64):
///
///   header   magic | format_version | section_count | crc32c(first 24 bytes)
///   section  id | payload_size | crc32c(id words + payload) | payload bytes
///   ...      (section_count times; EOF must land exactly at the end)
///
/// Section ids are caller-defined; payloads are opaque byte strings
/// (the journal uses vbyte streams, util/vbyte.h).

inline constexpr uint64_t kSnapshotMagic = 0x31504E5351535130ULL;  // "0SQSNP1"
inline constexpr uint64_t kSnapshotVersion = 1;
inline constexpr uint64_t kManifestMagic = 0x31464E4D51535130ULL;  // "0SQMNF1"
inline constexpr uint64_t kManifestVersion = 1;

/// Test-only fault hooks for the durability fuzz harness
/// (testing/snapshot_faults.h). Production code never installs these;
/// all three are consulted by AtomicWriteFile when present.
struct IoFaultHooks {
  /// Return a byte count in [0, contents.size()) to simulate a torn
  /// publish of `path`: only that prefix reaches the final file, the
  /// rest of the tail reads back as zeros (unflushed blocks after a
  /// power cut). Return -1 for no fault.
  std::function<int64_t(const std::string& path, size_t size)> torn_write;
  /// Return true to fail the fsync of `path` (simulated EIO).
  std::function<bool(const std::string& path)> fail_fsync;
  /// Return true to fail the rename publishing `path`.
  std::function<bool(const std::string& path)> fail_rename;
};

/// Installs (or, with nullptr, clears) the process-wide fault hooks.
/// The pointer must outlive its installation. Not thread-safe against
/// concurrent AtomicWriteFile calls: a journaled run saves on its
/// pipeline's writer thread, so arm the hooks before the run starts and
/// clear them after it returns. The hooks themselves then run on that
/// writer thread (and, for the run's last checkpoint, on the caller's).
void SetIoFaultHooksForTest(const IoFaultHooks* hooks);

/// Durable atomic publish: writes `contents` to `path + ".tmp"`, fsyncs
/// the file, renames it onto `path`, then fsyncs the parent directory
/// so the rename itself survives power loss. Any failing step surfaces
/// strerror(errno) in the status and leaves the previous `path` (if
/// any) untouched.
Status AtomicWriteFile(const std::string& path, std::string_view contents);

/// Accumulates sections and serializes the snapshot file image.
class SnapshotWriter {
 public:
  /// Ids must be unique per snapshot; sections load by id, so add order
  /// only affects file layout.
  void AddSection(uint64_t id, std::string payload);

  /// Renders header + sections with all checksums.
  std::string Finish() const;

 private:
  std::vector<std::pair<uint64_t, std::string>> sections_;
};

enum class LoadMode {
  kStream,  ///< read the file into an owned buffer
  kMmap,    ///< map it read-only (falls back to stream off-POSIX)
};

/// A loaded, fully verified snapshot. Verification is eager: Load
/// checksums the header and every section before returning, so a
/// Snapshot in hand is internally consistent. Movable, not copyable
/// (may own an mmap region).
class Snapshot {
 public:
  static Result<Snapshot> Load(const std::string& path, LoadMode mode);

  Snapshot(Snapshot&& other) noexcept;
  Snapshot& operator=(Snapshot&& other) noexcept;
  Snapshot(const Snapshot&) = delete;
  Snapshot& operator=(const Snapshot&) = delete;
  ~Snapshot();

  /// Payload view for `id`, or nullptr if the snapshot has no such
  /// section. Views point into the snapshot's buffer/mapping and die
  /// with it.
  const std::string_view* section(uint64_t id) const;

  size_t section_count() const { return sections_.size(); }
  /// (id, payload) pairs in file order — for tools that rewrite a
  /// snapshot preserving its layout (perfbench's save pass, the
  /// re-encode check in tests/fault_test.cc).
  const std::vector<std::pair<uint64_t, std::string_view>>& sections() const {
    return sections_;
  }
  uint64_t file_bytes() const { return size_; }
  bool mmap_backed() const { return mapped_; }

 private:
  Snapshot() = default;

  const char* data_ = nullptr;  // mapping or owned_.data()
  size_t size_ = 0;
  bool mapped_ = false;
  std::string owned_;
  std::vector<std::pair<uint64_t, std::string_view>> sections_;
};

/// Manifest contents: which generations exist. Generation numbers are
/// monotonically increasing and never reused; 0 means "none".
struct Generations {
  uint64_t current = 0;
  uint64_t previous = 0;
};

/// Two-generation snapshot store rooted at a manifest path. Layout:
///
///   <base>        manifest: magic | version | current | previous | crc
///   <base>.g<N>   snapshot file for generation N
///
/// Save writes the new generation file first, then atomically swings
/// the manifest, then prunes generations older than `previous` — so a
/// crash at any point leaves a manifest whose generations are intact.
/// The store performs only integrity-level checks; semantic validation
/// (fingerprints, digests) and the fall-back-to-previous decision
/// belong to the caller, which knows which failures are recoverable.
class SnapshotStore {
 public:
  explicit SnapshotStore(std::string base_path)
      : base_path_(std::move(base_path)) {}

  const std::string& manifest_path() const { return base_path_; }
  std::string GenerationPath(uint64_t gen) const;

  /// NotFound if no manifest exists (fresh store); InvalidArgument with
  /// a reason if one exists but is damaged or version-incompatible.
  Result<Generations> ReadManifest() const;

  Result<Snapshot> LoadGeneration(uint64_t gen, LoadMode mode) const;

  /// Publishes `writer` as the next generation and returns its number.
  /// On any error the previous manifest and its generations survive.
  Result<uint64_t> Save(const SnapshotWriter& writer);

  /// Removes the manifest and every retained generation (test setup).
  void Remove() const;

 private:
  std::string base_path_;
};

}  // namespace sparqlog::util::snapshot

#endif  // SPARQLOG_UTIL_SNAPSHOT_IO_H_
