#ifndef SPARQLOG_UTIL_ARENA_H_
#define SPARQLOG_UTIL_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <memory_resource>
#include <string_view>
#include <vector>

#include "util/fnv.h"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#define SPARQLOG_ARENA_POISON(p, n) ASAN_POISON_MEMORY_REGION(p, n)
#define SPARQLOG_ARENA_UNPOISON(p, n) ASAN_UNPOISON_MEMORY_REGION(p, n)
#else
#define SPARQLOG_ARENA_POISON(p, n) ((void)(p), (void)(n))
#define SPARQLOG_ARENA_UNPOISON(p, n) ((void)(p), (void)(n))
#endif

namespace sparqlog::util {

/// Epoch-reset bump allocator behind the std::pmr interface.
///
/// One `ArenaResource` owns all AST node storage for one `ParseLogLine`
/// call (or one pipeline chunk): every allocation is a pointer bump into
/// a chunk, deallocation is a no-op, and `Reset()` rewinds to the start
/// of the first chunk while keeping every chunk's capacity — so a warm
/// arena parses an entire log without touching the heap. This is the
/// PR 5 interning/scratch pattern (`TermInterner::Clear()`'s O(1)
/// epoch bump) applied to the parser core.
///
/// Lifetime contract: anything allocated from the arena (pmr strings and
/// vectors inside `sparql::Query` nodes) dies at `Reset()` — callers
/// must finish with an arena-built AST before resetting the scratch
/// that owns it. Copying such an AST (plain copy construction) detaches
/// it: pmr copy construction always lands on the default resource, so
/// copies are independent heap objects with no arena tie.
///
/// Under AddressSanitizer the arena poisons every byte it has not handed
/// out in the current epoch (fresh chunks and everything `Reset()`
/// rewinds), so reading a node after its scratch was reset fails the
/// sanitizer build instead of silently reading stale bytes.
class ArenaResource final : public std::pmr::memory_resource {
 public:
  explicit ArenaResource(size_t first_chunk_bytes = 4096)
      : first_chunk_bytes_(first_chunk_bytes < 64 ? 64 : first_chunk_bytes) {}

  ~ArenaResource() override {
    for (const Chunk& c : chunks_) {
      SPARQLOG_ARENA_UNPOISON(c.data.get(), c.size);
    }
  }

  ArenaResource(const ArenaResource&) = delete;
  ArenaResource& operator=(const ArenaResource&) = delete;

  /// Rewinds the bump cursor to the first chunk. Keeps all chunk
  /// capacity (the steady state allocates nothing) and bumps the epoch
  /// so debugging/telemetry can tell generations apart. Everything ever
  /// allocated from this arena is invalid after this call.
  void Reset() {
    for (size_t i = 0; i < chunks_.size() && i <= chunk_; ++i) {
      SPARQLOG_ARENA_POISON(chunks_[i].data.get(), chunks_[i].size);
    }
    chunk_ = 0;
    offset_ = 0;
    used_ = 0;
    ++epoch_;
  }

  /// Generation counter: incremented by every Reset().
  uint64_t epoch() const { return epoch_; }

  /// Bytes handed out since the last Reset (including alignment pad).
  size_t used_bytes() const { return used_; }

  /// Total capacity across all chunks (survives Reset).
  size_t capacity_bytes() const {
    size_t total = 0;
    for (const Chunk& c : chunks_) total += c.size;
    return total;
  }

 protected:
  void* do_allocate(size_t bytes, size_t alignment) override {
    // Chunk bases are new[]-aligned (max_align_t); rounding the bump
    // offset to `alignment` keeps every returned pointer aligned.
    while (chunk_ < chunks_.size()) {
      Chunk& c = chunks_[chunk_];
      size_t aligned = AlignUp(offset_, alignment);
      if (aligned + bytes <= c.size) {
        offset_ = aligned + bytes;
        used_ += bytes;
        SPARQLOG_ARENA_UNPOISON(c.data.get() + aligned, bytes);
        return c.data.get() + aligned;
      }
      ++chunk_;
      offset_ = 0;
    }
    // Grow: double the last chunk, floor at first_chunk_bytes_, and
    // always large enough for an oversized single allocation.
    size_t grow = chunks_.empty() ? first_chunk_bytes_
                                  : chunks_.back().size * 2;
    if (grow < bytes + alignment) grow = bytes + alignment;
    // Not zeroed: every byte is written before it is read, and zeroing
    // would make the whole chunk resident at once.
    chunks_.push_back(
        Chunk{std::make_unique_for_overwrite<std::byte[]>(grow), grow});
    SPARQLOG_ARENA_POISON(chunks_.back().data.get(), grow);
    chunk_ = chunks_.size() - 1;
    size_t aligned = AlignUp(0, alignment);
    offset_ = aligned + bytes;
    used_ += bytes;
    SPARQLOG_ARENA_UNPOISON(chunks_.back().data.get() + aligned, bytes);
    return chunks_.back().data.get() + aligned;
  }

  void do_deallocate(void*, size_t, size_t) override {
    // Bump allocator: individual frees are no-ops; Reset() reclaims all.
  }

  bool do_is_equal(const std::pmr::memory_resource& o) const noexcept override {
    return this == &o;
  }

 private:
  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    size_t size = 0;
  };

  static size_t AlignUp(size_t n, size_t alignment) {
    return (n + alignment - 1) & ~(alignment - 1);
  }

  size_t first_chunk_bytes_;
  std::vector<Chunk> chunks_;
  size_t chunk_ = 0;   ///< index of the chunk the cursor is in
  size_t offset_ = 0;  ///< bump offset within that chunk
  size_t used_ = 0;
  uint64_t epoch_ = 0;
};

/// Epoch-cleared string-to-string cache backed by its own arena: the
/// per-worker pool the parser uses to memoize prefixed-name expansions
/// ("dbo:Foo" -> "http://dbpedia.org/ontology/Foo") across log lines.
///
/// Open-addressing slots carry an epoch tag, so `Clear()` is O(1): it
/// bumps the epoch and rewinds the backing arena; stale slots are
/// lazily invalidated on probe (the PR 5 `TermInterner` idiom). The
/// cache flushes itself when the backing storage crosses `max_bytes`,
/// which bounds memory on adversarial corpora while keeping the common
/// repetitive-log case warm.
///
/// Returned views point into interner-owned storage and stay valid
/// until the next Clear() (explicit or capacity-triggered) — callers
/// must copy what they keep, which the arena-backed AST does anyway.
class StringInterner {
 public:
  explicit StringInterner(size_t max_bytes = size_t{1} << 20)
      : max_bytes_(max_bytes), arena_(4096) {}

  StringInterner(const StringInterner&) = delete;
  StringInterner& operator=(const StringInterner&) = delete;

  /// Looks up `key`; returns nullptr on miss. The pointed-at view is
  /// valid until the next Insert (which may flush) or Clear.
  const std::string_view* Find(std::string_view key) const {
    return Find(key, Fnv1aHash(key));
  }

  /// Same, with the caller's hash of `key`, so a caller that probes and
  /// then inserts hashes the key once. Any hash works (keys are compared
  /// byte for byte), but one interner must always be given the same
  /// function of the key.
  const std::string_view* Find(std::string_view key, uint64_t h) const {
    if (slots_.empty()) return nullptr;
    size_t mask = slots_.size() - 1;
    for (size_t i = h & mask;; i = (i + 1) & mask) {
      const Slot& s = slots_[i];
      if (s.epoch != epoch_ || s.empty()) return nullptr;
      if (s.hash == h && s.key == key) return &s.value;
    }
  }

  /// Inserts `key -> value` unless `key` is present (the first insertion
  /// wins), copying both into interner storage. Triggers a full flush
  /// first if the storage budget is exhausted. A throwing allocation
  /// leaves no half-written slot.
  void Insert(std::string_view key, std::string_view value) {
    Insert(key, Fnv1aHash(key), value);
  }

  /// Same, with the caller's hash of `key` (see Find(key, h)).
  void Insert(std::string_view key, uint64_t h, std::string_view value) {
    if (arena_.used_bytes() + key.size() + value.size() > max_bytes_) Clear();
    if (slots_.empty()) Rehash(64);
    if ((live_ + 1) * 10 > slots_.size() * 7) Rehash(slots_.size() * 2);
    size_t mask = slots_.size() - 1;
    for (size_t i = h & mask;; i = (i + 1) & mask) {
      Slot& s = slots_[i];
      if (s.epoch != epoch_ || s.empty()) {
        // Copy before touching the slot, so a throw cannot leave it
        // tagged with this epoch over a stale key.
        std::string_view k = Copy(key);
        std::string_view v = Copy(value);
        s = Slot{h, epoch_, k, v};
        ++live_;
        return;
      }
      if (s.hash == h && s.key == key) return;  // first insertion wins
    }
  }

  /// O(1) epoch-bump invalidation of every entry; keeps table and
  /// storage capacity.
  void Clear() {
    ++epoch_;
    live_ = 0;
    arena_.Reset();
  }

  size_t size() const { return live_; }
  uint64_t epoch() const { return epoch_; }

 private:
  struct Slot {
    uint64_t hash = 0;
    uint64_t epoch = ~uint64_t{0};
    std::string_view key;
    std::string_view value;
    bool empty() const { return key.data() == nullptr; }
  };

  std::string_view Copy(std::string_view s) {
    if (s.empty()) return std::string_view("", 0);
    char* p = static_cast<char*>(arena_.allocate(s.size(), 1));
    std::char_traits<char>::copy(p, s.data(), s.size());
    return std::string_view(p, s.size());
  }

  void Rehash(size_t new_size) {
    std::vector<Slot> fresh(new_size);
    size_t mask = new_size - 1;
    for (const Slot& s : slots_) {
      if (s.epoch != epoch_ || s.empty()) continue;
      for (size_t i = s.hash & mask;; i = (i + 1) & mask) {
        Slot& d = fresh[i];
        if (d.epoch != epoch_ || d.empty()) {
          d = s;
          break;
        }
      }
    }
    slots_.swap(fresh);
  }

  size_t max_bytes_;
  ArenaResource arena_;
  std::vector<Slot> slots_;
  size_t live_ = 0;
  uint64_t epoch_ = 0;
};

}  // namespace sparqlog::util

#endif  // SPARQLOG_UTIL_ARENA_H_
