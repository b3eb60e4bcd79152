#ifndef SPARQLOG_PIPELINE_PARSE_MEMO_H_
#define SPARQLOG_PIPELINE_PARSE_MEMO_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

#include "corpus/ingest.h"
#include "util/arena.h"

namespace sparqlog::pipeline {

/// A parse worker's exact-line memo: raw query line -> what parsing it
/// gave (valid or not, and the hash it routes by). A hit skips decode,
/// parse and hash; the entry it returns carries no AST (see the worker
/// loop in ParallelLogPipeline::Run for why that is sound).
///
/// The memo flushes itself whole when its storage passes `kBytes`. An
/// epoch — the lines between two such flushes — without a single hit
/// says the log does not repeat, so the memo backs off: from then on it
/// tracks only every `kSampleStride`-th line (the others go straight to
/// the parser, with no checksum, probe or copy), and the first sampled
/// hit turns full tracking back on. Either way a hit is only ever for a
/// line this memo was given by Insert.
class ParseMemo {
 public:
  static constexpr size_t kBytes = size_t{1} << 20;
  static constexpr uint64_t kSampleStride = 64;

  ParseMemo() : memo_(kBytes) {}

  /// The memoized entry for `line`, or nullopt: then parse the line and
  /// pass the result to Insert before the next Find.
  std::optional<corpus::ParsedLine> Find(std::string_view line);

  /// Memoizes the parse of the line the last Find missed (a no-op for a
  /// line the back-off skipped).
  void Insert(std::string_view line, const corpus::ParsedLine& parsed);

  /// Forgets every entry (not an epoch: the back-off state stays).
  void Clear();

  /// True while the memo tracks only sampled lines.
  bool sampling() const { return sampling_; }
  /// Lines memoized so far.
  uint64_t inserts() const { return inserts_; }

 private:
  static constexpr size_t kValueBytes = 1 + sizeof(uint64_t);

  util::StringInterner memo_;
  uint64_t lines_ = 0;        ///< Find calls so far
  bool tracked_ = false;      ///< the last Find probed (Insert applies)
  uint32_t key_ = 0;          ///< checksum of the last probed line
  uint64_t epoch_hits_ = 0;   ///< hits since the last flush
  bool sampling_ = false;
  uint64_t inserts_ = 0;
};

}  // namespace sparqlog::pipeline

#endif  // SPARQLOG_PIPELINE_PARSE_MEMO_H_
