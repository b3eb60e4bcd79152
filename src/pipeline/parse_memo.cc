#include "pipeline/parse_memo.h"

#include <cstring>

#include "util/crc32c.h"

namespace sparqlog::pipeline {

std::optional<corpus::ParsedLine> ParseMemo::Find(std::string_view line) {
  tracked_ = !sampling_ || ++lines_ % kSampleStride == 0;
  if (!tracked_) return std::nullopt;
  key_ = util::Crc32c(line);
  const std::string_view* value = memo_.Find(line, key_);
  if (value == nullptr) return std::nullopt;
  ++epoch_hits_;
  sampling_ = false;
  // The routed entry: the first occurrence's verdict and hash, no AST.
  corpus::ParsedLine out;
  out.is_query = true;
  out.valid = (*value)[0] != 0;
  uint64_t hash;
  std::memcpy(&hash, value->data() + 1, sizeof(hash));
  (out.valid ? out.canonical_hash : out.line_hash) = hash;
  return out;
}

void ParseMemo::Insert(std::string_view line,
                       const corpus::ParsedLine& parsed) {
  if (!tracked_) return;
  char value[kValueBytes];
  const uint64_t hash = parsed.valid ? parsed.canonical_hash : parsed.line_hash;
  value[0] = parsed.valid ? 1 : 0;
  std::memcpy(value + 1, &hash, sizeof(hash));
  const uint64_t epoch = memo_.epoch();
  memo_.Insert(line, key_, std::string_view(value, kValueBytes));
  ++inserts_;
  if (memo_.epoch() != epoch) {
    // The storage filled and flushed: one epoch ended.
    if (epoch_hits_ == 0) sampling_ = true;
    epoch_hits_ = 0;
  }
}

void ParseMemo::Clear() {
  memo_.Clear();
  epoch_hits_ = 0;
}

}  // namespace sparqlog::pipeline
