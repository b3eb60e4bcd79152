#ifndef SPARQLOG_UTIL_SERDE_H_
#define SPARQLOG_UTIL_SERDE_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace sparqlog::util::serde {

/// Fixed-width little-endian u64 words for code that builds a blob in
/// memory before checksumming it (util/snapshot_io.h uses these for the
/// snapshot header and manifest words). Byte order is pinned so a file
/// written on one machine loads on another.

inline void PutU64(std::string& out, uint64_t v) {
  char bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<char>(v >> (8 * i));
  out.append(bytes, sizeof(bytes));
}

inline bool GetU64(std::string_view& in, uint64_t& v) {
  if (in.size() < 8) return false;
  v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(in[i])) << (8 * i);
  }
  in.remove_prefix(8);
  return true;
}

}  // namespace sparqlog::util::serde

#endif  // SPARQLOG_UTIL_SERDE_H_
