#ifndef SPARQLOG_UTIL_VBYTE_H_
#define SPARQLOG_UTIL_VBYTE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace sparqlog::util::vbyte {

/// Variable-byte (LEB128) integer streams for snapshot section payloads
/// (util/snapshot_io.h). Unlike util/serde.h — fixed-width words for the
/// few snapshot header and manifest fields — these encode into an
/// in-memory buffer that is checksummed and published as one section,
/// and they compress: counter-dominated shard state is mostly
/// small integers, and sorted 64-bit hash sets gap-encode well.
///
/// Decoders take the input as a std::string_view& and consume what they
/// read, so a truncated or trailing-garbage payload is detectable by
/// the caller (`in.empty()` at the end). Every decoder returns false on
/// truncation or malformed input instead of reading out of bounds.

inline void PutVarint(std::string& out, uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>(v | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

inline bool GetVarint(std::string_view& in, uint64_t& v) {
  v = 0;
  for (size_t i = 0; i < in.size() && i < 10; ++i) {
    uint64_t byte = static_cast<unsigned char>(in[i]);
    // Byte 10 holds bits 63..69; anything above bit 63 is an overlong
    // or overflowing encoding — corrupt, not just unusual.
    if (i == 9 && (byte & 0x7E) != 0) return false;
    v |= (byte & 0x7F) << (7 * i);
    if ((byte & 0x80) == 0) {
      in.remove_prefix(i + 1);
      return true;
    }
  }
  return false;  // ran out of input mid-varint (or >10 continuation bytes)
}

/// Zigzag mapping so small-magnitude signed values stay short.
inline void PutZigzag(std::string& out, int64_t v) {
  PutVarint(out, (static_cast<uint64_t>(v) << 1) ^
                     static_cast<uint64_t>(v >> 63));
}

inline bool GetZigzag(std::string_view& in, int64_t& v) {
  uint64_t u;
  if (!GetVarint(in, u)) return false;
  v = static_cast<int64_t>((u >> 1) ^ (~(u & 1) + 1));
  return true;
}

inline void PutLenPrefixed(std::string& out, std::string_view s) {
  PutVarint(out, s.size());
  out.append(s.data(), s.size());
}

/// `max_len` guards a corrupt length prefix from turning into a
/// multi-gigabyte allocation, as Snapshot::Load refuses a section
/// length that overruns the file.
inline bool GetLenPrefixed(std::string_view& in, std::string_view& s,
                           uint64_t max_len = 1ULL << 30) {
  uint64_t len;
  if (!GetVarint(in, len) || len > max_len || len > in.size()) return false;
  s = in.substr(0, static_cast<size_t>(len));
  in.remove_prefix(static_cast<size_t>(len));
  return true;
}

/// Gap-encodes a sorted, duplicate-free u64 sequence: count, first
/// value, then successive deltas. Random 64-bit hashes gain ~log2(n)
/// bits per element; dense id sets collapse to a byte per element.
inline void PutDeltaSorted(std::string& out, const std::vector<uint64_t>& sorted) {
  PutVarint(out, sorted.size());
  uint64_t prev = 0;
  for (size_t i = 0; i < sorted.size(); ++i) {
    PutVarint(out, i == 0 ? sorted[0] : sorted[i] - prev);
    prev = sorted[i];
  }
}

/// Rejects non-monotone streams (a corrupt delta that wraps) as well as
/// truncation; `max_count` bounds the up-front reserve.
inline bool GetDeltaSorted(std::string_view& in, std::vector<uint64_t>& out,
                           uint64_t max_count = 1ULL << 30) {
  uint64_t count;
  // Each element costs at least one byte, so a count beyond the bytes
  // remaining is corrupt — and rejecting it here keeps the reserve()
  // below proportional to the actual input.
  if (!GetVarint(in, count) || count > max_count || count > in.size()) {
    return false;
  }
  out.clear();
  out.reserve(static_cast<size_t>(count));
  uint64_t prev = 0;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t delta;
    if (!GetVarint(in, delta)) return false;
    uint64_t value = i == 0 ? delta : prev + delta;
    if (i != 0 && (delta == 0 || value < prev)) return false;
    out.push_back(value);
    prev = value;
  }
  return true;
}

}  // namespace sparqlog::util::vbyte

#endif  // SPARQLOG_UTIL_VBYTE_H_
