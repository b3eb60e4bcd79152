#ifndef SPARQLOG_UTIL_CRC32C_H_
#define SPARQLOG_UTIL_CRC32C_H_

#include <cstdint>
#include <string_view>

namespace sparqlog::util {

/// CRC32C (Castagnoli, polynomial 0x1EDC6F41, reflected 0x82F63B78) —
/// the checksum guarding every snapshot section (util/snapshot_io.h).
/// Chosen over plain CRC32 for its better Hamming distance at the
/// section sizes we write, and because it is the checksum used by the
/// storage systems this format borrows from (leveldb tables, ext4
/// metadata), so known-answer vectors are easy to cross-check:
/// Crc32c("123456789") == 0xE3069283.
///
/// Besides the snapshot sections it keys the pipeline's parse memo,
/// which hashes every log line, so on x86-64 CPUs with SSE4.2 it runs
/// on the crc32 instruction; elsewhere on a portable slice-by-8 table.

/// Extends a running CRC with `data`. Start from 0 for a fresh stream;
/// Crc32cExtend(Crc32cExtend(0, a), b) == Crc32c(a + b).
uint32_t Crc32cExtend(uint32_t crc, std::string_view data);

/// The portable table implementation Crc32cExtend falls back to, and the
/// reference its hardware path is tested against.
uint32_t Crc32cExtendTable(uint32_t crc, std::string_view data);

inline uint32_t Crc32c(std::string_view data) { return Crc32cExtend(0, data); }

}  // namespace sparqlog::util

#endif  // SPARQLOG_UTIL_CRC32C_H_
