#ifndef SPARQLOG_UTIL_SIMD_SCAN_H_
#define SPARQLOG_UTIL_SIMD_SCAN_H_

#include <cstddef>
#include <string_view>

#include "util/ascii.h"

/// Vectorized byte-run scanning for the ingest front end.
///
/// Every primitive answers "where does this run end?" (first index >=
/// pos outside the class) or "where is the next stop byte?" (first
/// index >= pos inside the stop set), returning s.size() when the scan
/// exhausts the input. Each exists in two always-compiled variants:
///
///   * Scalar*: the portable reference — table lookups over
///     util/ascii.h plus a SWAR (8-bytes-per-word) stop-byte search.
///   * Simd*: SSE2, 16 bytes per step (arithmetic range/equality
///     classification, no lookup needed). On targets without SSE2 the
///     Simd symbols are compiled as aliases of the scalar ones.
///
/// The unprefixed names are what the lexer/decoder call; they resolve
/// at compile time to Simd*. Both variants stay linked into every build
/// so the fuzz driver's vector-vs-scalar differential phase
/// (testing/invariants) and simd_scan_test can pin them bit-identical on
/// every input they generate.

#if defined(__SSE2__) || (defined(_M_X64) && !defined(_M_ARM64EC))
#define SPARQLOG_SIMD_SSE2 1
#else
#define SPARQLOG_SIMD_SSE2 0
#endif

namespace sparqlog::util::scan {

// --- Scalar reference variants (always the source of truth) -------------
size_t ScalarNameRun(std::string_view s, size_t pos);
size_t ScalarVarRun(std::string_view s, size_t pos);
size_t ScalarPnLocalRun(std::string_view s, size_t pos);
size_t ScalarBlankLabelRun(std::string_view s, size_t pos);
size_t ScalarLangTagRun(std::string_view s, size_t pos);
size_t ScalarWhitespaceRun(std::string_view s, size_t pos);
size_t ScalarIriRun(std::string_view s, size_t pos);
size_t ScalarDigitRun(std::string_view s, size_t pos);
/// First index of `quote`, '\\', or — unless `long_quote` — '\n'.
size_t ScalarFindStringStop(std::string_view s, size_t pos, char quote,
                            bool long_quote);
/// First index of '%' or '+' (the URL-decode escape set).
size_t ScalarFindEscape(std::string_view s, size_t pos);

// --- SIMD variants (SSE2; alias the scalar ones without it) -------------
size_t SimdNameRun(std::string_view s, size_t pos);
size_t SimdVarRun(std::string_view s, size_t pos);
size_t SimdPnLocalRun(std::string_view s, size_t pos);
size_t SimdBlankLabelRun(std::string_view s, size_t pos);
size_t SimdLangTagRun(std::string_view s, size_t pos);
size_t SimdWhitespaceRun(std::string_view s, size_t pos);
size_t SimdIriRun(std::string_view s, size_t pos);
size_t SimdDigitRun(std::string_view s, size_t pos);
size_t SimdFindStringStop(std::string_view s, size_t pos, char quote,
                          bool long_quote);
size_t SimdFindEscape(std::string_view s, size_t pos);

// --- Default dispatch: what the hot paths call --------------------------
#if SPARQLOG_SIMD_SSE2
inline size_t NameRun(std::string_view s, size_t pos) {
  return SimdNameRun(s, pos);
}
inline size_t VarRun(std::string_view s, size_t pos) {
  return SimdVarRun(s, pos);
}
inline size_t PnLocalRun(std::string_view s, size_t pos) {
  return SimdPnLocalRun(s, pos);
}
inline size_t BlankLabelRun(std::string_view s, size_t pos) {
  return SimdBlankLabelRun(s, pos);
}
inline size_t LangTagRun(std::string_view s, size_t pos) {
  return SimdLangTagRun(s, pos);
}
inline size_t WhitespaceRun(std::string_view s, size_t pos) {
  return SimdWhitespaceRun(s, pos);
}
inline size_t IriRun(std::string_view s, size_t pos) {
  return SimdIriRun(s, pos);
}
inline size_t DigitRun(std::string_view s, size_t pos) {
  return SimdDigitRun(s, pos);
}
inline size_t FindStringStop(std::string_view s, size_t pos, char quote,
                             bool long_quote) {
  return SimdFindStringStop(s, pos, quote, long_quote);
}
inline size_t FindEscape(std::string_view s, size_t pos) {
  return SimdFindEscape(s, pos);
}
#else
inline size_t NameRun(std::string_view s, size_t pos) {
  return ScalarNameRun(s, pos);
}
inline size_t VarRun(std::string_view s, size_t pos) {
  return ScalarVarRun(s, pos);
}
inline size_t PnLocalRun(std::string_view s, size_t pos) {
  return ScalarPnLocalRun(s, pos);
}
inline size_t BlankLabelRun(std::string_view s, size_t pos) {
  return ScalarBlankLabelRun(s, pos);
}
inline size_t LangTagRun(std::string_view s, size_t pos) {
  return ScalarLangTagRun(s, pos);
}
inline size_t WhitespaceRun(std::string_view s, size_t pos) {
  return ScalarWhitespaceRun(s, pos);
}
inline size_t IriRun(std::string_view s, size_t pos) {
  return ScalarIriRun(s, pos);
}
inline size_t DigitRun(std::string_view s, size_t pos) {
  return ScalarDigitRun(s, pos);
}
inline size_t FindStringStop(std::string_view s, size_t pos, char quote,
                             bool long_quote) {
  return ScalarFindStringStop(s, pos, quote, long_quote);
}
inline size_t FindEscape(std::string_view s, size_t pos) {
  return ScalarFindEscape(s, pos);
}
#endif

}  // namespace sparqlog::util::scan

#endif  // SPARQLOG_UTIL_SIMD_SCAN_H_
