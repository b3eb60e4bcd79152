#ifndef SPARQLOG_UTIL_LEVENSHTEIN_H_
#define SPARQLOG_UTIL_LEVENSHTEIN_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "util/budget.h"

namespace sparqlog::util {

/// Reusable state for BoundedLevenshtein. A default-constructed scratch
/// works for any input; the vectors grow on first use and are never
/// shrunk, so a caller that keeps one scratch per thread pays zero
/// allocations on the hot path after warmup.
struct LevenshteinScratch {
  /// Per-byte pattern bitmasks, 256 x blocks words. All zero between
  /// calls: a call sets the bits of its pattern and clears exactly
  /// those again by walking the pattern.
  std::vector<uint64_t> peq;
  /// Vertical positive/negative delta words, one per 64-row block.
  std::vector<uint64_t> vp, vn;
};

/// Classic Levenshtein edit distance, O(|a|*|b|) time, O(min) space.
/// The plain DP the bounded kernel is property-tested against.
size_t Levenshtein(std::string_view a, std::string_view b);

/// Bounded edit distance: the exact distance if it is <= `k`,
/// otherwise `k + 1`.
///
/// Trims the common prefix and suffix, then runs Myers' (1999) blocked
/// bit-parallel DP with the shorter remainder as the pattern, stepping
/// only the 64-row blocks that meet Ukkonen's band: with pattern length
/// m <= text length n and g = n - m, column j needs rows
/// [j - floor((k+g)/2), j + floor((k-g)/2)]. Cells outside the band hold
/// upper bounds, so the result is exact whenever it is <= k. A running
/// lower bound on the final score ends hopeless pairs early.
///
/// `budget`, if given, is charged one step per block stepped. On
/// exhaustion the DP stops and `k + 1` is returned; the caller tells
/// "too far" from "abandoned" by `budget->exhausted()`. The step count
/// depends only on the two strings and `k`, so the abandon decision is
/// deterministic per pair.
size_t BoundedLevenshtein(std::string_view a, std::string_view b, size_t k,
                          LevenshteinScratch& scratch,
                          StepBudget* budget = nullptr);

}  // namespace sparqlog::util

#endif  // SPARQLOG_UTIL_LEVENSHTEIN_H_
