#ifndef SPARQLOG_TESTING_REFERENCE_STREAKS_H_
#define SPARQLOG_TESTING_REFERENCE_STREAKS_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>

#include "streaks/streaks.h"

namespace sparqlog::testing::reference {

// ---------------------------------------------------------------------------
// The pre-fast-path streak implementations, kept verbatim as the oracle
// the optimized StripPrologueView, SimilarityWindow + StreakChainTracker,
// sharded StreakStage and banded util::BoundedLevenshtein must reproduce
// bit for bit. Do not "improve" this code — its value is that it stays
// what shipped before the rewrite.
// ---------------------------------------------------------------------------

/// The pre-band Myers (1999) kernel: single-word for patterns of at most
/// 64 bytes, blocked (every block, every column) above, with the
/// score-minus-remaining cutoff. Exact distance if it is <= `max_dist`,
/// otherwise `max_dist + 1`. Shares no code or scratch with util/.
size_t MyersBoundedLevenshtein(std::string_view a, std::string_view b,
                               size_t max_dist);

/// The paper's similarity predicate on that kernel:
/// Levenshtein(a, b) <= floor(threshold * max(|a|, |b|)).
bool SimilarByLevenshtein(std::string_view a, std::string_view b,
                          double threshold);

/// The pre-fast-path prologue stripper: one substring scan per query form.
std::string OldStripPrologue(const std::string& query);

/// The pre-fast-path detector: per-pair SimilarByLevenshtein (above)
/// with no prefilters, per-query std::string copies.
class ReferenceDetector {
 public:
  explicit ReferenceDetector(streaks::StreakOptions options)
      : options_(options) {}

  void Add(const std::string& raw_query);
  streaks::StreakReport Finish();

 private:
  struct Entry {
    std::string text;
    size_t index;
    bool has_later_similar = false;
    uint64_t streak_length = 1;
    bool extended = false;
  };
  streaks::StreakOptions options_;
  std::deque<Entry> window_;
  size_t next_index_ = 0;
  streaks::StreakReport report_;
};

}  // namespace sparqlog::testing::reference

#endif  // SPARQLOG_TESTING_REFERENCE_STREAKS_H_
