#ifndef SPARQLOG_TESTING_REFERENCE_STREAKS_H_
#define SPARQLOG_TESTING_REFERENCE_STREAKS_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>

#include "streaks/streaks.h"

namespace sparqlog::testing::reference {

// ---------------------------------------------------------------------------
// The pre-fast-path streak implementations, kept verbatim as the oracle
// the optimized StripPrologueView, SimilarityWindow + StreakChainTracker
// and sharded StreakStage must reproduce bit for bit. Do not "improve"
// this code — its value is that it stays what shipped before the rewrite.
// ---------------------------------------------------------------------------

/// The pre-fast-path prologue stripper: one substring scan per query form.
std::string OldStripPrologue(const std::string& query);

/// The pre-fast-path detector: per-pair SimilarByLevenshtein with no
/// prefilters, per-query std::string copies.
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
