#ifndef SPARQLOG_STREAKS_STREAKS_H_
#define SPARQLOG_STREAKS_STREAKS_H_

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/levenshtein.h"

namespace sparqlog::streaks {

/// Parameters of the streak analysis (Section 8 of the paper). Queries
/// are always compared with their prologue stripped (StripPrologueView),
/// as the paper does.
struct StreakOptions {
  /// Two queries are similar iff their normalized Levenshtein distance
  /// (divided by the longer length) is at most this threshold.
  double similarity_threshold = 0.25;
  /// Maximum index gap between consecutive queries of a streak.
  size_t window = 30;
  /// Per-pair step budget for the Levenshtein DP (one step per 64-row
  /// block stepped inside the band, see util::BoundedLevenshtein;
  /// 0 = unlimited). A pair whose DP exhausts the budget is treated as
  /// dissimilar — deterministically, since the step count depends only
  /// on the two texts — and counted in PrefilterStats::abandoned_pairs.
  uint64_t levenshtein_step_budget = 0;
};

/// Aggregated results of a streak detection run.
struct StreakReport {
  /// counts[i] = number of streaks with length in [10i+1, 10i+10] for
  /// i = 0..9; counts[10] = streaks longer than 100 (Table 6 buckets).
  uint64_t counts[11] = {0};
  uint64_t total_streaks = 0;
  uint64_t longest = 0;
  uint64_t queries_processed = 0;

  void AddStreakLength(uint64_t length);

  /// Adds another partition's report (sums counters, max of `longest`).
  /// Exact when the partitions processed disjoint slices of the log;
  /// Merge with a default-constructed report is the identity.
  void Merge(const StreakReport& other);

  /// Field-for-field equality — the divergence gates compare whole
  /// reports with this, so a new field can never be silently skipped.
  bool operator==(const StreakReport& other) const = default;
};

/// Removes the prologue (prefix/base declarations): returns the suffix
/// of `query` starting at the first SELECT, ASK, CONSTRUCT, or DESCRIBE
/// keyword (case-insensitive). Namespace prefixes "introduce superficial
/// similarity" (Section 8). Zero-copy: the result views into `query`.
std::string_view StripPrologueView(std::string_view query);

/// Materializing convenience wrapper around StripPrologueView.
std::string StripPrologue(const std::string& query);

/// Per-query similarity fingerprint: everything the prefilter cascade
/// needs to lower-bound the edit distance of a pair without reading the
/// texts. Computed once per query in one O(length) pass.
struct QueryFingerprint {
  /// FNV-1a of the compared text — exact-duplicate short circuit.
  uint64_t hash = 0;
  uint32_t length = 0;
  /// 256-bit character-occurrence bitmap (bit c set iff byte c occurs).
  uint64_t charmap[4] = {0};
  /// Saturating byte histogram (counts clamp at 255; clamping only
  /// weakens the bound, never breaks admissibility).
  uint8_t hist[256] = {0};
};

QueryFingerprint FingerprintOf(std::string_view text);

/// Admissible lower bound from the occurrence bitmaps: every byte value
/// present in one string but absent from the other needs at least one
/// edit of its own. Eight word ops per pair.
size_t CharmapLowerBound(const QueryFingerprint& a, const QueryFingerprint& b);

/// Admissible bag-of-characters lower bound: with P (N) the total
/// positive (negative) histogram excess, every edit reduces P by at
/// most one and N by at most one, so distance >= max(P, N). Dominates
/// CharmapLowerBound but costs a 256-entry scan.
size_t HistogramLowerBound(const QueryFingerprint& a,
                           const QueryFingerprint& b);

/// Where each candidate pair of a streak run was decided. The cascade
/// tiers are ordered cheapest first; a pair is counted against the
/// first tier that settles it, and `levenshtein_calls` counts only the
/// pairs that survived every prefilter and reached the DP.
struct PrefilterStats {
  uint64_t pairs = 0;
  uint64_t exact_hash_hits = 0;
  uint64_t length_rejects = 0;
  uint64_t charmap_rejects = 0;
  uint64_t histogram_rejects = 0;
  uint64_t levenshtein_calls = 0;
  /// DP calls cut short by StreakOptions::levenshtein_step_budget (the
  /// pair is then treated as dissimilar). Always 0 with the default
  /// unlimited budget.
  uint64_t abandoned_pairs = 0;
  /// 64-row blocks the DP stepped over all its calls: the deterministic
  /// work counter of the Levenshtein kernel. An abandoned call counts
  /// its whole step budget.
  uint64_t dp_block_steps = 0;

  void Merge(const PrefilterStats& other);
  bool operator==(const PrefilterStats& other) const = default;
};

/// The streak hot path: a sliding window of fingerprinted queries that,
/// for each new query, yields the index gaps of every predecessor it
/// *matches* under the paper's definition — similar, within the window,
/// and with no intermediate query similar to the predecessor. Window
/// text lives in a per-window arena of recycled buffers, so steady-state
/// operation allocates nothing per query.
///
/// Both the serial StreakDetector and the sharded pipeline stage are
/// built on this one implementation, which is what makes their reports
/// bit-identical by construction.
class SimilarityWindow {
 public:
  explicit SimilarityWindow(StreakOptions options = StreakOptions());

  /// Feeds the next query (in log order). Clears `matched_gaps` and
  /// fills it with (current index - predecessor index) for every
  /// matched predecessor, most recent first.
  void Add(std::string_view raw_query, std::vector<uint32_t>& matched_gaps);

  /// Forgets all window state (the recycled buffers are kept).
  void Reset();

  /// Cumulative cascade counters (not cleared by Reset).
  const PrefilterStats& stats() const { return stats_; }

  /// Returns the counters accumulated since the last TakeStats (or
  /// construction) and clears them.
  PrefilterStats TakeStats() { return std::exchange(stats_, {}); }

 private:
  struct Slot {
    std::string text;  // recycled through spare_, not reallocated
    QueryFingerprint fp;
    size_t index = 0;
    /// Some later query within the window was similar to this one
    /// (then earlier entries cannot match across it).
    bool has_later_similar = false;
  };

  bool Similar(const Slot& prev, const Slot& cand);

  StreakOptions options_;
  std::deque<Slot> window_;
  std::vector<std::string> spare_;  // evicted buffers awaiting reuse
  size_t next_index_ = 0;
  PrefilterStats stats_;
  util::LevenshteinScratch scratch_;
};

/// Folds per-query match gaps into streak lengths and the Table 6
/// report: length(q) = 1 + max length over matched predecessors, and a
/// query nobody matched ends its streak. Shared by the serial detector
/// and the sharded stage's stitch pass.
class StreakChainTracker {
 public:
  explicit StreakChainTracker(size_t window);

  /// Consumes the matched gaps of the next query (in log order).
  void Add(const uint32_t* gaps, size_t count);

  /// Moves out everything finalized so far (streaks that can no longer
  /// be extended, plus the queries-processed count); chains still open
  /// in the window stay pending. Lets the sharded stage produce
  /// per-chunk partial reports that Merge into the exact total.
  StreakReport DrainFinalized();

  /// Flushes all open streaks, returns the report, and resets.
  StreakReport Finish();

 private:
  struct Node {
    uint64_t length = 1;
    size_t index = 0;
    /// Whether some later query extended this node's streak.
    bool extended = false;
  };

  size_t window_;
  size_t next_index_ = 0;
  std::deque<Node> nodes_;
  StreakReport report_;
};

/// Online streak detector over an ordered query log.
///
/// Implements the paper's definition: queries q_i and q_j (i < j) match
/// iff they are similar and no intermediate query is similar to q_i; a
/// streak chains matches with gaps <= window. A query that matches no
/// predecessor starts a new streak of length 1.
class StreakDetector {
 public:
  explicit StreakDetector(StreakOptions options = StreakOptions());

  /// Feeds the next query of the log (in log order).
  void Add(std::string_view query);

  /// Flushes all open streaks and returns the report.
  StreakReport Finish();

  /// Cascade counters for the whole lifetime of this detector.
  const PrefilterStats& prefilter_stats() const { return window_.stats(); }

 private:
  SimilarityWindow window_;
  StreakChainTracker tracker_;
  std::vector<uint32_t> gaps_;  // per-Add scratch
};

}  // namespace sparqlog::streaks

#endif  // SPARQLOG_STREAKS_STREAKS_H_
