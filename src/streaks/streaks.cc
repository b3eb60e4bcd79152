#include "streaks/streaks.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <iterator>
#include <utility>

#include "util/ascii.h"
#include "util/fnv.h"

namespace sparqlog::streaks {

void StreakReport::AddStreakLength(uint64_t length) {
  ++total_streaks;
  longest = std::max(longest, length);
  size_t bucket = (length == 0) ? 0 : (length - 1) / 10;
  if (bucket > 10) bucket = 10;
  ++counts[bucket];
}

void StreakReport::Merge(const StreakReport& other) {
  for (size_t i = 0; i < std::size(counts); ++i) counts[i] += other.counts[i];
  total_streaks += other.total_streaks;
  longest = std::max(longest, other.longest);
  queries_processed += other.queries_processed;
}

std::string_view StripPrologueView(std::string_view query) {
  // One left-to-right scan; the first position where any of the four
  // form keywords starts on a word boundary wins. Keyword dispatch is
  // by first letter (the four forms start with distinct letters), and
  // `c | 0x20` maps exactly {lower, upper} of an ASCII letter onto its
  // lowercase form, so the comparison below equals EqualsIgnoreCase.
  for (size_t i = 0; i < query.size(); ++i) {
    std::string_view keyword;
    switch (query[i] | 0x20) {
      case 's': keyword = "select"; break;
      case 'a': keyword = "ask"; break;
      case 'c': keyword = "construct"; break;
      case 'd': keyword = "describe"; break;
      default: continue;
    }
    if (i + keyword.size() > query.size()) continue;
    if (i > 0) {
      // Keyword boundary check: not inside an IRI or a longer word.
      char prev = query[i - 1];
      if (util::IsAsciiAlnum(prev) || prev == ':' || prev == '/' ||
          prev == '#' || prev == '_') {
        continue;
      }
    }
    bool match = true;
    for (size_t k = 1; k < keyword.size(); ++k) {
      if ((query[i + k] | 0x20) != keyword[k]) {
        match = false;
        break;
      }
    }
    if (!match) continue;
    if (i + keyword.size() < query.size() &&
        util::IsAsciiAlnum(query[i + keyword.size()])) {
      continue;
    }
    return query.substr(i);
  }
  return query;
}

std::string StripPrologue(const std::string& query) {
  return std::string(StripPrologueView(query));
}

QueryFingerprint FingerprintOf(std::string_view text) {
  QueryFingerprint fp;
  fp.length = static_cast<uint32_t>(text.size());
  fp.hash = util::Fnv1aHash(text);
  for (unsigned char c : text) {
    fp.charmap[c >> 6] |= 1ULL << (c & 63);
    if (fp.hist[c] != 255) ++fp.hist[c];
  }
  return fp;
}

size_t CharmapLowerBound(const QueryFingerprint& a,
                         const QueryFingerprint& b) {
  size_t only_a = 0, only_b = 0;
  for (int w = 0; w < 4; ++w) {
    only_a += static_cast<size_t>(std::popcount(a.charmap[w] & ~b.charmap[w]));
    only_b += static_cast<size_t>(std::popcount(b.charmap[w] & ~a.charmap[w]));
  }
  return std::max(only_a, only_b);
}

size_t HistogramLowerBound(const QueryFingerprint& a,
                           const QueryFingerprint& b) {
  size_t positive = 0, negative = 0;
  for (int c = 0; c < 256; ++c) {
    int diff = static_cast<int>(a.hist[c]) - static_cast<int>(b.hist[c]);
    if (diff > 0) {
      positive += static_cast<size_t>(diff);
    } else {
      negative += static_cast<size_t>(-diff);
    }
  }
  return std::max(positive, negative);
}

void PrefilterStats::Merge(const PrefilterStats& other) {
  pairs += other.pairs;
  exact_hash_hits += other.exact_hash_hits;
  length_rejects += other.length_rejects;
  charmap_rejects += other.charmap_rejects;
  histogram_rejects += other.histogram_rejects;
  levenshtein_calls += other.levenshtein_calls;
  abandoned_pairs += other.abandoned_pairs;
  dp_block_steps += other.dp_block_steps;
}

// ---------------------------------------------------------------------------
// SimilarityWindow
// ---------------------------------------------------------------------------

SimilarityWindow::SimilarityWindow(StreakOptions options)
    : options_(std::move(options)) {}

bool SimilarityWindow::Similar(const Slot& prev, const Slot& cand) {
  ++stats_.pairs;
  // The exact predicate: distance at most floor(threshold * longer).
  // Every tier below either decides exactly or rejects on an admissible
  // lower bound, so the cascade accepts a pair iff the exact predicate
  // does.
  size_t longer = std::max(prev.fp.length, cand.fp.length);
  if (prev.fp.hash == cand.fp.hash && prev.fp.length == cand.fp.length &&
      prev.text == cand.text) {
    // Distance 0 <= any budget; the duplicate-heavy real-log case.
    ++stats_.exact_hash_hits;
    return true;
  }
  size_t budget = static_cast<size_t>(
      std::floor(options_.similarity_threshold * longer));
  size_t length_gap = longer - std::min(prev.fp.length, cand.fp.length);
  if (length_gap > budget) {
    ++stats_.length_rejects;
    return false;
  }
  if (CharmapLowerBound(prev.fp, cand.fp) > budget) {
    ++stats_.charmap_rejects;
    return false;
  }
  if (HistogramLowerBound(prev.fp, cand.fp) > budget) {
    ++stats_.histogram_rejects;
    return false;
  }
  ++stats_.levenshtein_calls;
  // An unlimited budget still counts: the steps charged are the limit
  // minus what remains.
  const uint64_t limit = options_.levenshtein_step_budget > 0
                             ? options_.levenshtein_step_budget
                             : UINT64_MAX;
  util::StepBudget steps(limit);
  size_t dist = util::BoundedLevenshtein(prev.text, cand.text, budget,
                                         scratch_, &steps);
  stats_.dp_block_steps += limit - steps.remaining();
  if (steps.exhausted()) {
    ++stats_.abandoned_pairs;
    return false;
  }
  return dist <= budget;
}

void SimilarityWindow::Add(std::string_view raw_query,
                           std::vector<uint32_t>& matched_gaps) {
  matched_gaps.clear();
  std::string_view text = StripPrologueView(raw_query);

  size_t index = next_index_++;
  while (!window_.empty() &&
         next_index_ - window_.front().index > options_.window) {
    spare_.push_back(std::move(window_.front().text));
    window_.pop_front();
  }

  Slot slot;
  if (!spare_.empty()) {
    slot.text = std::move(spare_.back());
    spare_.pop_back();
  }
  slot.text.assign(text.data(), text.size());
  slot.fp = FingerprintOf(slot.text);
  slot.index = index;

  // Scan the window from the most recent to the oldest. A predecessor
  // q_i matches iff similar(q_i, q_j) and no query between them was
  // similar to q_i — the latter is tracked by has_later_similar.
  for (auto it = window_.rbegin(); it != window_.rend(); ++it) {
    if (!Similar(*it, slot)) continue;
    if (!it->has_later_similar) {
      matched_gaps.push_back(static_cast<uint32_t>(index - it->index));
    }
    it->has_later_similar = true;
  }
  window_.push_back(std::move(slot));
}

void SimilarityWindow::Reset() {
  while (!window_.empty()) {
    spare_.push_back(std::move(window_.front().text));
    window_.pop_front();
  }
  next_index_ = 0;
}

// ---------------------------------------------------------------------------
// StreakChainTracker
// ---------------------------------------------------------------------------

StreakChainTracker::StreakChainTracker(size_t window) : window_(window) {}

void StreakChainTracker::Add(const uint32_t* gaps, size_t count) {
  size_t index = next_index_++;
  ++report_.queries_processed;
  while (!nodes_.empty() && next_index_ - nodes_.front().index > window_) {
    if (!nodes_.front().extended) {
      // No later query extended this streak: it is final.
      report_.AddStreakLength(nodes_.front().length);
    }
    nodes_.pop_front();
  }
  Node node;
  node.index = index;
  for (size_t k = 0; k < count; ++k) {
    Node& matched = nodes_[index - gaps[k] - nodes_.front().index];
    matched.extended = true;
    node.length = std::max(node.length, matched.length + 1);
  }
  nodes_.push_back(node);
}

StreakReport StreakChainTracker::DrainFinalized() {
  StreakReport out = report_;
  report_ = StreakReport();
  return out;
}

StreakReport StreakChainTracker::Finish() {
  for (const Node& node : nodes_) {
    if (!node.extended) report_.AddStreakLength(node.length);
  }
  nodes_.clear();
  StreakReport out = report_;
  report_ = StreakReport();
  next_index_ = 0;
  return out;
}

// ---------------------------------------------------------------------------
// StreakDetector
// ---------------------------------------------------------------------------

StreakDetector::StreakDetector(StreakOptions options)
    : window_(options), tracker_(options.window) {}

void StreakDetector::Add(std::string_view query) {
  window_.Add(query, gaps_);
  tracker_.Add(gaps_.data(), gaps_.size());
}

StreakReport StreakDetector::Finish() {
  window_.Reset();
  return tracker_.Finish();
}

}  // namespace sparqlog::streaks
