#include "testing/reference_streaks.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <string_view>
#include <vector>

#include "util/strings.h"

namespace sparqlog::testing::reference {

// ---------------------------------------------------------------------------
// The pre-band Myers kernel (util/levenshtein.cc before the banded
// rewrite), minus its step budget, which the oracle never used.
// ---------------------------------------------------------------------------

namespace {

constexpr uint64_t kTopBit = 1ULL << 63;

/// Blocked Myers state: per-byte pattern bitmasks (256 x words) and the
/// vertical positive/negative delta words.
struct MyersScratch {
  std::vector<uint64_t> peq;
  std::vector<uint64_t> vp, vn;
};

/// One column of the single-word Myers recurrence (Hyyro's formulation).
/// `peq` is the pattern bitmask of the current text byte, `last` the bit
/// of the pattern's final row. Returns the score delta (-1, 0, +1).
inline int MyersStep(uint64_t peq, uint64_t last, uint64_t& vp,
                     uint64_t& vn) {
  uint64_t xv = peq | vn;
  uint64_t xh = (((peq & vp) + vp) ^ vp) | peq;
  uint64_t ph = vn | ~(xh | vp);
  uint64_t mh = vp & xh;
  int delta = 0;
  if (ph & last) delta = 1;
  if (mh & last) delta = -1;
  ph = (ph << 1) | 1;
  vn = ph & xv;
  vp = (mh << 1) | ~(xv | ph);
  return delta;
}

/// Single-word Myers: pattern `p` (|p| <= 64) against text `t`. When
/// `max_dist` < SIZE_MAX, applies the lower-bound cutoff: the final
/// score is at least score - (columns remaining), so once that exceeds
/// the budget the distance cannot come back under it.
size_t MyersSingleWord(std::string_view p, std::string_view t,
                       size_t max_dist) {
  uint64_t peq[256] = {0};
  for (size_t i = 0; i < p.size(); ++i) {
    peq[static_cast<unsigned char>(p[i])] |= 1ULL << i;
  }
  uint64_t vp = ~0ULL, vn = 0;
  uint64_t last = 1ULL << (p.size() - 1);
  size_t score = p.size();
  for (size_t j = 0; j < t.size(); ++j) {
    score = static_cast<size_t>(
        static_cast<long long>(score) +
        MyersStep(peq[static_cast<unsigned char>(t[j])], last, vp, vn));
    size_t remaining = t.size() - j - 1;
    if (score > max_dist && score - std::min(score, remaining) > max_dist) {
      return max_dist + 1;
    }
  }
  return score;
}

/// One column step of one 64-row block. `hin` in {-1, 0, +1} is the
/// horizontal delta entering the block from below; returns the delta
/// leaving its top row.
inline int MyersBlockStep(uint64_t peq, uint64_t& vp, uint64_t& vn,
                          int hin) {
  uint64_t xv = peq | vn;
  uint64_t eq = hin < 0 ? peq | 1 : peq;
  uint64_t xh = (((eq & vp) + vp) ^ vp) | eq;
  uint64_t ph = vn | ~(xh | vp);
  uint64_t mh = vp & xh;
  int hout = 0;
  if (ph & kTopBit) hout = 1;
  if (mh & kTopBit) hout = -1;
  ph <<= 1;
  mh <<= 1;
  if (hin > 0) ph |= 1;
  if (hin < 0) mh |= 1;
  vn = ph & xv;
  vp = mh | ~(xv | ph);
  return hout;
}

/// Block-based Myers for patterns longer than 64 bytes. Exact distance
/// with the same lower-bound cutoff as the single-word version.
size_t MyersBlocked(std::string_view p, std::string_view t, size_t max_dist,
                    MyersScratch& scratch) {
  const size_t blocks = (p.size() + 63) / 64;
  scratch.peq.assign(blocks * 256, 0);
  for (size_t i = 0; i < p.size(); ++i) {
    scratch.peq[static_cast<unsigned char>(p[i]) * blocks + i / 64] |=
        1ULL << (i % 64);
  }
  scratch.vp.assign(blocks, ~0ULL);
  scratch.vn.assign(blocks, 0);
  uint64_t last = 1ULL << ((p.size() - 1) % 64);
  size_t score = p.size();
  for (size_t j = 0; j < t.size(); ++j) {
    const uint64_t* peq =
        scratch.peq.data() + static_cast<unsigned char>(t[j]) * blocks;
    int carry = 1;  // row 0 of the imaginary boundary grows by one per column
    for (size_t b = 0; b + 1 < blocks; ++b) {
      carry = MyersBlockStep(peq[b], scratch.vp[b], scratch.vn[b], carry);
    }
    // The final block carries the score bit on the pattern's last row.
    {
      size_t b = blocks - 1;
      uint64_t xv = peq[b] | scratch.vn[b];
      uint64_t eq = carry < 0 ? peq[b] | 1 : peq[b];
      uint64_t xh =
          (((eq & scratch.vp[b]) + scratch.vp[b]) ^ scratch.vp[b]) | eq;
      uint64_t ph = scratch.vn[b] | ~(xh | scratch.vp[b]);
      uint64_t mh = scratch.vp[b] & xh;
      if (ph & last) ++score;
      if (mh & last) --score;
      ph <<= 1;
      mh <<= 1;
      if (carry > 0) ph |= 1;
      if (carry < 0) mh |= 1;
      scratch.vn[b] = ph & xv;
      scratch.vp[b] = mh | ~(xv | ph);
    }
    size_t remaining = t.size() - j - 1;
    if (score > max_dist && score - std::min(score, remaining) > max_dist) {
      return max_dist + 1;
    }
  }
  return score;
}

}  // namespace

size_t MyersBoundedLevenshtein(std::string_view a, std::string_view b,
                               size_t max_dist) {
  thread_local MyersScratch scratch;
  if (a.size() < b.size()) std::swap(a, b);
  // b is the (possibly empty) pattern; a is the text.
  if (a.size() - b.size() > max_dist) return max_dist + 1;
  if (b.empty()) return a.size();
  size_t d = b.size() <= 64 ? MyersSingleWord(b, a, max_dist)
                            : MyersBlocked(b, a, max_dist, scratch);
  return d <= max_dist ? d : max_dist + 1;
}

bool SimilarByLevenshtein(std::string_view a, std::string_view b,
                          double threshold) {
  size_t longer = std::max(a.size(), b.size());
  if (longer == 0) return true;
  size_t budget = static_cast<size_t>(std::floor(threshold * longer));
  return MyersBoundedLevenshtein(a, b, budget) <= budget;
}

std::string OldStripPrologue(const std::string& query) {
  static const char* kForms[] = {"SELECT", "ASK", "CONSTRUCT", "DESCRIBE"};
  size_t best = std::string::npos;
  for (const char* form : kForms) {
    size_t len = std::string(form).size();
    for (size_t i = 0; i + len <= query.size(); ++i) {
      if (util::EqualsIgnoreCase(std::string_view(query).substr(i, len),
                                 form)) {
        bool left_ok =
            i == 0 || !(std::isalnum(static_cast<unsigned char>(
                            query[i - 1])) ||
                        query[i - 1] == ':' || query[i - 1] == '/' ||
                        query[i - 1] == '#' || query[i - 1] == '_');
        bool right_ok =
            i + len == query.size() ||
            !std::isalnum(static_cast<unsigned char>(query[i + len]));
        if (left_ok && right_ok) {
          best = std::min(best, i);
          break;
        }
      }
    }
  }
  if (best == std::string::npos) return query;
  return query.substr(best);
}

void ReferenceDetector::Add(const std::string& raw_query) {
  Entry entry;
  entry.text = OldStripPrologue(raw_query);
  entry.index = next_index_++;
  ++report_.queries_processed;
  while (!window_.empty() &&
         next_index_ - window_.front().index > options_.window) {
    const Entry& old = window_.front();
    if (!old.extended) report_.AddStreakLength(old.streak_length);
    window_.pop_front();
  }
  bool matched_any = false;
  for (auto it = window_.rbegin(); it != window_.rend(); ++it) {
    bool similar = SimilarByLevenshtein(it->text, entry.text,
                                        options_.similarity_threshold);
    if (!similar) continue;
    if (!it->has_later_similar) {
      if (!matched_any || it->streak_length + 1 > entry.streak_length) {
        entry.streak_length = it->streak_length + 1;
      }
      it->extended = true;
      matched_any = true;
    }
    it->has_later_similar = true;
  }
  window_.push_back(std::move(entry));
}

streaks::StreakReport ReferenceDetector::Finish() {
  for (const Entry& e : window_) {
    if (!e.extended) report_.AddStreakLength(e.streak_length);
  }
  window_.clear();
  streaks::StreakReport out = report_;
  report_ = streaks::StreakReport();
  next_index_ = 0;
  return out;
}

}  // namespace sparqlog::testing::reference
