#include "util/levenshtein.h"

#include <algorithm>
#include <vector>

namespace sparqlog::util {

namespace {

constexpr uint64_t kTopBit = 1ULL << 63;

inline size_t Byte(char c) { return static_cast<unsigned char>(c); }

/// One column step of one 64-row block (Hyyro's blocked form of Myers'
/// recurrence), without branches. `hin` in {-1, 0, +1} is the
/// horizontal delta entering the block through the row above it;
/// returns the delta leaving the row marked by `out`.
inline int BlockStep(uint64_t eq, uint64_t& vp, uint64_t& vn, int hin,
                     uint64_t out) {
  const uint64_t hp = hin > 0, hm = hin < 0;
  uint64_t xv = eq | vn;
  eq |= hm;
  uint64_t xh = (((eq & vp) + vp) ^ vp) | eq;
  uint64_t ph = vn | ~(xh | vp);
  uint64_t mh = vp & xh;
  int hout = static_cast<int>((ph & out) != 0) -
             static_cast<int>((mh & out) != 0);
  ph = (ph << 1) | hp;
  mh = (mh << 1) | hm;
  vn = ph & xv;
  vp = mh | ~(xv | ph);
  return hout;
}

}  // namespace

size_t Levenshtein(std::string_view a, std::string_view b) {
  if (a.size() < b.size()) std::swap(a, b);
  // b is the shorter string; keep one row of the DP matrix.
  std::vector<size_t> row(b.size() + 1);
  for (size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (size_t i = 1; i <= a.size(); ++i) {
    size_t diag = row[0];
    row[0] = i;
    for (size_t j = 1; j <= b.size(); ++j) {
      size_t cost = (a[i - 1] == b[j - 1]) ? 0 : 1;
      size_t next = std::min({row[j] + 1, row[j - 1] + 1, diag + cost});
      diag = row[j];
      row[j] = next;
    }
  }
  return row[b.size()];
}

size_t BoundedLevenshtein(std::string_view a, std::string_view b, size_t k,
                          LevenshteinScratch& scratch, StepBudget* budget) {
  if (a.size() < b.size()) std::swap(a, b);
  // a is the text, b the pattern (never longer).
  if (a.size() - b.size() > k) return k + 1;
  // The distance never exceeds the text length, so a larger budget only
  // widens the band for nothing.
  const size_t band_k = std::min(k, a.size());
  // Edit distance is unchanged by a common prefix or suffix.
  while (!b.empty() && a.front() == b.front()) {
    a.remove_prefix(1);
    b.remove_prefix(1);
  }
  while (!b.empty() && a.back() == b.back()) {
    a.remove_suffix(1);
    b.remove_suffix(1);
  }
  const size_t m = b.size(), n = a.size(), g = n - m;
  if (m == 0) return g;

  const size_t blocks = (m + 63) / 64;
  if (scratch.peq.size() < 256 * blocks) scratch.peq.resize(256 * blocks);
  uint64_t* peq = scratch.peq.data();
  for (size_t i = 0; i < m; ++i) {
    peq[Byte(b[i]) * blocks + i / 64] |= 1ULL << (i % 64);
  }
  scratch.vp.assign(blocks, ~0ULL);
  scratch.vn.assign(blocks, 0);
  uint64_t* vp = scratch.vp.data();
  uint64_t* vn = scratch.vn.data();

  // Ukkonen's band: a path through (i, j) costs at least |j - i| +
  // |g - (j - i)|, so column j needs (1-based) rows [j - above,
  // j + below]. A block below the band still holds its initial +1
  // vertical deltas when it enters; the first block under a retired one
  // takes h_in = +1. Both are costs of real paths, so every cell is an
  // upper bound and cells on an in-band path are exact.
  const size_t above = (band_k + g) / 2, below = (band_k - g) / 2;
  const uint64_t last = 1ULL << ((m - 1) % 64);
  // Row m's value, counting the rows not yet entered at +1 each.
  size_t score = m;
  for (size_t j = 1; j <= n; ++j) {
    const size_t first = j > above ? (j - above - 1) / 64 : 0;
    const size_t end = (std::min(m, j + below) - 1) / 64;
    if (budget != nullptr && !budget->Charge(end - first + 1)) {
      score = k + 1;
      break;
    }
    const uint64_t* eq = peq + Byte(a[j - 1]) * blocks;
    // The first active block always takes h_in = +1: a constant, so it
    // does not wait on a carry.
    int carry = BlockStep(eq[first], vp[first], vn[first], 1,
                          first + 1 == blocks ? last : kTopBit);
    for (size_t blk = first + 1; blk <= end; ++blk) {
      carry = BlockStep(eq[blk], vp[blk], vn[blk], carry,
                        blk + 1 == blocks ? last : kTopBit);
    }
    score += static_cast<size_t>(carry);  // wraps for -1
    // Row m moves by at most one per remaining column.
    if (score > band_k + (n - j)) {
      score = k + 1;
      break;
    }
  }
  for (size_t i = 0; i < m; ++i) peq[Byte(b[i]) * blocks + i / 64] = 0;
  return score <= k ? score : k + 1;
}

}  // namespace sparqlog::util
