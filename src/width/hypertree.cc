#include "width/hypertree.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

namespace sparqlog::width {

using graph::Hypergraph;

namespace {

size_t WordsFor(int bits) { return (static_cast<size_t>(bits) + 63) / 64; }

void SetBit(uint64_t* set, int i) {
  set[static_cast<size_t>(i) >> 6] |= 1ULL << (i & 63);
}

/// Calls f(i) for each set bit i of the `n`-word set, ascending.
template <typename F>
void ForEachBit(const uint64_t* set, size_t n, F f) {
  for (size_t w = 0; w < n; ++w) {
    uint64_t word = set[w];
    while (word != 0) {
      f(static_cast<int>(w * 64) + std::countr_zero(word));
      word &= word - 1;
    }
  }
}

bool Intersects(const uint64_t* a, const uint64_t* b, size_t n) {
  for (size_t w = 0; w < n; ++w) {
    if ((a[w] & b[w]) != 0) return true;
  }
  return false;
}

uint64_t Mix(uint64_t h) {
  h ^= h >> 30;
  h *= 0xBF58476D1CE4E5B9ULL;
  h ^= h >> 27;
  h *= 0x94D049BB133111EBULL;
  return h ^ (h >> 31);
}

/// Exact decider for "this component has a generalized hypertree
/// decomposition of width <= k", following the recursive det-k-decomp
/// scheme: pick a separator of <= k hyperedges covering the connector,
/// recurse on the remaining connected pieces.
///
/// Every set lives on the scratch word stack and is named by its
/// offset, because a recursive call may grow (and so move) the stack;
/// pointers are fetched afresh after each call. Candidates and
/// sub-component seeds are enumerated ascending by id across words, so
/// the separator found first — and with it decomposition_nodes and the
/// step count — does not depend on the word width.
class DetKDecomp {
 public:
  DetKDecomp(GhwScratch& s, int m, size_t vw, util::StepBudget* budget)
      : s_(s), m_(m), vw_(vw), ew_(WordsFor(m)), budget_(budget) {
    if (s_.memo_stamps.empty()) {
      Grow();
    } else if (s_.memo_keys.size() < s_.memo_stamps.size() * KeyWords()) {
      s_.memo_keys.resize(s_.memo_stamps.size() * KeyWords());
    }
  }

  /// Decides the whole hypergraph at width `k` on an empty memo.
  std::optional<int> Solve(int k) {
    k_ = k;
    top_ = 0;
    memo_live_ = 0;
    if (++s_.memo_epoch == 0) {
      std::fill(s_.memo_stamps.begin(), s_.memo_stamps.end(), 0);
      s_.memo_epoch = 1;
    }
    size_t all_edges = Push(ew_);
    size_t none = Push(vw_);
    std::fill_n(W(all_edges), ew_, 0);
    for (int e = 0; e < m_; ++e) SetBit(W(all_edges), e);
    std::fill_n(W(none), vw_, 0);
    return Decompose(all_edges, none);
  }

 private:
  /// Stack offsets of one Decompose call's sets.
  struct Frame {
    size_t edge_ids, connector, comp_vertices, candidates;
  };

  uint64_t* W(size_t off) { return s_.words.data() + off; }
  const uint64_t* Edge(int e) const {
    return s_.edge_masks.data() + static_cast<size_t>(e) * vw_;
  }
  size_t KeyWords() const { return ew_ + vw_; }

  /// Pushes `n` words holding stale values for the caller to fill; the
  /// caller pops by restoring `top_`.
  size_t Push(size_t n) {
    size_t off = top_;
    top_ += n;
    if (top_ > s_.words.size()) s_.words.resize(top_);
    return off;
  }

  /// Smallest set bit >= `from` of the `n`-word set at `off`, or -1.
  int NextBit(size_t off, size_t n, int from) {
    size_t w = static_cast<size_t>(from) >> 6;
    if (w >= n) return -1;
    uint64_t word = W(off)[w] & (~0ULL << (from & 63));
    for (;;) {
      if (word != 0) {
        return static_cast<int>(w * 64) + std::countr_zero(word);
      }
      if (++w == n) return -1;
      word = W(off)[w];
    }
  }

  std::optional<int> Decompose(size_t edge_ids, size_t connector) {
    if (budget_ != nullptr && budget_->exhausted()) return std::nullopt;
    size_t slot = FindSlot(edge_ids, connector);
    if (s_.memo_stamps[slot] == s_.memo_epoch) {
      int nodes = s_.memo_nodes[slot];
      return nodes < 0 ? std::nullopt : std::optional<int>(nodes);
    }
    std::optional<int> result = DecomposeUncached(edge_ids, connector);
    // A result computed under an exhausted budget reflects a truncated
    // search; memoizing it would poison later (or resumed) lookups.
    if (budget_ == nullptr || !budget_->exhausted()) {
      Memoize(edge_ids, connector, result.value_or(-1));
    }
    return result;
  }

  // The word counts are copied into locals in the loops below: a store
  // through a uint64_t* may alias a size_t member, which would force a
  // reload after every store.

  std::optional<int> DecomposeUncached(size_t edge_ids, size_t connector) {
    const size_t vw = vw_, ew = ew_;
    size_t mark = top_;
    Frame f{edge_ids, connector, Push(vw), Push(ew)};
    size_t bag = Push(vw);
    uint64_t* cv = W(f.comp_vertices);
    const uint64_t* ids = W(edge_ids);
    const uint64_t* conn = W(connector);
    for (size_t w = 0; w < vw; ++w) cv[w] = 0;
    ForEachBit(ids, ew, [&](int e) {
      const uint64_t* edge = Edge(e);
      for (size_t w = 0; w < vw; ++w) cv[w] |= edge[w];
    });
    // Candidate separator edges: any edge of the hypergraph that touches
    // the component or helps cover the connector.
    uint64_t* candidates = W(f.candidates);
    for (size_t w = 0; w < ew; ++w) candidates[w] = 0;
    for (int e = 0; e < m_; ++e) {
      const uint64_t* edge = Edge(e);
      for (size_t w = 0; w < vw; ++w) {
        if ((edge[w] & (cv[w] | conn[w])) != 0) {
          SetBit(candidates, e);
          break;
        }
      }
    }
    uint64_t* b = W(bag);
    for (size_t w = 0; w < vw; ++w) b[w] = 0;
    std::optional<int> result =
        TrySeparators(f, /*start=*/0, /*depth=*/0, bag);
    top_ = mark;
    return result;
  }

  std::optional<int> TrySeparators(const Frame& f, int start, int depth,
                                   size_t bag) {
    if (budget_ != nullptr && !budget_->Charge()) return std::nullopt;
    if (depth > 0) {
      std::optional<int> nodes = CheckSeparator(f, bag);
      if (nodes.has_value()) return nodes;
    }
    if (depth == k_) return std::nullopt;
    const size_t vw = vw_, ew = ew_;
    size_t mark = top_;
    size_t next_bag = Push(vw);
    std::optional<int> nodes;
    for (int e = NextBit(f.candidates, ew, start); e >= 0;
         e = NextBit(f.candidates, ew, e + 1)) {
      uint64_t* nb = W(next_bag);
      const uint64_t* b = W(bag);
      const uint64_t* edge = Edge(e);
      for (size_t w = 0; w < vw; ++w) nb[w] = b[w] | edge[w];
      nodes = TrySeparators(f, e + 1, depth + 1, next_bag);
      if (nodes.has_value()) break;
    }
    top_ = mark;
    return nodes;
  }

  std::optional<int> CheckSeparator(const Frame& f, size_t bag) {
    if (budget_ != nullptr && !budget_->Charge()) return std::nullopt;
    const size_t vw = vw_, ew = ew_;
    {
      // The bag must cover the connector, and (progress condition) at
      // least one component vertex outside it, so every child
      // subproblem is strictly smaller and the recursion terminates.
      const uint64_t* b = W(bag);
      const uint64_t* conn = W(f.connector);
      const uint64_t* cv = W(f.comp_vertices);
      uint64_t covers_new = 0;
      for (size_t w = 0; w < vw; ++w) {
        if ((conn[w] & ~b[w]) != 0) return std::nullopt;
        covers_new |= cv[w] & ~conn[w] & b[w];
      }
      if (covers_new == 0) return std::nullopt;
    }
    // Split the remaining vertices into connected sub-components
    // (connectivity via the component's edges minus bag vertices);
    // each one found is taken out of `remaining`.
    size_t mark = top_;
    size_t remaining = Push(vw);
    size_t comp = Push(vw);
    size_t comp_edges = Push(ew);
    size_t sub_connector = Push(vw);
    {
      uint64_t* r = W(remaining);
      const uint64_t* cv = W(f.comp_vertices);
      const uint64_t* b = W(bag);
      for (size_t w = 0; w < vw; ++w) r[w] = cv[w] & ~b[w];
    }
    int total_nodes = 1;
    for (int seed = NextBit(remaining, vw, 0); seed >= 0;
         seed = NextBit(remaining, vw, seed + 1)) {
      uint64_t* r = W(remaining);
      uint64_t* c = W(comp);
      uint64_t* ce = W(comp_edges);
      uint64_t* sc = W(sub_connector);
      const uint64_t* b = W(bag);
      const uint64_t* ids = W(f.edge_ids);
      // Flood-fill one sub-component: absorb the non-bag vertices of
      // every edge that touches it until nothing grows.
      for (size_t w = 0; w < vw; ++w) {
        c[w] = w == static_cast<size_t>(seed) >> 6 ? 1ULL << (seed & 63) : 0;
      }
      for (bool grew = true; grew;) {
        grew = false;
        ForEachBit(ids, ew, [&](int e) {
          const uint64_t* edge = Edge(e);
          if (!Intersects(edge, c, vw)) return;
          for (size_t w = 0; w < vw; ++w) {
            uint64_t add = edge[w] & ~b[w] & ~c[w];
            c[w] |= add;
            grew |= add != 0;
          }
        });
      }
      // Edges and sub-connector of this component.
      for (size_t w = 0; w < vw; ++w) {
        r[w] &= ~c[w];
        sc[w] = 0;
      }
      for (size_t w = 0; w < ew; ++w) ce[w] = 0;
      ForEachBit(ids, ew, [&](int e) {
        const uint64_t* edge = Edge(e);
        if (!Intersects(edge, c, vw)) return;
        SetBit(ce, e);
        for (size_t w = 0; w < vw; ++w) sc[w] |= edge[w] & b[w];
      });
      std::optional<int> sub_nodes = Decompose(comp_edges, sub_connector);
      if (!sub_nodes.has_value()) {
        top_ = mark;
        return std::nullopt;
      }
      total_nodes += *sub_nodes;
    }
    top_ = mark;
    // Edges fully inside the bag are covered by this node.
    return total_nodes;
  }

  // ---- Memo: open addressing with linear probing, load <= 1/2 ----

  uint64_t HashKey(const uint64_t* edge_ids, const uint64_t* connector) const {
    uint64_t h = 0;
    for (size_t w = 0; w < ew_; ++w) h = Mix(h ^ edge_ids[w]);
    for (size_t w = 0; w < vw_; ++w) h = Mix(h ^ connector[w]);
    return h;
  }

  /// The slot holding the key, else the empty slot where it would go.
  size_t FindSlot(size_t edge_ids, size_t connector) {
    size_t cap = s_.memo_stamps.size();
    const uint64_t* ids = W(edge_ids);
    const uint64_t* conn = W(connector);
    size_t slot = static_cast<size_t>(HashKey(ids, conn)) & (cap - 1);
    while (s_.memo_stamps[slot] == s_.memo_epoch) {
      const uint64_t* key = s_.memo_keys.data() + slot * KeyWords();
      if (std::equal(ids, ids + ew_, key) &&
          std::equal(conn, conn + vw_, key + ew_)) {
        return slot;
      }
      slot = (slot + 1) & (cap - 1);
    }
    return slot;
  }

  void Memoize(size_t edge_ids, size_t connector, int nodes) {
    if (2 * (memo_live_ + 1) > s_.memo_stamps.size()) Grow();
    size_t slot = FindSlot(edge_ids, connector);
    if (s_.memo_stamps[slot] != s_.memo_epoch) ++memo_live_;
    s_.memo_stamps[slot] = s_.memo_epoch;
    s_.memo_nodes[slot] = nodes;
    uint64_t* key = s_.memo_keys.data() + slot * KeyWords();
    std::copy_n(W(edge_ids), ew_, key);
    std::copy_n(W(connector), vw_, key + ew_);
  }

  /// Doubles the table (64 slots when empty), re-inserting the live
  /// slots.
  void Grow() {
    size_t old_cap = s_.memo_stamps.size();
    size_t cap = std::max<size_t>(64, 2 * old_cap);
    size_t kw = KeyWords();
    std::vector<uint64_t> keys(cap * kw);
    std::vector<int> nodes(cap);
    std::vector<uint32_t> stamps(cap, 0);
    for (size_t old = 0; old < old_cap; ++old) {
      if (s_.memo_stamps[old] != s_.memo_epoch) continue;
      const uint64_t* key = s_.memo_keys.data() + old * kw;
      size_t slot = static_cast<size_t>(HashKey(key, key + ew_)) & (cap - 1);
      while (stamps[slot] == s_.memo_epoch) slot = (slot + 1) & (cap - 1);
      stamps[slot] = s_.memo_epoch;
      nodes[slot] = s_.memo_nodes[old];
      std::copy_n(key, kw, keys.data() + slot * kw);
    }
    s_.memo_keys = std::move(keys);
    s_.memo_nodes = std::move(nodes);
    s_.memo_stamps = std::move(stamps);
  }

  GhwScratch& s_;
  int m_;
  size_t vw_;
  size_t ew_;
  util::StepBudget* budget_;
  int k_ = 0;
  size_t top_ = 0;
  size_t memo_live_ = 0;
};

}  // namespace

GhwResult GeneralizedHypertreeWidth(const Hypergraph& hg, GhwScratch& scratch,
                                    int max_k, util::StepBudget* budget) {
  GhwResult result;
  int m = hg.num_edges();
  if (m == 0) return result;
  if (hg.IsAlphaAcyclic(scratch.words)) {
    result.width = 1;
    result.decomposition_nodes = m;
    return result;
  }

  size_t vw = WordsFor(hg.num_nodes());
  scratch.edge_masks.assign(static_cast<size_t>(m) * vw, 0);
  for (int e = 0; e < m; ++e) {
    uint64_t* row = scratch.edge_masks.data() + static_cast<size_t>(e) * vw;
    for (int v : hg.edge(e)) SetBit(row, v);
  }

  DetKDecomp solver(scratch, m, vw, budget);
  for (int k = 2; k <= max_k; ++k) {
    std::optional<int> nodes = solver.Solve(k);
    if (nodes.has_value()) {
      result.width = k;
      result.decomposition_nodes = *nodes;
      return result;
    }
    if (budget != nullptr && budget->exhausted()) break;
  }
  result.width = max_k + 1;
  result.exact = false;
  result.abandoned = budget != nullptr && budget->exhausted();
  return result;
}

GhwResult GeneralizedHypertreeWidth(const Hypergraph& hg, int max_k,
                                    util::StepBudget* budget) {
  GhwScratch scratch;
  return GeneralizedHypertreeWidth(hg, scratch, max_k, budget);
}

}  // namespace sparqlog::width
