#include "graph/hypergraph.h"

#include <algorithm>

namespace sparqlog::graph {

void Hypergraph::Reset() {
  pool_.clear();
  offsets_.resize(1);
  offsets_[0] = 0;
  num_nodes_ = 0;
}

void Hypergraph::AddEdge(std::vector<int> nodes) {
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  if (nodes.empty()) return;
  AddEdgeSorted(nodes.data(), nodes.data() + nodes.size());
}

void Hypergraph::AddEdgeSorted(const int* begin, const int* end) {
  if (begin == end) return;
  num_nodes_ = std::max(num_nodes_, *(end - 1) + 1);
  pool_.insert(pool_.end(), begin, end);
  offsets_.push_back(static_cast<int>(pool_.size()));
}

bool Hypergraph::IsAlphaAcyclic(std::vector<uint64_t>& words) const {
  // GYO reduction: repeatedly (1) delete nodes that occur in exactly one
  // edge, (2) delete edges contained in another remaining edge. The
  // hypergraph is alpha-acyclic iff this empties all edges. Deleted
  // edges are zero masks.
  const size_t m = static_cast<size_t>(num_edges());
  const size_t vw = (static_cast<size_t>(num_nodes_) + 63) / 64;
  if (words.size() < (m + 2) * vw) words.resize((m + 2) * vw);
  std::fill_n(words.begin(), (m + 2) * vw, 0);
  uint64_t* masks = words.data();
  for (size_t e = 0; e < m; ++e) {
    for (int v : edge(static_cast<int>(e))) {
      masks[e * vw + static_cast<size_t>(v >> 6)] |= 1ULL << (v & 63);
    }
  }
  uint64_t* seen_once = masks + m * vw;
  uint64_t* seen_twice = seen_once + vw;
  auto row = [masks, vw](size_t e) { return masks + e * vw; };
  auto empty = [vw](const uint64_t* r) {
    return std::all_of(r, r + vw, [](uint64_t w) { return w == 0; });
  };
  bool changed = true;
  while (changed) {
    changed = false;
    // Rule 1: nodes occurring in exactly one live edge.
    std::fill_n(seen_once, 2 * vw, 0);
    for (size_t e = 0; e < m; ++e) {
      for (size_t w = 0; w < vw; ++w) {
        uint64_t r = row(e)[w];
        seen_twice[w] |= seen_once[w] & r;
        seen_once[w] |= r;
      }
    }
    uint64_t* singles = seen_once;
    for (size_t w = 0; w < vw; ++w) singles[w] &= ~seen_twice[w];
    for (size_t e = 0; e < m; ++e) {
      for (size_t w = 0; w < vw; ++w) {
        if ((row(e)[w] & singles[w]) != 0) {
          row(e)[w] &= ~singles[w];
          changed = true;
        }
      }
    }
    // Rule 2: edges contained in another live edge (ties between
    // identical edges broken by index). A live edge's superset is live.
    for (size_t i = 0; i < m; ++i) {
      uint64_t* ri = row(i);
      if (empty(ri)) continue;
      for (size_t j = 0; j < m; ++j) {
        const uint64_t* rj = row(j);
        size_t w = 0;
        while (w < vw && (ri[w] & ~rj[w]) == 0) ++w;
        if (w < vw || i == j) continue;
        if (i > j || !std::equal(ri, ri + vw, rj)) {
          std::fill_n(ri, vw, 0);
          changed = true;
          break;
        }
      }
    }
  }
  for (size_t e = 0; e < m; ++e) {
    if (!empty(row(e))) return false;
  }
  return true;
}

bool Hypergraph::IsAlphaAcyclic() const {
  std::vector<uint64_t> words;
  return IsAlphaAcyclic(words);
}

}  // namespace sparqlog::graph
