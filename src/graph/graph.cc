#include "graph/graph.h"

#include <algorithm>

namespace sparqlog::graph {

namespace {
constexpr int kSmallLimit = 64;
}  // namespace

void Graph::Reset(int num_nodes) {
  num_nodes_ = num_nodes;
  num_edges_ = 0;
  self_loops_.clear();
  small_ = num_nodes <= kSmallLimit;
  if (small_) {
    bits_.assign(static_cast<size_t>(num_nodes), 0);
    adj_.clear();
  } else {
    bits_.clear();
    adj_.resize(static_cast<size_t>(num_nodes));
    for (auto& a : adj_) a.clear();
  }
}

int Graph::AddNode() {
  if (small_ && num_nodes_ == kSmallLimit) Spill();
  ++num_nodes_;
  if (small_) {
    bits_.push_back(0);
  } else {
    adj_.emplace_back();
  }
  return num_nodes_ - 1;
}

void Graph::Spill() {
  adj_.assign(bits_.size(), {});
  for (size_t v = 0; v < bits_.size(); ++v) {
    uint64_t w = bits_[v];
    adj_[v].reserve(static_cast<size_t>(std::popcount(w)));
    while (w != 0) {
      adj_[v].push_back(std::countr_zero(w));
      w &= w - 1;
    }
  }
  bits_.clear();
  small_ = false;
}

void Graph::AddEdge(int u, int v) {
  if (u == v) {
    auto it = std::lower_bound(self_loops_.begin(), self_loops_.end(), v);
    if (it == self_loops_.end() || *it != v) {
      self_loops_.insert(it, v);
      ++num_edges_;
    }
    return;
  }
  if (small_) {
    uint64_t& bu = bits_[static_cast<size_t>(u)];
    if ((bu >> v) & 1) return;
    bu |= 1ULL << v;
    bits_[static_cast<size_t>(v)] |= 1ULL << u;
    ++num_edges_;
    return;
  }
  std::vector<int>& au = adj_[static_cast<size_t>(u)];
  auto it = std::lower_bound(au.begin(), au.end(), v);
  if (it != au.end() && *it == v) return;
  au.insert(it, v);
  std::vector<int>& av = adj_[static_cast<size_t>(v)];
  av.insert(std::lower_bound(av.begin(), av.end(), u), u);
  ++num_edges_;
}

bool Graph::HasEdge(int u, int v) const {
  if (u == v) return HasSelfLoop(v);
  if (small_) return (bits_[static_cast<size_t>(u)] >> v) & 1;
  const std::vector<int>& au = adj_[static_cast<size_t>(u)];
  return std::binary_search(au.begin(), au.end(), v);
}

bool Graph::HasSelfLoop(int v) const {
  return std::binary_search(self_loops_.begin(), self_loops_.end(), v);
}

bool Graph::IsAcyclic(bool ignore_self_loops) const {
  if (!ignore_self_loops && !self_loops_.empty()) return false;
  // A graph is a forest iff every component has |E| = |V| - 1, i.e.
  // globally |E_proper| = |V| - #components. Count components with a
  // plain DFS over a seen bitmap.
  std::vector<bool> seen(static_cast<size_t>(num_nodes_), false);
  std::vector<int> frontier;
  int components = 0;
  for (int start = 0; start < num_nodes_; ++start) {
    if (seen[static_cast<size_t>(start)]) continue;
    ++components;
    frontier.clear();
    frontier.push_back(start);
    seen[static_cast<size_t>(start)] = true;
    while (!frontier.empty()) {
      int v = frontier.back();
      frontier.pop_back();
      for (int w : Neighbors(v)) {
        if (!seen[static_cast<size_t>(w)]) {
          seen[static_cast<size_t>(w)] = true;
          frontier.push_back(w);
        }
      }
    }
  }
  return num_proper_edges() == num_nodes_ - components;
}

int Graph::Girth(GirthScratch& s, util::StepBudget* budget) const {
  if (!self_loops_.empty()) return 1;
  int best = 0;
  int n = num_nodes_;
  s.dist.resize(static_cast<size_t>(n));
  s.parent.resize(static_cast<size_t>(n));
  s.queue.resize(static_cast<size_t>(n));
  for (int start = 0; start < n; ++start) {
    // BFS from `start`; a non-tree edge closing at depths d1, d2 yields a
    // cycle of length d1 + d2 + 1 through `start`'s BFS tree.
    std::fill(s.dist.begin(), s.dist.end(), -1);
    std::fill(s.parent.begin(), s.parent.end(), -1);
    size_t head = 0, tail = 0;
    s.dist[static_cast<size_t>(start)] = 0;
    s.queue[tail++] = start;
    while (head < tail) {
      if (budget != nullptr && !budget->Charge()) return -1;
      int v = s.queue[head++];
      for (int w : Neighbors(v)) {
        if (s.dist[static_cast<size_t>(w)] < 0) {
          s.dist[static_cast<size_t>(w)] = s.dist[static_cast<size_t>(v)] + 1;
          s.parent[static_cast<size_t>(w)] = v;
          s.queue[tail++] = w;
        } else if (w != s.parent[static_cast<size_t>(v)]) {
          int len = s.dist[static_cast<size_t>(v)] +
                    s.dist[static_cast<size_t>(w)] + 1;
          if (best == 0 || len < best) best = len;
        }
      }
    }
  }
  return best;
}

int Graph::Girth() const {
  GirthScratch scratch;
  return Girth(scratch);
}

}  // namespace sparqlog::graph
