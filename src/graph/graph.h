#ifndef SPARQLOG_GRAPH_GRAPH_H_
#define SPARQLOG_GRAPH_GRAPH_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/budget.h"

namespace sparqlog::graph {

/// Read-only view over one node's neighbor list, iterated in ascending
/// order. Backed either by a 64-bit adjacency mask (small graphs) or by
/// a sorted int span (large graphs); both iterate identically, so
/// algorithms written against the view are representation-agnostic.
class NeighborView {
 public:
  class iterator {
   public:
    iterator(uint64_t word, const int* ptr) : word_(word), ptr_(ptr) {}
    int operator*() const {
      return ptr_ != nullptr ? *ptr_ : std::countr_zero(word_);
    }
    iterator& operator++() {
      if (ptr_ != nullptr) {
        ++ptr_;
      } else {
        word_ &= word_ - 1;  // clear lowest set bit
      }
      return *this;
    }
    bool operator==(const iterator& o) const {
      return ptr_ == o.ptr_ && word_ == o.word_;
    }
    bool operator!=(const iterator& o) const { return !(*this == o); }

   private:
    uint64_t word_;
    const int* ptr_;
  };

  explicit NeighborView(uint64_t word) : word_(word) {}
  NeighborView(const int* begin, const int* end) : begin_(begin), end_(end) {}

  iterator begin() const {
    return begin_ != nullptr ? iterator(0, begin_) : iterator(word_, nullptr);
  }
  iterator end() const {
    return begin_ != nullptr ? iterator(0, end_) : iterator(0, nullptr);
  }
  int size() const {
    return begin_ != nullptr ? static_cast<int>(end_ - begin_)
                             : std::popcount(word_);
  }
  bool empty() const { return size() == 0; }

 private:
  uint64_t word_ = 0;
  const int* begin_ = nullptr;
  const int* end_ = nullptr;
};

/// A finite undirected graph with set-semantics edges (no multi-edges)
/// and optional self-loops, matching the paper's canonical-graph
/// definition in Section 5 (an edge is a set of one or two nodes).
///
/// Storage is flat: graphs of <= 64 nodes (every query graph the paper
/// measures) keep adjacency as one 64-bit mask per node — O(1) edge
/// insert/test, degree by popcount, and a single reusable buffer so a
/// scratch-held Graph builds queries with zero heap traffic after
/// warmup. Larger graphs spill to sorted per-node vectors with the same
/// observable behavior (ascending neighbor iteration).
class Graph {
 public:
  Graph() = default;
  explicit Graph(int num_nodes) { Reset(num_nodes); }

  /// Clears the graph to `num_nodes` isolated nodes, keeping allocated
  /// buffer capacity (scratch reuse in the per-query hot path).
  void Reset(int num_nodes = 0);

  /// Adds a node, returning its index.
  int AddNode();

  /// Adds the undirected edge {u, v}; u == v adds a self-loop.
  /// Duplicate edges are ignored (set semantics).
  void AddEdge(int u, int v);

  int num_nodes() const { return num_nodes_; }
  /// Number of edges, counting self-loops.
  int num_edges() const { return num_edges_; }
  /// Number of edges {u, v} with u != v.
  int num_proper_edges() const {
    return num_edges_ - static_cast<int>(self_loops_.size());
  }

  bool HasEdge(int u, int v) const;
  bool HasSelfLoop(int v) const;
  /// Nodes carrying a self-loop, ascending.
  const std::vector<int>& self_loops() const { return self_loops_; }

  /// Neighbors of v, ascending, excluding v itself.
  NeighborView Neighbors(int v) const {
    if (small_) return NeighborView(bits_[static_cast<size_t>(v)]);
    const std::vector<int>& a = adj_[static_cast<size_t>(v)];
    return NeighborView(a.data(), a.data() + a.size());
  }
  /// Degree of v counting each proper incident edge once (self-loops do
  /// not contribute; shape definitions in Section 6 speak of neighbors).
  int Degree(int v) const {
    return small_ ? std::popcount(bits_[static_cast<size_t>(v)])
                  : static_cast<int>(adj_[static_cast<size_t>(v)].size());
  }

  /// True iff adjacency is held as 64-bit masks (num_nodes() <= 64).
  bool small() const { return small_; }
  /// The adjacency mask of v; only valid when small().
  uint64_t AdjacencyBits(int v) const { return bits_[static_cast<size_t>(v)]; }

  /// True iff the graph has no cycle (ignoring self-loops if
  /// `ignore_self_loops`, else a self-loop counts as a cycle).
  bool IsAcyclic(bool ignore_self_loops = false) const;

  /// Recycled BFS buffers for Girth (one per analyzer scratch).
  struct GirthScratch {
    std::vector<int> dist, parent, queue;
  };

  /// Length of the shortest cycle; 0 if acyclic. A self-loop is a cycle
  /// of length 1. Runs BFS from every node: O(V * E). The scratch
  /// overload performs no heap allocation after warmup.
  ///
  /// `budget` (optional) charges one step per BFS node expansion; on
  /// exhaustion the search stops and -1 is returned (abandoned — the
  /// caller must not interpret it as a girth).
  int Girth(GirthScratch& scratch, util::StepBudget* budget = nullptr) const;
  int Girth() const;

 private:
  void Spill();  // migrate bits_ -> adj_ when node 65 arrives

  bool small_ = true;
  int num_nodes_ = 0;
  int num_edges_ = 0;
  std::vector<uint64_t> bits_;        // small graphs: adjacency masks
  std::vector<std::vector<int>> adj_; // large graphs: sorted neighbors
  std::vector<int> self_loops_;       // sorted ascending
};

}  // namespace sparqlog::graph

#endif  // SPARQLOG_GRAPH_GRAPH_H_
