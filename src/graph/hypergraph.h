#ifndef SPARQLOG_GRAPH_HYPERGRAPH_H_
#define SPARQLOG_GRAPH_HYPERGRAPH_H_

#include <cstdint>
#include <span>
#include <vector>

namespace sparqlog::graph {

/// A finite hypergraph: nodes 0..n-1 and hyperedges as node sets
/// (Section 5 of the paper: nodes are variables/blank nodes of a pattern,
/// one hyperedge per triple pattern).
///
/// Edges live in one flat CSR pool (ascending node ids within each
/// edge), so a scratch-held hypergraph rebuilds per query without any
/// heap traffic after warmup. Duplicate edges are kept (they are
/// harmless for width computations); empty edges are ignored.
class Hypergraph {
 public:
  Hypergraph() = default;

  /// Clears all edges, keeping pool capacity (scratch reuse).
  void Reset();

  /// Adds a hyperedge; nodes are created implicitly. Sorts and
  /// de-duplicates `nodes` (set semantics within the edge).
  void AddEdge(std::vector<int> nodes);

  /// Hot-path form: `[begin, end)` must be strictly ascending.
  void AddEdgeSorted(const int* begin, const int* end);

  int num_nodes() const { return num_nodes_; }
  int num_edges() const { return static_cast<int>(offsets_.size()) - 1; }

  /// Nodes of edge `e`, ascending.
  std::span<const int> edge(int e) const {
    size_t lo = static_cast<size_t>(offsets_[static_cast<size_t>(e)]);
    size_t hi = static_cast<size_t>(offsets_[static_cast<size_t>(e) + 1]);
    return std::span<const int>(pool_.data() + lo, hi - lo);
  }

  /// True iff the hypergraph is alpha-acyclic (GYO reduction succeeds),
  /// which is equivalent to generalized hypertree width <= 1 for
  /// non-trivial hypergraphs. The reduction runs to a fixpoint over one
  /// ceil(n/64)-word vertex mask per edge, held in `words`; the
  /// overload taking it allocates nothing once `words` is warm.
  bool IsAlphaAcyclic(std::vector<uint64_t>& words) const;
  bool IsAlphaAcyclic() const;

 private:
  std::vector<int> pool_;
  std::vector<int> offsets_ = {0};
  int num_nodes_ = 0;
};

}  // namespace sparqlog::graph

#endif  // SPARQLOG_GRAPH_HYPERGRAPH_H_
