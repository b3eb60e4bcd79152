#ifndef SPARQLOG_TESTING_REFERENCE_ANALYSIS_H_
#define SPARQLOG_TESTING_REFERENCE_ANALYSIS_H_

#include <set>
#include <vector>

#include "graph/canonical.h"
#include "graph/graph.h"
#include "graph/shapes.h"
#include "rdf/term.h"
#include "sparql/ast.h"
#include "width/hypertree.h"
#include "width/treewidth.h"

namespace sparqlog::testing::reference {

// ---------------------------------------------------------------------------
// The pre-change structural-analysis implementations, retained verbatim
// (modulo renames) as the differential oracle for the allocation-lean
// rewrite: std::map-keyed term interning over concatenated NodeKey
// strings, std::set adjacency, set-copying kernelization, and the
// set-based det-k-decomp search. The property tests replay old-vs-new
// on random graphs and on every unique query of the paper corpus, and
// fuzz phase 5 on fuzzed queries. Do not "improve" this code — its
// value is that it stays exactly what shipped before the rewrite.
// ---------------------------------------------------------------------------

/// The pre-change Graph: set-semantics adjacency, one std::set per node.
class ReferenceGraph {
 public:
  ReferenceGraph() = default;
  explicit ReferenceGraph(int num_nodes)
      : adj_(static_cast<size_t>(num_nodes)) {}

  int AddNode();
  void AddEdge(int u, int v);

  int num_nodes() const { return static_cast<int>(adj_.size()); }
  int num_edges() const { return num_edges_; }
  int num_proper_edges() const {
    return num_edges_ - static_cast<int>(self_loops_.size());
  }

  bool HasEdge(int u, int v) const;
  bool HasSelfLoop(int v) const { return self_loops_.count(v) > 0; }
  const std::set<int>& self_loops() const { return self_loops_; }
  const std::set<int>& Neighbors(int v) const {
    return adj_[static_cast<size_t>(v)];
  }
  int Degree(int v) const {
    return static_cast<int>(adj_[static_cast<size_t>(v)].size());
  }

  std::vector<std::vector<int>> ConnectedComponents() const;
  ReferenceGraph InducedSubgraph(const std::vector<int>& nodes,
                                 std::vector<int>* index_map = nullptr) const;
  bool IsAcyclic(bool ignore_self_loops = false) const;
  int Girth() const;

 private:
  std::vector<std::set<int>> adj_;
  std::set<int> self_loops_;
  int num_edges_ = 0;
};

/// The pre-change Hypergraph: one std::set<int> per hyperedge.
class ReferenceHypergraph {
 public:
  ReferenceHypergraph() = default;

  void AddEdge(std::set<int> nodes);

  int num_nodes() const { return num_nodes_; }
  int num_edges() const { return static_cast<int>(edges_.size()); }
  const std::vector<std::set<int>>& edges() const { return edges_; }

  bool IsAlphaAcyclic() const;

 private:
  std::vector<std::set<int>> edges_;
  int num_nodes_ = 0;
};

/// Pre-change canonical graph result (node_terms are owned copies, the
/// way the old builder materialized them).
struct ReferenceCanonicalGraph {
  ReferenceGraph graph;
  std::vector<rdf::Term> node_terms;
  bool valid = true;
};

/// Pre-change canonical-graph builder: NodeKey string per term, one
/// std::map id table per query.
ReferenceCanonicalGraph BuildCanonicalGraph(
    const std::vector<const sparql::TriplePattern*>& triples,
    const std::vector<const sparql::Expr*>& filters,
    const graph::CanonicalOptions& options = graph::CanonicalOptions());

/// Pre-change canonical-hypergraph builder.
ReferenceHypergraph BuildCanonicalHypergraph(
    const std::vector<const sparql::TriplePattern*>& triples,
    const std::vector<const sparql::Expr*>& filters,
    const graph::CanonicalOptions& options = graph::CanonicalOptions());

/// Pre-change shape classifier (Blocks/petal/flower over std::set).
graph::ShapeClass ClassifyShape(const ReferenceGraph& g);

/// Pre-change treewidth: set-copying kernelization with full re-scans,
/// then the bitset elimination solver.
width::TreewidthResult Treewidth(const ReferenceGraph& g);
bool TreewidthAtMost2(const ReferenceGraph& g);

/// Pre-change generalized hypertree width: set-based det-k-decomp.
width::GhwResult GeneralizedHypertreeWidth(const ReferenceHypergraph& hg,
                                           int max_k = 4);

/// Copies a (new, flat) Graph into the reference representation so
/// property tests can run both classifiers on the same random graph.
ReferenceGraph FromGraph(const graph::Graph& g);

}  // namespace sparqlog::testing::reference

#endif  // SPARQLOG_TESTING_REFERENCE_ANALYSIS_H_
