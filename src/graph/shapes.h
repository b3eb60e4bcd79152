#ifndef SPARQLOG_GRAPH_SHAPES_H_
#define SPARQLOG_GRAPH_SHAPES_H_

#include <utility>
#include <vector>

#include "graph/graph.h"

namespace sparqlog::graph {

/// Shape-membership flags for a canonical graph, matching the cumulative
/// shape analysis of Table 4. Classes nest:
///   single edge ⊆ chain ⊆ chain set ⊆ forest; star ⊆ tree ⊆ forest;
///   cycle ⊆ petal-graph ⊆ flower ⊆ flower set; forest ⊆ flower set.
struct ShapeClass {
  bool single_edge = false;  ///< one edge, two nodes
  bool chain = false;        ///< connected path (Section 5.1)
  bool chain_set = false;    ///< every component a chain
  bool star = false;         ///< tree with exactly one node of degree >= 3
  bool tree = false;         ///< connected and acyclic
  bool forest = false;       ///< acyclic
  bool cycle = false;        ///< single simple cycle
  /// Definition 6.1: connected, with a center x such that every cyclic
  /// block is a petal (two nodes joined by >= 2 internally node-disjoint
  /// paths) attached at x, every self-loop is at x, and all acyclic
  /// parts attach to the rest at x only.
  bool flower = false;
  bool flower_set = false;   ///< every component a flower
  int girth = 0;             ///< shortest cycle length; 0 if acyclic
  /// True if the girth BFS ran out of its step budget; `girth` is then
  /// 0 and the query belongs in the abandoned bucket.
  bool abandoned = false;
};

/// Recycled working state for ClassifyShape: a CSR adjacency snapshot,
/// component labels with per-component aggregates, girth BFS buffers,
/// an iterative block (biconnected-component) DFS, and the per-component
/// flower-candidate sets, each a sorted node list at every graph size.
/// One instance per analyzer; cleared, not reallocated, between queries.
struct ShapeScratch {
  // CSR adjacency snapshot of the graph under classification.
  std::vector<int> csr_off, csr_adj;
  // Component labeling and per-component aggregates.
  std::vector<int> comp_id;
  std::vector<int> stack;
  std::vector<int> comp_size, comp_edges2, comp_maxdeg;
  std::vector<int> comp_loop_nodes, comp_loop_first;
  // Girth BFS buffers.
  Graph::GirthScratch girth;
  // Iterative Tarjan block decomposition.
  struct Frame {
    int v;
    int parent;
    int it;
    bool skipped;
  };
  std::vector<int> disc, low;
  std::vector<std::pair<int, int>> edge_stack;
  std::vector<Frame> frames;
  std::vector<std::pair<int, int>> block;
  std::vector<int> block_nodes, block_deg;
  std::vector<int> centers_tmp;
  // Per-component flower-candidate state.
  std::vector<unsigned char> comp_flower_bad, comp_cand_init;
  std::vector<std::vector<int>> comp_cand_list;  // sorted petal centers
  // Bridge edges (blocks of one edge) and their union-find components:
  // the "rest" graph of the flower definition once petal edges are gone.
  std::vector<std::pair<int, int>> bridge_edges;
  std::vector<int> bridge_parent;
  std::vector<int> bcomp_size;
  std::vector<int> comp_nontrivial_bcomp;  // -1 none, -2 several, else root
};

/// Classifies a canonical graph. Empty graphs (queries with no qualifying
/// edges) report all tree-like flags true except single_edge/chain/star.
/// The scratch overload performs no heap allocation after warmup; the
/// plain overload allocates a scratch per call (tests, examples).
///
/// `girth_budget` (optional) bounds the all-pairs girth BFS — the only
/// super-linear step; on exhaustion the result is marked `abandoned`.
ShapeClass ClassifyShape(const Graph& g, ShapeScratch& scratch,
                         util::StepBudget* girth_budget = nullptr);
ShapeClass ClassifyShape(const Graph& g);

}  // namespace sparqlog::graph

#endif  // SPARQLOG_GRAPH_SHAPES_H_
