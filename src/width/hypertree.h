#ifndef SPARQLOG_WIDTH_HYPERTREE_H_
#define SPARQLOG_WIDTH_HYPERTREE_H_

#include <cstdint>
#include <vector>

#include "graph/hypergraph.h"
#include "util/budget.h"

namespace sparqlog::width {

/// Result of a generalized hypertree width computation.
struct GhwResult {
  /// The smallest k <= max_k admitting a generalized hypertree
  /// decomposition of width k, or max_k + 1 if none was found.
  int width = 0;
  /// Number of nodes in the decomposition found (Section 6.2 uses this
  /// as a proxy for how well caching can be exploited [18]). For
  /// width-1 components this equals the number of hyperedges.
  int decomposition_nodes = 0;
  /// False if the search was truncated (never for query-sized inputs).
  bool exact = true;
  /// True if a step budget ran out mid-search; `width` is then only the
  /// trivial max_k + 1 bound and the query belongs in the abandoned
  /// bucket, not in any width class.
  bool abandoned = false;
};

/// Recycled working state for GeneralizedHypertreeWidth. Vertex sets
/// are ceil(n/64) words and edge-id sets ceil(m/64) words, fixed once
/// per hypergraph. Nothing is freed between queries, so a warm scratch
/// computes without heap allocation.
struct GhwScratch {
  /// Vertex words of each hyperedge, one row of ceil(n/64) words per
  /// edge.
  std::vector<uint64_t> edge_masks;
  /// The GYO working masks, then the det-k-decomp word stack: each
  /// recursion level pushes its component, candidate, bag and
  /// sub-component sets and pops them on return.
  std::vector<uint64_t> words;
  /// The det-k-decomp memo, a flat open-addressing table keyed by
  /// (edge-id words, connector words). A slot is live iff its stamp
  /// equals `memo_epoch`, so clearing it for the next k is one
  /// increment; the table only grows.
  std::vector<uint64_t> memo_keys;
  std::vector<int> memo_nodes;  // decomposition nodes, -1 = none
  std::vector<uint32_t> memo_stamps;
  uint32_t memo_epoch = 0;
};

/// Computes the generalized hypertree width of `hg`, trying k = 1 (GYO
/// reduction / alpha-acyclicity) and then a det-k-decomp-style exact
/// search over <= k-edge separators for k = 2..max_k, in the spirit of
/// the detkdecomp tool the paper uses [10]. Components, bags,
/// connectors, separators and memo keys are multi-word bitsets; the
/// scratch overload reuses every buffer across queries.
///
/// `budget` (optional) bounds the separator search: one step per
/// TrySeparators/CheckSeparator call. On exhaustion the search unwinds
/// without memoizing partial answers and the result is marked
/// `abandoned` — deterministically for a given hypergraph and limit,
/// since the enumeration order is fixed.
GhwResult GeneralizedHypertreeWidth(const graph::Hypergraph& hg,
                                    GhwScratch& scratch, int max_k = 4,
                                    util::StepBudget* budget = nullptr);
GhwResult GeneralizedHypertreeWidth(const graph::Hypergraph& hg,
                                    int max_k = 4,
                                    util::StepBudget* budget = nullptr);

}  // namespace sparqlog::width

#endif  // SPARQLOG_WIDTH_HYPERTREE_H_
