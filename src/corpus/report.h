#ifndef SPARQLOG_CORPUS_REPORT_H_
#define SPARQLOG_CORPUS_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "analysis/features.h"
#include "analysis/operator_set.h"
#include "corpus/analysis_scratch.h"
#include "fragments/fragment.h"
#include "graph/shapes.h"
#include "paths/path_class.h"
#include "rdf/dictionary.h"
#include "sparql/ast.h"
#include "util/fields.h"
#include "util/histogram.h"
#include "util/status.h"
#include "width/hypertree.h"
#include "width/treewidth.h"

namespace sparqlog::corpus {

/// Per-kernel step budgets for one query's structural analysis
/// (0 = unlimited, the default — identical behaviour to the unbudgeted
/// analyzer). Each query gets a fresh budget per kernel, so the
/// complete/abandon verdict depends only on the canonical query and the
/// limits — never on scheduling — which keeps merged digests
/// bit-reproducible (see DESIGN.md "Failure model").
struct AnalysisLimits {
  /// det-k-decomp separator search (TrySeparators + CheckSeparator calls).
  uint64_t ghw_steps = 0;
  /// Treewidth branch-and-bound (Search nodes).
  uint64_t treewidth_steps = 0;
  /// Girth all-pairs BFS (node expansions).
  uint64_t girth_steps = 0;

  bool any() const {
    return ghw_steps != 0 || treewidth_steps != 0 || girth_steps != 0;
  }
};

// Each aggregate lists its fields once (`Fields`, util/fields.h): that
// list is its merge, snapshot and digest order.

/// Keyword counters (Table 2 / Table 7).
struct KeywordCounts {
  uint64_t total = 0;
  uint64_t select = 0, ask = 0, describe = 0, construct = 0;
  uint64_t distinct = 0, limit = 0, offset = 0, order_by = 0, reduced = 0;
  uint64_t filter = 0, conj = 0, union_ = 0, optional = 0, graph = 0;
  uint64_t not_exists = 0, minus = 0, exists = 0;
  uint64_t count = 0, max = 0, min = 0, avg = 0, sum = 0;
  uint64_t group_by = 0, having = 0;
  uint64_t service = 0, bind = 0, values = 0;

  static auto Fields(auto& s) {
    return util::fields::List(
        s.total, s.select, s.ask, s.describe, s.construct, s.distinct,
        s.limit, s.offset, s.order_by, s.reduced, s.filter, s.conj, s.union_,
        s.optional, s.graph, s.not_exists, s.minus, s.exists, s.count, s.max,
        s.min, s.avg, s.sum, s.group_by, s.having, s.service, s.bind,
        s.values);
  }
};

/// Per-dataset triple statistics (Figure 1 / Figure 8).
struct TripleStats {
  /// Histogram over Select/Ask queries: buckets 0..10 plus 11+.
  util::BucketHistogram histogram{11};
  uint64_t select_ask = 0;   ///< Select/Ask query count
  uint64_t all_queries = 0;  ///< all queries of the dataset
  uint64_t triple_sum = 0;   ///< summed over all queries (Avg#T)
  uint64_t max_triples = 0;

  static auto Fields(auto& s) {
    return util::fields::List(s.select_ask, s.all_queries, s.triple_sum,
                              util::fields::Max{s.max_triples}, s.histogram);
  }

  double SelectAskShare() const {
    return all_queries == 0
               ? 0.0
               : static_cast<double>(select_ask) /
                     static_cast<double>(all_queries);
  }
  double AvgTriples() const {
    return all_queries == 0
               ? 0.0
               : static_cast<double>(triple_sum) /
                     static_cast<double>(all_queries);
  }
};

/// Projection / subquery statistics (Section 4.4).
struct ProjectionStats {
  uint64_t total = 0;
  uint64_t with_projection = 0;
  uint64_t select_with_projection = 0;
  uint64_t ask_with_projection = 0;
  uint64_t indeterminate = 0;
  uint64_t with_subqueries = 0;

  static auto Fields(auto& s) {
    return util::fields::List(s.total, s.with_projection,
                              s.select_with_projection, s.ask_with_projection,
                              s.indeterminate, s.with_subqueries);
  }
};

/// Fragment statistics (Section 5.2 / Figure 5).
struct FragmentStats {
  uint64_t select_ask = 0;
  uint64_t aof = 0, cq = 0, cpf = 0, cqf = 0, well_designed = 0, cqof = 0;
  uint64_t wide_interface = 0;  ///< interface width > 1 (paper: 310)
  /// Size histograms (number of triples: 1..10, 11+) per fragment.
  util::BucketHistogram cq_sizes{11};
  util::BucketHistogram cqf_sizes{11};
  util::BucketHistogram cqof_sizes{11};

  static auto Fields(auto& s) {
    return util::fields::List(s.select_ask, s.aof, s.cq, s.cpf, s.cqf,
                              s.well_designed, s.cqof, s.wide_interface,
                              s.cq_sizes, s.cqf_sizes, s.cqof_sizes);
  }
};

/// Shape statistics for one fragment column of Table 4 / Table 9.
struct ShapeCounts {
  uint64_t total = 0;
  uint64_t single_edge = 0, chain = 0, chain_set = 0, star = 0, tree = 0,
           forest = 0, cycle = 0, flower = 0, flower_set = 0;
  uint64_t treewidth_le2 = 0, treewidth_3 = 0, treewidth_gt3 = 0;
  /// Girth histogram for cyclic queries (Section 6.1: shortest cycles).
  std::map<int, uint64_t> girth;
  /// Single-edge queries using constants (Section 6.1: 78.70%).
  uint64_t single_edge_with_constants = 0;

  static auto Fields(auto& s) {
    return util::fields::List(
        s.total, s.single_edge, s.chain, s.chain_set, s.star, s.tree,
        s.forest, s.cycle, s.flower, s.flower_set, s.treewidth_le2,
        s.treewidth_3, s.treewidth_gt3, s.single_edge_with_constants,
        s.girth);
  }
};

/// Hypergraph statistics for variable-predicate CQOF queries
/// (Section 6.2).
struct HypergraphStats {
  uint64_t total = 0;
  uint64_t ghw1 = 0, ghw2 = 0, ghw3 = 0, ghw_more = 0;
  uint64_t decompositions_gt10_nodes = 0;
  uint64_t decompositions_gt100_nodes = 0;

  static auto Fields(auto& s) {
    return util::fields::List(s.total, s.ghw1, s.ghw2, s.ghw3, s.ghw_more,
                              s.decompositions_gt10_nodes,
                              s.decompositions_gt100_nodes);
  }
};

/// Property-path statistics (Table 5 / Figure 10).
struct PathStats {
  uint64_t total_paths = 0;
  uint64_t trivial_negated = 0;  ///< !a
  uint64_t trivial_inverse = 0;  ///< ^a
  uint64_t navigational = 0;
  uint64_t with_inverse = 0;  ///< reverse nested in complex expressions
  uint64_t not_ctract = 0;
  std::map<paths::PathType, uint64_t> by_type;

  static auto Fields(auto& s) {
    return util::fields::List(s.total_paths, s.trivial_negated,
                              s.trivial_inverse, s.navigational,
                              s.with_inverse, s.not_ctract, s.by_type);
  }
};

/// One-pass analyzer: feed unique (or valid) queries, read every table.
class CorpusAnalyzer {
  friend struct util::fields::Access;
  /// Every aggregate, in snapshot and digest order: MergeFrom,
  /// SaveState/LoadState and pipeline::StatisticsDigest derive from this
  /// list. (Declared first: the inline members below use it.)
  static auto Fields(auto& a) {
    return util::fields::List(a.keywords_, a.opsets_, a.projection_,
                              a.fragments_, a.cq_shapes_, a.cqf_shapes_,
                              a.cqof_shapes_, a.hypergraphs_, a.paths_,
                              a.per_dataset_, util::fields::Skip{a.scratch_});
  }

 public:
  CorpusAnalyzer() = default;

  /// Analyzes one query, attributing it to `dataset` for the
  /// per-dataset statistics (Figure 1).
  void AddQuery(const sparql::Query& q, const std::string& dataset = "all");

  /// Budgeted variant: runs the expensive kernels (GHW, treewidth,
  /// girth) under `limits`. Compute-then-commit — if any kernel
  /// exhausts its budget, Status::kTimeout is returned and NO aggregate
  /// is touched, so the caller can move the query to the abandoned
  /// bucket without half-counted statistics. With default (unlimited)
  /// limits this is exactly AddQuery and always returns OK.
  util::Status AddQueryBudgeted(const sparql::Query& q,
                                const std::string& dataset,
                                const AnalysisLimits& limits);

  /// Folds another analyzer's aggregates into this one. When each query
  /// was analyzed by exactly one analyzer (the pipeline's shard
  /// invariant), the merged state is identical to analyzing all queries
  /// serially: every statistic is an order-independent sum.
  void MergeFrom(const CorpusAnalyzer& o) { util::fields::Merge(*this, o); }

  const KeywordCounts& keywords() const { return keywords_; }
  const analysis::OperatorSetDistribution& operator_sets() const {
    return opsets_;
  }
  const ProjectionStats& projection() const { return projection_; }
  const FragmentStats& fragments() const { return fragments_; }
  const ShapeCounts& cq_shapes() const { return cq_shapes_; }
  const ShapeCounts& cqf_shapes() const { return cqf_shapes_; }
  const ShapeCounts& cqof_shapes() const { return cqof_shapes_; }
  const HypergraphStats& hypergraphs() const { return hypergraphs_; }
  const PathStats& paths() const { return paths_; }
  const std::map<std::string, TripleStats>& per_dataset() const {
    return per_dataset_;
  }

  /// Appends every aggregate (the exact state MergeFrom/digests see) as
  /// a vbyte stream for the snapshot subsystem. Deterministic: maps
  /// iterate in key order, histograms dump their fixed bucket layout.
  /// Dataset names are interned into `dict` and stored as varint ids —
  /// the dictionary travels once per snapshot, not once per shard.
  void SaveState(std::string& out, rdf::Dictionary& dict) const {
    util::fields::Save(out, *this, dict);
  }
  /// Restores state written by SaveState into a freshly-constructed
  /// analyzer (histograms are rebuilt additively, so pre-existing
  /// counts would corrupt them), consuming the bytes read and resolving
  /// dataset ids through `dict`. Returns false on a truncated/corrupt
  /// or layout-mismatched blob, including ids absent from `dict`.
  bool LoadState(std::string_view& in, const rdf::Dictionary& dict) {
    return util::fields::Load(in, *this, dict);
  }

 private:
  /// Kernel results of one query's phase-1 (compute) pass, committed to
  /// the aggregates only if no budget was exhausted.
  struct ShapeOutcome {
    bool has_hypergraph = false;
    width::GhwResult ghw;
    bool has_graph = false;
    graph::ShapeClass shape;
    width::TreewidthResult tw;
    bool single_edge_has_constant = false;
  };

  util::Status ComputeShapes(const sparql::Query& q,
                             const fragments::FragmentClass& fc,
                             const AnalysisLimits& limits, ShapeOutcome& out);
  void CommitShapes(const fragments::FragmentClass& fc,
                    const ShapeOutcome& outcome);
  void AnalyzePaths(const sparql::Pattern& p);

  KeywordCounts keywords_;
  analysis::OperatorSetDistribution opsets_;
  ProjectionStats projection_;
  FragmentStats fragments_;
  ShapeCounts cq_shapes_, cqf_shapes_, cqof_shapes_;
  HypergraphStats hypergraphs_;
  PathStats paths_;
  std::map<std::string, TripleStats> per_dataset_;
  /// Recycled structural-analysis buffers (term interner, graph/width
  /// scratch); not part of the statistics — Merge/digests ignore it.
  AnalysisScratch scratch_;
};

}  // namespace sparqlog::corpus

#endif  // SPARQLOG_CORPUS_REPORT_H_
