#include "corpus/report.h"

#include <algorithm>

#include "graph/canonical.h"
#include "graph/shapes.h"
#include "paths/ctract.h"
#include "width/hypertree.h"
#include "width/treewidth.h"

namespace sparqlog::corpus {

using analysis::ExtractFeatures;
using analysis::ProjectionUse;
using analysis::QueryFeatures;
using fragments::ClassifyFragment;
using fragments::FragmentClass;
using sparql::Pattern;
using sparql::PatternKind;
using sparql::Query;
using sparql::QueryForm;

void CorpusAnalyzer::AddQuery(const Query& q, const std::string& dataset) {
  // Unlimited budgets never time out, so the status is always OK.
  (void)AddQueryBudgeted(q, dataset, AnalysisLimits());
}

util::Status CorpusAnalyzer::AddQueryBudgeted(const Query& q,
                                              const std::string& dataset,
                                              const AnalysisLimits& limits) {
  // ---- Phase 1: compute. Everything that can exhaust a budget runs
  // here, into locals; no aggregate is touched until every kernel
  // finished. A kTimeout return therefore leaves the analyzer exactly
  // as it was — the conservation invariant's "abandoned queries
  // contribute to no statistic".
  QueryFeatures f = ExtractFeatures(q, scratch_.fragments.vars);
  bool select_ask = f.form == QueryForm::kSelect || f.form == QueryForm::kAsk;
  bool classify = select_ask && q.has_body;
  FragmentClass fc;
  ShapeOutcome outcome;
  if (classify) {
    fc = ClassifyFragment(q, scratch_.fragments);
    util::Status st = ComputeShapes(q, fc, limits, outcome);
    if (!st.ok()) return st;
  }

  // ---- Phase 2: commit. Pure counter increments from here on. ----

  // ---- Keywords (Table 2) ----
  ++keywords_.total;
  switch (f.form) {
    case QueryForm::kSelect: ++keywords_.select; break;
    case QueryForm::kAsk: ++keywords_.ask; break;
    case QueryForm::kDescribe: ++keywords_.describe; break;
    case QueryForm::kConstruct: ++keywords_.construct; break;
  }
  if (f.distinct) ++keywords_.distinct;
  if (f.reduced) ++keywords_.reduced;
  if (f.has_limit) ++keywords_.limit;
  if (f.has_offset) ++keywords_.offset;
  if (f.has_order_by) ++keywords_.order_by;
  if (f.has_group_by) ++keywords_.group_by;
  if (f.has_having) ++keywords_.having;
  if (f.filter) ++keywords_.filter;
  if (f.conj) ++keywords_.conj;
  if (f.union_) ++keywords_.union_;
  if (f.optional) ++keywords_.optional;
  if (f.graph) ++keywords_.graph;
  if (f.minus) ++keywords_.minus;
  if (f.not_exists) ++keywords_.not_exists;
  if (f.exists) ++keywords_.exists;
  if (f.agg_count) ++keywords_.count;
  if (f.agg_max) ++keywords_.max;
  if (f.agg_min) ++keywords_.min;
  if (f.agg_avg) ++keywords_.avg;
  if (f.agg_sum) ++keywords_.sum;
  if (f.service) ++keywords_.service;
  if (f.bind) ++keywords_.bind;
  if (f.values) ++keywords_.values;

  // ---- Per-dataset triple statistics (Figure 1) ----
  TripleStats& ts = per_dataset_[dataset];
  ++ts.all_queries;
  ts.triple_sum += static_cast<uint64_t>(f.num_triples);
  ts.max_triples =
      std::max<uint64_t>(ts.max_triples, static_cast<uint64_t>(f.num_triples));
  if (select_ask) {
    ++ts.select_ask;
    ts.histogram.Add(f.num_triples);
  }

  // ---- Operator sets (Table 3) ----
  opsets_.Add(f);

  // ---- Projection and subqueries (Section 4.4) ----
  ++projection_.total;
  if (f.subquery) ++projection_.with_subqueries;
  switch (f.projection) {
    case ProjectionUse::kYes:
      ++projection_.with_projection;
      if (f.form == QueryForm::kSelect) ++projection_.select_with_projection;
      if (f.form == QueryForm::kAsk) ++projection_.ask_with_projection;
      break;
    case ProjectionUse::kIndeterminate:
      ++projection_.indeterminate;
      break;
    case ProjectionUse::kNo:
      break;
  }

  // ---- Fragments (Section 5.2, Figure 5) ----
  if (!classify) return util::Status::OK();
  ++fragments_.select_ask;
  if (fc.aof) ++fragments_.aof;
  if (fc.cq) {
    ++fragments_.cq;
    if (fc.num_triples >= 1) fragments_.cq_sizes.Add(fc.num_triples);
  }
  if (fc.cpf) ++fragments_.cpf;
  if (fc.cqf) {
    ++fragments_.cqf;
    if (fc.num_triples >= 1) fragments_.cqf_sizes.Add(fc.num_triples);
  }
  if (fc.well_designed) ++fragments_.well_designed;
  if (fc.cqof) {
    ++fragments_.cqof;
    if (fc.num_triples >= 1) fragments_.cqof_sizes.Add(fc.num_triples);
  }
  if (fc.aof && fc.well_designed && fc.simple_filters &&
      fc.interface_width > 1) {
    ++fragments_.wide_interface;
  }

  // ---- Shapes and widths (Table 4, Section 6) ----
  CommitShapes(fc, outcome);

  // ---- Property paths (Table 5) ----
  AnalyzePaths(q.where);
  return util::Status::OK();
}

util::Status CorpusAnalyzer::ComputeShapes(const Query& q,
                                           const FragmentClass& fc,
                                           const AnalysisLimits& limits,
                                           ShapeOutcome& out) {
  if (!(fc.cq || fc.cqf || fc.cqof)) return util::Status::OK();

  // All structural analysis runs on the analyzer's recycled scratch:
  // one interner/union-find/graph buffer set per analyzer (one analyzer
  // per pipeline worker), so the per-query cost is compute, not malloc.
  AnalysisScratch& s = scratch_;
  s.triples.clear();
  s.filters.clear();
  graph::CollectTriplesAndFilters(q.where, s.triples, s.filters);

  if (fc.var_predicate) {
    // Only the hypergraph is meaningful (Section 6.2).
    if (fc.cqof) {
      graph::BuildCanonicalHypergraph(s.triples, s.filters,
                                      graph::CanonicalOptions(), s.canonical,
                                      s.hypergraph);
      util::StepBudget ghw_budget(limits.ghw_steps);
      out.ghw = width::GeneralizedHypertreeWidth(
          s.hypergraph, s.ghw, /*max_k=*/4,
          limits.ghw_steps != 0 ? &ghw_budget : nullptr);
      if (out.ghw.abandoned) {
        return util::Status::Timeout("ghw step budget exhausted");
      }
      out.has_hypergraph = true;
    }
    return util::Status::OK();
  }

  graph::BuildCanonicalGraph(s.triples, s.filters, graph::CanonicalOptions(),
                             s.canonical, s.graph);
  const graph::CanonicalGraph& cg = s.graph;
  if (!cg.valid) return util::Status::OK();
  util::StepBudget girth_budget(limits.girth_steps);
  out.shape = graph::ClassifyShape(
      cg.graph, s.shape, limits.girth_steps != 0 ? &girth_budget : nullptr);
  if (out.shape.abandoned) {
    return util::Status::Timeout("girth step budget exhausted");
  }
  util::StepBudget tw_budget(limits.treewidth_steps);
  out.tw = width::Treewidth(
      cg.graph, s.treewidth,
      limits.treewidth_steps != 0 ? &tw_budget : nullptr);
  if (out.tw.abandoned) {
    return util::Status::Timeout("treewidth step budget exhausted");
  }
  if (out.shape.single_edge) {
    for (const rdf::Term* t : cg.node_terms) {
      if (t->is_constant()) out.single_edge_has_constant = true;
    }
  }
  out.has_graph = true;
  return util::Status::OK();
}

void CorpusAnalyzer::CommitShapes(const FragmentClass& fc,
                                  const ShapeOutcome& outcome) {
  if (outcome.has_hypergraph) {
    ++hypergraphs_.total;
    switch (outcome.ghw.width) {
      case 0:
      case 1: ++hypergraphs_.ghw1; break;
      case 2: ++hypergraphs_.ghw2; break;
      case 3: ++hypergraphs_.ghw3; break;
      default: ++hypergraphs_.ghw_more; break;
    }
    if (outcome.ghw.decomposition_nodes > 10) {
      ++hypergraphs_.decompositions_gt10_nodes;
    }
    if (outcome.ghw.decomposition_nodes > 100) {
      ++hypergraphs_.decompositions_gt100_nodes;
    }
    return;
  }
  if (!outcome.has_graph) return;

  const graph::ShapeClass& shape = outcome.shape;
  auto record = [&](ShapeCounts& sc) {
    ++sc.total;
    if (shape.single_edge) {
      ++sc.single_edge;
      if (outcome.single_edge_has_constant) ++sc.single_edge_with_constants;
    }
    if (shape.chain) ++sc.chain;
    if (shape.chain_set) ++sc.chain_set;
    if (shape.star) ++sc.star;
    if (shape.tree) ++sc.tree;
    if (shape.forest) ++sc.forest;
    if (shape.cycle) ++sc.cycle;
    if (shape.flower) ++sc.flower;
    if (shape.flower_set) ++sc.flower_set;
    if (outcome.tw.width <= 2) {
      ++sc.treewidth_le2;
    } else if (outcome.tw.width == 3) {
      ++sc.treewidth_3;
    } else {
      ++sc.treewidth_gt3;
    }
    if (shape.girth > 0) ++sc.girth[shape.girth];
  };
  if (fc.cq) record(cq_shapes_);
  if (fc.cqf) record(cqf_shapes_);
  if (fc.cqof) record(cqof_shapes_);
}

void CorpusAnalyzer::AnalyzePaths(const Pattern& p) {
  if (p.kind == PatternKind::kTriple) {
    if (!p.triple.has_path) return;
    const sparql::PathExpr& path = p.triple.path;
    paths::PathClassification pc = paths::ClassifyPath(path);
    if (pc.type == paths::PathType::kPlainLink) return;
    ++paths_.total_paths;
    switch (pc.type) {
      case paths::PathType::kTrivialNegated:
        ++paths_.trivial_negated;
        return;
      case paths::PathType::kTrivialInverse:
        ++paths_.trivial_inverse;
        return;
      default:
        break;
    }
    ++paths_.navigational;
    if (pc.uses_inverse) ++paths_.with_inverse;
    ++paths_.by_type[pc.type];
    if (!paths::IsCtract(path)) ++paths_.not_ctract;
    return;
  }
  if (p.kind == PatternKind::kSubSelect && p.subquery &&
      p.subquery->has_body) {
    AnalyzePaths(p.subquery->where);
    return;
  }
  for (const Pattern& c : p.children) AnalyzePaths(c);
}

}  // namespace sparqlog::corpus
