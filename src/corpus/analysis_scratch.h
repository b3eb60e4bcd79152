#ifndef SPARQLOG_CORPUS_ANALYSIS_SCRATCH_H_
#define SPARQLOG_CORPUS_ANALYSIS_SCRATCH_H_

#include <vector>

#include "fragments/scratch.h"
#include "graph/canonical.h"
#include "graph/shapes.h"
#include "width/hypertree.h"
#include "width/treewidth.h"

namespace sparqlog::corpus {

/// Recycled per-analyzer working state for the structural-analysis hot
/// path (Figure 5 fragments, Table 4 shapes, Section 6 widths): the
/// fragment classifier's variable table and flat algebra, triple/filter
/// collection buffers, the term interner and union-find of the
/// canonical builders, the canonical graph/hypergraph output buffers,
/// and the shape / treewidth / GHW scratch spaces. One instance lives
/// inside each CorpusAnalyzer — one analyzer per pipeline shard, each
/// driven by a single worker thread — mirroring the per-worker decode
/// scratch of the ingest hot path. Nothing here is part of the analyzer's
/// statistics; merging and digests ignore it.
struct AnalysisScratch {
  std::vector<const sparql::TriplePattern*> triples;
  std::vector<const sparql::Expr*> filters;
  graph::CanonicalScratch canonical;
  graph::CanonicalGraph graph;
  graph::Hypergraph hypergraph;
  graph::ShapeScratch shape;
  width::TreewidthScratch treewidth;
  width::GhwScratch ghw;
  fragments::FragmentScratch fragments;
};

}  // namespace sparqlog::corpus

#endif  // SPARQLOG_CORPUS_ANALYSIS_SCRATCH_H_
