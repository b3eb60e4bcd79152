#ifndef SPARQLOG_PIPELINE_MERGE_H_
#define SPARQLOG_PIPELINE_MERGE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "pipeline/pipeline.h"
#include "pipeline/shard.h"

namespace sparqlog::pipeline {

/// Folds per-shard results into one PipelineResult. Because shards
/// partition the canonical-hash space, their Total/Valid/Unique counts
/// and analyzer aggregates are disjoint and every statistic merges by
/// plain summation — the merged result equals the serial path's output
/// exactly. Each aggregate's Merge() is derived from its field list
/// (util/fields.h).
PipelineResult MergeShards(const std::vector<std::unique_ptr<Shard>>& shards);

/// Flattens every aggregate of an analyzer — keyword counters, operator
/// sets, projection, fragments (histograms included), shapes (girth
/// maps included), hypergraphs, paths (type maps included), and the
/// per-dataset triple statistics — into one deterministic counter
/// vector. Two analyzers hold identical statistics iff their digests
/// are equal; drivers use this to verify serial/parallel equivalence
/// without field-by-field plumbing. Word order is the analyzer's field
/// list (util/fields.h).
std::vector<uint64_t> StatisticsDigest(const corpus::CorpusAnalyzer& a);

}  // namespace sparqlog::pipeline

#endif  // SPARQLOG_PIPELINE_MERGE_H_
