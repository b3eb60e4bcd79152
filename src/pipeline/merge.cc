#include "pipeline/merge.h"

#include "corpus/report.h"
#include "util/fields.h"

namespace sparqlog::pipeline {

PipelineResult MergeShards(const std::vector<std::unique_ptr<Shard>>& shards) {
  PipelineResult result;
  for (const auto& shard : shards) {
    util::fields::Merge(result.stats, shard->stats());
    result.analysis.MergeFrom(shard->analyzer());
  }
  return result;
}

std::vector<uint64_t> StatisticsDigest(const corpus::CorpusAnalyzer& a) {
  std::vector<uint64_t> out;
  util::fields::Digest(a, out);
  return out;
}

}  // namespace sparqlog::pipeline
