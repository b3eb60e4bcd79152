#include "pipeline/shard.h"

namespace sparqlog::pipeline {

Shard::Shard(const ShardOptions& options) {
  // The analyzer consumes whichever corpus the run targets, as a gate:
  // the budgeted analyzer may return kTimeout, moving the query to the
  // abandoned bucket (with unlimited limits the gate always passes and
  // the behaviour is identical to the old plain sink). Capturing `this`
  // is safe: Shard is pinned (non-copyable, non-movable).
  auto gate = [this, dataset = options.dataset,
               limits = options.analysis_limits](const sparql::Query& q) {
    return analyzer_.AddQueryBudgeted(q, dataset, limits);
  };
  if (options.use_valid_corpus) {
    ingestor_.set_valid_gate(std::move(gate));
  } else {
    ingestor_.set_unique_gate(std::move(gate));
  }
}

ShardCheckpoint Shard::TakeCheckpoint() const {
  ShardCheckpoint part;
  ingestor_.SaveState(part.ingestor);
  part.analyzer.MergeFrom(analyzer_);
  return part;
}

void EncodeShardCheckpoint(const ShardCheckpoint& part, std::string& out,
                           rdf::Dictionary& dict) {
  out += part.ingestor;
  part.analyzer.SaveState(out, dict);
}

bool Shard::LoadState(std::string_view& in, const rdf::Dictionary& dict) {
  return ingestor_.LoadState(in) && analyzer_.LoadState(in, dict);
}

size_t ShardIndexFor(const corpus::ParsedLine& entry, size_t num_shards) {
  if (num_shards <= 1) return 0;
  uint64_t key = entry.valid ? entry.canonical_hash : entry.line_hash;
  return static_cast<size_t>(key % num_shards);
}

}  // namespace sparqlog::pipeline
