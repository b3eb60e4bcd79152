#include "obs/metrics.h"

#include <algorithm>

#include "util/fnv.h"

namespace sparqlog::obs {

const char* StageName(int stage) {
  switch (stage) {
    case kStageReader:
      return "reader";
    case kStageParse:
      return "parse";
    case kStageShard:
      return "shard";
    case kStageAnalysis:
      return "analysis";
    case kStageStreak:
      return "streak";
    case kStageStitch:
      return "stitch";
    case kStageCheckpoint:
      return "checkpoint";
    default:
      return "unknown";
  }
}

uint64_t LatencyHistogram::PercentileNs(double q) const {
  if (count_ == 0) return 0;
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  // Rank of the requested quantile, 1-based; walk the cumulative counts.
  uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(count_ - 1)) + 1;
  uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += counts_[static_cast<size_t>(i)];
    if (seen >= rank) return BucketUpperNs(i);
  }
  return max_ns_;
}

void QueueCounters::Merge(const QueueCounters& other) {
  pushes += other.pushes;
  pops += other.pops;
  push_blocks += other.push_blocks;
  pop_waits += other.pop_waits;
  push_block_ns += other.push_block_ns;
  pop_wait_ns += other.pop_wait_ns;
  max_depth = std::max(max_depth, other.max_depth);
  rejected_pushes += other.rejected_pushes;
}

void StageMetrics::Merge(const StageMetrics& other) {
  items_in += other.items_in;
  items_out += other.items_out;
  malformed += other.malformed;
  abandoned += other.abandoned;
  quarantined += other.quarantined;
  chunks += other.chunks;
  bytes_in += other.bytes_in;
  alloc_bytes += other.alloc_bytes;
  allocs += other.allocs;
  chunk_ns.Merge(other.chunk_ns);
}

void RunTelemetry::Merge(const RunTelemetry& other) {
  for (size_t i = 0; i < stages.size(); ++i) stages[i].Merge(other.stages[i]);
  chunk_queue.Merge(other.chunk_queue);
  shard_queues.Merge(other.shard_queues);
  if (other.shard_queries.size() > shard_queries.size()) {
    shard_queries.resize(other.shard_queries.size(), 0);
  }
  for (size_t i = 0; i < other.shard_queries.size(); ++i) {
    shard_queries[i] += other.shard_queries[i];
  }
  prefilter_pairs += other.prefilter_pairs;
  prefilter_exact_hash += other.prefilter_exact_hash;
  prefilter_length += other.prefilter_length;
  prefilter_charmap += other.prefilter_charmap;
  prefilter_histogram += other.prefilter_histogram;
  prefilter_dp += other.prefilter_dp;
  prefilter_abandoned += other.prefilter_abandoned;
  prefilter_dp_block_steps += other.prefilter_dp_block_steps;
  parse_memo_hits += other.parse_memo_hits;
  checkpoint_part_ns.Merge(other.checkpoint_part_ns);
  wall_ns = std::max(wall_ns, other.wall_ns);
  workers += other.workers;
  run_alloc_bytes += other.run_alloc_bytes;
  run_allocs += other.run_allocs;
}

double RunTelemetry::QueueStallFraction() const {
  if (wall_ns == 0 || workers == 0) return 0.0;
  uint64_t blocked = chunk_queue.push_block_ns + chunk_queue.pop_wait_ns +
                     shard_queues.push_block_ns + shard_queues.pop_wait_ns;
  return static_cast<double>(blocked) /
         (static_cast<double>(workers) * static_cast<double>(wall_ns));
}

double RunTelemetry::ShardSkewRatio() const {
  if (shard_queries.size() <= 1) return 1.0;
  uint64_t total = 0, peak = 0;
  for (uint64_t c : shard_queries) {
    total += c;
    peak = std::max(peak, c);
  }
  if (total == 0) return 1.0;
  double mean =
      static_cast<double>(total) / static_cast<double>(shard_queries.size());
  return static_cast<double>(peak) / mean;
}

uint64_t TelemetryDigest(const RunTelemetry& t) {
  // Only scheduling-independent counters participate: item flow and
  // shard routing. Chunk counts (depend on chunk_size), timing fields,
  // queue occupancy, allocation attribution, prefilter tiers (a
  // streak-cascade diagnostic, not item flow), parse-memo hits (which
  // worker read which chunk) and the checkpoint stage (a journaled run's
  // cost, not its item flow) are all excluded by design.
  util::Fnv1a h;
  auto mix = [&h](uint64_t v) {
    char bytes[8];
    for (int i = 0; i < 8; ++i) bytes[i] = static_cast<char>(v >> (8 * i));
    h.Update(std::string_view(bytes, sizeof(bytes)));
  };
  // abandoned participates: step budgets are per-canonical-query, so
  // the verdict is scheduling-independent. quarantined does NOT — alloc
  // faults land wherever the allocation counter happens to be, so two
  // runs of the same fault plan may quarantine different lines.
  for (int stage = 0; stage < kStageCount; ++stage) {
    if (stage == kStageCheckpoint) continue;
    const StageMetrics& s = t.stage(stage);
    mix(s.items_in);
    mix(s.items_out);
    mix(s.malformed);
    mix(s.abandoned);
    mix(s.bytes_in);
  }
  mix(t.shard_queries.size());
  for (uint64_t c : t.shard_queries) mix(c);
  return h.digest();
}

}  // namespace sparqlog::obs
