#ifndef SPARQLOG_OBS_METRICS_H_
#define SPARQLOG_OBS_METRICS_H_

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "obs/clock.h"

namespace sparqlog::obs {

/// The pipeline stages the registry knows about. New stages append here
/// and in StageName(); everything else (merge, exporters, digest) picks
/// the new slot up automatically.
enum StageId : int {
  kStageReader = 0,   // line source -> chunk queue
  kStageParse,        // decode + parse + canonicalize + route
  kStageShard,        // per-shard dedup (Table 1 accounting)
  kStageAnalysis,     // structural analysis of the surviving corpus
  kStageStreak,       // similarity-window workers (Section 8)
  kStageStitch,       // serial streak stitch pass
  kStageCheckpoint,   // journal checkpoints: parts taken, generations written
  kStageCount
};

const char* StageName(int stage);

/// Per-run telemetry switches, carried inside PipelineOptions /
/// StreakStageOptions. Everything defaults off: an uninstrumented run
/// pays only one branch per chunk.
struct TelemetryOptions {
  /// Collect the metrics registry (counters + histograms + queue stats).
  bool metrics = false;
  /// Record per-worker span rings for the Chrome-trace export. Implies
  /// metrics collection.
  bool trace = false;

  bool enabled() const { return metrics || trace; }
};

/// Fixed-bucket latency histogram: bucket i counts durations whose
/// nanosecond value has bit width i (i.e. [2^(i-1), 2^i)), so Record is
/// one countl_zero plus an increment — no allocation, no search, and
/// Merge is elementwise addition. 40 buckets cover 1 ns to ~9 minutes.
class LatencyHistogram {
 public:
  static constexpr int kBuckets = 40;

  void Record(uint64_t ns) {
    int idx = std::bit_width(ns);
    if (idx >= kBuckets) idx = kBuckets - 1;
    ++counts_[static_cast<size_t>(idx)];
    ++count_;
    total_ns_ += ns;
    if (ns > max_ns_) max_ns_ = ns;
    if (count_ == 1 || ns < min_ns_) min_ns_ = ns;
  }

  void Merge(const LatencyHistogram& other) {
    for (int i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    if (other.count_ > 0) {
      if (count_ == 0 || other.min_ns_ < min_ns_) min_ns_ = other.min_ns_;
      if (other.max_ns_ > max_ns_) max_ns_ = other.max_ns_;
    }
    count_ += other.count_;
    total_ns_ += other.total_ns_;
  }

  uint64_t count() const { return count_; }
  uint64_t total_ns() const { return total_ns_; }
  uint64_t min_ns() const { return count_ > 0 ? min_ns_ : 0; }
  uint64_t max_ns() const { return max_ns_; }
  uint64_t BucketCount(int i) const { return counts_[static_cast<size_t>(i)]; }

  /// Inclusive upper bound of bucket i in nanoseconds.
  static uint64_t BucketUpperNs(int i) {
    return i >= 63 ? ~uint64_t{0} : (uint64_t{1} << i) - 1;
  }

  double MeanNs() const {
    return count_ > 0 ? static_cast<double>(total_ns_) / count_ : 0.0;
  }

  /// Upper bound of the bucket holding the q-quantile (0 <= q <= 1).
  /// Bucket resolution (powers of two) bounds the error at 2x — plenty
  /// for stall diagnosis, and the price of an allocation-free Record.
  uint64_t PercentileNs(double q) const;

  bool operator==(const LatencyHistogram& other) const = default;

 private:
  std::array<uint64_t, kBuckets> counts_{};
  uint64_t count_ = 0;
  uint64_t total_ns_ = 0;
  uint64_t min_ns_ = 0;
  uint64_t max_ns_ = 0;
};

/// BoundedQueue occupancy counters, maintained under the queue's own
/// mutex (no extra synchronization) and snapshot via Stats(). Wait
/// times are only clocked when a caller actually blocks, so the
/// uncontended fast path never reads the clock.
struct QueueCounters {
  uint64_t pushes = 0;
  uint64_t pops = 0;
  uint64_t push_blocks = 0;    // Push found the queue full
  uint64_t pop_waits = 0;      // Pop found the queue empty (not closed)
  uint64_t push_block_ns = 0;  // total time producers spent blocked
  uint64_t pop_wait_ns = 0;    // total time consumers spent waiting
  uint64_t max_depth = 0;      // high-water occupancy
  uint64_t rejected_pushes = 0;  // Push after Close (item dropped)

  void Merge(const QueueCounters& other);
  bool operator==(const QueueCounters& other) const = default;
};

/// Per-stage metrics: item flow, chunk latency, and (when the binary
/// installs obs/alloc_hooks.h) allocations attributed via the worker
/// thread's thread-local counters.
struct StageMetrics {
  uint64_t items_in = 0;    // items entering the stage (lines, entries)
  uint64_t items_out = 0;   // items surviving the stage
  uint64_t malformed = 0;   // query entries that failed to parse
  uint64_t abandoned = 0;   // entries whose analysis budget ran out
  uint64_t quarantined = 0;  // entries isolated by fault containment
  uint64_t chunks = 0;      // work units processed
  /// Payload bytes entering the stage (line bytes, newlines excluded).
  /// Deterministic for a given input — independent of chunk size and
  /// scheduling — so it participates in TelemetryDigest. Feeds the
  /// MB/s ingest-throughput and lines-per-chunk derived metrics.
  uint64_t bytes_in = 0;
  uint64_t alloc_bytes = 0;
  uint64_t allocs = 0;
  LatencyHistogram chunk_ns;

  void Merge(const StageMetrics& other);
  bool operator==(const StageMetrics& other) const = default;
};

/// The metrics registry for one pipeline run. Each worker thread owns a
/// private instance and mutates it without synchronization (the same
/// Merge() discipline every aggregate in this codebase follows); the
/// run merges the per-worker instances once at report time.
struct RunTelemetry {
  std::array<StageMetrics, kStageCount> stages{};
  QueueCounters chunk_queue;   // reader -> parse workers
  QueueCounters shard_queues;  // parse workers -> shards, summed
  /// Routed query entries per shard — the skew diagnostic. Depends only
  /// on the shard count and the input, never on thread scheduling.
  std::vector<uint64_t> shard_queries;
  /// Streak prefilter cascade tier hits (streaks::PrefilterStats).
  uint64_t prefilter_pairs = 0;
  uint64_t prefilter_exact_hash = 0;
  uint64_t prefilter_length = 0;
  uint64_t prefilter_charmap = 0;
  uint64_t prefilter_histogram = 0;
  uint64_t prefilter_dp = 0;
  /// Similarity pairs abandoned because the Levenshtein step budget ran
  /// out (streaks::PrefilterStats::abandoned_pairs).
  uint64_t prefilter_abandoned = 0;
  /// 64-row blocks the Levenshtein DP stepped
  /// (streaks::PrefilterStats::dp_block_steps).
  uint64_t prefilter_dp_block_steps = 0;
  /// Query lines a parse worker routed from its exact-line memo without
  /// parsing them (ParallelLogPipeline, unique corpus). Depends on which
  /// worker read which chunk, so TelemetryDigest leaves it out.
  uint64_t parse_memo_hits = 0;
  /// Time each shard consumer spent taking its part of a checkpoint
  /// (the run journal; see StageMetrics of kStageCheckpoint for the
  /// writer's side).
  LatencyHistogram checkpoint_part_ns;
  /// Run envelope. wall_ns merges by max (parallel partitions share the
  /// wall clock), workers by sum.
  uint64_t wall_ns = 0;
  uint64_t workers = 0;
  /// Process-wide allocation deltas over the run (zero unless the
  /// binary installs obs/alloc_hooks.h).
  uint64_t run_alloc_bytes = 0;
  uint64_t run_allocs = 0;

  StageMetrics& stage(int id) { return stages[static_cast<size_t>(id)]; }
  const StageMetrics& stage(int id) const {
    return stages[static_cast<size_t>(id)];
  }

  /// Adds another instance: counter sums, histogram merges, max of
  /// wall_ns/max_depth, elementwise shard counts (shorter vectors
  /// zero-extend). Merge with a default-constructed instance is the
  /// identity, and the result is independent of merge order.
  void Merge(const RunTelemetry& other);

  /// Fraction of total worker-time spent blocked on queues:
  /// (push_block_ns + pop_wait_ns) / (workers * wall_ns). Zero when the
  /// run envelope is empty.
  double QueueStallFraction() const;

  /// max/mean of the per-shard routed query counts; 1.0 for <=1 shard
  /// or an empty run. A ratio near 1 means the canonical-hash routing
  /// spread the load evenly.
  double ShardSkewRatio() const;

  bool operator==(const RunTelemetry& other) const = default;
};

/// FNV-1a over the scheduling-independent counters (per-stage item
/// flow, malformed counts, per-shard query counts, prefilter tiers).
/// Two runs over the same input with the same shard count must digest
/// equally at ANY thread/chunk/queue configuration — timing fields
/// (histograms, queue waits, wall) are deliberately excluded. This is
/// the telemetry analogue of pipeline::StatisticsDigest.
uint64_t TelemetryDigest(const RunTelemetry& t);

}  // namespace sparqlog::obs

#endif  // SPARQLOG_OBS_METRICS_H_
