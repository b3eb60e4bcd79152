#ifndef SPARQLOG_PIPELINE_PIPELINE_H_
#define SPARQLOG_PIPELINE_PIPELINE_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "corpus/ingest.h"
#include "corpus/report.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pipeline/chunk_source.h"
#include "pipeline/shard.h"
#include "util/result.h"
#include "util/status.h"

namespace sparqlog::pipeline {

/// Bounded multi-producer multi-consumer queue. `Push` blocks while the
/// queue is full — this is the pipeline's backpressure: a fast reader
/// cannot run ahead of slow parsers by more than `capacity` chunks, so
/// memory stays bounded no matter how large the log is.
///
/// The queue keeps its own occupancy counters (obs::QueueCounters) under
/// the mutex it already holds: push-blocks, pop-waits, their durations,
/// and the high-water depth. The uncontended path never reads the clock
/// — wait time is only measured when a caller actually blocks.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity) : capacity_(capacity) {}

  /// Blocks until there is room. Returns false iff the queue was closed
  /// (the item is dropped; `rejected_pushes` counts it).
  bool Push(T item) {
    std::unique_lock<std::mutex> lock(mu_);
    if (items_.size() >= capacity_ && !closed_) {
      ++stats_.push_blocks;
      uint64_t t0 = obs::NowNs();
      not_full_.wait(lock,
                     [this] { return items_.size() < capacity_ || closed_; });
      stats_.push_block_ns += obs::NowNs() - t0;
    }
    if (closed_) {
      ++stats_.rejected_pushes;
      return false;
    }
    items_.push_back(std::move(item));
    ++stats_.pushes;
    if (items_.size() > stats_.max_depth) stats_.max_depth = items_.size();
    not_empty_.notify_one();
    return true;
  }

  /// Blocks until an item is available. Returns nullopt once the queue
  /// is closed *and* drained — items pushed before Close stay poppable,
  /// in FIFO order.
  std::optional<T> Pop() {
    std::unique_lock<std::mutex> lock(mu_);
    if (items_.empty() && !closed_) {
      ++stats_.pop_waits;
      uint64_t t0 = obs::NowNs();
      not_empty_.wait(lock, [this] { return !items_.empty() || closed_; });
      stats_.pop_wait_ns += obs::NowNs() - t0;
    }
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    ++stats_.pops;
    not_full_.notify_one();
    return item;
  }

  /// Wakes all waiters; pending items remain poppable.
  void Close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  /// Snapshot of the occupancy counters. Consistent (taken under the
  /// queue mutex); call after the producing/consuming threads joined
  /// for final totals.
  obs::QueueCounters Stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable not_full_, not_empty_;
  std::deque<T> items_;
  size_t capacity_;
  bool closed_ = false;
  obs::QueueCounters stats_;
};

/// One quarantined line, captured for offline reproduction.
struct QuarantineSample {
  uint64_t chunk = 0;       ///< chunk id (reader sequence number)
  uint64_t line_index = 0;  ///< index within the chunk
  std::string line;         ///< the raw line that failed
  std::string reason;       ///< what() of the exception, if any
};

/// Aggregated quarantine outcome of a run. `count` equals the stats'
/// quarantined bucket; `samples` holds the first kMaxSamples failing
/// lines in deterministic (chunk, line_index) order so a failing run
/// always reports the same reproducers. The cap bounds only the
/// retained reproducers, and it is applied after that sort, so the
/// samples are the same across thread/shard counts.
struct QuarantineReport {
  static constexpr size_t kMaxSamples = 16;
  uint64_t count = 0;
  std::vector<QuarantineSample> samples;

  /// Sorts `samples` into (chunk, line_index) order and keeps the first
  /// kMaxSamples. The run's collector calls this after adding a sample.
  void SortAndCap();
};

struct PipelineOptions {
  /// Parse worker threads. 0 means hardware concurrency.
  int threads = 0;
  /// Shards (dedup/analysis partitions). 0 means one per worker. The
  /// count is part of the routing function (ShardIndexFor), so the
  /// merged result is identical for every value; the verification
  /// subsystem randomizes it to prove that.
  size_t shards = 0;
  /// Raw lines per work chunk.
  size_t chunk_size = 512;
  /// Chunks (and routed batches, per shard) buffered before
  /// backpressure kicks in.
  size_t queue_capacity = 16;
  std::string dataset = "all";
  /// Analyze the valid corpus instead of the unique corpus.
  bool use_valid_corpus = false;
  /// Metrics registry + span tracing switches (both default off).
  obs::TelemetryOptions telemetry;
  /// Per-query step budgets for the structural-analysis kernels
  /// (0 = unlimited). Exhaustion moves the query to the abandoned
  /// bucket; see corpus::AnalysisLimits.
  corpus::AnalysisLimits analysis_limits;
  /// Testing-only hook, called with every raw line before it is parsed
  /// (on the worker thread, inside the containment scope). A throwing
  /// hook is how the fault tests inject deterministic worker faults.
  std::function<void(std::string_view)> parse_fault_hook;
};

/// Merged output of a pipeline run — the same numbers the serial
/// LogIngestor + CorpusAnalyzer pair produces for the same input.
struct PipelineResult {
  corpus::CorpusStats stats;
  corpus::CorpusAnalyzer analysis;
  /// Raw lines consumed, non-query noise included.
  uint64_t lines = 0;
  /// Quarantined-line report; empty on a fault-free run.
  QuarantineReport quarantine;
  /// OK unless the chunk source failed persistently mid-run, in which
  /// case the counters cover only the lines read before the failure.
  util::Status source_status;
  /// Merged per-worker metrics; engaged iff telemetry was requested.
  std::optional<obs::RunTelemetry> telemetry;
  /// Per-worker span tracks; engaged iff tracing was requested.
  std::optional<obs::TraceData> trace;
};

/// One checkpoint barrier of a journaled run: where the reader stood
/// after exactly `chunks` chunks, and every shard's state after
/// consuming exactly the entries of those chunks.
struct BarrierCheckpoint {
  /// W: chunks this Run read before the barrier.
  uint64_t chunks = 0;
  /// source.offset() just after chunk W - 1 was read.
  uint64_t offset = 0;
  /// Raw lines in those W chunks.
  uint64_t lines = 0;
  /// One part per shard, in shard order.
  std::vector<ShardCheckpoint> parts;
};

/// In-band checkpointing for one Run: the run journal's hook
/// (pipeline/journal.h). The caller fills the first three fields; Run
/// fills the rest.
struct CheckpointBarriers {
  /// A barrier after every `every` chunks read: W_e = e * every.
  size_t every = 1;
  /// The reader stops after this many chunks (0 = at the end of the
  /// input). No barrier is taken at the cap itself; the caller
  /// checkpoints the joined shards.
  uint64_t max_chunks = 0;
  /// Encodes and publishes one barrier and returns the bytes written.
  /// Runs on the pipeline's writer thread, one barrier at a time, in
  /// barrier order. An error (returned or thrown) stops the reader and
  /// is kept in `error`; no later barrier is published.
  std::function<util::Result<uint64_t>(const BarrierCheckpoint&)> publish;

  /// Barriers `publish` completed.
  uint64_t published = 0;
  /// The source ran out (not the cap, not a source or publish error).
  bool exhausted = false;
  /// The first error taking or publishing a barrier; OK otherwise.
  util::Status error;
};

/// Multi-threaded sharded corpus pipeline:
///
///   reader -> [chunk queue] -> N parse workers -> [shard queues] -> N shards
///
/// Parse workers do the expensive work (URL decode, parse, canonical
/// serialization) in parallel, then route each entry to the shard that
/// owns its canonical hash (see ShardIndexFor). Each shard dedups and
/// analyzes its disjoint slice; Run merges the shards into one result
/// that is bit-identical to the serial path, independent of thread
/// count and scheduling.
///
/// Faults are contained: an exception thrown while processing a line —
/// bad_alloc included — quarantines that line (it still counts toward
/// Total, in the quarantined bucket) and the run continues; chunk-source
/// errors are retried (transient) or end the input early with
/// PipelineResult::source_status set (persistent).
class ParallelLogPipeline {
 public:
  explicit ParallelLogPipeline(PipelineOptions options = {});

  /// Streams `source` through the pipeline and merges shard results.
  /// This is the core entry point: workers consume string_view lines
  /// straight out of the chunks (zero-copy for mmap/vector sources;
  /// IstreamChunkSource serves pipes and other unmappable input).
  PipelineResult Run(ChunkSource& source);

  /// Same, over caller-owned shards, with checkpoint barriers when
  /// `barriers` is set. Empty `shards` is populated with shards() fresh
  /// instances; non-empty ones (restored from a run journal) continue
  /// accumulating, and the returned result merges their cumulative
  /// state.
  ///
  /// With barriers, every parse worker sends every shard one batch per
  /// chunk (empty if it has no entries), so a shard can tell when it
  /// has consumed every chunk below W_e. It then takes its part of
  /// barrier e, holding batches of later chunks that arrived first in
  /// arrival order and replaying them afterwards. The shard that
  /// completes a barrier hands it to one writer thread. The reader
  /// never runs more than queue_capacity chunks past the oldest barrier
  /// some shard has not taken.
  PipelineResult Run(ChunkSource& source,
                     std::vector<std::unique_ptr<Shard>>& shards,
                     CheckpointBarriers* barriers = nullptr);

  /// Convenience overload for in-memory logs; zero-copy views of
  /// `lines`, which must outlive the call.
  PipelineResult Run(const std::vector<std::string>& lines);

  /// The resolved worker count.
  int threads() const { return threads_; }

  /// The resolved shard count.
  size_t shards() const {
    return options_.shards > 0 ? options_.shards
                               : static_cast<size_t>(threads_);
  }

  /// Fresh shards configured exactly as Run would create them; the run
  /// journal builds these before restoring checkpointed state into them.
  std::vector<std::unique_ptr<Shard>> MakeShards() const;

  const PipelineOptions& options() const { return options_; }

 private:
  PipelineOptions options_;
  int threads_;
};

}  // namespace sparqlog::pipeline

#endif  // SPARQLOG_PIPELINE_PIPELINE_H_
