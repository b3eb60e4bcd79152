#include "pipeline/streak_stage.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "obs/alloc_tracker.h"
#include "obs/clock.h"

namespace sparqlog::pipeline {

namespace {

/// Match edges of one chunk in CSR form: query j of the chunk matched
/// the predecessors at gaps gaps[offsets[j] .. offsets[j+1]).
struct ChunkEdges {
  std::vector<uint32_t> gaps;
  std::vector<uint32_t> offsets;
};

}  // namespace

StreakStage::StreakStage(StreakStageOptions options)
    : options_(std::move(options)) {
  threads_ = options_.threads > 0
                 ? options_.threads
                 : static_cast<int>(std::thread::hardware_concurrency());
  if (threads_ < 1) threads_ = 1;
}

StreakStageResult StreakStage::Run(
    const std::vector<std::string>& queries) const {
  StreakStageResult result;
  result.threads = threads_;
  const size_t n = queries.size();
  const size_t window = options_.streak.window;
  if (n == 0) {
    result.chunks = 0;
    return result;
  }

  size_t chunk_size = options_.chunk_size;
  if (chunk_size == 0) {
    chunk_size = (n + static_cast<size_t>(threads_) - 1) /
                 static_cast<size_t>(threads_);
    // A chunk narrower than the overlap pays more warmup than work.
    chunk_size = std::max(chunk_size, window + 1);
  }
  chunk_size = std::max<size_t>(chunk_size, 1);
  const size_t num_chunks = (n + chunk_size - 1) / chunk_size;
  result.chunks = num_chunks;

  // ---- Parallel phase: per-chunk match edges. Workers claim chunks
  // dynamically; every chunk is independent given its warmup overlap.
  const size_t worker_count =
      std::min<size_t>(static_cast<size_t>(threads_), num_chunks);
  const bool collect = options_.telemetry.enabled();
  const bool tracing = collect && options_.telemetry.trace;
  const uint64_t run_start = collect ? obs::NowNs() : 0;
  const uint64_t alloc_bytes0 = collect ? obs::AllocatedBytes() : 0;
  const uint64_t alloc_count0 = collect ? obs::AllocationCount() : 0;
  std::vector<ChunkEdges> edges(num_chunks);
  std::vector<streaks::PrefilterStats> worker_stats(worker_count);
  // Per-worker registry instances and span rings; slot w belongs to
  // streak worker w, the last slot to the serial stitch pass.
  std::vector<obs::RunTelemetry> telem(collect ? worker_count + 1 : 0);
  std::vector<obs::TraceRing> rings;
  if (tracing) {
    rings.reserve(worker_count + 1);
    for (size_t i = 0; i <= worker_count; ++i) {
      rings.emplace_back(obs::kTraceRingCapacity);
    }
  }
  std::atomic<size_t> next_chunk{0};
  auto worker = [&](size_t worker_index) {
    obs::RunTelemetry* rt = collect ? &telem[worker_index] : nullptr;
    obs::TraceRing* ring = tracing ? &rings[worker_index] : nullptr;
    const uint64_t tb0 = rt ? obs::ThreadAllocatedBytes() : 0;
    const uint64_t tc0 = rt ? obs::ThreadAllocationCount() : 0;
    // One window per worker: Reset() between chunks keeps the recycled
    // text buffers and the Levenshtein scratch across the whole run.
    streaks::SimilarityWindow win(options_.streak);
    std::vector<uint32_t> gaps;
    for (size_t c = next_chunk.fetch_add(1, std::memory_order_relaxed);
         c < num_chunks;
         c = next_chunk.fetch_add(1, std::memory_order_relaxed)) {
      const size_t start = c * chunk_size;
      const size_t end = std::min(n, start + chunk_size);
      const size_t warm = start > window ? start - window : 0;
      uint64_t t0 = rt != nullptr ? obs::NowNs() : 0;
      win.Reset();
      for (size_t j = warm; j < start; ++j) {
        win.Add(queries[j], gaps);  // state only; edges discarded
      }
      // The warmup re-compares pairs the previous chunk owns; dropping
      // its counters keeps the totals equal to the serial detector's.
      win.TakeStats();
      ChunkEdges& out = edges[c];
      out.offsets.reserve(end - start + 1);
      out.offsets.push_back(0);
      for (size_t j = start; j < end; ++j) {
        win.Add(queries[j], gaps);
        out.gaps.insert(out.gaps.end(), gaps.begin(), gaps.end());
        out.offsets.push_back(static_cast<uint32_t>(out.gaps.size()));
      }
      worker_stats[worker_index].Merge(win.TakeStats());
      if (rt) {
        uint64_t t1 = obs::NowNs();
        obs::StageMetrics& m = rt->stage(obs::kStageStreak);
        ++m.chunks;
        m.items_in += end - start;  // warmup re-scans are not items
        m.items_out += end - start;
        m.chunk_ns.Record(t1 - t0);
        if (ring) ring->Record(obs::kStageStreak, c, t0, t1);
      }
    }
    if (rt) {
      obs::StageMetrics& m = rt->stage(obs::kStageStreak);
      m.alloc_bytes += obs::ThreadAllocatedBytes() - tb0;
      m.allocs += obs::ThreadAllocationCount() - tc0;
    }
  };

  if (worker_count <= 1) {
    worker(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(worker_count);
    for (size_t t = 0; t < worker_count; ++t) {
      threads.emplace_back(worker, t);
    }
    for (std::thread& t : threads) t.join();
  }
  for (const streaks::PrefilterStats& stats : worker_stats) {
    result.prefilter.Merge(stats);
  }

  // ---- Serial stitch: fold the edges, in log order, into streak
  // lengths. Chains crossing a chunk boundary resolve here because the
  // tracker's window carries over; per-chunk partials Merge exactly.
  {
    obs::RunTelemetry* rt = collect ? &telem[worker_count] : nullptr;
    obs::TraceRing* ring = tracing ? &rings[worker_count] : nullptr;
    streaks::StreakChainTracker tracker(window);
    for (size_t c = 0; c < edges.size(); ++c) {
      const ChunkEdges& chunk = edges[c];
      uint64_t t0 = rt != nullptr ? obs::NowNs() : 0;
      for (size_t j = 0; j + 1 < chunk.offsets.size(); ++j) {
        tracker.Add(chunk.gaps.data() + chunk.offsets[j],
                    chunk.offsets[j + 1] - chunk.offsets[j]);
      }
      result.report.Merge(tracker.DrainFinalized());
      if (rt) {
        uint64_t t1 = obs::NowNs();
        obs::StageMetrics& m = rt->stage(obs::kStageStitch);
        ++m.chunks;
        m.items_in += chunk.offsets.size() - 1;
        m.items_out += chunk.offsets.size() - 1;
        m.chunk_ns.Record(t1 - t0);
        if (ring) ring->Record(obs::kStageStitch, c, t0, t1);
      }
    }
    result.report.Merge(tracker.Finish());
  }

  if (collect) {
    obs::RunTelemetry merged;
    for (const obs::RunTelemetry& t : telem) merged.Merge(t);
    merged.prefilter_pairs = result.prefilter.pairs;
    merged.prefilter_exact_hash = result.prefilter.exact_hash_hits;
    merged.prefilter_length = result.prefilter.length_rejects;
    merged.prefilter_charmap = result.prefilter.charmap_rejects;
    merged.prefilter_histogram = result.prefilter.histogram_rejects;
    merged.prefilter_dp = result.prefilter.levenshtein_calls;
    merged.prefilter_abandoned = result.prefilter.abandoned_pairs;
    merged.prefilter_dp_block_steps = result.prefilter.dp_block_steps;
    merged.wall_ns = obs::NowNs() - run_start;
    merged.workers = worker_count + 1;
    merged.run_alloc_bytes = obs::AllocatedBytes() - alloc_bytes0;
    merged.run_allocs = obs::AllocationCount() - alloc_count0;
    result.telemetry = std::move(merged);
    if (tracing) {
      obs::TraceData trace;
      trace.origin_ns = run_start;
      trace.wall_ns = result.telemetry->wall_ns;
      trace.tracks.reserve(worker_count + 1);
      for (size_t i = 0; i <= worker_count; ++i) {
        obs::TraceTrack track;
        track.name = i < worker_count ? "streak-" + std::to_string(i)
                                      : "stitch";
        track.events = rings[i].Drain();
        track.dropped = rings[i].dropped();
        trace.tracks.push_back(std::move(track));
      }
      result.trace = std::move(trace);
    }
  }
  return result;
}

}  // namespace sparqlog::pipeline
