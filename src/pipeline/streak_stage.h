#ifndef SPARQLOG_PIPELINE_STREAK_STAGE_H_
#define SPARQLOG_PIPELINE_STREAK_STAGE_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "streaks/streaks.h"

namespace sparqlog::pipeline {

struct StreakStageOptions {
  streaks::StreakOptions streak;
  /// Worker threads. 0 means hardware concurrency.
  int threads = 0;
  /// Queries per chunk. 0 derives one chunk per worker (clamped so a
  /// chunk is never smaller than the warmup overlap is wide).
  size_t chunk_size = 0;
  /// Metrics registry + span tracing switches (both default off).
  obs::TelemetryOptions telemetry;
};

/// Output of one sharded streak run.
struct StreakStageResult {
  streaks::StreakReport report;
  /// Cascade counters summed over every worker. Warmup re-scans are not
  /// counted, so the totals equal the serial detector's for every
  /// thread count and chunk size.
  streaks::PrefilterStats prefilter;
  size_t chunks = 0;
  int threads = 0;
  /// Merged per-worker metrics; engaged iff telemetry was requested.
  std::optional<obs::RunTelemetry> telemetry;
  /// Per-worker span tracks; engaged iff tracing was requested.
  std::optional<obs::TraceData> trace;
};

/// Parallel streak detection over an ordered query log (Section 8).
///
/// The log is split into contiguous chunks. Each worker re-runs the
/// similarity window over the `window`-sized overlap region preceding
/// its chunk (discarding those results) and then records, for every
/// query of the chunk, the gaps of the predecessors it matches. Because
/// a query's matches — and the has-later-similar blockers between them
/// — only involve queries at most `window` positions back, the warmup
/// reconstructs the serial window state exactly, so every worker emits
/// exactly the edges the serial detector would. A cheap serial stitch
/// pass then folds the edges into streak lengths with StreakChainTracker
/// (streaks spanning chunk boundaries are resolved here) and merges the
/// per-chunk partial reports via StreakReport::Merge. The result is
/// bit-identical to StreakDetector for every thread and chunk count.
class StreakStage {
 public:
  explicit StreakStage(StreakStageOptions options = {});

  StreakStageResult Run(const std::vector<std::string>& queries) const;

  /// The resolved worker count.
  int threads() const { return threads_; }

 private:
  StreakStageOptions options_;
  int threads_;
};

}  // namespace sparqlog::pipeline

#endif  // SPARQLOG_PIPELINE_STREAK_STAGE_H_
