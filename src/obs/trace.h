#ifndef SPARQLOG_OBS_TRACE_H_
#define SPARQLOG_OBS_TRACE_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace sparqlog::obs {

/// One completed span: a stage working on a chunk between two monotonic
/// timestamps. 32 bytes, trivially copyable — rings of these are cheap.
struct TraceEvent {
  uint64_t begin_ns = 0;
  uint64_t end_ns = 0;
  uint64_t chunk = 0;  // chunk / batch id (stage-defined)
  int32_t stage = 0;   // StageId
  uint32_t pad = 0;

  bool operator==(const TraceEvent& other) const = default;
};

/// Spans a pipeline or streak-stage worker ring keeps before overwriting.
inline constexpr size_t kTraceRingCapacity = 1 << 15;

/// Fixed-capacity per-worker span buffer. Record never allocates after
/// construction and never blocks: when the ring is full the oldest span
/// is overwritten and `dropped` counts the loss, so tracing a huge run
/// costs bounded memory and the *end* of the run (where stalls usually
/// live) is what survives.
class TraceRing {
 public:
  explicit TraceRing(size_t capacity);

  void Record(int stage, uint64_t chunk, uint64_t begin_ns, uint64_t end_ns) {
    if (events_.empty()) return;
    if (size_ == events_.size()) {
      ++dropped_;
    } else {
      ++size_;
    }
    events_[next_] = TraceEvent{begin_ns, end_ns, chunk,
                                static_cast<int32_t>(stage), 0};
    next_ = next_ + 1 == events_.size() ? 0 : next_ + 1;
  }

  size_t size() const { return size_; }
  uint64_t dropped() const { return dropped_; }

  /// The retained spans, oldest first.
  std::vector<TraceEvent> Drain() const;

 private:
  std::vector<TraceEvent> events_;
  size_t next_ = 0;   // slot the next Record writes
  size_t size_ = 0;   // valid events
  uint64_t dropped_ = 0;
};

/// One worker's named span track (reader, parse-0, shard-2, ...).
struct TraceTrack {
  std::string name;
  std::vector<TraceEvent> events;
  uint64_t dropped = 0;
};

/// A whole run's trace: per-worker tracks on a common time axis whose
/// origin is the run start (timestamps stay raw; exporters subtract).
struct TraceData {
  uint64_t origin_ns = 0;
  uint64_t wall_ns = 0;
  std::vector<TraceTrack> tracks;
};

/// Writes the Chrome trace-event JSON (load via chrome://tracing or
/// https://ui.perfetto.dev): one "X" complete event per span with
/// microsecond ts/dur relative to the run origin, thread-name metadata
/// per track, and a dropped-span count in the top-level metadata.
void WriteChromeTrace(std::ostream& out, const TraceData& trace);

}  // namespace sparqlog::obs

#endif  // SPARQLOG_OBS_TRACE_H_
