#ifndef SPARQLOG_OBS_CLOCK_H_
#define SPARQLOG_OBS_CLOCK_H_

#include <chrono>
#include <cstdint>

namespace sparqlog::obs {

/// Monotonic nanosecond timestamp — the one clock every telemetry
/// component (latency histograms, queue wait accounting, trace spans)
/// reads, so spans from different workers land on a common time axis.
inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace sparqlog::obs

#endif  // SPARQLOG_OBS_CLOCK_H_
