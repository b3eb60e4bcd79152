#ifndef SPARQLOG_BENCH_BENCH_COMMON_H_
#define SPARQLOG_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <cstdlib>
#include <string>

#include "obs/json_writer.h"

namespace sparqlog::bench {

/// The streaming JSON writer behind the BENCH_*.json emitters (shared
/// with the telemetry exporters in src/obs/).
using JsonWriter = obs::JsonWriter;

/// Path for a bench's JSON artifact: SPARQLOG_BENCH_JSON overrides the
/// per-bench default so CI runs can redirect without editing code.
inline std::string BenchJsonPath(const char* fallback) {
  const char* env = std::getenv("SPARQLOG_BENCH_JSON");
  return env != nullptr ? env : fallback;
}

/// Positive integer knob from the environment (bench sizing).
inline uint64_t EnvCount(const char* name, uint64_t fallback) {
  if (const char* env = std::getenv(name)) {
    uint64_t v = std::strtoull(env, nullptr, 10);
    if (v > 0) return v;
  }
  return fallback;
}

/// Scale factor for the synthetic corpus, overridable via the
/// SPARQLOG_SCALE environment variable (fraction of the paper's log
/// sizes; default keeps each bench within a few seconds).
inline double ScaleFromEnv(double fallback = 0.0002) {
  const char* env = std::getenv("SPARQLOG_SCALE");
  if (env != nullptr) {
    double v = std::atof(env);
    if (v > 0) return v;
  }
  return fallback;
}

}  // namespace sparqlog::bench

#endif  // SPARQLOG_BENCH_BENCH_COMMON_H_
