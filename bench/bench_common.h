#ifndef SPARQLOG_BENCH_BENCH_COMMON_H_
#define SPARQLOG_BENCH_BENCH_COMMON_H_

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>

#include "obs/json_writer.h"
#include "util/strings.h"

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

/// A knob that is set but unparsable ends the bench (exit 2) rather
/// than letting it measure a default or a zero-sized run.
[[noreturn]] inline void BadEnvValue(const char* name) {
  std::cerr << "bad value for " << name << "\n";
  std::exit(2);
}

/// Positive integer knob from the environment (bench sizing): `fallback`
/// when unset; anything but a positive decimal count is rejected.
inline uint64_t EnvCount(const char* name, uint64_t fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr) return fallback;
  std::optional<uint64_t> v = util::ParseCount(env, UINT64_MAX);
  if (!v || *v == 0) BadEnvValue(name);
  return *v;
}

/// Positive real knob from the environment (scales, fractions):
/// `fallback` when unset; anything but a finite decimal number > 0
/// (no sign, whitespace or trailing text) is rejected.
inline double EnvPositive(const char* name, double fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr) return fallback;
  char* end = nullptr;
  double v = std::strtod(env, &end);
  bool plain = (*env >= '0' && *env <= '9') || *env == '.';
  if (!plain || *end != '\0' || !std::isfinite(v) || !(v > 0)) {
    BadEnvValue(name);
  }
  return v;
}

/// Scale factor for the synthetic corpus, overridable via the
/// SPARQLOG_SCALE environment variable (fraction of the paper's log
/// sizes; default keeps each bench within a few seconds).
inline double ScaleFromEnv(double fallback = 0.0002) {
  return EnvPositive("SPARQLOG_SCALE", fallback);
}

}  // namespace sparqlog::bench

#endif  // SPARQLOG_BENCH_BENCH_COMMON_H_
