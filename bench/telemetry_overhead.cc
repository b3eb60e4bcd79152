// Telemetry overhead gate: runs the same synthetic corpus through the
// parallel pipeline with telemetry off, with the metrics registry on,
// and with metrics + span tracing on, interleaving the configurations
// round-robin and keeping the best (minimum) wall time of each so OS
// noise cancels instead of biasing one arm. Fails (non-zero exit) if
//
//   * the Table 1 counters differ between any two configurations
//     (instrumentation must never change results),
//   * the telemetry digests of the two collecting runs differ
//     (collection itself must be deterministic), or
//   * best-of metrics time exceeds best-of off time by more than
//     SPARQLOG_TELEMETRY_MAX_OVERHEAD (fraction, default 0.03).
//
// Knobs: SPARQLOG_BENCH_ENTRIES (per-dataset corpus floor),
// SPARQLOG_BENCH_ROUNDS (interleaved rounds, default 5),
// SPARQLOG_BENCH_JSON (artifact path, default BENCH_telemetry.json).

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "obs/alloc_hooks.h"
#include "obs/metrics.h"
#include "pipeline/pipeline.h"
#include "testing/invariants.h"
#include "util/strings.h"
#include "util/table.h"

namespace {

using namespace sparqlog;

struct Arm {
  const char* name = "";
  obs::TelemetryOptions telemetry{};
  double best_s = 1e300;
  corpus::CorpusStats stats{};
  std::optional<uint64_t> digest{};
  uint64_t lines = 0;
};

double RunOnce(const std::vector<std::string>& lines, Arm& arm) {
  pipeline::PipelineOptions options;
  options.telemetry = arm.telemetry;
  pipeline::ParallelLogPipeline pl(options);
  auto start = std::chrono::steady_clock::now();
  pipeline::PipelineResult result = pl.Run(lines);
  double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  arm.stats = result.stats;
  arm.lines = result.lines;
  if (result.telemetry.has_value()) {
    arm.digest = obs::TelemetryDigest(*result.telemetry);
  }
  if (elapsed < arm.best_s) arm.best_s = elapsed;
  return elapsed;
}

}  // namespace

int main() {
  uint64_t entries_per_dataset = bench::EnvCount("SPARQLOG_BENCH_ENTRIES", 4000);
  uint64_t rounds = bench::EnvCount("SPARQLOG_BENCH_ROUNDS", 5);
  double max_overhead =
      bench::EnvPositive("SPARQLOG_TELEMETRY_MAX_OVERHEAD", 0.03);

  std::cout << "Generating corpus (" << entries_per_dataset
            << " entries/dataset x 13 datasets)...\n";
  const std::vector<std::string> lines =
      testing::PaperCorpusLog(entries_per_dataset);
  std::cout << util::WithThousands(static_cast<long long>(lines.size()))
            << " log lines, best of " << rounds << " interleaved rounds\n\n";

  Arm arms[3] = {{.name = "off"},
                 {.name = "metrics", .telemetry = {.metrics = true}},
                 {.name = "metrics+trace",
                  .telemetry = {.metrics = true, .trace = true}}};

  // Warm-up round (page cache, allocator arenas), discarded.
  for (Arm& arm : arms) RunOnce(lines, arm);
  for (Arm& arm : arms) arm.best_s = 1e300;
  for (uint64_t r = 0; r < rounds; ++r) {
    for (Arm& arm : arms) RunOnce(lines, arm);
  }

  util::Table table({"Config", "Best (s)", "Queries/sec", "Overhead"});
  char buf[64];
  for (const Arm& arm : arms) {
    double overhead = arm.best_s / arms[0].best_s - 1.0;
    std::string overhead_str = "baseline";
    if (&arm != &arms[0]) {
      std::snprintf(buf, sizeof(buf), "%+.2f%%", 100.0 * overhead);
      overhead_str = buf;
    }
    std::snprintf(buf, sizeof(buf), "%.3f", arm.best_s);
    table.AddRow({arm.name, buf,
                  util::WithThousands(static_cast<long long>(
                      arm.stats.total / arm.best_s)),
                  overhead_str});
  }
  table.Print(std::cout);

  bool ok = true;
  // Instrumentation must not change the answers.
  for (int i = 1; i < 3; ++i) {
    if (arms[i].stats.total != arms[0].stats.total ||
        arms[i].stats.valid != arms[0].stats.valid ||
        arms[i].stats.unique != arms[0].stats.unique ||
        arms[i].lines != arms[0].lines) {
      std::cerr << "FAIL: " << arms[i].name
                << " changed pipeline results vs off\n";
      ok = false;
    }
  }
  // Collection itself must be deterministic across configurations.
  if (!arms[1].digest || !arms[2].digest) {
    std::cerr << "FAIL: collecting run produced no telemetry\n";
    ok = false;
  } else if (*arms[1].digest != *arms[2].digest) {
    std::cerr << "FAIL: telemetry digest differs between metrics ("
              << *arms[1].digest << ") and metrics+trace ("
              << *arms[2].digest << ")\n";
    ok = false;
  }
  double metrics_overhead = arms[1].best_s / arms[0].best_s - 1.0;
  if (metrics_overhead > max_overhead) {
    std::cerr << "FAIL: --metrics overhead "
              << 100.0 * metrics_overhead << "% exceeds budget "
              << 100.0 * max_overhead << "%\n";
    ok = false;
  } else {
    std::cout << "\n--metrics overhead " << 100.0 * metrics_overhead
              << "% within budget " << 100.0 * max_overhead << "%\n";
  }

  std::ofstream json_out(bench::BenchJsonPath("BENCH_telemetry.json"));
  bench::JsonWriter json(json_out);
  json.BeginObject();
  json.KV("bench", "telemetry_overhead");
  json.KV("lines", arms[0].lines);
  json.KV("rounds", rounds);
  json.KV("max_overhead", max_overhead);
  json.Key("configs");
  json.BeginArray();
  for (const Arm& arm : arms) {
    json.BeginObject();
    json.KV("name", arm.name);
    json.KV("best_seconds", arm.best_s);
    json.KV("queries_per_second", arm.stats.total / arm.best_s);
    json.KV("overhead", arm.best_s / arms[0].best_s - 1.0);
    if (arm.digest) json.KV("telemetry_digest", *arm.digest);
    json.EndObject();
  }
  json.EndArray();
  json.KV("ok", ok);
  json.EndObject();
  json.Finish();

  return ok ? 0 : 1;
}
