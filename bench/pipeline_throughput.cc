// Pipeline scaling baseline: runs the same synthetic corpus through the
// serial LogIngestor/CorpusAnalyzer path and through the sharded
// parallel pipeline at 1/2/4/8 threads, reporting queries/sec and
// verifying that every run produces identical Table 1 counters. The
// corpus defaults to >= 100k query entries; SPARQLOG_BENCH_ENTRIES
// overrides the per-dataset floor.
//
// Exit status is non-zero on any serial/parallel statistics mismatch,
// so this doubles as a large-corpus determinism check.

#include <chrono>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <vector>

#include "bench_common.h"
#include "corpus/generator.h"
#include "corpus/ingest.h"
#include "corpus/profile.h"
#include "corpus/report.h"
#include "pipeline/merge.h"
#include "pipeline/pipeline.h"
#include "util/strings.h"
#include "util/table.h"

namespace {

double Time(const std::function<void()>& fn) {
  auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int main() {
  using namespace sparqlog;

  uint64_t entries_per_dataset = 8000;  // 13 datasets -> >= 100k entries
  if (const char* env = std::getenv("SPARQLOG_BENCH_ENTRIES")) {
    uint64_t v = std::strtoull(env, nullptr, 10);
    if (v > 0) entries_per_dataset = v;
  }

  std::cout << "Generating corpus (" << entries_per_dataset
            << " entries/dataset x 13 datasets)...\n";
  std::vector<std::string> lines;
  {
    auto profiles = corpus::PaperProfiles();
    uint64_t seed = 2017;
    for (const auto& profile : profiles) {
      corpus::GeneratorOptions options;
      options.scale = 0;
      options.min_entries = entries_per_dataset;
      options.seed = seed++;
      corpus::SyntheticLogGenerator gen(profile, options);
      auto log = gen.GenerateLog();
      lines.insert(lines.end(), log.begin(), log.end());
    }
  }
  std::cout << util::WithThousands(static_cast<long long>(lines.size()))
            << " log lines\n\n";

  // Serial baseline and reference statistics.
  corpus::CorpusStats reference;
  std::vector<uint64_t> reference_digest;
  double serial_s = Time([&] {
    corpus::LogIngestor ingestor;
    corpus::CorpusAnalyzer analyzer;
    ingestor.set_unique_sink(
        [&analyzer](const sparql::Query& q) { analyzer.AddQuery(q, "all"); });
    ingestor.ProcessLog(lines);
    reference = ingestor.stats();
    reference_digest = pipeline::StatisticsDigest(analyzer);
  });

  util::Table table({"Config", "Time (s)", "Queries/sec", "Speedup vs 1T",
                     "Stats"});
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2f", serial_s);
  table.AddRow({"serial", buf,
                util::WithThousands(static_cast<long long>(
                    reference.total / serial_s)),
                "-", "reference"});

  bool all_match = true;
  double one_thread_s = 0;
  for (int threads : {1, 2, 4, 8}) {
    pipeline::PipelineOptions options;
    options.threads = threads;
    pipeline::PipelineResult result;
    double s = Time([&] {
      pipeline::ParallelLogPipeline pl(options);
      result = pl.Run(lines);
    });
    if (threads == 1) one_thread_s = s;
    bool match = result.stats.total == reference.total &&
                 result.stats.valid == reference.valid &&
                 result.stats.unique == reference.unique &&
                 pipeline::StatisticsDigest(result.analysis) ==
                     reference_digest;
    all_match = all_match && match;
    std::snprintf(buf, sizeof(buf), "%.2f", s);
    std::string time_str = buf;
    std::snprintf(buf, sizeof(buf), "%.2fx", one_thread_s / s);
    table.AddRow({std::to_string(threads) + " threads", time_str,
                  util::WithThousands(
                      static_cast<long long>(result.stats.total / s)),
                  buf, match ? "identical" : "MISMATCH"});
  }
  table.Print(std::cout);

  std::cout << "\nTotal " << util::WithThousands(reference.total)
            << ", Valid " << util::WithThousands(reference.valid)
            << ", Unique " << util::WithThousands(reference.unique) << "\n";
  if (!all_match) {
    std::cerr << "FAIL: parallel statistics diverged from serial\n";
    return 1;
  }
  return 0;
}
