// Regenerates the paper's Tables 1-6, Figures 1, 3 and 5 and the
// appendix (Tables 7-9, Figures 8-10) on the production pipeline: the 13
// calibrated synthetic logs go through ParallelLogPipeline (unique and
// valid corpus), Table 6's day logs through the sharded StreakStage, and
// Figure 3's chain/cycle Ask workloads through both query engines on a
// fixed gMark graph, each query capped at a fixed number of steps.
//
// SPARQLOG_SCALE sets the corpus size as a fraction of the paper's logs
// (default 0.0002); SPARQLOG_STREAK_QUERIES sets the DBpedia14 day-log
// size for Table 6 (default 4000). Exits non-zero if any run quarantined
// or abandoned a line or its source failed.

#include <iostream>

#include "bench_common.h"
#include "pipeline/paper_report.h"

int main() {
  using namespace sparqlog;
  pipeline::PaperReport report = pipeline::RunPaperReport(
      bench::ScaleFromEnv(), bench::EnvCount("SPARQLOG_STREAK_QUERIES", 4000));
  pipeline::PrintPaperReport(std::cout, report);
  for (const std::string& problem : report.problems) {
    std::cerr << "FAIL: " << problem << "\n";
  }
  return report.problems.empty() ? 0 : 1;
}
