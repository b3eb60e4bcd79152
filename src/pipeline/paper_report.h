#ifndef SPARQLOG_PIPELINE_PAPER_REPORT_H_
#define SPARQLOG_PIPELINE_PAPER_REPORT_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "corpus/ingest.h"
#include "corpus/report.h"
#include "streaks/streaks.h"

namespace sparqlog::pipeline {

/// Pipeline counters of one dataset's log (a Table 1 row).
struct DatasetRun {
  std::string name;
  corpus::CorpusStats stats;
};

/// One Figure 3 (Section 5.1) workload length: its chain and its cycle
/// Ask workload, each run on the BG-like and the PG-like engine under
/// the same per-query step cap.
struct Figure3Row {
  int length = 0;
  /// Queries evaluated per shape (chain, cycle): those that compile
  /// against the graph.
  std::array<uint64_t, 2> queries{};
  /// Total steps of chainBG, chainPG, cycleBG and cyclePG.
  std::array<uint64_t, 4> steps{};
  /// cyclePG queries that reached the cap (the paper's timeouts).
  uint64_t cycle_pg_capped = 0;
};

/// Everything the paper's Tables 1-6, Figures 1, 3 and 5 and the
/// appendix are printed from.
struct PaperReport {
  double scale = 0;
  /// Per-dataset counters, in PaperProfiles() order.
  std::vector<DatasetRun> datasets;
  /// Analysis of the unique corpus (Tables 2-5, Figures 1 and 5).
  corpus::CorpusAnalyzer unique;
  /// Analysis of the valid corpus, duplicates included (the appendix).
  corpus::CorpusAnalyzer valid;
  /// Table 6: the DBpedia14 / DBpedia15 / DBpedia16 day logs.
  std::array<streaks::StreakReport, 3> days;
  /// Figure 3: W-3..W-8.
  std::vector<Figure3Row> figure3;
  /// One line per run that quarantined or abandoned a line or whose
  /// source failed; empty on a clean run.
  std::vector<std::string> problems;
};

/// Table 6's three single-day logs: DBpedia14 / 15 / 16 with planted
/// refinement sessions, sized proportionally to the paper's 273 / 803 /
/// 1004 MiB logs (`base_queries` is the DBpedia14 size).
std::vector<std::vector<std::string>> Table6DayLogs(size_t base_queries);

/// Runs Figure 3 serially on a fixed gMark Bib graph, workload size and
/// step cap, so every run prints the same block.
std::vector<Figure3Row> RunFigure3();

/// Runs the 13 paper profiles (generated at `scale`, at least 300
/// entries each, seeds 2017+i) through ParallelLogPipeline once over the
/// unique corpus and once over the valid corpus, Table6DayLogs
/// (`streak_queries`) through the sharded StreakStage, and RunFigure3.
PaperReport RunPaperReport(double scale, size_t streak_queries);

/// Writes every section of the paper's report: Tables 1-5, Figures 1
/// and 5, the appendix (Tables 7-9, Figures 8-10), Table 6 and
/// Figure 3.
void PrintPaperReport(std::ostream& out, const PaperReport& report);

/// Compact report of one analyzed log: query forms, fragment counts,
/// CQ shapes and treewidth, property paths.
void PrintQuerySummary(std::ostream& out, const corpus::CorpusAnalyzer& a);

}  // namespace sparqlog::pipeline

#endif  // SPARQLOG_PIPELINE_PAPER_REPORT_H_
