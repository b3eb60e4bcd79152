#include "pipeline/paper_report.h"

#include <gtest/gtest.h>

#include <array>
#include <fstream>
#include <sstream>
#include <string>

namespace sparqlog::pipeline {
namespace {

/// tests/golden/paper_report.txt, located next to this source file.
std::string GoldenPath() {
  std::string path = __FILE__;
  return path.substr(0, path.find_last_of("/\\") + 1) +
         "golden/paper_report.txt";
}

// The paper's report at SPARQLOG_SCALE=0.00005 and
// SPARQLOG_STREAK_QUERIES=400, byte for byte. Drift in the generator, the
// pipeline or a classifier moves a number here and fails the test.
TEST(PaperReportTest, MatchesGolden) {
  std::ifstream in(GoldenPath(), std::ios::binary);
  ASSERT_TRUE(in) << "cannot open " << GoldenPath();
  std::stringstream golden;
  golden << in.rdbuf();

  PaperReport report = RunPaperReport(0.00005, 400);
  EXPECT_TRUE(report.problems.empty());
  std::ostringstream out;
  PrintPaperReport(out, report);
  EXPECT_EQ(out.str(), golden.str());
}

// Figure 3's qualitative result in work units: over W-3..W-8 the BG-like
// engine does less work than the PG-like one on both shapes, and cycles
// cost more than chains on both engines. The golden prints only rounded
// means, so the exact totals are pinned here too: a step more or less
// anywhere in either engine fails this test.
TEST(PaperReportTest, Figure3OrdersEnginesAndShapes) {
  struct Expected {
    int length;
    std::array<uint64_t, 4> steps;  // chainBG, chainPG, cycleBG, cyclePG
    uint64_t cycle_pg_capped;
  };
  const Expected expected[] = {
      {3, {353, 805211, 4314, 4792500}, 24},
      {4, {579, 1093938, 2510, 2400488}, 12},
      {5, {737, 1436145, 7006, 5400864}, 38},
      {6, {934, 1695287, 5849, 4239239}, 25},
      {7, {1946, 2511663, 12065, 6049676}, 45},
      {8, {2813, 3502498, 10649, 5687590}, 40},
  };
  std::vector<Figure3Row> rows = RunFigure3();
  ASSERT_EQ(rows.size(), 6u);
  uint64_t chain_bg = 0, chain_pg = 0, cycle_bg = 0, cycle_pg = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    const Figure3Row& row = rows[i];
    EXPECT_EQ(row.length, expected[i].length);
    EXPECT_EQ(row.queries[0], 100u) << "W-" << row.length;
    EXPECT_EQ(row.queries[1], 100u) << "W-" << row.length;
    EXPECT_EQ(row.steps, expected[i].steps) << "W-" << row.length;
    EXPECT_EQ(row.cycle_pg_capped, expected[i].cycle_pg_capped)
        << "W-" << row.length;
    chain_bg += row.steps[0];
    chain_pg += row.steps[1];
    cycle_bg += row.steps[2];
    cycle_pg += row.steps[3];
  }
  EXPECT_LT(chain_bg, chain_pg);
  EXPECT_LT(cycle_bg, cycle_pg);
  EXPECT_LT(chain_bg, cycle_bg);
  EXPECT_LT(chain_pg, cycle_pg);
}

}  // namespace
}  // namespace sparqlog::pipeline
