#include "pipeline/paper_report.h"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace sparqlog::pipeline
