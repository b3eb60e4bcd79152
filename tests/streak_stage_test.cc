// The sharded streak stage must produce a report bit-identical to the
// serial StreakDetector for every thread and chunk count — including
// chunks far narrower than the similarity window, where every streak
// crosses chunk boundaries and lives or dies by the stitch pass.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "corpus/generator.h"
#include "corpus/profile.h"
#include "pipeline/streak_stage.h"
#include "streaks/streaks.h"
#include "util/rng.h"

namespace sparqlog::pipeline {
namespace {

using streaks::StreakDetector;
using streaks::StreakOptions;
using streaks::StreakReport;

StreakReport Serial(const std::vector<std::string>& log,
                    const StreakOptions& options) {
  StreakDetector detector(options);
  for (const std::string& q : log) detector.Add(q);
  return detector.Finish();
}

void ExpectReportsEqual(const StreakReport& a, const StreakReport& b,
                        const std::string& context) {
  for (size_t i = 0; i < 11; ++i) {
    EXPECT_EQ(a.counts[i], b.counts[i]) << context << " bucket " << i;
  }
  EXPECT_EQ(a.total_streaks, b.total_streaks) << context;
  EXPECT_EQ(a.longest, b.longest) << context;
  EXPECT_EQ(a.queries_processed, b.queries_processed) << context;
}

std::vector<std::string> SessionLog(uint64_t seed, size_t n) {
  util::Rng rng(seed);
  std::vector<std::string> log;
  std::string current = "SELECT ?x WHERE { ?x <birthPlace> <Paris> }";
  for (size_t i = 0; i < n; ++i) {
    double roll = rng.NextDouble();
    if (roll < 0.25) {
      current = "ASK { <e" + std::to_string(rng.Below(50)) +
                "> <p> <o" + std::to_string(rng.Below(50)) + "> }";
    } else if (roll < 0.75) {
      current += static_cast<char>('a' + rng.Below(26));
    }
    log.push_back(current);
  }
  return log;
}

TEST(StreakStageTest, MatchesSerialAcrossThreadAndChunkCounts) {
  StreakOptions streak;
  std::vector<std::string> log = SessionLog(1, 600);
  StreakReport serial = Serial(log, streak);
  for (int threads : {1, 2, 3, 8}) {
    for (size_t chunk : {size_t{1}, size_t{7}, size_t{64}, size_t{1000}}) {
      StreakStageOptions options;
      options.streak = streak;
      options.threads = threads;
      options.chunk_size = chunk;
      StreakStageResult result = StreakStage(options).Run(log);
      ExpectReportsEqual(result.report, serial,
                         "threads=" + std::to_string(threads) +
                             " chunk=" + std::to_string(chunk));
    }
  }
}

TEST(StreakStageTest, ChunksNarrowerThanTheWindow) {
  // chunk_size 1 with window 30: every query is its own chunk and the
  // stitch pass does all the chaining.
  StreakOptions streak;
  std::vector<std::string> log = SessionLog(2, 150);
  StreakStageOptions options;
  options.streak = streak;
  options.threads = 4;
  options.chunk_size = 1;
  StreakStageResult result = StreakStage(options).Run(log);
  ExpectReportsEqual(result.report, Serial(log, streak), "chunk=1");
  EXPECT_EQ(result.chunks, log.size());
}

TEST(StreakStageTest, RandomizedConfigurations) {
  util::Rng rng(20260726);
  for (int round = 0; round < 6; ++round) {
    StreakOptions streak;
    streak.window = 1 + rng.Below(40);
    streak.similarity_threshold = round % 2 == 0 ? 0.25 : 0.4;
    std::vector<std::string> log = SessionLog(100 + round, 200 + rng.Below(200));
    StreakStageOptions options;
    options.streak = streak;
    options.threads = static_cast<int>(1 + rng.Below(5));
    options.chunk_size = 1 + rng.Below(97);
    StreakStageResult result = StreakStage(options).Run(log);
    ExpectReportsEqual(result.report, Serial(log, streak),
                       "round " + std::to_string(round) + " window " +
                           std::to_string(streak.window));
  }
}

TEST(StreakStageTest, EmptyAndTinyLogs) {
  StreakStageOptions options;
  options.threads = 4;
  StreakStageResult empty = StreakStage(options).Run({});
  EXPECT_EQ(empty.report.total_streaks, 0u);
  EXPECT_EQ(empty.report.queries_processed, 0u);
  EXPECT_EQ(empty.chunks, 0u);

  std::vector<std::string> one = {"SELECT ?x WHERE { ?x <p> ?y }"};
  StreakStageResult single = StreakStage(options).Run(one);
  EXPECT_EQ(single.report.total_streaks, 1u);
  EXPECT_EQ(single.report.queries_processed, 1u);
}

TEST(StreakStageTest, DefaultChunkingCoversTheLog) {
  StreakStageOptions options;
  options.threads = 3;  // chunk_size 0: derived from the thread count
  std::vector<std::string> log = SessionLog(9, 500);
  StreakStageResult result = StreakStage(options).Run(log);
  EXPECT_GE(result.chunks, 1u);
  EXPECT_EQ(result.report.queries_processed, log.size());
  ExpectReportsEqual(result.report, Serial(log, StreakOptions()), "default");
}

TEST(StreakStageTest, PrefilterCountersAggregate) {
  std::vector<std::string> log = SessionLog(5, 400);
  StreakStageOptions options;
  options.threads = 2;
  options.chunk_size = 100;
  StreakStageResult result = StreakStage(options).Run(log);
  EXPECT_GT(result.prefilter.pairs, 0u);
  EXPECT_EQ(result.prefilter.pairs,
            result.prefilter.exact_hash_hits + result.prefilter.length_rejects +
                result.prefilter.charmap_rejects +
                result.prefilter.histogram_rejects +
                result.prefilter.levenshtein_calls);
}

TEST(StreakStageTest, LevenshteinStepBudgetIsScheduleIndependent) {
  // A budget this small abandons most pairs that reach the DP. Whether a
  // pair is abandoned depends only on its two texts, so the report and
  // the abandoned count must not move with the thread count or the
  // chunk layout, and must match the serial detector at the same budget.
  StreakOptions streak;
  streak.levenshtein_step_budget = 4;
  const std::vector<std::string> log = SessionLog(11, 500);
  StreakDetector detector(streak);
  for (const std::string& q : log) detector.Add(q);
  const uint64_t abandoned = detector.prefilter_stats().abandoned_pairs;
  const StreakReport serial = detector.Finish();
  ASSERT_GT(abandoned, 0u);
  // The budget bites: abandoned pairs count as dissimilar.
  EXPECT_NE(serial, Serial(log, StreakOptions()));
  for (int threads : {1, 2, 4}) {
    for (size_t chunk : {size_t{1}, size_t{7}, size_t{64}, size_t{1000}}) {
      const std::string context = "threads=" + std::to_string(threads) +
                                  " chunk=" + std::to_string(chunk);
      StreakStageOptions options;
      options.streak = streak;
      options.threads = threads;
      options.chunk_size = chunk;
      options.telemetry.metrics = true;
      StreakStageResult result = StreakStage(options).Run(log);
      ExpectReportsEqual(result.report, serial, context);
      EXPECT_EQ(result.prefilter.abandoned_pairs, abandoned) << context;
      ASSERT_TRUE(result.telemetry.has_value()) << context;
      EXPECT_EQ(result.telemetry->prefilter_abandoned, abandoned) << context;
    }
  }
}

TEST(StreakStageTest, DpBlockStepsAreScheduleIndependent) {
  // The DP's block-step counter depends only on the pairs that reach
  // the DP, so it — and every other cascade counter — must equal the
  // serial detector's at any thread count and chunk layout.
  auto profiles = corpus::PaperProfiles();
  const std::vector<std::string> log = corpus::GenerateStreakLog(
      corpus::ProfileByName(profiles, "DBpedia16"), 1200, 0.3, 2017);
  StreakDetector detector;
  for (const std::string& q : log) detector.Add(q);
  const streaks::PrefilterStats serial = detector.prefilter_stats();
  ASSERT_GT(serial.levenshtein_calls, 0u);
  ASSERT_GE(serial.dp_block_steps, serial.levenshtein_calls);
  for (int threads : {1, 2, 4}) {
    for (size_t chunk : {size_t{1}, size_t{7}, size_t{2048}}) {
      const std::string context = "threads=" + std::to_string(threads) +
                                  " chunk=" + std::to_string(chunk);
      StreakStageOptions options;
      options.threads = threads;
      options.chunk_size = chunk;
      options.telemetry.metrics = true;
      StreakStageResult result = StreakStage(options).Run(log);
      EXPECT_EQ(result.prefilter, serial) << context;
      EXPECT_EQ(result.prefilter.dp_block_steps, serial.dp_block_steps)
          << context;
      ASSERT_TRUE(result.telemetry.has_value()) << context;
      EXPECT_EQ(result.telemetry->prefilter_dp_block_steps,
                serial.dp_block_steps)
          << context;
    }
  }
}

TEST(StreakStageTest, PlantedRefinementSessions) {
  // The realistic Table 6 shape: GenerateStreakLog plants refinement
  // sessions; serial and sharded must agree on the full report.
  auto profiles = corpus::PaperProfiles();
  const corpus::DatasetProfile& profile =
      corpus::ProfileByName(profiles, "DBpedia16");
  auto log = corpus::GenerateStreakLog(profile, 1200, 0.3, 4242);
  StreakOptions streak;
  StreakReport serial = Serial(log, streak);
  StreakStageOptions options;
  options.threads = 4;
  options.chunk_size = 97;
  StreakStageResult result = StreakStage(options).Run(log);
  ExpectReportsEqual(result.report, serial, "planted sessions");
  EXPECT_GT(result.report.total_streaks, 0u);
}

}  // namespace
}  // namespace sparqlog::pipeline
