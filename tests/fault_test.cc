// Tests for the fault-containment subsystem: util::Status, the analysis
// step budgets and the abandoned bucket, worker quarantine, the seeded
// fault-injection harness, and the crash-safe run journal.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "corpus/ingest.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "corpus/report.h"
#include "pipeline/journal.h"
#include "pipeline/merge.h"
#include "pipeline/pipeline.h"
#include "testing/fault_injection.h"
#include "testing/invariants.h"
#include "util/budget.h"
#include "util/rng.h"
#include "util/snapshot_io.h"
#include "util/status.h"
#include "util/vbyte.h"

namespace sparqlog {
namespace {

// ---------------------------------------------------------------------------
// util::Status
// ---------------------------------------------------------------------------

TEST(StatusTest, FactoriesCarryCodeAndMessage) {
  struct Case {
    util::Status status;
    util::StatusCode code;
    const char* name;
  };
  const Case cases[] = {
      {util::Status::OK(), util::StatusCode::kOk, "OK"},
      {util::Status::InvalidArgument("bad"), util::StatusCode::kInvalidArgument,
       "InvalidArgument"},
      {util::Status::NotFound("bad"), util::StatusCode::kNotFound, "NotFound"},
      {util::Status::OutOfRange("bad"), util::StatusCode::kOutOfRange,
       "OutOfRange"},
      {util::Status::Unsupported("bad"), util::StatusCode::kUnsupported,
       "Unsupported"},
      {util::Status::Timeout("bad"), util::StatusCode::kTimeout, "Timeout"},
      {util::Status::Internal("bad"), util::StatusCode::kInternal, "Internal"},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(c.status.code(), c.code);
    EXPECT_EQ(c.status.ok(), c.code == util::StatusCode::kOk);
    if (c.status.ok()) {
      EXPECT_EQ(c.status.ToString(), "OK");
      EXPECT_TRUE(c.status.message().empty());
    } else {
      EXPECT_EQ(c.status.message(), "bad");
      EXPECT_EQ(c.status.ToString(), std::string(c.name) + ": bad");
    }
  }
}

TEST(StatusTest, MessagePropagatesThroughCopyAndMove) {
  util::Status s = util::Status::Timeout("ghw step budget exhausted");
  util::Status copy = s;
  EXPECT_EQ(copy.code(), util::StatusCode::kTimeout);
  EXPECT_EQ(copy.message(), "ghw step budget exhausted");
  EXPECT_EQ(s.message(), copy.message());
  util::Status moved = std::move(s);
  EXPECT_EQ(moved.message(), "ghw step budget exhausted");
}

TEST(StatusTest, OkPathCarriesNoMessageStorage) {
  // The OK fast path is default construction with an empty message, so
  // copies never touch the heap (std::string SSO on empty).
  util::Status ok;
  EXPECT_TRUE(ok.ok());
  EXPECT_TRUE(ok.message().empty());
  util::Status copy = ok;
  EXPECT_TRUE(copy.ok());
  EXPECT_TRUE(copy.message().empty());
}

// ---------------------------------------------------------------------------
// util::StepBudget
// ---------------------------------------------------------------------------

TEST(StepBudgetTest, UnlimitedNeverExhausts) {
  util::StepBudget unlimited;
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(unlimited.Charge(1u << 20));
  EXPECT_FALSE(unlimited.exhausted());
  EXPECT_FALSE(unlimited.limited());

  util::StepBudget zero(0);
  EXPECT_TRUE(zero.Charge(42));
  EXPECT_FALSE(zero.exhausted());
}

TEST(StepBudgetTest, ExhaustionIsPermanent) {
  util::StepBudget b(10);
  EXPECT_TRUE(b.Charge(10));
  EXPECT_FALSE(b.exhausted());
  EXPECT_FALSE(b.Charge(1));
  EXPECT_TRUE(b.exhausted());
  // Permanently failed: even a free charge is refused.
  EXPECT_FALSE(b.Charge(0));
  EXPECT_EQ(b.remaining(), 0u);
}

// ---------------------------------------------------------------------------
// Budgets → the abandoned bucket
// ---------------------------------------------------------------------------

/// A CQ with enough structure that the width kernels must do real work.
const char kStructuredQuery[] =
    "SELECT * WHERE { ?a <p:1> ?b . ?b <p:2> ?c . ?c <p:3> ?d . "
    "?d <p:4> ?a . ?a <p:5> ?c . ?b <p:6> ?d }";

TEST(AnalysisBudgetTest, UnlimitedMatchesAddQuery) {
  sparql::Parser parser;
  auto q = parser.Parse(kStructuredQuery);
  ASSERT_TRUE(q.ok()) << q.status().ToString();

  corpus::CorpusAnalyzer plain, budgeted;
  plain.AddQuery(q.value(), "all");
  EXPECT_TRUE(
      budgeted.AddQueryBudgeted(q.value(), "all", corpus::AnalysisLimits{})
          .ok());
  EXPECT_EQ(pipeline::StatisticsDigest(plain),
            pipeline::StatisticsDigest(budgeted));
}

TEST(AnalysisBudgetTest, ExhaustedBudgetLeavesAggregatesUntouched) {
  sparql::Parser parser;
  auto q = parser.Parse(kStructuredQuery);
  ASSERT_TRUE(q.ok()) << q.status().ToString();

  corpus::AnalysisLimits tiny;
  tiny.ghw_steps = 1;
  tiny.treewidth_steps = 1;
  tiny.girth_steps = 1;

  corpus::CorpusAnalyzer analyzer;
  util::Status st = analyzer.AddQueryBudgeted(q.value(), "all", tiny);
  ASSERT_EQ(st.code(), util::StatusCode::kTimeout) << st.ToString();
  // Compute-then-commit: the abandoned query contributed to NOTHING.
  corpus::CorpusAnalyzer fresh;
  EXPECT_EQ(pipeline::StatisticsDigest(analyzer),
            pipeline::StatisticsDigest(fresh));
  EXPECT_EQ(analyzer.keywords().total, 0u);
}

TEST(AnalysisBudgetTest, VerdictIsDeterministicPerQuery) {
  sparql::Parser parser;
  auto q = parser.Parse(kStructuredQuery);
  ASSERT_TRUE(q.ok());
  corpus::AnalysisLimits tiny;
  tiny.girth_steps = 2;
  corpus::CorpusAnalyzer a;
  util::Status first = a.AddQueryBudgeted(q.value(), "all", tiny);
  for (int i = 0; i < 5; ++i) {
    corpus::CorpusAnalyzer b;
    EXPECT_EQ(b.AddQueryBudgeted(q.value(), "all", tiny).code(), first.code());
  }
}

TEST(AnalysisBudgetTest, PipelineRoutesExhaustionToAbandoned) {
  const char kTrivialQuery[] = "ASK { ?s ?p ?o }";
  corpus::AnalysisLimits limits;
  limits.girth_steps = 1;
  limits.treewidth_steps = 1;

  // Establish each query's verdict under the limits directly; the
  // pipeline must reproduce exactly these verdicts per occurrence.
  sparql::Parser parser;
  auto structured = parser.Parse(kStructuredQuery);
  auto trivial = parser.Parse(kTrivialQuery);
  ASSERT_TRUE(structured.ok() && trivial.ok());
  corpus::CorpusAnalyzer probe_s, probe_t;
  const bool structured_abandons =
      probe_s.AddQueryBudgeted(structured.value(), "all", limits).code() ==
      util::StatusCode::kTimeout;
  const bool trivial_abandons =
      probe_t.AddQueryBudgeted(trivial.value(), "all", limits).code() ==
      util::StatusCode::kTimeout;
  // The structured query must actually hit the tiny budget, or this
  // test exercises nothing.
  ASSERT_TRUE(structured_abandons);

  std::vector<std::string> log;
  for (int i = 0; i < 8; ++i) {
    log.push_back(std::string("query=") + kStructuredQuery);  // duplicates
  }
  log.push_back(std::string("query=") + kTrivialQuery);
  log.push_back("query=not sparql at all");
  log.push_back("noise line");

  pipeline::PipelineOptions options;
  options.threads = 2;
  options.shards = 2;
  options.analysis_limits = limits;
  pipeline::ParallelLogPipeline pipe(options);
  pipeline::PipelineResult r = pipe.Run(log);

  EXPECT_TRUE(r.stats.Conserved());
  EXPECT_EQ(r.stats.total, 10u);  // the noise line is not a query entry
  // All 8 structured duplicates abandon — the first occurrence by
  // verdict, the duplicates by the seen-abandoned route.
  const uint64_t expected_abandoned = 8u + (trivial_abandons ? 1u : 0u);
  EXPECT_EQ(r.stats.abandoned, expected_abandoned);
  EXPECT_EQ(r.stats.valid, 9u - expected_abandoned);
  EXPECT_EQ(r.stats.unique, 9u - expected_abandoned);
  EXPECT_EQ(r.stats.malformed, 1u);
  EXPECT_EQ(r.stats.quarantined, 0u);
  // The abandoned queries contributed to no aggregate.
  EXPECT_EQ(r.analysis.keywords().total, 9u - expected_abandoned);
}

// ---------------------------------------------------------------------------
// Worker quarantine
// ---------------------------------------------------------------------------

TEST(QuarantineTest, PoisonLinesAreQuarantinedDeterministically) {
  std::vector<std::string> log;
  for (int i = 0; i < 40; ++i) {
    log.push_back("query=ASK { <s:" + std::to_string(i) + "> ?p ?o }");
  }
  const std::string poison = "query=ASK { <s:13> ?p ?o }";

  pipeline::PipelineOptions options;
  options.threads = 3;
  options.shards = 2;
  options.chunk_size = 7;
  options.parse_fault_hook = [poison](std::string_view line) {
    if (line == poison) throw std::runtime_error("poisoned");
  };
  pipeline::ParallelLogPipeline pipe(options);

  pipeline::PipelineResult first = pipe.Run(log);
  EXPECT_TRUE(first.stats.Conserved());
  EXPECT_EQ(first.stats.quarantined, 1u);
  EXPECT_EQ(first.quarantine.count, 1u);
  ASSERT_EQ(first.quarantine.samples.size(), 1u);
  EXPECT_EQ(first.quarantine.samples[0].line, poison);
  EXPECT_EQ(first.quarantine.samples[0].reason, "poisoned");
  EXPECT_EQ(first.stats.valid, 39u);
  EXPECT_EQ(first.stats.total, 40u);

  // Same outcome under a different pipeline shape.
  pipeline::PipelineOptions alt = options;
  alt.threads = 1;
  alt.shards = 4;
  pipeline::ParallelLogPipeline pipe2(alt);
  pipeline::PipelineResult second = pipe2.Run(log);
  EXPECT_EQ(second.stats.quarantined, 1u);
  EXPECT_EQ(pipeline::StatisticsDigest(first.analysis),
            pipeline::StatisticsDigest(second.analysis));
}

TEST(QuarantineTest, OneShotFaultRecoversLosslessly) {
  std::vector<std::string> log;
  for (int i = 0; i < 30; ++i) {
    log.push_back("query=ASK { <s:" + std::to_string(i) + "> ?p ?o }");
  }
  // The hook throws exactly once; the recovery pass re-parses the chunk
  // cleanly, so nothing is quarantined and nothing is lost.
  auto fired = std::make_shared<std::atomic<bool>>(false);
  pipeline::PipelineOptions options;
  options.threads = 2;
  options.chunk_size = 10;
  options.parse_fault_hook = [fired](std::string_view) {
    if (!fired->exchange(true)) throw std::runtime_error("one-shot");
  };
  pipeline::ParallelLogPipeline pipe(options);
  pipeline::PipelineResult r = pipe.Run(log);
  EXPECT_TRUE(r.stats.Conserved());
  EXPECT_EQ(r.stats.quarantined, 0u);
  EXPECT_EQ(r.stats.valid, 30u);
  EXPECT_EQ(r.quarantine.count, 0u);
}

TEST(QuarantineTest, LineQuarantinedInRecoveryIsNotAMemoHitLater) {
  // One worker, four-line chunks. Chunk 0 memoizes L, then B throws
  // once, so the chunk is reparsed on the heap; there L's parse throws
  // once and L is quarantined. Chunk 1 repeats L. Had the memo kept
  // chunk 0's entry, that repeat would reach its shard without an AST
  // and with no first occurrence delivered.
  const std::string l = "query=ASK { <s:L> ?p ?o }";
  const std::string b = "query=ASK { <s:B> ?p ?o }";
  const std::vector<std::string> log = {
      l, "query=ASK { <s:A> ?p ?o }", b, "query=ASK { <s:C> ?p ?o }",
      l, "query=ASK { <s:D> ?p ?o }"};
  auto calls = std::make_shared<std::map<std::string, int, std::less<>>>();
  pipeline::PipelineOptions options;
  options.threads = 1;
  options.chunk_size = 4;
  options.telemetry.metrics = true;
  options.parse_fault_hook = [calls, l, b](std::string_view line) {
    const int n = ++(*calls)[std::string(line)];
    if ((line == b && n == 1) || (line == l && n == 2)) {
      throw std::runtime_error("one-shot");
    }
  };
  pipeline::PipelineResult r = pipeline::ParallelLogPipeline(options).Run(log);
  EXPECT_TRUE(r.stats.Conserved());
  EXPECT_EQ(r.stats.total, 6u);
  EXPECT_EQ(r.stats.quarantined, 1u);
  EXPECT_EQ(r.stats.valid, 5u);
  EXPECT_EQ(r.stats.unique, 5u);  // L, A, B, C, D
  ASSERT_EQ(r.quarantine.samples.size(), 1u);
  EXPECT_EQ(r.quarantine.samples[0].line, l);
  EXPECT_EQ(r.quarantine.samples[0].chunk, 0u);
  ASSERT_TRUE(r.telemetry.has_value());
  EXPECT_EQ(r.telemetry->parse_memo_hits, 0u);
  EXPECT_EQ(r.analysis.keywords().total, 5u);
}

TEST(QuarantineTest, FaultFreePaperCorpusMatchesSerialOracle) {
  // Containment and the analysis step budgets must never change an
  // answer on fault-free input: with default options and with budgets
  // generous enough that no corpus query comes near them, the pipeline
  // matches the serial oracle exactly and leaves both fault buckets
  // empty (either being non-empty means the machinery misfired).
  const std::vector<std::string> log = testing::PaperCorpusLog(2000);
  const testing::SerialResult oracle = testing::RunSerial(log);
  const std::vector<uint64_t> oracle_digest =
      pipeline::StatisticsDigest(oracle.analysis);

  for (const bool budgets : {false, true}) {
    SCOPED_TRACE(budgets ? "generous budgets" : "default options");
    pipeline::PipelineOptions options;
    options.threads = 2;
    if (budgets) {
      options.analysis_limits.ghw_steps = 1u << 30;
      options.analysis_limits.treewidth_steps = 1u << 30;
      options.analysis_limits.girth_steps = 1u << 30;
    }
    pipeline::ParallelLogPipeline pipe(options);
    pipeline::PipelineResult r = pipe.Run(log);
    EXPECT_EQ(r.lines, log.size());
    EXPECT_EQ(r.stats.total, oracle.stats.total);
    EXPECT_EQ(r.stats.valid, oracle.stats.valid);
    EXPECT_EQ(r.stats.unique, oracle.stats.unique);
    EXPECT_EQ(r.stats.malformed, oracle.stats.malformed);
    EXPECT_EQ(r.stats.quarantined, 0u);
    EXPECT_EQ(r.stats.abandoned, 0u);
    EXPECT_EQ(pipeline::StatisticsDigest(r.analysis), oracle_digest);
  }
}

// ---------------------------------------------------------------------------
// Seeded fault plans (the fuzz phase 7 harness, concentrated)
// ---------------------------------------------------------------------------

TEST(FaultInjectionTest, MixedPlansPreserveConservation) {
  std::vector<std::string> log;
  for (int i = 0; i < 120; ++i) {
    switch (i % 4) {
      case 0:
        log.push_back("query=SELECT * WHERE { ?s <p:" + std::to_string(i) +
                      "> ?o }");
        break;
      case 1:
        log.push_back("query=ASK { ?s ?p ?o }");  // duplicates
        break;
      case 2:
        log.push_back("query=%%%broken%%%");  // malformed
        break;
      default:
        log.push_back("GET /favicon.ico");  // noise
        break;
    }
  }
  util::Rng rng(20260808);
  int with_faults = 0;
  for (int round = 0; round < 40; ++round) {
    testing::FaultPlan plan = testing::RandomFaultPlan(rng);
    if (plan.any()) ++with_faults;
    pipeline::PipelineOptions config = testing::RandomEquivalenceConfig(rng);
    auto v = testing::CheckFaultContainment(log, plan, config);
    EXPECT_FALSE(v.has_value())
        << v->invariant << ": " << v->detail << " (" << plan.Describe() << ")";
  }
  // The sampler must actually exercise faults, not just controls.
  EXPECT_GT(with_faults, 20);
}

TEST(FaultInjectionTest, PersistentSourceFaultKeepsPartialAccounting) {
  std::vector<std::string> log;
  for (int i = 0; i < 100; ++i) {
    log.push_back("query=ASK { <s:" + std::to_string(i) + "> ?p ?o }");
  }
  testing::FaultPlan plan;
  plan.persistent_at_chunk = 3;
  pipeline::PipelineOptions options;
  options.threads = 2;
  options.chunk_size = 10;
  pipeline::ParallelLogPipeline pipe(options);
  pipeline::VectorChunkSource inner(log);
  testing::FaultInjectingChunkSource source(inner, plan);
  pipeline::PipelineResult r = pipe.Run(source);
  EXPECT_FALSE(r.source_status.ok());
  EXPECT_EQ(r.lines, 20u);  // two full chunks before the failure
  EXPECT_EQ(r.stats.valid, 20u);
  EXPECT_TRUE(r.stats.Conserved());
}

TEST(FaultInjectionTest, TransientBurstWithinBoundIsLossless) {
  std::vector<std::string> log;
  for (int i = 0; i < 50; ++i) {
    log.push_back("query=ASK { <s:" + std::to_string(i) + "> ?p ?o }");
  }
  testing::FaultPlan plan;
  plan.transient_at_chunk = 2;
  plan.transient_burst = 3;  // == the reader's retry bound
  pipeline::PipelineOptions options;
  options.threads = 2;
  options.chunk_size = 10;
  pipeline::ParallelLogPipeline pipe(options);
  pipeline::VectorChunkSource inner(log);
  testing::FaultInjectingChunkSource source(inner, plan);
  pipeline::PipelineResult r = pipe.Run(source);
  EXPECT_TRUE(r.source_status.ok()) << r.source_status.ToString();
  EXPECT_EQ(r.lines, 50u);
  EXPECT_EQ(r.stats.valid, 50u);
}

// ---------------------------------------------------------------------------
// Crash-safe run journal
// ---------------------------------------------------------------------------

std::filesystem::path JournalPath(const char* tag) {
  return std::filesystem::temp_directory_path() /
         (std::string("sparqlog_journal_") + tag + "_" +
          std::to_string(::getpid()) + ".bin");
}

/// A journal is now a manifest plus generation files; remove them all.
void RemoveJournal(const std::filesystem::path& path) {
  util::snapshot::SnapshotStore(path.string()).Remove();
}

/// Flips one bit in `path` at `offset` (from the start; negative =
/// from the end).
void FlipByte(const std::filesystem::path& path, long long offset) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.good()) << path;
  f.seekg(0, std::ios::end);
  const auto size = static_cast<long long>(f.tellg());
  if (offset < 0) offset += size;
  ASSERT_GE(offset, 0);
  ASSERT_LT(offset, size);
  char b = 0;
  f.seekg(offset);
  f.read(&b, 1);
  b = static_cast<char>(b ^ 0x40);
  f.seekp(offset);
  f.write(&b, 1);
}

std::vector<std::string> JournalTestLog() {
  std::vector<std::string> log;
  for (int i = 0; i < 400; ++i) {
    switch (i % 5) {
      case 0:
        log.push_back("query=SELECT ?x WHERE { ?x <p:" +
                      std::to_string(i % 17) + "> ?y }");
        break;
      case 1:
        log.push_back("query=ASK { ?s ?p ?o . ?o ?q ?s }");
        break;
      case 2:
        log.push_back("query=%%%nope");
        break;
      case 3:
        log.push_back("noise " + std::to_string(i));
        break;
      default:
        log.push_back("query=SELECT * WHERE { ?a <p:x> ?b . ?b <p:y> ?c }");
        break;
    }
  }
  return log;
}

TEST(JournalTest, KillThenResumeIsBitIdentical) {
  const std::vector<std::string> log = JournalTestLog();
  pipeline::PipelineOptions options;
  options.threads = 2;
  options.shards = 3;
  options.chunk_size = 16;

  // Uninterrupted reference run.
  pipeline::ParallelLogPipeline reference(options);
  pipeline::PipelineResult expect = reference.Run(log);

  const std::filesystem::path path = JournalPath("resume");
  RemoveJournal(path);
  pipeline::JournalOptions jopts;
  jopts.path = path.string();
  jopts.chunks_per_segment = 4;

  // "Crash" after the first segment: stop at a checkpoint boundary.
  {
    pipeline::VectorChunkSource source(log);
    pipeline::JournalOptions first = jopts;
    first.max_segments = 1;
    auto r = pipeline::RunWithJournal(options, source, first);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_FALSE(r.value().complete);
    EXPECT_FALSE(r.value().resumed);
    EXPECT_EQ(r.value().segments, 1u);
  }
  // Resume with a FRESH source (a restarted process re-opens the file).
  {
    pipeline::VectorChunkSource source(log);
    auto r = pipeline::RunWithJournal(options, source, jopts);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r.value().resumed);
    EXPECT_TRUE(r.value().complete);
    const pipeline::PipelineResult& got = r.value().result;
    EXPECT_EQ(got.lines, expect.lines);
    EXPECT_EQ(got.stats.total, expect.stats.total);
    EXPECT_EQ(got.stats.valid, expect.stats.valid);
    EXPECT_EQ(got.stats.unique, expect.stats.unique);
    EXPECT_EQ(got.stats.malformed, expect.stats.malformed);
    EXPECT_EQ(pipeline::StatisticsDigest(got.analysis),
              pipeline::StatisticsDigest(expect.analysis));
  }
  RemoveJournal(path);
}

TEST(JournalTest, UninterruptedJournalRunMatchesPlainRun) {
  const std::vector<std::string> log = JournalTestLog();
  pipeline::PipelineOptions options;
  options.threads = 2;
  options.chunk_size = 32;
  pipeline::ParallelLogPipeline reference(options);
  pipeline::PipelineResult expect = reference.Run(log);

  const std::filesystem::path path = JournalPath("full");
  RemoveJournal(path);
  pipeline::JournalOptions jopts;
  jopts.path = path.string();
  jopts.chunks_per_segment = 3;
  pipeline::VectorChunkSource source(log);
  auto r = pipeline::RunWithJournal(options, source, jopts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r.value().complete);
  EXPECT_FALSE(r.value().resumed);
  EXPECT_EQ(r.value().result.lines, expect.lines);
  EXPECT_EQ(pipeline::StatisticsDigest(r.value().result.analysis),
            pipeline::StatisticsDigest(expect.analysis));
  RemoveJournal(path);
}

TEST(JournalTest, IncompatibleCheckpointIsRejected) {
  const std::vector<std::string> log = JournalTestLog();
  const std::filesystem::path path = JournalPath("fingerprint");
  RemoveJournal(path);

  pipeline::PipelineOptions options;
  options.threads = 1;
  options.shards = 2;
  pipeline::JournalOptions jopts;
  jopts.path = path.string();
  jopts.chunks_per_segment = 2;
  jopts.max_segments = 1;
  {
    pipeline::VectorChunkSource source(log);
    auto r = pipeline::RunWithJournal(options, source, jopts);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  // A different shard count re-routes state: resuming must refuse.
  pipeline::PipelineOptions changed = options;
  changed.shards = 5;
  {
    pipeline::VectorChunkSource source(log);
    pipeline::JournalOptions resume = jopts;
    resume.max_segments = 0;
    auto r = pipeline::RunWithJournal(changed, source, resume);
    ASSERT_FALSE(r.ok());
    // Incompatible, not damaged: kUnsupported, never kInvalidArgument.
    EXPECT_EQ(r.status().code(), util::StatusCode::kUnsupported);
    // The reason is stated once, not once per layer that reports it.
    const std::string& msg = r.status().message();
    const std::string phrase = "incompatible configuration";
    const size_t first = msg.find(phrase);
    ASSERT_NE(first, std::string::npos) << msg;
    EXPECT_EQ(msg.find(phrase, first + 1), std::string::npos) << msg;
  }
  RemoveJournal(path);
}

TEST(JournalTest, CorruptSoleGenerationIsRejected) {
  // With only one generation retained there is nothing to fall back to:
  // any corruption of it must be a hard error with a reason, never a
  // silent restart from zero.
  const std::vector<std::string> log = JournalTestLog();
  const std::filesystem::path path = JournalPath("corrupt");
  RemoveJournal(path);
  pipeline::PipelineOptions options;
  options.threads = 1;
  pipeline::JournalOptions jopts;
  jopts.path = path.string();
  jopts.chunks_per_segment = 2;
  jopts.max_segments = 1;
  {
    pipeline::VectorChunkSource source(log);
    auto r = pipeline::RunWithJournal(options, source, jopts);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value().generation, 1u);
  }
  util::snapshot::SnapshotStore store(path.string());
  FlipByte(store.GenerationPath(1), -4);
  {
    pipeline::VectorChunkSource source(log);
    pipeline::JournalOptions resume = jopts;
    resume.max_segments = 0;
    auto r = pipeline::RunWithJournal(options, source, resume);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), util::StatusCode::kInvalidArgument);
    EXPECT_NE(r.status().message().find("corrupt"), std::string::npos)
        << r.status().ToString();
  }
  RemoveJournal(path);
}

TEST(JournalTest, CorruptCurrentGenerationFallsBackToPrevious) {
  // Damage the newest generation after two checkpoints: the resume must
  // restore the previous one, re-read the lost segment, and still end
  // bit-identical to an uninterrupted run.
  const std::vector<std::string> log = JournalTestLog();
  pipeline::PipelineOptions options;
  options.threads = 2;
  options.shards = 2;
  options.chunk_size = 16;

  pipeline::ParallelLogPipeline reference(options);
  pipeline::PipelineResult expect = reference.Run(log);

  const std::filesystem::path path = JournalPath("fallback");
  RemoveJournal(path);
  pipeline::JournalOptions jopts;
  jopts.path = path.string();
  jopts.chunks_per_segment = 3;
  {
    pipeline::VectorChunkSource source(log);
    pipeline::JournalOptions first = jopts;
    first.max_segments = 2;
    auto r = pipeline::RunWithJournal(options, source, first);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_FALSE(r.value().complete);
    EXPECT_EQ(r.value().generation, 2u);
  }
  util::snapshot::SnapshotStore store(path.string());
  FlipByte(store.GenerationPath(2), 100);
  {
    pipeline::VectorChunkSource source(log);
    auto r = pipeline::RunWithJournal(options, source, jopts);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r.value().resumed);
    EXPECT_TRUE(r.value().complete);
    EXPECT_TRUE(r.value().recovered_previous_generation);
    EXPECT_NE(r.value().recovery_reason.find("generation 2"),
              std::string::npos)
        << r.value().recovery_reason;
    EXPECT_EQ(r.value().result.lines, expect.lines);
    EXPECT_TRUE(r.value().result.stats.Conserved());
    EXPECT_EQ(pipeline::StatisticsDigest(r.value().result.analysis),
              pipeline::StatisticsDigest(expect.analysis));
  }
  RemoveJournal(path);
}

TEST(JournalTest, CorruptBothGenerationsIsRejected) {
  const std::vector<std::string> log = JournalTestLog();
  pipeline::PipelineOptions options;
  options.threads = 1;
  options.chunk_size = 16;
  const std::filesystem::path path = JournalPath("bothbad");
  RemoveJournal(path);
  pipeline::JournalOptions jopts;
  jopts.path = path.string();
  jopts.chunks_per_segment = 3;
  {
    pipeline::VectorChunkSource source(log);
    pipeline::JournalOptions first = jopts;
    first.max_segments = 2;
    auto r = pipeline::RunWithJournal(options, source, first);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  util::snapshot::SnapshotStore store(path.string());
  FlipByte(store.GenerationPath(1), 50);
  FlipByte(store.GenerationPath(2), 50);
  {
    pipeline::VectorChunkSource source(log);
    auto r = pipeline::RunWithJournal(options, source, jopts);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), util::StatusCode::kInvalidArgument);
    // The reason string covers both failed generations.
    EXPECT_NE(r.status().message().find("generation 2"), std::string::npos);
    EXPECT_NE(r.status().message().find("generation 1"), std::string::npos);
  }
  RemoveJournal(path);
}

TEST(JournalTest, CorruptManifestIsRejected) {
  const std::vector<std::string> log = JournalTestLog();
  pipeline::PipelineOptions options;
  options.threads = 1;
  const std::filesystem::path path = JournalPath("manifest");
  RemoveJournal(path);
  pipeline::JournalOptions jopts;
  jopts.path = path.string();
  jopts.chunks_per_segment = 2;
  jopts.max_segments = 1;
  {
    pipeline::VectorChunkSource source(log);
    auto r = pipeline::RunWithJournal(options, source, jopts);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  FlipByte(path, 20);
  {
    pipeline::VectorChunkSource source(log);
    auto r = pipeline::RunWithJournal(options, source, jopts);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), util::StatusCode::kInvalidArgument);
  }
  RemoveJournal(path);
}

TEST(JournalTest, FsyncFailureSurfacesErrorAndPreservesCheckpoint) {
  // An fsync error while publishing the second checkpoint must fail the
  // run with a reason (not limp on with an unsynced file), and the
  // first checkpoint must remain fully usable for the retry.
  const std::vector<std::string> log = JournalTestLog();
  pipeline::PipelineOptions options;
  options.threads = 2;
  options.chunk_size = 16;

  pipeline::ParallelLogPipeline reference(options);
  pipeline::PipelineResult expect = reference.Run(log);

  const std::filesystem::path path = JournalPath("fsyncfail");
  RemoveJournal(path);
  pipeline::JournalOptions jopts;
  jopts.path = path.string();
  jopts.chunks_per_segment = 3;
  {
    pipeline::VectorChunkSource source(log);
    pipeline::JournalOptions first = jopts;
    first.max_segments = 1;
    auto r = pipeline::RunWithJournal(options, source, first);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  {
    util::snapshot::IoFaultHooks hooks;
    hooks.fail_fsync = [](const std::string&) { return true; };
    util::snapshot::SetIoFaultHooksForTest(&hooks);
    pipeline::VectorChunkSource source(log);
    auto r = pipeline::RunWithJournal(options, source, jopts);
    util::snapshot::SetIoFaultHooksForTest(nullptr);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), util::StatusCode::kInternal);
    EXPECT_NE(r.status().message().find("fsync"), std::string::npos)
        << r.status().ToString();
  }
  // Retry with the fault cleared: resumes from generation 1 and
  // finishes, matching the uninterrupted run exactly.
  {
    pipeline::VectorChunkSource source(log);
    auto r = pipeline::RunWithJournal(options, source, jopts);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r.value().resumed);
    EXPECT_TRUE(r.value().complete);
    EXPECT_EQ(pipeline::StatisticsDigest(r.value().result.analysis),
              pipeline::StatisticsDigest(expect.analysis));
  }
  RemoveJournal(path);
}

TEST(JournalTest, MmapLoadedCheckpointMatchesStreamed) {
  const std::vector<std::string> log = JournalTestLog();
  pipeline::PipelineOptions options;
  options.threads = 2;
  options.chunk_size = 16;

  pipeline::ParallelLogPipeline reference(options);
  pipeline::PipelineResult expect = reference.Run(log);

  const std::filesystem::path path = JournalPath("mmapload");
  RemoveJournal(path);
  pipeline::JournalOptions jopts;
  jopts.path = path.string();
  jopts.chunks_per_segment = 4;
  {
    pipeline::VectorChunkSource source(log);
    pipeline::JournalOptions first = jopts;
    first.max_segments = 1;
    auto r = pipeline::RunWithJournal(options, source, first);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  {
    pipeline::VectorChunkSource source(log);
    auto r = pipeline::RunWithJournal(options, source, jopts);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r.value().resumed);
    EXPECT_TRUE(r.value().complete);
    EXPECT_EQ(pipeline::StatisticsDigest(r.value().result.analysis),
              pipeline::StatisticsDigest(expect.analysis));
  }
  // Load-vs-recompute: the journal is now finished, so resuming it reads
  // no input and must restore the plain run's state exactly.
  {
    pipeline::VectorChunkSource source(log);
    auto r = pipeline::RunWithJournal(options, source, jopts);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r.value().resumed);
    EXPECT_TRUE(r.value().complete);
    const pipeline::PipelineResult& got = r.value().result;
    EXPECT_EQ(got.lines, expect.lines);
    EXPECT_EQ(got.stats.total, expect.stats.total);
    EXPECT_EQ(got.stats.valid, expect.stats.valid);
    EXPECT_EQ(got.stats.unique, expect.stats.unique);
    EXPECT_EQ(pipeline::StatisticsDigest(got.analysis),
              pipeline::StatisticsDigest(expect.analysis));
  }
  // The journal's real checkpoint loads to the same sections streamed
  // and mmap-backed, and re-encoding them through SnapshotWriter
  // reproduces the file byte for byte.
  {
    util::snapshot::SnapshotStore store(path.string());
    auto gens = store.ReadManifest();
    ASSERT_TRUE(gens.ok()) << gens.status().ToString();
    const std::string gen_path = store.GenerationPath(gens.value().current);
    std::ifstream in(gen_path, std::ios::binary);
    const std::string image((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    auto loaded = util::snapshot::Snapshot::Load(
        gen_path, util::snapshot::LoadMode::kStream);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    auto mapped = util::snapshot::Snapshot::Load(
        gen_path, util::snapshot::LoadMode::kMmap);
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    EXPECT_TRUE(mapped.value().sections() == loaded.value().sections());
    util::snapshot::SnapshotWriter writer;
    for (const auto& [id, payload] : loaded.value().sections()) {
      writer.AddSection(id, std::string(payload));
    }
    EXPECT_TRUE(writer.Finish() == image)
        << "re-encoded snapshot differs from " << gen_path;
  }
  RemoveJournal(path);
}

TEST(JournalTest, OlderSchemaVersionIsRefused) {
  // A checkpoint whose meta section carries the previous schema version
  // (re-sealed, so every container checksum holds) is refused with a
  // reason naming both versions, and is left in place: never loaded,
  // never treated as corrupt, never silently restarted.
  const std::vector<std::string> log = JournalTestLog();
  pipeline::PipelineOptions options;
  options.threads = 1;
  const std::filesystem::path path = JournalPath("oldschema");
  RemoveJournal(path);
  pipeline::JournalOptions jopts;
  jopts.path = path.string();
  jopts.chunks_per_segment = 2;
  jopts.max_segments = 1;
  {
    pipeline::VectorChunkSource source(log);
    auto r = pipeline::RunWithJournal(options, source, jopts);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r.value().generation, 1u);
  }
  util::snapshot::SnapshotStore store(path.string());
  const std::string gen_path = store.GenerationPath(1);
  std::string resealed;
  {
    auto loaded = util::snapshot::Snapshot::Load(
        gen_path, util::snapshot::LoadMode::kStream);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    constexpr uint64_t kMetaSection = 1;  // the journal's meta section id
    util::snapshot::SnapshotWriter writer;
    bool rewrote = false;
    for (const auto& [id, payload] : loaded.value().sections()) {
      std::string bytes(payload);
      if (id == kMetaSection) {
        std::string_view cursor = bytes;
        uint64_t version = 0;
        ASSERT_TRUE(util::vbyte::GetVarint(cursor, version));
        ASSERT_EQ(version, pipeline::kJournalVersion);
        bytes.clear();
        util::vbyte::PutVarint(bytes, pipeline::kJournalVersion - 1);
        bytes.append(cursor);
        rewrote = true;
      }
      writer.AddSection(id, std::move(bytes));
    }
    ASSERT_TRUE(rewrote);
    resealed = writer.Finish();
  }
  {
    std::ofstream out(gen_path, std::ios::binary | std::ios::trunc);
    out << resealed;
  }
  {
    pipeline::VectorChunkSource source(log);
    pipeline::JournalOptions resume = jopts;
    resume.max_segments = 0;
    auto r = pipeline::RunWithJournal(options, source, resume);
    ASSERT_FALSE(r.ok());
    // The incompatibility reaches the caller as kUnsupported (not a
    // fallback, since every generation shares the version).
    EXPECT_EQ(r.status().code(), util::StatusCode::kUnsupported);
    const std::string expected =
        "checkpoint schema version " +
        std::to_string(pipeline::kJournalVersion - 1) + " (this build reads " +
        std::to_string(pipeline::kJournalVersion) + ")";
    EXPECT_NE(r.status().message().find(expected), std::string::npos)
        << r.status().ToString();
    EXPECT_EQ(source.offset(), 0u) << "the refused run consumed input";
  }
  auto gens = store.ReadManifest();
  ASSERT_TRUE(gens.ok()) << gens.status().ToString();
  EXPECT_EQ(gens.value().current, 1u);
  std::ifstream in(gen_path, std::ios::binary);
  const std::string after((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  EXPECT_TRUE(after == resealed) << "the refused checkpoint was rewritten";
  RemoveJournal(path);
}

// ---------------------------------------------------------------------------
// Quarantine sample cap (QuarantineReport::kMaxSamples)
// ---------------------------------------------------------------------------

TEST(QuarantineCapTest, CapIsHonoredAndDeterministic) {
  // 30 poisoned lines; the cap of 16 must keep the count exact (30)
  // while retaining exactly the first 16 samples in (chunk, line_index)
  // order, for ANY thread/shard configuration.
  constexpr size_t kCap = pipeline::QuarantineReport::kMaxSamples;
  static_assert(kCap < 30, "the log must overflow the sample cap");
  std::vector<std::string> log;
  for (int i = 0; i < 30; ++i) {
    log.push_back("query=POISON " + std::to_string(i));
    log.push_back("query=ASK { ?s <p:" + std::to_string(i) + "> ?o }");
  }

  auto run = [&log](int threads, size_t shards) {
    pipeline::PipelineOptions options;
    options.threads = threads;
    options.shards = shards;
    options.chunk_size = 8;
    options.parse_fault_hook = [](std::string_view line) {
      if (line.find("POISON") != std::string_view::npos) {
        throw std::runtime_error("poisoned");
      }
    };
    pipeline::ParallelLogPipeline pipe(options);
    return pipe.Run(log);
  };

  pipeline::PipelineResult first = run(1, 1);
  EXPECT_EQ(first.quarantine.count, 30u);
  ASSERT_EQ(first.quarantine.samples.size(), kCap);
  EXPECT_TRUE(first.stats.Conserved());
  for (auto [threads, shards] : {std::pair<int, size_t>{2, 3},
                                 std::pair<int, size_t>{4, 1},
                                 std::pair<int, size_t>{3, 2}}) {
    pipeline::PipelineResult r = run(threads, shards);
    EXPECT_EQ(r.quarantine.count, first.quarantine.count);
    ASSERT_EQ(r.quarantine.samples.size(), kCap);
    for (size_t i = 0; i < kCap; ++i) {
      EXPECT_EQ(r.quarantine.samples[i].chunk,
                first.quarantine.samples[i].chunk);
      EXPECT_EQ(r.quarantine.samples[i].line_index,
                first.quarantine.samples[i].line_index);
      EXPECT_EQ(r.quarantine.samples[i].line, first.quarantine.samples[i].line);
    }
  }
}

TEST(QuarantineCapTest, CapSurvivesJournalSegmentMerge) {
  // A journaled run with several checkpoints must honor the same cap
  // with the same deterministic prefix.
  constexpr size_t kCap = pipeline::QuarantineReport::kMaxSamples;
  static_assert(kCap < 20, "the log must overflow the sample cap");
  std::vector<std::string> log;
  for (int i = 0; i < 20; ++i) {
    log.push_back("query=POISON " + std::to_string(i));
    log.push_back("query=ASK { ?s <p:" + std::to_string(i) + "> ?o }");
  }
  pipeline::PipelineOptions options;
  options.threads = 2;
  options.chunk_size = 4;
  options.parse_fault_hook = [](std::string_view line) {
    if (line.find("POISON") != std::string_view::npos) {
      throw std::runtime_error("poisoned");
    }
  };

  const std::filesystem::path path = JournalPath("quarcap");
  RemoveJournal(path);
  pipeline::JournalOptions jopts;
  jopts.path = path.string();
  jopts.chunks_per_segment = 2;  // several segments, several merges
  pipeline::VectorChunkSource source(log);
  auto r = pipeline::RunWithJournal(options, source, jopts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r.value().complete);
  EXPECT_EQ(r.value().result.quarantine.count, 20u);
  ASSERT_EQ(r.value().result.quarantine.samples.size(), kCap);
  for (size_t i = 0; i < kCap; ++i) {
    const auto& s = r.value().result.quarantine.samples[i];
    EXPECT_EQ(s.line, "query=POISON " + std::to_string(i));
    if (i == 0) continue;
    const auto& a = r.value().result.quarantine.samples[i - 1];
    EXPECT_TRUE(a.chunk < s.chunk ||
                (a.chunk == s.chunk && a.line_index < s.line_index));
  }
  RemoveJournal(path);
}

TEST(JournalTest, NonResumableSourceIsRejectedUpFront) {
  pipeline::PipelineOptions options;
  options.threads = 1;
  pipeline::JournalOptions jopts;
  jopts.path = JournalPath("reject").string();

  class NoResumeSource : public pipeline::ChunkSource {
   public:
    bool NextChunk(size_t, pipeline::LineChunk&) override { return false; }
  } source;
  auto r = pipeline::RunWithJournal(options, source, jopts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kUnsupported);

  pipeline::JournalOptions no_path;
  std::vector<std::string> empty;
  pipeline::VectorChunkSource vec(empty);
  auto r2 = pipeline::RunWithJournal(options, vec, no_path);
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(JournalTest, BudgetedAbandonmentSurvivesResume) {
  // Abandoned-dedup state (seen_abandoned_) is part of the checkpoint:
  // a duplicate of an abandoned query arriving AFTER the resume must
  // still land in the abandoned bucket.
  std::vector<std::string> log;
  for (int i = 0; i < 40; ++i) {
    log.push_back(std::string("query=") + kStructuredQuery);
    log.push_back("query=ASK { <s:" + std::to_string(i) + "> ?p ?o }");
  }
  pipeline::PipelineOptions options;
  options.threads = 2;
  options.chunk_size = 8;
  options.analysis_limits.girth_steps = 1;
  options.analysis_limits.treewidth_steps = 1;

  pipeline::ParallelLogPipeline reference(options);
  pipeline::PipelineResult expect = reference.Run(log);
  ASSERT_EQ(expect.stats.abandoned, 40u);

  const std::filesystem::path path = JournalPath("abandoned");
  RemoveJournal(path);
  pipeline::JournalOptions jopts;
  jopts.path = path.string();
  jopts.chunks_per_segment = 2;
  {
    pipeline::VectorChunkSource source(log);
    pipeline::JournalOptions first = jopts;
    first.max_segments = 1;
    auto r = pipeline::RunWithJournal(options, source, first);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  {
    pipeline::VectorChunkSource source(log);
    auto r = pipeline::RunWithJournal(options, source, jopts);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r.value().resumed);
    EXPECT_EQ(r.value().result.stats.abandoned, expect.stats.abandoned);
    EXPECT_TRUE(r.value().result.stats.Conserved());
    EXPECT_EQ(pipeline::StatisticsDigest(r.value().result.analysis),
              pipeline::StatisticsDigest(expect.analysis));
  }
  RemoveJournal(path);
}

// ---------------------------------------------------------------------------
// Checkpoint barriers: a journaled run is one pipeline run whose
// checkpoints are taken in-band and written by a background thread.
// ---------------------------------------------------------------------------

/// Runs `log` through a fresh journal at `jopts.path` and returns every
/// generation it published, as file bytes, oldest first. Each image is
/// copied when the store is about to point the manifest at it, which is
/// after the generation file is complete.
std::vector<std::string> JournalGenerations(
    const pipeline::PipelineOptions& options,
    const std::vector<std::string>& log, const pipeline::JournalOptions& jopts,
    pipeline::JournalRunResult* out = nullptr) {
  RemoveJournal(jopts.path);
  util::snapshot::SnapshotStore store(jopts.path);
  std::vector<std::string> images;
  util::snapshot::IoFaultHooks hooks;
  hooks.torn_write = [&](const std::string& path, size_t) -> int64_t {
    if (path == jopts.path) {
      std::ifstream in(store.GenerationPath(images.size() + 1),
                       std::ios::binary);
      images.emplace_back(std::istreambuf_iterator<char>(in),
                          std::istreambuf_iterator<char>());
    }
    return -1;
  };
  util::snapshot::SetIoFaultHooksForTest(&hooks);
  pipeline::VectorChunkSource source(log);
  auto r = pipeline::RunWithJournal(options, source, jopts);
  util::snapshot::SetIoFaultHooksForTest(nullptr);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  if (r.ok()) {
    EXPECT_EQ(images.size(), r.value().segments);
    if (out != nullptr) *out = std::move(r).value();
  }
  RemoveJournal(jopts.path);
  return images;
}

/// Restores `image` as the sole generation of a scratch journal and
/// resumes it over `prefix`, the lines the generation claims to cover:
/// the resume reads nothing, so its result is exactly the restored
/// state, which must equal a plain run over `prefix`.
void ExpectRestoresPlainRun(const std::string& image,
                            const pipeline::PipelineOptions& options,
                            const std::vector<std::string>& prefix,
                            const std::string& what) {
  SCOPED_TRACE(what);
  const std::filesystem::path path = JournalPath("restore");
  RemoveJournal(path);
  {
    const std::string file = path.string() + ".image";
    {
      std::ofstream f(file, std::ios::binary | std::ios::trunc);
      f << image;
    }
    auto loaded = util::snapshot::Snapshot::Load(
        file, util::snapshot::LoadMode::kStream);
    std::remove(file.c_str());
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    util::snapshot::SnapshotWriter writer;
    for (const auto& [id, payload] : loaded.value().sections()) {
      writer.AddSection(id, std::string(payload));
    }
    util::snapshot::SnapshotStore store(path.string());
    ASSERT_TRUE(store.Save(writer).ok());
  }
  pipeline::PipelineResult expect =
      pipeline::ParallelLogPipeline(options).Run(prefix);
  pipeline::VectorChunkSource source(prefix);
  pipeline::JournalOptions jopts;
  jopts.path = path.string();
  auto r = pipeline::RunWithJournal(options, source, jopts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r.value().resumed);
  EXPECT_TRUE(r.value().complete);
  const pipeline::PipelineResult& got = r.value().result;
  EXPECT_EQ(got.lines, prefix.size());
  EXPECT_TRUE(got.stats == expect.stats)
      << "total " << got.stats.total << "/" << expect.stats.total
      << " valid " << got.stats.valid << "/" << expect.stats.valid
      << " unique " << got.stats.unique << "/" << expect.stats.unique;
  EXPECT_EQ(pipeline::StatisticsDigest(got.analysis),
            pipeline::StatisticsDigest(expect.analysis));
  RemoveJournal(path);
}

/// Checks every generation of an uninterrupted journaled run: barrier e
/// holds the state after exactly e * chunks_per_segment chunks, and the
/// last generation the state after the whole log.
void ExpectEveryGenerationIsAPrefixRun(const pipeline::PipelineOptions& options,
                                       const std::vector<std::string>& log,
                                       size_t chunks_per_segment,
                                       const std::string& what) {
  SCOPED_TRACE(what);
  pipeline::JournalOptions jopts;
  jopts.path = JournalPath("barriers").string();
  jopts.chunks_per_segment = chunks_per_segment;
  pipeline::JournalRunResult run;
  const std::vector<std::string> images =
      JournalGenerations(options, log, jopts, &run);
  ASSERT_FALSE(images.empty());
  EXPECT_TRUE(run.complete);
  const size_t chunks = (log.size() + options.chunk_size - 1) /
                        options.chunk_size;
  EXPECT_EQ(images.size(), chunks / chunks_per_segment + 1);
  for (size_t g = 0; g < images.size(); ++g) {
    const size_t lines =
        g + 1 == images.size()
            ? log.size()
            : std::min(log.size(),
                       (g + 1) * chunks_per_segment * options.chunk_size);
    const std::vector<std::string> prefix(log.begin(), log.begin() + lines);
    ExpectRestoresPlainRun(images[g], options, prefix,
                           "generation " + std::to_string(g + 1));
  }
}

/// JournalTestLog with every third chunk of 8 lines made of noise only,
/// so some chunks route nothing to any shard.
std::vector<std::string> NoiseChunkLog() {
  std::vector<std::string> log;
  const std::vector<std::string> queries = JournalTestLog();
  for (size_t i = 0; i < 240; ++i) {
    if ((i / 8) % 3 == 1) {
      log.push_back("GET /noise/" + std::to_string(i) + " HTTP/1.1");
    } else {
      log.push_back(queries[i]);
    }
  }
  return log;
}

TEST(BarrierTest, EveryGenerationRestoresThePlainPrefixRun) {
  const std::vector<std::string> log = NoiseChunkLog();
  for (int threads : {1, 2, 8}) {
    for (size_t shards : {1, 3, 5}) {
      pipeline::PipelineOptions options;
      options.threads = threads;
      options.shards = shards;
      options.chunk_size = 8;
      ExpectEveryGenerationIsAPrefixRun(
          options, log, 4,
          "threads=" + std::to_string(threads) +
              " shards=" + std::to_string(shards));
    }
  }
}

TEST(BarrierTest, QuarantinedLinesLandInTheirGeneration) {
  std::vector<std::string> log = JournalTestLog();
  for (size_t i = 7; i < log.size(); i += 23) {
    log[i] = "query=POISON " + std::to_string(i);
  }
  pipeline::PipelineOptions options;
  options.threads = 3;
  options.shards = 2;
  options.chunk_size = 16;
  options.parse_fault_hook = [](std::string_view line) {
    if (line.find("POISON") != std::string_view::npos) {
      throw std::runtime_error("poisoned");
    }
  };
  ExpectEveryGenerationIsAPrefixRun(options, log, 3, "poison");
}

TEST(BarrierTest, OneChunkQueueAndOneChunkSegmentsFinish) {
  // The tightest throttle: the reader may run one chunk past the oldest
  // barrier some shard has not taken, and every chunk is a barrier.
  const std::vector<std::string> log = NoiseChunkLog();
  pipeline::PipelineOptions options;
  options.threads = 4;
  options.shards = 3;
  options.chunk_size = 12;
  options.queue_capacity = 1;
  ExpectEveryGenerationIsAPrefixRun(options, log, 1, "capacity 1");
}

TEST(BarrierTest, FsyncFailureOnSecondGenerationStopsTheRun) {
  const std::vector<std::string> log = JournalTestLog();
  pipeline::PipelineOptions options;
  options.threads = 2;
  options.shards = 3;
  options.chunk_size = 8;
  pipeline::JournalOptions jopts;
  jopts.path = JournalPath("fsync2").string();
  jopts.chunks_per_segment = 2;
  RemoveJournal(jopts.path);
  {
    util::snapshot::IoFaultHooks hooks;
    hooks.fail_fsync = [](const std::string& path) {
      return path.ends_with(".g2.tmp");
    };
    util::snapshot::SetIoFaultHooksForTest(&hooks);
    pipeline::VectorChunkSource source(log);
    auto r = pipeline::RunWithJournal(options, source, jopts);
    util::snapshot::SetIoFaultHooksForTest(nullptr);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), util::StatusCode::kInternal);
    EXPECT_NE(r.status().message().find("cannot write checkpoint"),
              std::string::npos)
        << r.status().ToString();
    EXPECT_NE(r.status().message().find("fsync"), std::string::npos)
        << r.status().ToString();
  }
  util::snapshot::SnapshotStore store(jopts.path);
  auto gens = store.ReadManifest();
  ASSERT_TRUE(gens.ok()) << gens.status().ToString();
  EXPECT_EQ(gens.value().current, 1u);
  std::string first;
  {
    std::ifstream in(store.GenerationPath(1), std::ios::binary);
    first.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  // The rerun resumes generation 1: 2 chunks of 8 lines.
  {
    pipeline::VectorChunkSource source(log);
    auto r = pipeline::RunWithJournal(options, source, jopts);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r.value().resumed);
    EXPECT_TRUE(r.value().complete);
    EXPECT_FALSE(r.value().recovered_previous_generation);
    pipeline::PipelineResult expect =
        pipeline::ParallelLogPipeline(options).Run(log);
    EXPECT_EQ(r.value().result.lines, expect.lines);
    EXPECT_TRUE(r.value().result.stats == expect.stats);
    EXPECT_EQ(pipeline::StatisticsDigest(r.value().result.analysis),
              pipeline::StatisticsDigest(expect.analysis));
  }
  RemoveJournal(jopts.path);
  ExpectRestoresPlainRun(first, options,
                         std::vector<std::string>(log.begin(), log.begin() + 16),
                         "generation 1 after the failed run");
}

TEST(JournalTest, TelemetryDescribesTheWholeRun) {
  const std::vector<std::string> log = JournalTestLog();
  pipeline::PipelineOptions options;
  options.threads = 3;
  options.shards = 2;
  options.chunk_size = 16;
  options.telemetry.trace = true;
  const std::filesystem::path path = JournalPath("telemetry");
  RemoveJournal(path);
  pipeline::JournalOptions jopts;
  jopts.path = path.string();
  jopts.chunks_per_segment = 4;
  pipeline::VectorChunkSource source(log);
  const uint64_t before = obs::NowNs();
  auto r = pipeline::RunWithJournal(options, source, jopts);
  const uint64_t elapsed = obs::NowNs() - before;
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_TRUE(r.value().result.telemetry.has_value());
  ASSERT_TRUE(r.value().result.trace.has_value());
  const obs::RunTelemetry& t = *r.value().result.telemetry;
  const obs::TraceData& trace = *r.value().result.trace;
  const size_t chunks = (log.size() + 15) / 16;

  // One run's threads, each counted once, each with one track.
  EXPECT_EQ(t.workers, 1u + 3u + 2u);
  EXPECT_EQ(trace.tracks.size(), t.workers);
  // The reader's spans are every chunk it read, not one segment's.
  ASSERT_EQ(trace.tracks[0].name, "reader");
  EXPECT_EQ(trace.tracks[0].events.size(), chunks);
  EXPECT_EQ(t.stage(obs::kStageReader).chunks, chunks);
  // The wall clock spans every recorded span and no more than the call.
  EXPECT_LE(t.wall_ns, elapsed);
  EXPECT_EQ(trace.wall_ns, t.wall_ns);
  uint64_t first = UINT64_MAX, last = 0;
  for (const obs::TraceTrack& track : trace.tracks) {
    EXPECT_EQ(track.dropped, 0u) << track.name;
    for (const obs::TraceEvent& e : track.events) {
      first = std::min(first, e.begin_ns);
      last = std::max(last, e.end_ns);
    }
  }
  ASSERT_LT(first, last);
  EXPECT_GE(first, trace.origin_ns);
  EXPECT_LE(last - trace.origin_ns, t.wall_ns);
  EXPECT_GE(t.wall_ns, last - first);
  // The checkpoint stage: every generation, one part per shard each.
  const obs::StageMetrics& cp = t.stage(obs::kStageCheckpoint);
  EXPECT_EQ(cp.chunks, r.value().segments);
  EXPECT_EQ(cp.items_in, r.value().segments * 2);
  EXPECT_EQ(t.checkpoint_part_ns.count(), cp.items_in);
  EXPECT_EQ(cp.chunk_ns.count(), cp.chunks);
  EXPECT_GT(cp.bytes_in, 0u);
  RemoveJournal(path);
}

TEST(JournalTest, CheckpointStageIsThreadIndependent) {
  const std::vector<std::string> log = NoiseChunkLog();
  pipeline::PipelineOptions options;
  options.shards = 3;
  options.chunk_size = 8;
  options.telemetry.metrics = true;
  const uint64_t plain_digest = obs::TelemetryDigest(
      *pipeline::ParallelLogPipeline(options).Run(log).telemetry);
  std::vector<obs::StageMetrics> stages;
  for (int threads : {1, 2, 4}) {
    options.threads = threads;
    const std::filesystem::path path = JournalPath("cpstage");
    RemoveJournal(path);
    pipeline::JournalOptions jopts;
    jopts.path = path.string();
    jopts.chunks_per_segment = 3;
    pipeline::VectorChunkSource source(log);
    auto r = pipeline::RunWithJournal(options, source, jopts);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const obs::RunTelemetry& t = *r.value().result.telemetry;
    stages.push_back(t.stage(obs::kStageCheckpoint));
    EXPECT_EQ(stages.back().chunks, r.value().segments);
    // Checkpoints are a cost, not item flow: the digest is the plain
    // run's.
    EXPECT_EQ(obs::TelemetryDigest(t), plain_digest) << threads;
    RemoveJournal(path);
  }
  for (const obs::StageMetrics& s : stages) {
    EXPECT_EQ(s.chunks, stages[0].chunks);
    EXPECT_EQ(s.items_in, stages[0].items_in);
    EXPECT_EQ(s.bytes_in, stages[0].bytes_in);
  }
}

}  // namespace
}  // namespace sparqlog
