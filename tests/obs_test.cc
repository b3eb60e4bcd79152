// Tests for the telemetry subsystem (src/obs/): histogram bucketing and
// percentiles, the Merge() discipline (empty identity, order
// independence), the scheduling-independent telemetry digest, the span
// ring, the exporters, and the end-to-end wiring through the parallel
// pipeline and the streak stage.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "corpus/generator.h"
#include "corpus/ingest.h"
#include "corpus/profile.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "pipeline/merge.h"
#include "pipeline/pipeline.h"
#include "pipeline/streak_stage.h"
#include "testing/invariants.h"

namespace sparqlog::obs {
namespace {

// ---------------------------------------------------------------------------
// LatencyHistogram
// ---------------------------------------------------------------------------

TEST(LatencyHistogramTest, BucketPlacementFollowsBitWidth) {
  LatencyHistogram h;
  h.Record(0);    // bit_width 0
  h.Record(1);    // bit_width 1
  h.Record(2);    // bit_width 2
  h.Record(3);    // bit_width 2
  h.Record(4);    // bit_width 3
  h.Record(255);  // bit_width 8
  EXPECT_EQ(h.BucketCount(0), 1u);
  EXPECT_EQ(h.BucketCount(1), 1u);
  EXPECT_EQ(h.BucketCount(2), 2u);
  EXPECT_EQ(h.BucketCount(3), 1u);
  EXPECT_EQ(h.BucketCount(8), 1u);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.total_ns(), 265u);
  EXPECT_EQ(h.min_ns(), 0u);
  EXPECT_EQ(h.max_ns(), 255u);
}

TEST(LatencyHistogramTest, HugeDurationsClampToLastBucket) {
  LatencyHistogram h;
  h.Record(~uint64_t{0});  // bit_width 64 >> kBuckets
  EXPECT_EQ(h.BucketCount(LatencyHistogram::kBuckets - 1), 1u);
  EXPECT_EQ(h.count(), 1u);
}

TEST(LatencyHistogramTest, PercentileReturnsBucketUpperBound) {
  LatencyHistogram h;
  EXPECT_EQ(h.PercentileNs(0.5), 0u);  // empty histogram
  for (int i = 0; i < 90; ++i) h.Record(10);    // bucket 4, upper 15
  for (int i = 0; i < 10; ++i) h.Record(1000);  // bucket 10, upper 1023
  EXPECT_EQ(h.PercentileNs(0.5), LatencyHistogram::BucketUpperNs(4));
  EXPECT_EQ(h.PercentileNs(0.89), LatencyHistogram::BucketUpperNs(4));
  EXPECT_EQ(h.PercentileNs(0.99), LatencyHistogram::BucketUpperNs(10));
  EXPECT_EQ(h.PercentileNs(1.0), LatencyHistogram::BucketUpperNs(10));
  EXPECT_DOUBLE_EQ(h.MeanNs(), (90 * 10 + 10 * 1000) / 100.0);
}

TEST(LatencyHistogramTest, MergeMatchesSingleStream) {
  LatencyHistogram a, b, all;
  for (uint64_t ns : {5u, 100u, 7000u}) {
    a.Record(ns);
    all.Record(ns);
  }
  for (uint64_t ns : {1u, 900u}) {
    b.Record(ns);
    all.Record(ns);
  }
  a.Merge(b);
  EXPECT_EQ(a, all);
}

// ---------------------------------------------------------------------------
// Merge discipline: empty identity and order independence.
// ---------------------------------------------------------------------------

QueueCounters SampleQueue(uint64_t base) {
  QueueCounters q;
  q.pushes = base + 1;
  q.pops = base + 2;
  q.push_blocks = base % 3;
  q.pop_waits = base % 5;
  q.push_block_ns = base * 10;
  q.pop_wait_ns = base * 20;
  q.max_depth = base % 7;
  q.rejected_pushes = base % 2;
  return q;
}

StageMetrics SampleStage(uint64_t base) {
  StageMetrics m;
  m.items_in = base * 3;
  m.items_out = base * 2;
  m.malformed = base;
  m.chunks = base + 1;
  m.alloc_bytes = base * 100;
  m.allocs = base * 4;
  m.chunk_ns.Record(base + 1);
  m.chunk_ns.Record((base + 1) * 1000);
  return m;
}

RunTelemetry SampleRun(uint64_t base) {
  RunTelemetry t;
  for (int s = 0; s < kStageCount; ++s) {
    t.stages[static_cast<size_t>(s)] =
        SampleStage(base + static_cast<uint64_t>(s));
  }
  t.chunk_queue = SampleQueue(base);
  t.shard_queues = SampleQueue(base + 13);
  t.shard_queries = {base, base + 1, base + 2};
  t.prefilter_pairs = base * 7;
  t.prefilter_dp = base * 2;
  t.wall_ns = base * 1000;
  t.workers = base % 4;
  t.run_alloc_bytes = base * 55;
  t.run_allocs = base * 5;
  return t;
}

TEST(MergeTest, EmptyIsIdentity) {
  QueueCounters q = SampleQueue(9), q_orig = q;
  q.Merge(QueueCounters{});
  EXPECT_EQ(q, q_orig);
  QueueCounters empty;
  empty.Merge(q_orig);
  EXPECT_EQ(empty, q_orig);

  StageMetrics m = SampleStage(4), m_orig = m;
  m.Merge(StageMetrics{});
  EXPECT_EQ(m, m_orig);
  StageMetrics m_empty;
  m_empty.Merge(m_orig);
  EXPECT_EQ(m_empty, m_orig);

  RunTelemetry t = SampleRun(3), t_orig = t;
  t.Merge(RunTelemetry{});
  EXPECT_EQ(t, t_orig);
  RunTelemetry t_empty;
  t_empty.Merge(t_orig);
  EXPECT_EQ(t_empty, t_orig);
}

TEST(MergeTest, OrderIndependent) {
  RunTelemetry forward;
  for (uint64_t base : {2u, 5u, 11u}) forward.Merge(SampleRun(base));
  RunTelemetry backward;
  for (uint64_t base : {11u, 5u, 2u}) backward.Merge(SampleRun(base));
  EXPECT_EQ(forward, backward);
}

TEST(MergeTest, ShardQueriesZeroExtendAndEnvelope) {
  RunTelemetry a, b;
  a.shard_queries = {1, 2};
  b.shard_queries = {10, 20, 30};
  a.wall_ns = 500;
  b.wall_ns = 900;
  a.workers = 2;
  b.workers = 3;
  a.chunk_queue.max_depth = 7;
  b.chunk_queue.max_depth = 4;
  a.Merge(b);
  EXPECT_EQ(a.shard_queries, (std::vector<uint64_t>{11, 22, 30}));
  EXPECT_EQ(a.wall_ns, 900u);      // shared wall clock -> max
  EXPECT_EQ(a.workers, 5u);        // head count -> sum
  EXPECT_EQ(a.chunk_queue.max_depth, 7u);  // high water -> max
}

// ---------------------------------------------------------------------------
// TelemetryDigest: covers item flow, ignores timing.
// ---------------------------------------------------------------------------

TEST(TelemetryDigestTest, IgnoresTimingAndQueueNoise) {
  RunTelemetry a = SampleRun(6);
  RunTelemetry b = a;
  b.wall_ns += 12345;
  b.workers += 2;
  b.chunk_queue.push_block_ns += 999;
  b.shard_queues.pop_waits += 3;
  b.stage(kStageParse).chunk_ns.Record(42);
  b.stage(kStageParse).chunks += 5;
  b.stage(kStageShard).alloc_bytes += 4096;
  b.run_allocs += 77;
  b.prefilter_dp += 4;  // cascade diagnostic, excluded
  EXPECT_EQ(TelemetryDigest(a), TelemetryDigest(b));
}

TEST(TelemetryDigestTest, SensitiveToItemFlow) {
  RunTelemetry a = SampleRun(6);
  RunTelemetry items = a;
  ++items.stage(kStageParse).items_out;
  EXPECT_NE(TelemetryDigest(a), TelemetryDigest(items));
  RunTelemetry malformed = a;
  ++malformed.stage(kStageParse).malformed;
  EXPECT_NE(TelemetryDigest(a), TelemetryDigest(malformed));
  RunTelemetry shards = a;
  ++shards.shard_queries[1];
  EXPECT_NE(TelemetryDigest(a), TelemetryDigest(shards));
}

TEST(TelemetryDigestTest, IgnoresTheCheckpointStage) {
  // Checkpoints are a journaled run's cost, not its item flow: a plain
  // and a journaled run over the same input digest equally.
  RunTelemetry a = SampleRun(6);
  RunTelemetry b = a;
  StageMetrics& cp = b.stage(kStageCheckpoint);
  cp.items_in += 9;
  cp.items_out += 2;
  cp.bytes_in += 4096;
  cp.malformed += 1;
  cp.abandoned += 1;
  b.checkpoint_part_ns.Record(500);
  EXPECT_EQ(TelemetryDigest(a), TelemetryDigest(b));
}

// ---------------------------------------------------------------------------
// TraceRing
// ---------------------------------------------------------------------------

TEST(TraceRingTest, KeepsNewestAndCountsDropped) {
  TraceRing ring(4);
  for (uint64_t i = 0; i < 6; ++i) {
    ring.Record(kStageParse, i, i * 100, i * 100 + 50);
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.dropped(), 2u);
  std::vector<TraceEvent> events = ring.Drain();
  ASSERT_EQ(events.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].chunk, i + 2);  // oldest two were overwritten
    EXPECT_EQ(events[i].begin_ns, (i + 2) * 100);
  }
}

TEST(TraceRingTest, PartialFillDrainsInOrder) {
  TraceRing ring(8);
  ring.Record(kStageReader, 0, 10, 20);
  ring.Record(kStageReader, 1, 30, 40);
  EXPECT_EQ(ring.size(), 2u);
  EXPECT_EQ(ring.dropped(), 0u);
  std::vector<TraceEvent> events = ring.Drain();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].chunk, 0u);
  EXPECT_EQ(events[1].chunk, 1u);
}

TEST(TraceRingTest, ZeroCapacityIsInert) {
  TraceRing ring(0);
  ring.Record(kStageParse, 0, 1, 2);
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_TRUE(ring.Drain().empty());
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

TEST(ExportersTest, SummaryJsonPrometheusAndOneLine) {
  RunTelemetry t = SampleRun(8);
  t.shard_queries = {100, 0};  // peak 100 over mean 50 -> skew 2.00x
  t.wall_ns = 1000000;
  t.workers = 4;

  std::ostringstream summary;
  PrintSummary(summary, t);
  EXPECT_NE(summary.str().find("Queue stall"), std::string::npos);
  EXPECT_NE(summary.str().find("parse"), std::string::npos);

  std::ostringstream json;
  WriteTelemetryJson(json, t);
  EXPECT_NE(json.str().find("\"telemetry\""), std::string::npos);
  EXPECT_NE(json.str().find("\"digest\""), std::string::npos);
  EXPECT_NE(json.str().find("\"shard_queries\""), std::string::npos);

  std::string prom = PrometheusText(t);
  EXPECT_NE(prom.find("sparqlog_stage_items_in_total{stage=\"parse\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("sparqlog_stage_chunk_seconds_bucket"),
            std::string::npos);
  EXPECT_NE(prom.find("le=\"+Inf\""), std::string::npos);
  EXPECT_NE(prom.find("sparqlog_shard_queries_total{shard=\"1\"}"),
            std::string::npos);

  std::string line = OneLineSummary(t);
  EXPECT_EQ(line.rfind("telemetry:", 0), 0u);
  EXPECT_NE(line.find("shard skew 2.00x"), std::string::npos);
}

TEST(ExportersTest, CheckpointStageIsExported) {
  RunTelemetry t;
  t.wall_ns = 1000000;
  StageMetrics& cp = t.stage(kStageCheckpoint);
  cp.chunks = 2;
  cp.items_in = 6;
  cp.bytes_in = 4096;
  cp.chunk_ns.Record(3000);
  cp.chunk_ns.Record(5000);
  for (int i = 0; i < 6; ++i) t.checkpoint_part_ns.Record(100);

  std::ostringstream summary;
  PrintSummary(summary, t);
  EXPECT_NE(summary.str().find("Checkpoints: 2 generations, 4096 bytes"),
            std::string::npos)
      << summary.str();

  std::ostringstream json;
  WriteTelemetryJson(json, t);
  EXPECT_NE(json.str().find("\"checkpoint\""), std::string::npos);
  EXPECT_NE(json.str().find("\"checkpoint_part_latency\""), std::string::npos);

  std::string prom = PrometheusText(t);
  EXPECT_NE(prom.find("sparqlog_stage_chunks_total{stage=\"checkpoint\"} 2"),
            std::string::npos);
  EXPECT_NE(prom.find("sparqlog_stage_bytes_in_total{stage=\"checkpoint\"} 4096"),
            std::string::npos);
  EXPECT_NE(prom.find("sparqlog_checkpoint_parts_total 6"), std::string::npos);
  EXPECT_NE(prom.find("sparqlog_checkpoint_part_seconds_total 6e-07"),
            std::string::npos)
      << prom;
}

TEST(ExportersTest, ChromeTraceShape) {
  TraceData trace;
  trace.origin_ns = 1000;
  trace.wall_ns = 5000;
  TraceTrack track;
  track.name = "parse-0";
  track.events.push_back(TraceEvent{2000, 3000, 7, kStageParse, 0});
  trace.tracks.push_back(track);

  std::ostringstream out;
  WriteChromeTrace(out, trace);
  std::string s = out.str();
  EXPECT_NE(s.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(s.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(s.find("\"parse-0\""), std::string::npos);
  EXPECT_NE(s.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(s.find("\"dur\": 1"), std::string::npos);  // 1000 ns -> 1 us
}

// ---------------------------------------------------------------------------
// End-to-end wiring
// ---------------------------------------------------------------------------

std::vector<std::string> TestLog(uint64_t entries, uint64_t seed = 2017) {
  auto profiles = corpus::PaperProfiles();
  corpus::GeneratorOptions options;
  options.scale = 0;
  options.min_entries = entries;
  options.seed = seed;
  corpus::SyntheticLogGenerator gen(
      corpus::ProfileByName(profiles, "DBpedia15"), options);
  return gen.GenerateLog();
}

TEST(PipelineTelemetryTest, DisabledByDefault) {
  pipeline::ParallelLogPipeline pl(pipeline::PipelineOptions{});
  pipeline::PipelineResult result = pl.Run(TestLog(200));
  EXPECT_FALSE(result.telemetry.has_value());
  EXPECT_FALSE(result.trace.has_value());
}

TEST(PipelineTelemetryTest, CountersMatchPipelineResults) {
  std::vector<std::string> log = TestLog(600);
  pipeline::PipelineOptions options;
  options.threads = 3;
  options.shards = 2;
  options.chunk_size = 64;
  options.telemetry.metrics = true;
  pipeline::ParallelLogPipeline pl(options);
  pipeline::PipelineResult result = pl.Run(log);
  ASSERT_TRUE(result.telemetry.has_value());
  const RunTelemetry& t = *result.telemetry;
  // Reader saw every line; parse emitted every query entry; the shard
  // stage kept the valid ones.
  EXPECT_EQ(t.stage(kStageReader).items_in, result.lines);
  EXPECT_EQ(t.stage(kStageParse).items_in, result.lines);
  EXPECT_EQ(t.stage(kStageParse).items_out, result.stats.total);
  EXPECT_EQ(t.stage(kStageShard).items_in, result.stats.total);
  EXPECT_EQ(t.stage(kStageShard).items_out, result.stats.valid);
  EXPECT_EQ(t.stage(kStageShard).malformed,
            result.stats.total - result.stats.valid);
  // Unique sink feeds analysis once per unique query.
  EXPECT_EQ(t.stage(kStageAnalysis).items_in, result.stats.unique);
  // Every routed entry landed on some shard.
  ASSERT_EQ(t.shard_queries.size(), 2u);
  EXPECT_EQ(t.shard_queries[0] + t.shard_queries[1], result.stats.total);
  // Envelope: reader + parse workers + shard consumers all reported.
  EXPECT_EQ(t.workers, 1u + 3u + 2u);
  EXPECT_GT(t.wall_ns, 0u);
  EXPECT_EQ(t.chunk_queue.pushes, t.chunk_queue.pops);
  EXPECT_EQ(t.chunk_queue.pushes, t.stage(kStageReader).chunks);
}

TEST(PipelineTelemetryTest, DigestInvariantAcrossSchedules) {
  std::vector<std::string> log = TestLog(500);
  auto digest_at = [&](int threads, size_t chunk_size, size_t queue_cap) {
    pipeline::PipelineOptions options;
    options.threads = threads;
    options.shards = 3;  // digest covers per-shard counts: hold it fixed
    options.chunk_size = chunk_size;
    options.queue_capacity = queue_cap;
    options.telemetry.metrics = true;
    pipeline::ParallelLogPipeline pl(options);
    pipeline::PipelineResult result = pl.Run(log);
    if (!result.telemetry.has_value()) return uint64_t{0};
    return TelemetryDigest(*result.telemetry);
  };
  uint64_t serial = digest_at(1, 512, 16);
  EXPECT_EQ(serial, digest_at(4, 64, 2));
  EXPECT_EQ(serial, digest_at(2, 7, 1));
  EXPECT_EQ(serial, digest_at(3, 1000, 4));
}

TEST(PipelineTelemetryTest, InstrumentationDoesNotChangeResults) {
  // The 13-profile paper corpus with telemetry off, with metrics, and
  // with metrics + span tracing: the answers must not move, and the two
  // collecting runs must count the same item flow.
  const std::vector<std::string> log = testing::PaperCorpusLog(150);
  auto run = [&log](bool metrics, bool trace) {
    pipeline::PipelineOptions options;
    options.threads = 3;
    options.shards = 2;
    options.chunk_size = 64;
    options.telemetry.metrics = metrics;
    options.telemetry.trace = trace;
    return pipeline::ParallelLogPipeline(options).Run(log);
  };
  const pipeline::PipelineResult off = run(false, false);
  const pipeline::PipelineResult metrics = run(true, false);
  const pipeline::PipelineResult traced = run(true, true);
  EXPECT_FALSE(off.telemetry.has_value());
  EXPECT_GT(off.stats.unique, 0u);
  const std::vector<uint64_t> digest =
      pipeline::StatisticsDigest(off.analysis);
  for (const pipeline::PipelineResult* r : {&metrics, &traced}) {
    SCOPED_TRACE(r == &metrics ? "metrics" : "metrics+trace");
    EXPECT_EQ(r->lines, off.lines);
    EXPECT_EQ(r->stats, off.stats);
    EXPECT_EQ(pipeline::StatisticsDigest(r->analysis), digest);
  }
  ASSERT_TRUE(metrics.telemetry.has_value());
  ASSERT_TRUE(traced.telemetry.has_value());
  ASSERT_TRUE(traced.trace.has_value());
  EXPECT_EQ(TelemetryDigest(*metrics.telemetry),
            TelemetryDigest(*traced.telemetry));
}

TEST(PipelineTelemetryTest, SerialIngestorMatchesShardStage) {
  std::vector<std::string> log = TestLog(400);
  // Serial reference: one LogIngestor with a private registry.
  RunTelemetry serial;
  corpus::LogIngestor ingestor;
  ingestor.set_telemetry(&serial);
  ingestor.ProcessLog(log);
  // Parallel run at an adversarial configuration.
  pipeline::PipelineOptions options;
  options.threads = 4;
  options.shards = 3;
  options.chunk_size = 17;
  options.telemetry.metrics = true;
  pipeline::ParallelLogPipeline pl(options);
  pipeline::PipelineResult result = pl.Run(log);
  ASSERT_TRUE(result.telemetry.has_value());
  // The shard/dedup counters are counted inside LogIngestor::Ingest on
  // both paths, so they must agree exactly.
  EXPECT_EQ(serial.stage(kStageShard).items_in,
            result.telemetry->stage(kStageShard).items_in);
  EXPECT_EQ(serial.stage(kStageShard).items_out,
            result.telemetry->stage(kStageShard).items_out);
  EXPECT_EQ(serial.stage(kStageShard).malformed,
            result.telemetry->stage(kStageShard).malformed);
  EXPECT_EQ(serial.stage(kStageShard).items_in, ingestor.stats().total);
  EXPECT_EQ(serial.stage(kStageShard).items_out, ingestor.stats().valid);
}

TEST(PipelineTelemetryTest, TraceSpansLandInsideRun) {
  pipeline::PipelineOptions options;
  options.threads = 2;
  options.shards = 2;
  options.chunk_size = 32;
  options.telemetry.trace = true;
  pipeline::ParallelLogPipeline pl(options);
  pipeline::PipelineResult result = pl.Run(TestLog(300));
  ASSERT_TRUE(result.trace.has_value());
  const TraceData& trace = *result.trace;
  EXPECT_EQ(trace.tracks.size(), 1u + 2u + 2u);  // reader + parse + shard
  size_t spans = 0;
  for (const TraceTrack& track : trace.tracks) {
    EXPECT_EQ(track.dropped, 0u);
    for (const TraceEvent& e : track.events) {
      ++spans;
      EXPECT_LE(e.begin_ns, e.end_ns);
      EXPECT_GE(e.begin_ns, trace.origin_ns);
      EXPECT_LE(e.end_ns, trace.origin_ns + trace.wall_ns);
    }
  }
  EXPECT_GT(spans, 0u);
}

TEST(StreakStageTelemetryTest, EngagesAndCounts) {
  auto profiles = corpus::PaperProfiles();
  std::vector<std::string> queries = corpus::GenerateStreakLog(
      corpus::ProfileByName(profiles, "DBpedia16"), 300, 0.3, 7);
  pipeline::StreakStageOptions options;
  options.threads = 2;
  options.chunk_size = 50;
  options.telemetry.metrics = true;
  options.telemetry.trace = true;
  pipeline::StreakStage stage(options);
  pipeline::StreakStageResult result = stage.Run(queries);
  ASSERT_TRUE(result.telemetry.has_value());
  const RunTelemetry& t = *result.telemetry;
  // Warmup re-scans are excluded, so items == queries exactly; the
  // stitch pass folds every one of them once more.
  EXPECT_EQ(t.stage(kStageStreak).items_in, queries.size());
  EXPECT_EQ(t.stage(kStageStreak).items_out, queries.size());
  EXPECT_EQ(t.stage(kStageStitch).items_in, queries.size());
  EXPECT_EQ(t.stage(kStageStreak).chunks, result.chunks);
  EXPECT_EQ(t.prefilter_pairs, result.prefilter.pairs);
  EXPECT_EQ(t.prefilter_dp, result.prefilter.levenshtein_calls);
  ASSERT_TRUE(result.trace.has_value());
  EXPECT_GE(result.trace->tracks.size(), 2u);  // workers + stitch
}

}  // namespace
}  // namespace sparqlog::obs
