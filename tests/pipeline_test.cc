#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <thread>
#include <unordered_set>

#include "corpus/generator.h"
#include "corpus/ingest.h"
#include "corpus/profile.h"
#include "corpus/report.h"
#include "obs/metrics.h"
#include "pipeline/merge.h"
#include "pipeline/parse_memo.h"
#include "pipeline/pipeline.h"
#include "pipeline/shard.h"
#include "testing/invariants.h"
#include "util/fields.h"
#include "util/strings.h"

namespace sparqlog::pipeline {
namespace {

using corpus::CorpusAnalyzer;
using corpus::CorpusStats;
using corpus::FragmentStats;
using corpus::HypergraphStats;
using corpus::KeywordCounts;
using corpus::PathStats;
using corpus::ProjectionStats;
using corpus::ShapeCounts;
using corpus::TripleStats;

// ---------------------------------------------------------------------------
// Equality helpers: every aggregate, field by field.
// ---------------------------------------------------------------------------

void ExpectHistogramsEqual(const util::BucketHistogram& a,
                           const util::BucketHistogram& b) {
  ASSERT_EQ(a.max_direct(), b.max_direct());
  for (int v = 0; v <= a.max_direct(); ++v) EXPECT_EQ(a.Count(v), b.Count(v));
  EXPECT_EQ(a.Overflow(), b.Overflow());
}

void ExpectShapesEqual(const ShapeCounts& a, const ShapeCounts& b) {
  EXPECT_EQ(a.total, b.total);
  EXPECT_EQ(a.single_edge, b.single_edge);
  EXPECT_EQ(a.chain, b.chain);
  EXPECT_EQ(a.chain_set, b.chain_set);
  EXPECT_EQ(a.star, b.star);
  EXPECT_EQ(a.tree, b.tree);
  EXPECT_EQ(a.forest, b.forest);
  EXPECT_EQ(a.cycle, b.cycle);
  EXPECT_EQ(a.flower, b.flower);
  EXPECT_EQ(a.flower_set, b.flower_set);
  EXPECT_EQ(a.treewidth_le2, b.treewidth_le2);
  EXPECT_EQ(a.treewidth_3, b.treewidth_3);
  EXPECT_EQ(a.treewidth_gt3, b.treewidth_gt3);
  EXPECT_EQ(a.girth, b.girth);
  EXPECT_EQ(a.single_edge_with_constants, b.single_edge_with_constants);
}

void ExpectAnalyzersEqual(const CorpusAnalyzer& a, const CorpusAnalyzer& b) {
  const KeywordCounts& ka = a.keywords();
  const KeywordCounts& kb = b.keywords();
  EXPECT_EQ(ka.total, kb.total);
  EXPECT_EQ(ka.select, kb.select);
  EXPECT_EQ(ka.ask, kb.ask);
  EXPECT_EQ(ka.describe, kb.describe);
  EXPECT_EQ(ka.construct, kb.construct);
  EXPECT_EQ(ka.distinct, kb.distinct);
  EXPECT_EQ(ka.limit, kb.limit);
  EXPECT_EQ(ka.offset, kb.offset);
  EXPECT_EQ(ka.order_by, kb.order_by);
  EXPECT_EQ(ka.reduced, kb.reduced);
  EXPECT_EQ(ka.filter, kb.filter);
  EXPECT_EQ(ka.conj, kb.conj);
  EXPECT_EQ(ka.union_, kb.union_);
  EXPECT_EQ(ka.optional, kb.optional);
  EXPECT_EQ(ka.graph, kb.graph);
  EXPECT_EQ(ka.not_exists, kb.not_exists);
  EXPECT_EQ(ka.minus, kb.minus);
  EXPECT_EQ(ka.exists, kb.exists);
  EXPECT_EQ(ka.count, kb.count);
  EXPECT_EQ(ka.max, kb.max);
  EXPECT_EQ(ka.min, kb.min);
  EXPECT_EQ(ka.avg, kb.avg);
  EXPECT_EQ(ka.sum, kb.sum);
  EXPECT_EQ(ka.group_by, kb.group_by);
  EXPECT_EQ(ka.having, kb.having);
  EXPECT_EQ(ka.service, kb.service);
  EXPECT_EQ(ka.bind, kb.bind);
  EXPECT_EQ(ka.values, kb.values);

  const auto& oa = a.operator_sets();
  const auto& ob = b.operator_sets();
  for (uint8_t mask = 0; mask < 32; ++mask) {
    EXPECT_EQ(oa.Exact(mask), ob.Exact(mask)) << "mask " << int(mask);
  }
  EXPECT_EQ(oa.other, ob.other);
  EXPECT_EQ(oa.total, ob.total);

  const ProjectionStats& pa = a.projection();
  const ProjectionStats& pb = b.projection();
  EXPECT_EQ(pa.total, pb.total);
  EXPECT_EQ(pa.with_projection, pb.with_projection);
  EXPECT_EQ(pa.select_with_projection, pb.select_with_projection);
  EXPECT_EQ(pa.ask_with_projection, pb.ask_with_projection);
  EXPECT_EQ(pa.indeterminate, pb.indeterminate);
  EXPECT_EQ(pa.with_subqueries, pb.with_subqueries);

  const FragmentStats& fa = a.fragments();
  const FragmentStats& fb = b.fragments();
  EXPECT_EQ(fa.select_ask, fb.select_ask);
  EXPECT_EQ(fa.aof, fb.aof);
  EXPECT_EQ(fa.cq, fb.cq);
  EXPECT_EQ(fa.cpf, fb.cpf);
  EXPECT_EQ(fa.cqf, fb.cqf);
  EXPECT_EQ(fa.well_designed, fb.well_designed);
  EXPECT_EQ(fa.cqof, fb.cqof);
  EXPECT_EQ(fa.wide_interface, fb.wide_interface);
  ExpectHistogramsEqual(fa.cq_sizes, fb.cq_sizes);
  ExpectHistogramsEqual(fa.cqf_sizes, fb.cqf_sizes);
  ExpectHistogramsEqual(fa.cqof_sizes, fb.cqof_sizes);

  ExpectShapesEqual(a.cq_shapes(), b.cq_shapes());
  ExpectShapesEqual(a.cqf_shapes(), b.cqf_shapes());
  ExpectShapesEqual(a.cqof_shapes(), b.cqof_shapes());

  const HypergraphStats& ha = a.hypergraphs();
  const HypergraphStats& hb = b.hypergraphs();
  EXPECT_EQ(ha.total, hb.total);
  EXPECT_EQ(ha.ghw1, hb.ghw1);
  EXPECT_EQ(ha.ghw2, hb.ghw2);
  EXPECT_EQ(ha.ghw3, hb.ghw3);
  EXPECT_EQ(ha.ghw_more, hb.ghw_more);
  EXPECT_EQ(ha.decompositions_gt10_nodes, hb.decompositions_gt10_nodes);
  EXPECT_EQ(ha.decompositions_gt100_nodes, hb.decompositions_gt100_nodes);

  const PathStats& qa = a.paths();
  const PathStats& qb = b.paths();
  EXPECT_EQ(qa.total_paths, qb.total_paths);
  EXPECT_EQ(qa.trivial_negated, qb.trivial_negated);
  EXPECT_EQ(qa.trivial_inverse, qb.trivial_inverse);
  EXPECT_EQ(qa.navigational, qb.navigational);
  EXPECT_EQ(qa.with_inverse, qb.with_inverse);
  EXPECT_EQ(qa.not_ctract, qb.not_ctract);
  EXPECT_EQ(qa.by_type, qb.by_type);

  ASSERT_EQ(a.per_dataset().size(), b.per_dataset().size());
  for (const auto& [name, ta] : a.per_dataset()) {
    ASSERT_TRUE(b.per_dataset().count(name)) << name;
    const TripleStats& tb = b.per_dataset().at(name);
    EXPECT_EQ(ta.select_ask, tb.select_ask) << name;
    EXPECT_EQ(ta.all_queries, tb.all_queries) << name;
    EXPECT_EQ(ta.triple_sum, tb.triple_sum) << name;
    EXPECT_EQ(ta.max_triples, tb.max_triples) << name;
    ExpectHistogramsEqual(ta.histogram, tb.histogram);
  }
}

/// A mixed synthetic log drawn from several dataset profiles so the
/// pipeline sees diverse query forms, paths, and malformed entries.
std::vector<std::string> BuildMixedLog(uint64_t min_entries_per_dataset) {
  auto profiles = corpus::PaperProfiles();
  std::vector<std::string> lines;
  uint64_t seed = 71;
  for (const char* name :
       {"DBpedia15", "WikiData17", "BioMed13", "SWDF13"}) {
    corpus::GeneratorOptions options;
    options.scale = 0;
    options.min_entries = min_entries_per_dataset;
    options.seed = seed++;
    corpus::SyntheticLogGenerator gen(corpus::ProfileByName(profiles, name),
                                      options);
    auto log = gen.GenerateLog();
    lines.insert(lines.end(), log.begin(), log.end());
  }
  return lines;
}

// ---------------------------------------------------------------------------
// Serial vs parallel determinism (the tentpole invariant).
// ---------------------------------------------------------------------------

TEST(PipelineDeterminismTest, MatchesSerialAtOneTwoAndEightThreads) {
  std::vector<std::string> lines = BuildMixedLog(1200);
  testing::SerialResult serial = testing::RunSerial(lines);

  struct Config {
    int threads;
    size_t shards;  // 0 = one per worker
    size_t chunk_size;
  };
  // 1/2/8 workers, then shard counts decoupled from the worker count
  // with chunk sizes from tiny to larger than a dataset's share.
  const Config configs[] = {{1, 0, 64}, {2, 0, 64}, {8, 0, 64},
                            {3, 5, 64}, {4, 2, 7},  {2, 0, 512}};
  for (const Config& c : configs) {
    PipelineOptions options;
    options.threads = c.threads;
    options.shards = c.shards;
    options.chunk_size = c.chunk_size;
    ParallelLogPipeline pipeline(options);
    PipelineResult result = pipeline.Run(lines);

    SCOPED_TRACE("threads=" + std::to_string(c.threads) + " shards=" +
                 std::to_string(c.shards) + " chunk=" +
                 std::to_string(c.chunk_size));
    EXPECT_EQ(result.lines, lines.size());
    EXPECT_EQ(result.stats.total, serial.stats.total);
    EXPECT_EQ(result.stats.valid, serial.stats.valid);
    EXPECT_EQ(result.stats.unique, serial.stats.unique);
    ExpectAnalyzersEqual(serial.analysis, result.analysis);
    EXPECT_EQ(StatisticsDigest(result.analysis),
              StatisticsDigest(serial.analysis));
  }
}

TEST(PipelineDeterminismTest, ValidCorpusModeMatchesSerial) {
  std::vector<std::string> lines = BuildMixedLog(600);
  testing::SerialResult serial =
      testing::RunSerial(lines, /*use_valid_corpus=*/true);

  PipelineOptions options;
  options.threads = 4;
  options.chunk_size = 32;
  options.use_valid_corpus = true;
  ParallelLogPipeline pipeline(options);
  PipelineResult result = pipeline.Run(lines);

  EXPECT_EQ(result.stats.valid, serial.stats.valid);
  ExpectAnalyzersEqual(serial.analysis, result.analysis);
}

TEST(PipelineDeterminismTest, RepeatedRunsAreIdentical) {
  std::vector<std::string> lines = BuildMixedLog(400);
  PipelineOptions options;
  options.threads = 3;
  options.chunk_size = 17;  // odd size: chunks straddle entries unevenly
  PipelineResult a = ParallelLogPipeline(options).Run(lines);
  PipelineResult b = ParallelLogPipeline(options).Run(lines);
  EXPECT_EQ(a.stats.total, b.stats.total);
  EXPECT_EQ(a.stats.valid, b.stats.valid);
  EXPECT_EQ(a.stats.unique, b.stats.unique);
  ExpectAnalyzersEqual(a.analysis, b.analysis);
}

// ---------------------------------------------------------------------------
// Shard routing
// ---------------------------------------------------------------------------

TEST(ShardTest, FormattingVariantsRouteToSameShard) {
  sparql::Parser parser;
  corpus::ParsedLine a = testing::ParseLogLine(
      parser, "query=" + util::PercentEncode("SELECT * WHERE { ?s ?p ?o }"));
  corpus::ParsedLine b = testing::ParseLogLine(
      parser,
      "query=" + util::PercentEncode("SELECT *\nWHERE {\n ?s ?p ?o .\n}"));
  ASSERT_TRUE(a.valid);
  ASSERT_TRUE(b.valid);
  EXPECT_EQ(a.canonical_hash, b.canonical_hash);
  for (size_t shards : {2u, 3u, 8u}) {
    EXPECT_EQ(ShardIndexFor(a, shards), ShardIndexFor(b, shards));
  }
}

TEST(ShardTest, MalformedEntriesRouteByLineHash) {
  sparql::Parser parser;
  corpus::ParsedLine p =
      testing::ParseLogLine(parser, "query=NOT%20SPARQL");
  ASSERT_TRUE(p.is_query);
  ASSERT_FALSE(p.valid);
  for (size_t shards : {1u, 2u, 8u}) {
    size_t idx = ShardIndexFor(p, shards);
    EXPECT_LT(idx, shards);
    EXPECT_EQ(idx, ShardIndexFor(p, shards));  // deterministic
  }
}

TEST(ShardTest, ShardCountsTableOneSemantics) {
  ShardOptions options;
  Shard shard(options);
  sparql::Parser parser;
  auto feed = [&](const std::string& line) {
    shard.Consume(testing::ParseLogLine(parser, line));
  };
  feed("GET /nonsense HTTP/1.1");
  feed("query=" + util::PercentEncode("SELECT * WHERE { ?s ?p ?o }"));
  feed("query=" + util::PercentEncode("SELECT * WHERE { ?s ?p ?o }"));
  feed("query=NOT%20SPARQL");
  EXPECT_EQ(shard.stats().total, 3u);
  EXPECT_EQ(shard.stats().valid, 2u);
  EXPECT_EQ(shard.stats().unique, 1u);
  EXPECT_EQ(shard.analyzer().keywords().total, 1u);
}

// ---------------------------------------------------------------------------
// BoundedQueue
// ---------------------------------------------------------------------------

TEST(BoundedQueueTest, FifoAndCloseSemantics) {
  BoundedQueue<int> q(4);
  EXPECT_TRUE(q.Push(1));
  EXPECT_TRUE(q.Push(2));
  q.Close();
  EXPECT_FALSE(q.Push(3));  // closed: rejected
  EXPECT_EQ(q.Pop(), 1);    // pending items still drain
  EXPECT_EQ(q.Pop(), 2);
  EXPECT_EQ(q.Pop(), std::nullopt);
}

TEST(BoundedQueueTest, BackpressureDeliversEverything) {
  BoundedQueue<int> q(2);  // tiny capacity: producer must block
  constexpr int kItems = 500;
  std::thread producer([&q] {
    for (int i = 0; i < kItems; ++i) q.Push(i);
    q.Close();
  });
  int64_t sum = 0, received = 0;
  while (std::optional<int> v = q.Pop()) {
    sum += *v;
    ++received;
  }
  producer.join();
  EXPECT_EQ(received, kItems);
  EXPECT_EQ(sum, static_cast<int64_t>(kItems) * (kItems - 1) / 2);
}

TEST(BoundedQueueTest, StatsCountTrafficAndHighWater) {
  BoundedQueue<int> q(4);
  EXPECT_TRUE(q.Push(1));
  EXPECT_TRUE(q.Push(2));
  EXPECT_TRUE(q.Push(3));
  EXPECT_EQ(q.Pop(), 1);
  EXPECT_TRUE(q.Push(4));
  obs::QueueCounters stats = q.Stats();
  EXPECT_EQ(stats.pushes, 4u);
  EXPECT_EQ(stats.pops, 1u);
  EXPECT_EQ(stats.max_depth, 3u);  // never held more than three at once
  EXPECT_EQ(stats.push_blocks, 0u);
  EXPECT_EQ(stats.pop_waits, 0u);
  EXPECT_EQ(stats.push_block_ns, 0u);  // uncontended: clock never read
  EXPECT_EQ(stats.pop_wait_ns, 0u);
  EXPECT_EQ(stats.rejected_pushes, 0u);
}

TEST(BoundedQueueTest, PushAfterCloseIsRejectedAndCounted) {
  BoundedQueue<int> q(4);
  EXPECT_TRUE(q.Push(1));
  q.Close();
  EXPECT_FALSE(q.Push(2));
  EXPECT_FALSE(q.Push(3));
  obs::QueueCounters stats = q.Stats();
  EXPECT_EQ(stats.pushes, 1u);  // accepted items only
  EXPECT_EQ(stats.rejected_pushes, 2u);
}

TEST(BoundedQueueTest, PopDrainsFifoAfterCloseThenNullopt) {
  BoundedQueue<int> q(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.Push(i));
  q.Close();
  for (int i = 0; i < 5; ++i) {
    std::optional<int> v = q.Pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);  // FIFO order survives Close
  }
  EXPECT_EQ(q.Pop(), std::nullopt);
  EXPECT_EQ(q.Pop(), std::nullopt);  // stays exhausted
  obs::QueueCounters stats = q.Stats();
  EXPECT_EQ(stats.pushes, 5u);
  EXPECT_EQ(stats.pops, 5u);
  EXPECT_EQ(stats.pop_waits, 0u);  // items were always available
}

TEST(BoundedQueueTest, CloseWakesBlockedProducerWhichIsRejected) {
  BoundedQueue<int> q(1);
  EXPECT_TRUE(q.Push(0));  // queue now full
  std::atomic<int> second_push{-1};
  std::thread producer([&] {
    second_push = q.Push(1) ? 1 : 0;  // must block, then see Close
  });
  // Wait until the producer is provably blocked on the full queue.
  while (q.Stats().push_blocks == 0) std::this_thread::yield();
  q.Close();
  producer.join();
  EXPECT_EQ(second_push, 0);  // woken by Close -> rejected, not enqueued
  EXPECT_EQ(q.Pop(), 0);      // the pre-Close item still drains
  EXPECT_EQ(q.Pop(), std::nullopt);
  obs::QueueCounters stats = q.Stats();
  EXPECT_EQ(stats.pushes, 1u);
  EXPECT_EQ(stats.push_blocks, 1u);
  EXPECT_EQ(stats.rejected_pushes, 1u);
}

TEST(BoundedQueueTest, BlockedStatsAttributeWaitTime) {
  BoundedQueue<int> q(1);
  constexpr int kItems = 50;
  std::thread producer([&q] {
    for (int i = 0; i < kItems; ++i) q.Push(i);
    q.Close();
  });
  // The producer fills the capacity-1 queue and must block on its
  // second push; only start draining once that block is observed, so
  // the assertion below is deterministic.
  while (q.Stats().push_blocks == 0) std::this_thread::yield();
  int received = 0;
  while (q.Pop().has_value()) ++received;
  producer.join();
  obs::QueueCounters stats = q.Stats();
  EXPECT_EQ(received, kItems);
  EXPECT_EQ(stats.pushes, static_cast<uint64_t>(kItems));
  EXPECT_EQ(stats.pops, static_cast<uint64_t>(kItems));
  EXPECT_EQ(stats.max_depth, 1u);
  EXPECT_GT(stats.push_blocks, 0u);
  EXPECT_GT(stats.push_block_ns, 0u);  // the observed block accrued time
}

// ---------------------------------------------------------------------------
// Line sources
// ---------------------------------------------------------------------------

TEST(LineSourceTest, IstreamSourceStreamsInChunks) {
  std::stringstream ss("a\nb\nc\nd\ne\n");
  IstreamChunkSource source(ss);
  LineChunk chunk;
  auto lines = [&chunk] {
    return std::vector<std::string>(chunk.lines.begin(), chunk.lines.end());
  };
  ASSERT_TRUE(source.NextChunk(2, chunk));
  EXPECT_EQ(lines(), (std::vector<std::string>{"a", "b"}));
  ASSERT_TRUE(source.NextChunk(2, chunk));
  EXPECT_EQ(lines(), (std::vector<std::string>{"c", "d"}));
  ASSERT_TRUE(source.NextChunk(2, chunk));
  EXPECT_EQ(lines(), (std::vector<std::string>{"e"}));
  EXPECT_FALSE(source.NextChunk(2, chunk));
  EXPECT_TRUE(chunk.lines.empty());
}

TEST(LineSourceTest, PipelineRunsFromIstream) {
  std::stringstream ss;
  ss << "query=" << util::PercentEncode("SELECT * WHERE { ?s ?p ?o }") << "\n"
     << "noise line\n"
     << "query=" << util::PercentEncode("ASK { <a> <b> <c> }") << "\n";
  PipelineOptions options;
  options.threads = 2;
  ParallelLogPipeline pipeline(options);
  IstreamChunkSource source(ss);
  PipelineResult result = pipeline.Run(source);
  EXPECT_EQ(result.lines, 3u);
  EXPECT_EQ(result.stats.total, 2u);
  EXPECT_EQ(result.stats.valid, 2u);
  EXPECT_EQ(result.stats.unique, 2u);
}

// ---------------------------------------------------------------------------
// Merge() unit tests, one per aggregate.
// ---------------------------------------------------------------------------

TEST(MergeTest, CorpusStats) {
  CorpusStats a{10, 8, 5}, b{3, 2, 1};
  util::fields::Merge(a, b);
  EXPECT_EQ(a.total, 13u);
  EXPECT_EQ(a.valid, 10u);
  EXPECT_EQ(a.unique, 6u);
}

TEST(MergeTest, BucketHistogram) {
  util::BucketHistogram a{11}, b{11};
  a.Add(0);
  a.Add(3, 2);
  a.Add(40);
  b.Add(3);
  b.Add(99);
  a.Merge(b);
  EXPECT_EQ(a.Count(0), 1u);
  EXPECT_EQ(a.Count(3), 3u);
  EXPECT_EQ(a.Overflow(), 2u);
  EXPECT_EQ(a.Total(), 6u);
}

TEST(MergeTest, KeywordCounts) {
  KeywordCounts a, b;
  a.total = 5;
  a.select = 4;
  a.filter = 2;
  b.total = 3;
  b.select = 1;
  b.union_ = 3;
  util::fields::Merge(a, b);
  EXPECT_EQ(a.total, 8u);
  EXPECT_EQ(a.select, 5u);
  EXPECT_EQ(a.filter, 2u);
  EXPECT_EQ(a.union_, 3u);
}

TEST(MergeTest, TripleStatsTakesMaxOfMaxima) {
  TripleStats a, b;
  a.all_queries = 4;
  a.triple_sum = 9;
  a.max_triples = 3;
  a.select_ask = 4;
  a.histogram.Add(2);
  b.all_queries = 2;
  b.triple_sum = 14;
  b.max_triples = 12;
  b.select_ask = 1;
  b.histogram.Add(12);
  util::fields::Merge(a, b);
  EXPECT_EQ(a.all_queries, 6u);
  EXPECT_EQ(a.triple_sum, 23u);
  EXPECT_EQ(a.max_triples, 12u);
  EXPECT_EQ(a.select_ask, 5u);
  EXPECT_EQ(a.histogram.Count(2), 1u);
  EXPECT_EQ(a.histogram.Overflow(), 1u);
}

TEST(MergeTest, ProjectionStats) {
  ProjectionStats a, b;
  a.total = 7;
  a.with_projection = 2;
  b.total = 3;
  b.with_projection = 1;
  b.indeterminate = 2;
  util::fields::Merge(a, b);
  EXPECT_EQ(a.total, 10u);
  EXPECT_EQ(a.with_projection, 3u);
  EXPECT_EQ(a.indeterminate, 2u);
}

TEST(MergeTest, FragmentStats) {
  FragmentStats a, b;
  a.select_ask = 6;
  a.cq = 4;
  a.cq_sizes.Add(1);
  b.select_ask = 2;
  b.cq = 1;
  b.aof = 2;
  b.cq_sizes.Add(1);
  util::fields::Merge(a, b);
  EXPECT_EQ(a.select_ask, 8u);
  EXPECT_EQ(a.cq, 5u);
  EXPECT_EQ(a.aof, 2u);
  EXPECT_EQ(a.cq_sizes.Count(1), 2u);
}

TEST(MergeTest, ShapeCountsMergesGirthMaps) {
  ShapeCounts a, b;
  a.total = 3;
  a.cycle = 1;
  a.girth[3] = 1;
  b.total = 2;
  b.cycle = 2;
  b.girth[3] = 2;
  b.girth[5] = 1;
  util::fields::Merge(a, b);
  EXPECT_EQ(a.total, 5u);
  EXPECT_EQ(a.cycle, 3u);
  EXPECT_EQ(a.girth[3], 3u);
  EXPECT_EQ(a.girth[5], 1u);
}

TEST(MergeTest, HypergraphStats) {
  HypergraphStats a, b;
  a.total = 2;
  a.ghw1 = 2;
  b.total = 3;
  b.ghw2 = 3;
  b.decompositions_gt10_nodes = 1;
  util::fields::Merge(a, b);
  EXPECT_EQ(a.total, 5u);
  EXPECT_EQ(a.ghw1, 2u);
  EXPECT_EQ(a.ghw2, 3u);
  EXPECT_EQ(a.decompositions_gt10_nodes, 1u);
}

TEST(MergeTest, PathStatsMergesTypeMaps) {
  PathStats a, b;
  a.total_paths = 4;
  a.navigational = 2;
  a.by_type[paths::PathType::kStar] = 2;
  b.total_paths = 1;
  b.navigational = 1;
  b.by_type[paths::PathType::kStar] = 1;
  b.by_type[paths::PathType::kStarOfAlt] = 1;
  util::fields::Merge(a, b);
  EXPECT_EQ(a.total_paths, 5u);
  EXPECT_EQ(a.navigational, 3u);
  EXPECT_EQ(a.by_type[paths::PathType::kStar], 3u);
  EXPECT_EQ(a.by_type[paths::PathType::kStarOfAlt], 1u);
}

TEST(MergeTest, OperatorSetDistribution) {
  analysis::OperatorSetDistribution a, b;
  a.exact[0] = 5;
  a.exact[3] = 2;
  a.total = 7;
  b.exact[3] = 1;
  b.other = 4;
  b.total = 5;
  util::fields::Merge(a, b);
  EXPECT_EQ(a.Exact(0), 5u);
  EXPECT_EQ(a.Exact(3), 3u);
  EXPECT_EQ(a.other, 4u);
  EXPECT_EQ(a.total, 12u);
}

TEST(MergeTest, AnalyzerMergeEqualsCombinedAnalysis) {
  auto profiles = corpus::PaperProfiles();
  corpus::GeneratorOptions options;
  options.seed = 23;
  corpus::SyntheticLogGenerator gen(
      corpus::ProfileByName(profiles, "DBpedia15"), options);
  std::vector<sparql::Query> queries;
  for (int i = 0; i < 300; ++i) queries.push_back(gen.GenerateQuery());

  CorpusAnalyzer combined;
  for (const auto& q : queries) combined.AddQuery(q, "all");

  CorpusAnalyzer left, right;
  for (size_t i = 0; i < queries.size(); ++i) {
    (i % 2 == 0 ? left : right).AddQuery(queries[i], "all");
  }
  left.MergeFrom(right);
  ExpectAnalyzersEqual(combined, left);
}

TEST(MergeTest, StatisticsDigestDetectsAnyDivergence) {
  auto profiles = corpus::PaperProfiles();
  corpus::GeneratorOptions options;
  options.seed = 41;
  corpus::SyntheticLogGenerator gen(
      corpus::ProfileByName(profiles, "WikiData17"), options);
  CorpusAnalyzer a, b;
  for (int i = 0; i < 200; ++i) {
    sparql::Query q = gen.GenerateQuery();
    a.AddQuery(q, "all");
    b.AddQuery(q, "all");
  }
  EXPECT_EQ(StatisticsDigest(a), StatisticsDigest(b));
  // One extra query must perturb the digest.
  b.AddQuery(gen.GenerateQuery(), "all");
  EXPECT_NE(StatisticsDigest(a), StatisticsDigest(b));
}

TEST(MergeTest, MergeShardsFoldsStatsAndAnalysis) {
  ShardOptions options;
  std::vector<std::unique_ptr<Shard>> shards;
  shards.push_back(std::make_unique<Shard>(options));
  shards.push_back(std::make_unique<Shard>(options));
  sparql::Parser parser;
  shards[0]->Consume(testing::ParseLogLine(
      parser, "query=" + util::PercentEncode("SELECT * WHERE { ?s ?p ?o }")));
  shards[1]->Consume(testing::ParseLogLine(
      parser, "query=" + util::PercentEncode("ASK { <a> <b> <c> }")));
  PipelineResult merged = MergeShards(shards);
  EXPECT_EQ(merged.stats.total, 2u);
  EXPECT_EQ(merged.stats.unique, 2u);
  EXPECT_EQ(merged.analysis.keywords().total, 2u);
  EXPECT_EQ(merged.analysis.keywords().select, 1u);
  EXPECT_EQ(merged.analysis.keywords().ask, 1u);
}

// ---------------------------------------------------------------------------
// Merge() algebra: identity on empty, order independence (the two
// properties MergeShards relies on for exactness).
// ---------------------------------------------------------------------------

/// Feeds a handful of syntactically diverse queries into an analyzer.
CorpusAnalyzer PopulatedAnalyzer(std::initializer_list<const char*> texts) {
  CorpusAnalyzer analyzer;
  sparql::Parser parser;
  for (const char* text : texts) {
    auto q = parser.Parse(text);
    EXPECT_TRUE(q.ok()) << text;
    if (q.ok()) analyzer.AddQuery(q.value(), "all");
  }
  return analyzer;
}

const std::initializer_list<const char*> kCorpusA = {
    "SELECT DISTINCT ?x WHERE { ?x <p:a> ?y . ?y <p:b> ?z } LIMIT 5",
    "ASK { <a:a> <p:c>+ ?x }",
    "SELECT * WHERE { { ?a <p:d> ?b } UNION { ?a <p:e> ?b } }",
};

const std::initializer_list<const char*> kCorpusB = {
    "CONSTRUCT { ?s <p:f> ?o } WHERE { ?s <p:f> ?o . FILTER(?o > 3) }",
    "SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?s",
    "DESCRIBE <x:y>",
    "ASK { ?x !(<p:g>|^<p:h>) ?y . OPTIONAL { ?x <p:i> ?z } }",
};

TEST(MergeAlgebraTest, MergeFromEmptyAnalyzerIsIdentity) {
  CorpusAnalyzer populated = PopulatedAnalyzer(kCorpusA);
  std::vector<uint64_t> before = StatisticsDigest(populated);
  CorpusAnalyzer empty;
  populated.MergeFrom(empty);
  EXPECT_EQ(StatisticsDigest(populated), before);
  // And merging INTO an empty analyzer reproduces the populated state.
  CorpusAnalyzer other;
  other.MergeFrom(PopulatedAnalyzer(kCorpusA));
  EXPECT_EQ(StatisticsDigest(other), before);
}

TEST(MergeAlgebraTest, MergeFromIsOrderIndependent) {
  CorpusAnalyzer ab = PopulatedAnalyzer(kCorpusA);
  ab.MergeFrom(PopulatedAnalyzer(kCorpusB));
  CorpusAnalyzer ba = PopulatedAnalyzer(kCorpusB);
  ba.MergeFrom(PopulatedAnalyzer(kCorpusA));
  EXPECT_EQ(StatisticsDigest(ab), StatisticsDigest(ba));
  ExpectAnalyzersEqual(ab, ba);
}

TEST(MergeAlgebraTest, AsymmetricMergePreservesEverySum) {
  // A sees 3 queries, B sees 4; the merged digest must equal the digest
  // of one analyzer that saw all 7 (the pipeline's shard invariant).
  CorpusAnalyzer merged = PopulatedAnalyzer(kCorpusA);
  merged.MergeFrom(PopulatedAnalyzer(kCorpusB));
  std::vector<const char*> all;
  all.insert(all.end(), kCorpusA.begin(), kCorpusA.end());
  all.insert(all.end(), kCorpusB.begin(), kCorpusB.end());
  CorpusAnalyzer reference;
  sparql::Parser parser;
  for (const char* text : all) {
    auto q = parser.Parse(text);
    ASSERT_TRUE(q.ok());
    reference.AddQuery(q.value(), "all");
  }
  EXPECT_EQ(StatisticsDigest(merged), StatisticsDigest(reference));
}

TEST(MergeAlgebraTest, CorpusStatsMergeIdentityAndSums) {
  CorpusStats a;
  a.total = 10;
  a.valid = 7;
  a.unique = 5;
  CorpusStats copy = a;
  util::fields::Merge(a, CorpusStats{});
  EXPECT_EQ(a.total, copy.total);
  EXPECT_EQ(a.valid, copy.valid);
  EXPECT_EQ(a.unique, copy.unique);
  CorpusStats b;
  b.total = 1;
  b.valid = 1;
  b.unique = 0;
  util::fields::Merge(a, b);
  EXPECT_EQ(a.total, 11u);
  EXPECT_EQ(a.valid, 8u);
  EXPECT_EQ(a.unique, 5u);
}

TEST(MergeAlgebraTest, PerStructMergeWithDefaultIsIdentity) {
  // Every aggregate struct must treat a default-constructed instance as
  // the neutral element — MergeShards merges shards that may have seen
  // zero entries.
  CorpusAnalyzer populated = PopulatedAnalyzer(kCorpusB);
  KeywordCounts k = populated.keywords();
  KeywordCounts k0 = k;
  util::fields::Merge(k, KeywordCounts{});
  EXPECT_EQ(k.total, k0.total);
  EXPECT_EQ(k.select, k0.select);
  EXPECT_EQ(k.construct, k0.construct);
  EXPECT_EQ(k.optional, k0.optional);

  ShapeCounts s = populated.cq_shapes();
  ShapeCounts s0 = s;
  util::fields::Merge(s, ShapeCounts{});
  ExpectShapesEqual(s, s0);

  PathStats p = populated.paths();
  PathStats p0 = p;
  util::fields::Merge(p, PathStats{});
  EXPECT_EQ(p.total_paths, p0.total_paths);
  EXPECT_EQ(p.trivial_negated, p0.trivial_negated);
  EXPECT_EQ(p.by_type, p0.by_type);

  ProjectionStats pr = populated.projection();
  ProjectionStats pr0 = pr;
  util::fields::Merge(pr, ProjectionStats{});
  EXPECT_EQ(pr.total, pr0.total);
  EXPECT_EQ(pr.with_projection, pr0.with_projection);

  FragmentStats f;
  f.cq = 3;
  f.cq_sizes.Add(2);
  util::fields::Merge(f, FragmentStats{});
  EXPECT_EQ(f.cq, 3u);
  EXPECT_EQ(f.cq_sizes.Count(2), 1u);

  HypergraphStats hg;
  hg.total = 2;
  hg.ghw1 = 1;
  util::fields::Merge(hg, HypergraphStats{});
  EXPECT_EQ(hg.total, 2u);
  EXPECT_EQ(hg.ghw1, 1u);

  TripleStats ts;
  ts.all_queries = 4;
  ts.histogram.Add(3);
  util::fields::Merge(ts, TripleStats{});
  EXPECT_EQ(ts.all_queries, 4u);
  EXPECT_EQ(ts.histogram.Count(3), 1u);
}

TEST(PipelineTest, ShardCountDecoupledFromThreadCount) {
  std::vector<std::string> log;
  for (int i = 0; i < 40; ++i) {
    log.push_back("query=SELECT%20%2A%20WHERE%20%7B%20%3Fs%20%3Cp%3A" +
                  std::to_string(i % 7) + "%3E%20%3Fo%20%7D");
  }
  PipelineOptions reference_options;
  reference_options.threads = 1;
  ParallelLogPipeline reference(reference_options);
  PipelineResult expected = reference.Run(log);
  for (size_t shards : {1u, 2u, 5u, 9u}) {
    PipelineOptions options;
    options.threads = 3;
    options.shards = shards;
    options.chunk_size = 4;
    ParallelLogPipeline pipeline(options);
    EXPECT_EQ(pipeline.shards(), shards);
    PipelineResult result = pipeline.Run(log);
    EXPECT_EQ(result.stats.total, expected.stats.total) << shards;
    EXPECT_EQ(result.stats.unique, expected.stats.unique) << shards;
    EXPECT_EQ(StatisticsDigest(result.analysis),
              StatisticsDigest(expected.analysis))
        << shards;
  }
}

// ---------------------------------------------------------------------------
// The parse workers' exact-line memo (unique corpus only)
// ---------------------------------------------------------------------------

/// TelemetryDigest of a memo-free serial pass: every line is parsed,
/// counted in the reader and parse stages and routed to one of `shards`
/// shards as the pipeline's parse workers do, then ingested by one
/// LogIngestor, which counts the shard and analysis stages (the sink
/// only has to exist; the analysis itself is not counted).
uint64_t SerialTelemetryDigest(const std::vector<std::string>& lines,
                               size_t shards) {
  obs::RunTelemetry t;
  t.shard_queries.assign(shards, 0);
  corpus::LogIngestor ingestor;
  ingestor.set_unique_sink([](const sparql::Query&) {});
  ingestor.set_telemetry(&t);
  sparql::Parser parser;
  obs::StageMetrics& reader = t.stage(obs::kStageReader);
  obs::StageMetrics& parse = t.stage(obs::kStageParse);
  for (const std::string& line : lines) {
    ++reader.items_in;
    ++reader.items_out;
    reader.bytes_in += line.size();
    ++parse.items_in;
    parse.bytes_in += line.size();
    corpus::ParsedLine parsed = testing::ParseLogLine(parser, line);
    if (parsed.is_query) {
      ++parse.items_out;
      if (!parsed.valid) ++parse.malformed;
      ++t.shard_queries[ShardIndexFor(parsed, shards)];
    }
    ingestor.Ingest(parsed);
  }
  return obs::TelemetryDigest(t);
}

TEST(ParseMemoTest, PaperCorpusMatchesSerialOracleAtOneTwoAndEightThreads) {
  const std::vector<std::string> lines = testing::PaperCorpusLog(2000);
  const testing::SerialResult serial = testing::RunSerial(lines);
  const std::vector<uint64_t> serial_digest =
      StatisticsDigest(serial.analysis);
  constexpr size_t kShards = 3;  // TelemetryDigest covers per-shard counts
  const uint64_t serial_telemetry = SerialTelemetryDigest(lines, kShards);
  // Query lines that repeat an earlier line byte for byte: what a memo
  // that never flushed would hit.
  std::unordered_set<std::string_view> distinct;
  uint64_t repeats = 0;
  for (const std::string& line : lines) {
    if (line.starts_with("query=") && !distinct.insert(line).second) ++repeats;
  }
  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    PipelineOptions options;
    options.threads = threads;
    options.shards = kShards;
    options.telemetry.metrics = true;
    PipelineResult result = ParallelLogPipeline(options).Run(lines);
    EXPECT_EQ(result.lines, lines.size());
    EXPECT_EQ(result.stats, serial.stats);
    EXPECT_EQ(StatisticsDigest(result.analysis), serial_digest);
    ASSERT_TRUE(result.telemetry.has_value());
    const obs::RunTelemetry& t = *result.telemetry;
    EXPECT_EQ(obs::TelemetryDigest(t), serial_telemetry);
    EXPECT_GT(t.parse_memo_hits, 0u);
    EXPECT_LE(t.parse_memo_hits, t.stage(obs::kStageParse).items_out);
    EXPECT_LE(t.parse_memo_hits, repeats);
    if (threads == 1) {
      // One worker reads every chunk in order, so its hits are a pure
      // function of the log and the 1 MB budget.
      EXPECT_EQ(t.parse_memo_hits, 17748u);
    }
  }
}

/// A distinct query line of about 600 bytes, like a deep-shapes entry.
std::string UniqueMemoLine(uint64_t i) {
  return "query=" + std::string(600, 'x') + std::to_string(i);
}

/// Finds `line` in `memo` and, on a miss, inserts a valid parse of it.
bool FindOrInsert(ParseMemo& memo, const std::string& line) {
  if (memo.Find(line).has_value()) return true;
  corpus::ParsedLine parsed;
  parsed.is_query = true;
  parsed.valid = true;
  parsed.canonical_hash = corpus::HashBytes(line);
  memo.Insert(line, parsed);
  return false;
}

// On a log without repeats the memo only costs: after one epoch (filled
// to its byte budget and flushed) without a hit it tracks one line in
// kSampleStride, so a second epoch's worth of lines inserts 1/64 of it.
TEST(ParseMemoTest, AllUniqueLogStopsInsertingAfterOneEpoch) {
  ParseMemo memo;
  uint64_t i = 0;
  while (!memo.sampling()) {
    ASSERT_FALSE(FindOrInsert(memo, UniqueMemoLine(i++)));
    ASSERT_LT(i, 100000u) << "the memo never flushed";
  }
  const uint64_t epoch = i;
  EXPECT_EQ(memo.inserts(), epoch);
  EXPECT_GT(epoch * 600, ParseMemo::kBytes / 2);
  for (uint64_t k = 0; k < epoch; ++k) {
    ASSERT_FALSE(FindOrInsert(memo, UniqueMemoLine(i++)));
  }
  EXPECT_TRUE(memo.sampling());
  EXPECT_EQ(memo.inserts() - epoch, epoch / ParseMemo::kSampleStride);
}

// A log that turns repetitive after the back-off gets its hits back: a
// sampled line that repeats an earlier sampled one hits, which turns
// full memoization back on.
TEST(ParseMemoTest, RepetitiveTailTurnsFullMemoizationBackOn) {
  ParseMemo memo;
  uint64_t i = 0;
  while (!memo.sampling()) FindOrInsert(memo, UniqueMemoLine(i++));
  constexpr uint64_t kTail = 2000, kDistinct = 10;
  uint64_t hits = 0;
  for (uint64_t k = 0; k < kTail; ++k) {
    if (FindOrInsert(memo, UniqueMemoLine(k % kDistinct))) ++hits;
  }
  EXPECT_FALSE(memo.sampling());
  // Sampling finds the first repeat within kSampleStride * (kDistinct + 1)
  // lines; from then on only each line's first tracked sight misses.
  EXPECT_GE(hits, kTail - ParseMemo::kSampleStride * (kDistinct + 1) -
                      kDistinct);
}

TEST(ParseMemoTest, ValidCorpusNeverConsultsTheMemo) {
  const std::vector<std::string> lines = testing::PaperCorpusLog(150);
  const testing::SerialResult serial =
      testing::RunSerial(lines, /*use_valid_corpus=*/true);
  PipelineOptions options;
  options.threads = 2;
  options.use_valid_corpus = true;
  options.telemetry.metrics = true;
  PipelineResult result = ParallelLogPipeline(options).Run(lines);
  EXPECT_EQ(result.stats, serial.stats);
  EXPECT_EQ(StatisticsDigest(result.analysis),
            StatisticsDigest(serial.analysis));
  ASSERT_TRUE(result.telemetry.has_value());
  EXPECT_EQ(result.telemetry->parse_memo_hits, 0u);
}

TEST(ParseMemoDeathTest, ValidEntryWithoutAstAtAGateAborts) {
  // A bare repeat (valid, hashed, no AST) is only sound once its shard
  // has seen the first occurrence; anything else is a broken invariant.
  corpus::ParsedLine bare;
  bare.is_query = true;
  bare.valid = true;
  bare.canonical_hash = 42;
  corpus::LogIngestor ingestor;
  ingestor.set_unique_sink([](const sparql::Query&) {});
  EXPECT_DEATH(ingestor.Ingest(bare), "without its AST");
}

TEST(ParseMemoTest, BareRepeatOfASeenQueryCountsWithoutItsAst) {
  sparql::Parser parser;
  corpus::ParsedLine first =
      testing::ParseLogLine(parser, std::string("query=ASK { ?s ?p ?o }"));
  ASSERT_TRUE(first.valid);
  corpus::ParsedLine bare;
  bare.is_query = true;
  bare.valid = true;
  bare.canonical_hash = first.canonical_hash;
  corpus::LogIngestor ingestor;
  int delivered = 0;
  ingestor.set_unique_sink([&delivered](const sparql::Query&) { ++delivered; });
  ingestor.Ingest(first);
  ingestor.Ingest(bare);
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(ingestor.stats().valid, 2u);
  EXPECT_EQ(ingestor.stats().unique, 1u);
}

}  // namespace
}  // namespace sparqlog::pipeline
