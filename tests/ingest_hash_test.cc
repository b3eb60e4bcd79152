// Property tests for the streaming canonical-hash path: for every query
// we can produce, the hashing sink must equal FNV-1a of the string-sink
// serialization byte for byte. These pin down exactly the cases where
// view-vs-copy lexing and streaming-vs-materialized serialization could
// diverge: escaped literals, long strings, prefixed names, paths,
// numeric signs, aggregates, and subqueries. The last case runs the
// whole paper corpus through every ingest path and requires each to
// count exactly what LogIngestor counts.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "fixture_queries.h"
#include "corpus/generator.h"
#include "corpus/ingest.h"
#include "corpus/profile.h"
#include "pipeline/chunk_source.h"
#include "sparql/parser.h"
#include "sparql/serializer.h"
#include "testing/invariants.h"
#include "util/strings.h"

namespace sparqlog {
namespace {

using corpus::HashBytes;
using sparql::CanonicalHash;
using sparql::ParseQuery;
using sparql::Serialize;

void ExpectSinksAgree(const std::string& text) {
  auto parsed = ParseQuery(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << text;
  const sparql::Query& q = parsed.value();
  std::string canonical = Serialize(q);
  EXPECT_EQ(CanonicalHash(q), HashBytes(canonical)) << text;

  // SerializeTo through the virtual Sink interface must emit the same
  // bytes as the devirtualized Serialize instantiation.
  sparql::StringSink str_sink;
  sparql::SerializeTo(q, str_sink);
  EXPECT_EQ(str_sink.str(), canonical) << text;

  sparql::HashingSink hash_sink;
  sparql::SerializeTo(q, hash_sink);
  EXPECT_EQ(hash_sink.hash(), HashBytes(canonical)) << text;

  sparql::CountingSink count_sink;
  sparql::SerializeTo(q, count_sink);
  EXPECT_EQ(count_sink.bytes(), canonical.size()) << text;
}

TEST(IngestHashTest, FixtureQueries) {
  for (const std::string& text : fixtures::FixtureQueries()) {
    ExpectSinksAgree(text);
  }
}

TEST(IngestHashTest, GeneratedCorpusSinksAgree) {
  auto profiles = corpus::PaperProfiles();
  for (size_t pi = 0; pi < profiles.size(); ++pi) {
    corpus::GeneratorOptions options;
    options.seed = 7000 + pi;
    corpus::SyntheticLogGenerator gen(profiles[pi], options);
    for (int i = 0; i < 50; ++i) {
      sparql::Query q = gen.GenerateQuery();
      EXPECT_EQ(CanonicalHash(q), HashBytes(Serialize(q)))
          << "profile " << profiles[pi].name << " query " << i;
    }
  }
}

TEST(IngestHashTest, ParseLogLineScratchOverloadMatches) {
  sparql::Parser parser;
  corpus::ParseScratch scratch;
  const std::vector<std::string> lines = {
      "query=" + util::PercentEncode(
                     "SELECT * WHERE { ?s ?p \"esc\\\"aped\" }") +
          "&format=json",
      "query=SELECT ?x WHERE { ?x rdf:type dbo:City }",  // fast path: no %/+
      "query=" + util::PercentEncode("ASK { <a> <b> \"x y\"@en }"),
      "query=NOT%20SPARQL",
      "noise line",
  };
  for (const std::string& line : lines) {
    corpus::ParsedLine with_scratch =
        corpus::ParseLogLine(parser, std::string_view(line), scratch);
    corpus::ParsedLine simple = testing::ParseLogLine(parser, line);
    EXPECT_EQ(with_scratch.is_query, simple.is_query) << line;
    EXPECT_EQ(with_scratch.valid, simple.valid) << line;
    EXPECT_EQ(with_scratch.canonical_hash, simple.canonical_hash) << line;
    EXPECT_EQ(with_scratch.line_hash, simple.line_hash) << line;
    if (with_scratch.valid) {
      EXPECT_EQ(with_scratch.canonical_hash,
                HashBytes(Serialize(*with_scratch.query)))
          << line;
    }
  }
}

// One ParseScratch carried across well over a thousand sequential
// ParseLogLine calls, with resets only every few hundred lines: arena
// reuse, token-buffer reuse, and pname-interner epochs must never leak
// state between lines. Every result is diffed against the fresh-heap
// overload, which allocates per node and cannot alias anything.
TEST(IngestHashTest, ParseScratchSurvivesThousandsOfSequentialLines) {
  sparql::Parser parser;
  corpus::ParseScratch scratch;

  corpus::GeneratorOptions options;
  options.seed = 20260808;
  auto profiles = corpus::PaperProfiles();
  corpus::SyntheticLogGenerator gen(profiles[0], options);
  std::vector<std::string> pool;
  for (int i = 0; i < 37; ++i) {
    pool.push_back("query=" + util::PercentEncode(Serialize(gen.GenerateQuery())));
  }
  pool.push_back("query=NOT%20SPARQL");
  pool.push_back("noise line");
  pool.push_back("query=");

  constexpr int kLines = 1500;
  for (int i = 0; i < kLines; ++i) {
    if (i % 400 == 0) scratch.Reset();
    const std::string& line = pool[static_cast<size_t>(i) % pool.size()];
    corpus::ParsedLine arena =
        corpus::ParseLogLine(parser, std::string_view(line), scratch);
    corpus::ParsedLine heap = testing::ParseLogLine(parser, line);
    ASSERT_EQ(arena.is_query, heap.is_query) << "line " << i << ": " << line;
    ASSERT_EQ(arena.valid, heap.valid) << "line " << i << ": " << line;
    ASSERT_EQ(arena.canonical_hash, heap.canonical_hash)
        << "line " << i << ": " << line;
    ASSERT_EQ(arena.line_hash, heap.line_hash) << "line " << i << ": " << line;
    ASSERT_EQ(arena.query.has_value(), heap.query.has_value())
        << "line " << i << ": " << line;
    if (arena.query.has_value()) {
      ASSERT_EQ(Serialize(*arena.query), Serialize(*heap.query))
          << "line " << i << ": " << line;
    }
  }
}

/// Table 1 counters accumulated from ParseLogLine results, deduplicated
/// on the canonical hash exactly as LogIngestor does.
struct IngestCounter {
  corpus::CorpusStats stats;
  std::unordered_set<uint64_t> seen;

  void Add(const corpus::ParsedLine& parsed) {
    if (!parsed.is_query) return;
    ++stats.total;
    if (!parsed.valid) return;
    ++stats.valid;
    if (seen.insert(parsed.canonical_hash).second) ++stats.unique;
  }
};

void ExpectSameCounts(const corpus::CorpusStats& reference,
                      const IngestCounter& got, const char* path) {
  EXPECT_EQ(got.stats.total, reference.total) << path;
  EXPECT_EQ(got.stats.valid, reference.valid) << path;
  EXPECT_EQ(got.stats.unique, reference.unique) << path;
}

// The 13-profile paper corpus through the heap reference ParseLogLine,
// the production ParseScratch one, and the mmap chunk source: each must
// count the same Total/Valid/Unique as LogIngestor, and every valid
// line's streamed hash must equal FNV-1a of its serialization.
TEST(IngestHashTest, EveryIngestPathMatchesLogIngestorOnPaperCorpus) {
  const std::vector<std::string> lines = testing::PaperCorpusLog(2000);
  corpus::LogIngestor ingestor;
  ingestor.ProcessLog(lines);
  const corpus::CorpusStats& reference = ingestor.stats();
  ASSERT_GT(reference.unique, 0u);
  ASSERT_LT(reference.valid, reference.total);  // invalid entries present

  sparql::Parser parser;
  std::string decode_buf;
  IngestCounter buffered;
  uint64_t hash_mismatches = 0;
  for (const std::string& line : lines) {
    corpus::ParsedLine parsed =
        testing::ParseLogLine(parser, std::string_view(line), decode_buf);
    if (parsed.valid &&
        parsed.canonical_hash != HashBytes(Serialize(*parsed.query))) {
      ++hash_mismatches;
    }
    buffered.Add(parsed);
  }
  EXPECT_EQ(hash_mismatches, 0u) << "hashing sink != string sink";
  ExpectSameCounts(reference, buffered, "heap reference ParseLogLine");

  IngestCounter arena;
  corpus::ParseScratch scratch;
  for (const std::string& line : lines) {
    scratch.Reset();
    arena.Add(corpus::ParseLogLine(parser, line, scratch));
  }
  ExpectSameCounts(reference, arena, "arena ParseLogLine");

  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("sparqlog_ingest_corpus_" + std::to_string(::getpid()) + ".log");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    for (const std::string& line : lines) out << line << '\n';
  }
  auto source = pipeline::MmapChunkSource::Open(path.string());
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  IngestCounter mapped;
  pipeline::LineChunk chunk;
  while (source.value()->NextChunk(512, chunk)) {
    for (std::string_view line : chunk.lines) {
      mapped.Add(testing::ParseLogLine(parser, line, decode_buf));
    }
  }
  std::filesystem::remove(path);
  ExpectSameCounts(reference, mapped, "mmap source");
}

}  // namespace
}  // namespace sparqlog
