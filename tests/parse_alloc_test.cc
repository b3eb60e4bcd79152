// Heap-allocation budget for the arena parse paths. This binary
// installs the counting operator new (obs/alloc_hooks.h), so the
// thread-local allocation counters are live here: over the 13-profile
// paper corpus, the ParserScratch Parse and the ParseScratch
// ParseLogLine must each stay within kMaxAllocsPerLine heap allocations
// per log line. The counts are deterministic — the same corpus through
// the same code allocates the same number of times — so the budget is a
// constant, not a timing tolerance.

#include "obs/alloc_hooks.h"  // counting operator new, once per binary

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "corpus/ingest.h"
#include "obs/alloc_tracker.h"
#include "sparql/parser.h"
#include "testing/invariants.h"

namespace sparqlog {
namespace {

constexpr uint64_t kEntriesPerDataset = 2000;

// Both paths measure 0.13 allocations per line on this corpus. One
// extra allocation per line must break the budget.
constexpr double kMaxAllocsPerLine = 1.0;

const std::vector<std::string>& Corpus() {
  static const std::vector<std::string> lines =
      testing::PaperCorpusLog(kEntriesPerDataset);
  return lines;
}

/// Heap allocations the calling thread makes inside `fn`.
template <typename Fn>
uint64_t CountAllocations(Fn&& fn) {
  const uint64_t before = obs::ThreadAllocationCount();
  fn();
  return obs::ThreadAllocationCount() - before;
}

TEST(ParseAllocationTest, ArenaParseStaysWithinBudget) {
  const std::vector<std::string>& lines = Corpus();
  sparql::Parser parser;
  sparql::ParserScratch scratch;
  std::string decode_buf;
  uint64_t parsed = 0;
  const uint64_t allocs = CountAllocations([&] {
    for (const std::string& line : lines) {
      auto text = corpus::ExtractQueryText(line, decode_buf);
      if (!text.has_value()) continue;
      scratch.Reset();
      if (parser.Parse(*text, scratch).ok()) ++parsed;
    }
  });
  EXPECT_GT(parsed, lines.size() / 2);
  ASSERT_GT(allocs, 0u) << "allocation counters are not live";
  const double per_line = static_cast<double>(allocs) / lines.size();
  EXPECT_LE(per_line, kMaxAllocsPerLine)
      << allocs << " allocations over " << lines.size() << " lines";
}

TEST(ParseAllocationTest, ScratchParseLogLineStaysWithinBudget) {
  const std::vector<std::string>& lines = Corpus();
  sparql::Parser parser;
  corpus::ParseScratch scratch;
  uint64_t valid = 0;
  const uint64_t allocs = CountAllocations([&] {
    for (const std::string& line : lines) {
      scratch.Reset();
      if (corpus::ParseLogLine(parser, line, scratch).valid) ++valid;
    }
  });
  EXPECT_GT(valid, lines.size() / 2);
  ASSERT_GT(allocs, 0u) << "allocation counters are not live";
  const double per_line = static_cast<double>(allocs) / lines.size();
  EXPECT_LE(per_line, kMaxAllocsPerLine)
      << allocs << " allocations over " << lines.size() << " lines";
}

// Every pipeline worker, shard and LogIngestor builds its own parser, so
// building one must cost nothing: the default prefix table is a shared
// constant, not a per-parser map. Each fresh parser also parses on the
// warm scratch, through that table (rdf:, foaf:).
TEST(ParseAllocationTest, ParserConstructionAllocatesNothing) {
  constexpr int kParsers = 64;
  constexpr char kQuery[] = "SELECT * WHERE { ?s rdf:type foaf:Person }";
  sparql::ParserScratch scratch;
  {
    sparql::Parser first;  // warms the scratch and any one-time setup
    ASSERT_TRUE(first.Parse(kQuery, scratch).ok());
  }
  int parsed = 0;
  const uint64_t allocs = CountAllocations([&] {
    for (int i = 0; i < kParsers; ++i) {
      sparql::Parser parser;
      scratch.Reset();
      if (parser.Parse(kQuery, scratch).ok()) ++parsed;
    }
  });
  EXPECT_EQ(parsed, kParsers);
  EXPECT_EQ(allocs, 0u) << allocs << " allocations over " << kParsers
                        << " parser constructions";
}

}  // namespace
}  // namespace sparqlog
