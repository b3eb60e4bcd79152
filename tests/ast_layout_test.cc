// Pins for the AST's node layout. CanonicalHashPinTest folds the
// canonical hash of three corpora into one value recorded before the
// layout changed: journal snapshots store these hashes, so a node
// rewrite must not move a single bit. AstFootprintTest bounds the size
// of the node types and the arena bytes a parse takes per query; the
// arena counter is deterministic, so the bounds are exact constants,
// not timing tolerances.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <ios>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "fixture_queries.h"
#include "corpus/generator.h"
#include "corpus/ingest.h"
#include "corpus/profile.h"
#include "sparql/parser.h"
#include "sparql/serializer.h"
#include "testing/invariants.h"

namespace sparqlog {
namespace {

// The node types before the compact layout were 1,128 B (Pattern),
// 2,624 B (Query) and 2,664 B (ParsedLine); every vector growth and
// every worker-to-shard hop moves them.
static_assert(sizeof(sparql::Pattern) <= 64, "a pattern node is four words");
static_assert(sizeof(sparql::Query) <= 2624 / 3);
static_assert(sizeof(corpus::ParsedLine) <= 2664 / 3);

/// CanonicalHash folded over the fixture queries, the paper corpus and
/// 2,000 deep-shapes lines (27,014 queries), computed before the compact
/// node layout.
constexpr uint64_t kPinnedHash = 0xe01789ed26794f0fULL;
constexpr uint64_t kPinnedQueries = 27014;

/// Arena bytes per valid query before the compact node layout, measured
/// by ArenaBytesPerQuery below: every child vector grew geometrically
/// and every node was 1,128 B whatever its kind.
constexpr double kOldDeepShapesArenaBytes = 29640.2;
constexpr double kOldPaperArenaBytes = 11520.1;

/// The profile of perfbench's deep-shapes workload: DBpedia16 reshaped
/// so every entry is unique, valid and structurally heavy (6+ triples,
/// mostly cycles and flowers).
corpus::DatasetProfile DeepShapesProfile() {
  corpus::DatasetProfile p =
      corpus::ProfileByName(corpus::PaperProfiles(), "DBpedia16");
  p.valid_rate = 1;
  p.unique_rate = 1;
  p.triples_weights = {0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 3};
  p.shape_chain = 0.1;
  p.shape_star = 0.1;
  p.shape_tree = 0.2;
  p.shape_forest = 0.1;
  p.shape_cycle = 0.25;
  p.shape_flower = 0.25;
  p.w_select = 0.9;
  p.w_ask = 0.1;
  p.w_describe = 0;
  p.w_construct = 0;
  p.filter_rate = 0.1;
  p.optional_rate = 0.05;
  p.union_rate = 0.02;
  p.complex_rate = 0;
  return p;
}

/// `entries` lines of the deep-shapes profile at perfbench's default
/// seed.
std::vector<std::string> DeepShapesLog(uint64_t entries) {
  corpus::GeneratorOptions options;
  options.scale = 0;
  options.min_entries = entries;
  options.seed = 2017;
  return corpus::SyntheticLogGenerator(DeepShapesProfile(), options)
      .GenerateLog();
}

const std::vector<std::string>& PaperCorpus() {
  static const std::vector<std::string> lines = testing::PaperCorpusLog(2000);
  return lines;
}

const std::vector<std::string>& DeepShapesCorpus() {
  static const std::vector<std::string> lines = DeepShapesLog(2000);
  return lines;
}

/// One FNV-1a step over a 64-bit word.
uint64_t Fold(uint64_t acc, uint64_t word) {
  return (acc ^ word) * 0x100000001b3ULL;
}

/// Every valid query of a log, parsed on one scratch reset per line:
/// calls `f(query, arena bytes the parse took)`.
template <typename F>
void ForEachValidQuery(const std::vector<std::string>& lines,
                       sparql::ParserScratch& scratch, F&& f) {
  sparql::Parser parser;
  std::string decode_buf;
  for (const std::string& line : lines) {
    std::optional<std::string_view> text =
        corpus::ExtractQueryText(line, decode_buf);
    if (!text.has_value()) continue;
    scratch.Reset();
    util::Result<sparql::Query> q = parser.Parse(*text, scratch);
    if (q.ok()) f(q.value(), scratch.arena.used_bytes());
  }
}

TEST(CanonicalHashPinTest, FixturePaperAndDeepShapesHashesArePinned) {
  uint64_t acc = 0xcbf29ce484222325ULL;
  uint64_t queries = 0;
  for (const std::string& text : fixtures::FixtureQueries()) {
    util::Result<sparql::Query> q = sparql::ParseQuery(text);
    ASSERT_TRUE(q.ok()) << text;
    acc = Fold(acc, sparql::CanonicalHash(q.value()));
    ++queries;
  }
  sparql::ParserScratch scratch;
  auto fold = [&](const sparql::Query& q, size_t) {
    acc = Fold(acc, sparql::CanonicalHash(q));
    ++queries;
  };
  ForEachValidQuery(PaperCorpus(), scratch, fold);
  ForEachValidQuery(DeepShapesCorpus(), scratch, fold);
  EXPECT_EQ(queries, kPinnedQueries);
  EXPECT_EQ(acc, kPinnedHash) << std::hex << "0x" << acc;
}

/// Mean arena bytes per valid query of `lines`.
double ArenaBytesPerQuery(const std::vector<std::string>& lines,
                          sparql::ParserScratch& scratch) {
  uint64_t bytes = 0, queries = 0;
  ForEachValidQuery(lines, scratch, [&](const sparql::Query&, size_t used) {
    bytes += used;
    ++queries;
  });
  return queries == 0 ? 0 : static_cast<double>(bytes) / queries;
}

// Both corpora through one scratch: the children of a group take one
// exact-size array and a node holds only its kind's payload, so the
// arena per query falls to a third of the old layout's on the
// deep-shapes profile and to half of it on the paper corpus (measured:
// 5,272 and 2,406 B).
TEST(AstFootprintTest, ArenaBytesPerQueryShrinks) {
  sparql::ParserScratch scratch;
  const double deep = ArenaBytesPerQuery(DeepShapesCorpus(), scratch);
  const double paper = ArenaBytesPerQuery(PaperCorpus(), scratch);
  EXPECT_GT(deep, 0);
  EXPECT_GT(paper, 0);
  EXPECT_LE(deep, kOldDeepShapesArenaBytes / 3);
  EXPECT_LE(paper, kOldPaperArenaBytes / 2);
}

// A node read after its scratch was reset fails the AddressSanitizer
// build: the arena poisons what Reset rewinds. Without ASan such a read
// silently returns stale bytes, so there is nothing to check.
TEST(ArenaPoisonDeathTest, ReadingANodeAfterResetFails) {
#if !defined(__SANITIZE_ADDRESS__)
  GTEST_SKIP() << "arena poisoning needs an AddressSanitizer build";
#else
  sparql::Parser parser;
  sparql::ParserScratch scratch;
  util::Result<sparql::Query> q =
      parser.Parse("SELECT * WHERE { ?s <http://example.org/p> ?o }", scratch);
  ASSERT_TRUE(q.ok());
  const sparql::TriplePattern& triple = q.value().where.children()[0].triple();
  // Only the death-test child resets: this process still owns the query
  // and destroys it before the scratch.
  EXPECT_DEATH(
      {
        scratch.Reset();
        std::printf("%zu\n", triple.subject.value.size());
      },
      "use-after-poison");
#endif
}

}  // namespace
}  // namespace sparqlog
