#include <gtest/gtest.h>

#include "paths/ctract.h"
#include "paths/path_class.h"
#include "sparql/parser.h"

namespace sparqlog::paths {
namespace {

using sparql::PathExpr;

PathExpr PathOf(std::string_view path_syntax) {
  std::string query =
      "SELECT * WHERE { ?a " + std::string(path_syntax) + " ?b }";
  auto r = sparql::ParseQuery(query);
  EXPECT_TRUE(r.ok()) << r.status().ToString() << "\n" << query;
  std::vector<const sparql::TriplePattern*> triples;
  r.value().where.CollectTriples(triples);
  EXPECT_EQ(triples.size(), 1u);
  EXPECT_TRUE(triples[0]->has_path) << path_syntax;
  return triples[0]->path;
}

// ---------------------------------------------------------------------------
// Classification into the Table 5 taxonomy
// ---------------------------------------------------------------------------

struct ClassCase {
  const char* syntax;
  PathType expected;
};

// Names each case by its syntax and expected class. Without this gtest prints
// the struct's raw bytes, which hold the literal's address and so change from
// one process to the next, and the discovered ctest names with them.
void PrintTo(const ClassCase& c, std::ostream* os) {
  *os << c.syntax << " as " << PathTypeName(c.expected);
}

class PathClassTest : public ::testing::TestWithParam<ClassCase> {};

TEST_P(PathClassTest, ClassifiesAsPaper) {
  const ClassCase& c = GetParam();
  PathClassification pc = ClassifyPath(PathOf(c.syntax));
  EXPECT_EQ(pc.type, c.expected)
      << c.syntax << " classified as " << PathTypeName(pc.type);
}

INSTANTIATE_TEST_SUITE_P(
    Table5, PathClassTest,
    ::testing::Values(
        ClassCase{"!<a>", PathType::kTrivialNegated},
        ClassCase{"^<a>", PathType::kTrivialInverse},
        ClassCase{"(<a>|<b>)*", PathType::kStarOfAlt},
        ClassCase{"(<a>|<b>|<c>|<d>)*", PathType::kStarOfAlt},
        ClassCase{"<a>*", PathType::kStar},
        ClassCase{"<a>/<b>", PathType::kSeq},
        ClassCase{"<a>/<b>/<c>/<d>/<e>/<f>", PathType::kSeq},
        ClassCase{"(^<a>)/<b>", PathType::kSeq},   // ^a treated as atom
        ClassCase{"(!<a>)/<b>", PathType::kSeq},   // !a treated as atom
        ClassCase{"<a>*/<b>", PathType::kStarSeqLink},
        ClassCase{"<b>/<a>*", PathType::kStarSeqLink},  // symmetric form
        ClassCase{"<a>|<b>", PathType::kAlt},
        ClassCase{"<a>|<b>|<c>", PathType::kAlt},
        ClassCase{"<a>+", PathType::kPlus},
        ClassCase{"<a>?", PathType::kSeqOfOpts},  // k = 1
        ClassCase{"<a>?/<b>?/<c>?", PathType::kSeqOfOpts},
        ClassCase{"<a>/(<b>|<c>)", PathType::kLinkSeqAlt},
        ClassCase{"<a>/<b>?/<c>?", PathType::kSeqLinkOpts},
        ClassCase{"(<a>/<b>*)|<c>", PathType::kAltSeqStarLink},
        ClassCase{"<a>*/<b>?", PathType::kStarSeqOpt},
        ClassCase{"<a>/<b>/<c>*", PathType::kSeqSeqStar},
        ClassCase{"<c>*/<b>/<a>", PathType::kSeqSeqStar},  // symmetric
        ClassCase{"!(<a>|<b>)", PathType::kNegatedAlt},
        ClassCase{"(<a>|<b>)+", PathType::kPlusOfAlt},
        ClassCase{"(<a>|<b>)/(<a>|<b>)", PathType::kAltAltSeq},
        ClassCase{"<a>?|<b>", PathType::kOptAltLink},
        ClassCase{"<a>*|<b>", PathType::kStarAltLink},
        ClassCase{"(<a>|<b>)?", PathType::kOptOfAlt},
        ClassCase{"<a>|<b>+", PathType::kLinkAltPlus},
        ClassCase{"<a>+|<b>+", PathType::kPlusAltPlus},
        ClassCase{"(<a>/<b>)*", PathType::kStarOfSeq},
        ClassCase{"(<a>*/<b>*)", PathType::kOther}));

TEST(PathClassTest, ArityParameter) {
  EXPECT_EQ(ClassifyPath(PathOf("(<a>|<b>|<c>)*")).k, 3);
  EXPECT_EQ(ClassifyPath(PathOf("<a>/<b>/<c>/<d>")).k, 4);
  EXPECT_EQ(ClassifyPath(PathOf("<a>?/<b>?")).k, 2);
  EXPECT_EQ(ClassifyPath(PathOf("<a>?")).k, 1);
}

TEST(PathClassTest, InverseUseDetected) {
  EXPECT_TRUE(ClassifyPath(PathOf("(^<a>)/<b>")).uses_inverse);
  EXPECT_FALSE(ClassifyPath(PathOf("<a>/<b>")).uses_inverse);
  // Within a starred alternation.
  EXPECT_TRUE(ClassifyPath(PathOf("(<a>|^<b>)*")).uses_inverse);
}

TEST(PathClassTest, TypeNamesRoundTrip) {
  EXPECT_EQ(PathTypeName(PathType::kStarOfAlt), "(a1|...|ak)*");
  EXPECT_EQ(PathTypeName(PathType::kStarOfSeq), "(a/b)*");
  EXPECT_EQ(PathTypeName(PathType::kOther), "other");
}

// ---------------------------------------------------------------------------
// C_tract (Bagan et al. [6]; Section 7)
// ---------------------------------------------------------------------------

class CtractTractableTest : public ::testing::TestWithParam<const char*> {};

TEST_P(CtractTractableTest, TractableExpressions) {
  EXPECT_TRUE(IsCtract(PathOf(GetParam()))) << GetParam();
}

// Every Table 5 expression type except (a/b)* is in C_tract.
INSTANTIATE_TEST_SUITE_P(
    Table5Tractable, CtractTractableTest,
    ::testing::Values("!<a>", "^<a>", "(<a>|<b>)*", "<a>*",
                      "<a>/<b>/<c>", "<a>*/<b>", "<a>|<b>|<c>", "<a>+",
                      "<a>?/<b>?", "<a>/(<b>|<c>)", "<a>/<b>?/<c>?",
                      "(<a>/<b>*)|<c>", "<a>*/<b>?", "<a>/<b>/<c>*",
                      "!(<a>|<b>)", "(<a>|<b>)+", "(<a>|<b>)/(<a>|<b>)",
                      "<a>?|<b>", "<a>*|<b>", "(<a>|<b>)?", "<a>|<b>+",
                      "<a>+|<b>+",
                      // Nested closures flatten to A*:
                      "(<a>*)*", "(<a>+)*", "(<a>?)+"));

class CtractHardTest : public ::testing::TestWithParam<const char*> {};

TEST_P(CtractHardTest, IntractableExpressions) {
  EXPECT_FALSE(IsCtract(PathOf(GetParam()))) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    Hard, CtractHardTest,
    ::testing::Values("(<a>/<b>)*",          // the paper's one example
                      "(<a>/<b>)+",
                      "(<a>/<b>|<c>)*",      // star over length-2 words
                      "(<a>|<b>/<c>)*",
                      "<a>*/<b>*",           // two unbounded factors
                      "(<a>?/<b>)*"));

TEST(CtractTest, DeepNestingStillDecided) {
  EXPECT_TRUE(IsCtract(PathOf("((((<a>)*)*)*)*")));
  EXPECT_FALSE(IsCtract(PathOf("((<a>/<b>)*)*")));
}

}  // namespace
}  // namespace sparqlog::paths
