#include "obs/alloc_hooks.h"  // counting operator new, once per binary

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/projection.h"
#include "fragments/fragment.h"
#include "fragments/pattern_tree.h"
#include "obs/alloc_tracker.h"
#include "sparql/parser.h"
#include "sparql/serializer.h"
#include "testing/reference_fragments.h"

namespace sparqlog::fragments {
namespace {

using sparql::ParseQuery;
using sparql::Query;
using testing::reference::BuildPatternTree;
using testing::reference::PatternTreeResult;

FragmentClass Classify(std::string_view text) {
  auto r = ParseQuery(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString() << "\n" << text;
  return ClassifyFragment(r.value());
}

// ---------------------------------------------------------------------------
// CQ / CPF / CQF (Definitions 3.1, 4.1, 5.2)
// ---------------------------------------------------------------------------

TEST(FragmentTest, SingleTripleIsCq) {
  FragmentClass fc = Classify("SELECT * WHERE { ?x <p> ?y }");
  EXPECT_TRUE(fc.cq);
  EXPECT_TRUE(fc.cpf);
  EXPECT_TRUE(fc.cqf);
  EXPECT_TRUE(fc.aof);
  EXPECT_TRUE(fc.well_designed);
  EXPECT_TRUE(fc.cqof);
  EXPECT_EQ(fc.num_triples, 1);
}

TEST(FragmentTest, MultiTripleConjunctionIsCq) {
  FragmentClass fc =
      Classify("SELECT ?x WHERE { ?x <p> ?y . ?y <q> ?z . ?z <r> ?x }");
  EXPECT_TRUE(fc.cq);
  EXPECT_EQ(fc.num_triples, 3);
}

TEST(FragmentTest, FilterMakesCpfNotCq) {
  FragmentClass fc =
      Classify("SELECT * WHERE { ?x <p> ?y FILTER(?y > 3) }");
  EXPECT_FALSE(fc.cq);
  EXPECT_TRUE(fc.cpf);
  EXPECT_TRUE(fc.cqf);  // single-variable filter is simple
}

TEST(FragmentTest, VarEqualityFilterIsSimple) {
  FragmentClass fc =
      Classify("SELECT * WHERE { ?x <p> ?y . ?a <q> ?b FILTER(?y = ?b) }");
  EXPECT_TRUE(fc.cqf);
}

TEST(FragmentTest, TwoVarComparisonIsNotSimple) {
  FragmentClass fc =
      Classify("SELECT * WHERE { ?x <p> ?y . ?a <q> ?b FILTER(?y < ?b) }");
  EXPECT_TRUE(fc.cpf);
  EXPECT_FALSE(fc.cqf);
  EXPECT_FALSE(fc.cqof);
}

TEST(FragmentTest, PropertyPathDisqualifies) {
  FragmentClass fc = Classify("SELECT * WHERE { ?x <p>/<q> ?y }");
  EXPECT_FALSE(fc.cq);
  EXPECT_FALSE(fc.aof);
}

TEST(FragmentTest, UnionDisqualifiesAof) {
  FragmentClass fc =
      Classify("SELECT * WHERE { { ?x <p> ?y } UNION { ?x <q> ?y } }");
  EXPECT_FALSE(fc.aof);
  EXPECT_FALSE(fc.cq);
}

TEST(FragmentTest, GraphDisqualifiesAof) {
  EXPECT_FALSE(Classify("SELECT * WHERE { GRAPH <g> { ?x <p> ?y } }").aof);
}

TEST(FragmentTest, SubqueryDisqualifiesAof) {
  EXPECT_FALSE(
      Classify("SELECT * WHERE { { SELECT ?x WHERE { ?x <p> ?y } } }").aof);
}

TEST(FragmentTest, ExistsFilterDisqualifiesAof) {
  EXPECT_FALSE(Classify("SELECT * WHERE { ?x <p> ?y FILTER EXISTS "
                        "{ ?x <q> ?z } }")
                   .aof);
}

TEST(FragmentTest, ConstructIsNotInFragments) {
  FragmentClass fc = Classify("CONSTRUCT WHERE { ?x <p> ?y }");
  EXPECT_FALSE(fc.select_or_ask);
  EXPECT_FALSE(fc.cq);
}

TEST(FragmentTest, OptionalMakesAofNotCpf) {
  FragmentClass fc = Classify(
      "SELECT * WHERE { ?x <p> ?y OPTIONAL { ?x <q> ?z } }");
  EXPECT_TRUE(fc.aof);
  EXPECT_FALSE(fc.cpf);
  EXPECT_FALSE(fc.cq);
  EXPECT_TRUE(fc.well_designed);
  EXPECT_TRUE(fc.cqof);
}

TEST(FragmentTest, VarPredicateAllowedInCq) {
  FragmentClass fc = Classify("SELECT * WHERE { ?x ?p ?y . ?y ?q ?z }");
  EXPECT_TRUE(fc.cq);
  EXPECT_TRUE(fc.var_predicate);
}

// ---------------------------------------------------------------------------
// Well-designedness (Definition 5.3)
// ---------------------------------------------------------------------------

TEST(WellDesignedTest, PaperExampleP1IsWellDesigned) {
  // P1 = ((?A name ?N) OPT (?A email ?E)) OPT (?A webPage ?W).
  FragmentClass fc = Classify(
      "SELECT * WHERE { ?A <name> ?N OPTIONAL { ?A <email> ?E } "
      "OPTIONAL { ?A <webPage> ?W } }");
  EXPECT_TRUE(fc.well_designed);
  EXPECT_EQ(fc.interface_width, 1);
  EXPECT_TRUE(fc.cqof);
}

TEST(WellDesignedTest, PaperExampleP2IsWellDesigned) {
  // P2 = (?A name ?N) OPT ((?A email ?E) OPT (?A webPage ?W)).
  FragmentClass fc = Classify(
      "SELECT * WHERE { ?A <name> ?N OPTIONAL { ?A <email> ?E "
      "OPTIONAL { ?A <webPage> ?W } } }");
  EXPECT_TRUE(fc.well_designed);
  EXPECT_EQ(fc.interface_width, 1);
}

TEST(WellDesignedTest, ViolationAcrossSiblingOptionals) {
  // ?E appears in two sibling OPTIONALs but not in the mandatory part:
  // violates Definition 5.3.
  FragmentClass fc = Classify(
      "SELECT * WHERE { ?A <name> ?N OPTIONAL { ?A <email> ?E } "
      "OPTIONAL { ?E <host> ?H } }");
  EXPECT_TRUE(fc.aof);
  EXPECT_FALSE(fc.well_designed);
  EXPECT_FALSE(fc.cqof);
}

TEST(WellDesignedTest, ViolationOptVarUsedOutside) {
  // ?z is introduced in the OPTIONAL and also used after it.
  FragmentClass fc = Classify(
      "SELECT * WHERE { ?x <p> ?y OPTIONAL { ?x <q> ?z } ?z <r> ?w }");
  EXPECT_FALSE(fc.well_designed);
}

TEST(WellDesignedTest, InterfaceWidthTwo) {
  // Root shares ?A and ?W with its child: interface width 2 (the paper's
  // modified-T1 example).
  FragmentClass fc = Classify(
      "SELECT * WHERE { ?A <name> ?W . ?A <x> ?Y OPTIONAL "
      "{ ?A <webPage> ?W } }");
  EXPECT_TRUE(fc.well_designed);
  EXPECT_EQ(fc.interface_width, 2);
  EXPECT_FALSE(fc.cqof);
}

TEST(WellDesignedTest, NestedOptionalChainWellDesigned) {
  FragmentClass fc = Classify(
      "SELECT * WHERE { ?a <p> ?b OPTIONAL { ?b <q> ?c OPTIONAL "
      "{ ?c <r> ?d OPTIONAL { ?d <s> ?e } } } }");
  EXPECT_TRUE(fc.well_designed);
  EXPECT_EQ(fc.interface_width, 1);
  EXPECT_TRUE(fc.cqof);
}

TEST(WellDesignedTest, CqIsTriviallyWellDesigned) {
  EXPECT_TRUE(Classify("SELECT * WHERE { ?x <p> ?y . ?y <q> ?z }")
                  .well_designed);
}

// ---------------------------------------------------------------------------
// Pattern trees. The node structure is read off the string-set oracle's
// materialized tree; AnalyzeAof, which never materializes it, must agree
// with that tree on AOF-ness, interface width and connectivity.
// ---------------------------------------------------------------------------

PatternTreeResult TreeOf(const sparql::Pattern& body) {
  PatternTreeResult tree = BuildPatternTree(body);
  FragmentScratch scratch;
  AofStructure aof = AnalyzeAof(body, scratch);
  EXPECT_EQ(aof.ok, tree.ok);
  if (tree.ok) {
    EXPECT_EQ(aof.interface_width, tree.interface_width);
    EXPECT_EQ(aof.connected_variables, tree.connected_variables);
  }
  return tree;
}

TEST(PatternTreeTest, OptNormalFormHoistsJoin) {
  // {t1 OPTIONAL {t2} t3}: the rewrite puts t1, t3 in the root and t2 as
  // a child.
  auto r = ParseQuery(
      "SELECT * WHERE { ?x <p> ?y OPTIONAL { ?x <q> ?z } ?x <r> ?w }");
  ASSERT_TRUE(r.ok());
  PatternTreeResult tree = TreeOf(r.value().where);
  ASSERT_TRUE(tree.ok);
  EXPECT_EQ(tree.root.triples.size(), 2u);
  ASSERT_EQ(tree.root.children.size(), 1u);
  EXPECT_EQ(tree.root.children[0].triples.size(), 1u);
}

TEST(PatternTreeTest, SiblingOptionalsBecomeSiblings) {
  auto r = ParseQuery(
      "SELECT * WHERE { ?A <name> ?N OPTIONAL { ?A <email> ?E } "
      "OPTIONAL { ?A <web> ?W } }");
  ASSERT_TRUE(r.ok());
  PatternTreeResult tree = TreeOf(r.value().where);
  ASSERT_TRUE(tree.ok);
  EXPECT_EQ(tree.root.children.size(), 2u);
  EXPECT_TRUE(tree.connected_variables);
}

TEST(PatternTreeTest, ConnectednessViolationDetected) {
  // ?E occurs in two branches but not the root: disconnected.
  auto r = ParseQuery(
      "SELECT * WHERE { ?A <name> ?N OPTIONAL { ?A <email> ?E } "
      "OPTIONAL { ?E <host> ?H } }");
  ASSERT_TRUE(r.ok());
  PatternTreeResult tree = TreeOf(r.value().where);
  ASSERT_TRUE(tree.ok);
  EXPECT_FALSE(tree.connected_variables);
}

TEST(PatternTreeTest, NonAofReturnsNotOk) {
  auto r = ParseQuery(
      "SELECT * WHERE { { ?x <p> ?y } UNION { ?x <q> ?y } }");
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(TreeOf(r.value().where).ok);
}

TEST(PatternTreeTest, FiltersAttachToNodes) {
  auto r = ParseQuery(
      "SELECT * WHERE { ?x <p> ?y FILTER(?y > 1) OPTIONAL "
      "{ ?x <q> ?z FILTER(?z > 2) } }");
  ASSERT_TRUE(r.ok());
  PatternTreeResult tree = TreeOf(r.value().where);
  ASSERT_TRUE(tree.ok);
  EXPECT_EQ(tree.root.filters.size(), 1u);
  ASSERT_EQ(tree.root.children.size(), 1u);
  EXPECT_EQ(tree.root.children[0].filters.size(), 1u);
}

TEST(SimpleFilterTest, Definitions) {
  auto expr = [](std::string_view text) {
    auto r = ParseQuery(std::string("SELECT * WHERE { ?x <p> ?y . "
                                    "?a <q> ?b FILTER(") +
                        std::string(text) + ") }");
    EXPECT_TRUE(r.ok()) << text;
    for (const auto& c : r.value().where.children) {
      if (c.kind == sparql::PatternKind::kFilter) return c.expr;
    }
    return sparql::Expr{};
  };
  EXPECT_TRUE(IsSimpleFilter(expr("?x > 1")));
  EXPECT_TRUE(IsSimpleFilter(expr("LANG(?y) = \"en\"")));
  EXPECT_TRUE(IsSimpleFilter(expr("?x = ?y")));
  EXPECT_FALSE(IsSimpleFilter(expr("?x < ?y")));
  EXPECT_FALSE(IsSimpleFilter(expr("?x = ?y || ?a = ?b")));
  EXPECT_TRUE(IsSimpleFilter(expr("REGEX(?x, \"^A\")")));
  for (const char* text :
       {"?x > 1", "?x = ?y", "?x < ?y", "?x = ?y || ?a = ?b", "?x = ?x",
        "EXISTS { ?x <p> ?y }", "NOT EXISTS { ?x <p> <o> }"}) {
    EXPECT_EQ(IsSimpleFilter(expr(text)),
              testing::reference::IsSimpleFilter(expr(text)))
        << text;
  }
}

// ---------------------------------------------------------------------------
// Variable ids at the one-word/multi-word edge, and the warm scratch.
// ---------------------------------------------------------------------------

std::string Var(int i) { return "?v" + std::to_string(i); }

/// A chain ?v0 <p> ?v1 . ?v1 <p> ?v2 ... over n distinct variables whose
/// every third triple opens an OPTIONAL nested in the previous one (the
/// parser caps nesting at 128), so each level shares one variable with
/// its parent.
std::string NestedChain(int n) {
  std::string q = "SELECT * WHERE {";
  int opened = 0;
  for (int i = 0; i + 1 < n; ++i) {
    if (i > 0 && i % 3 == 0) {
      q += " OPTIONAL {";
      ++opened;
    }
    q += " " + Var(i) + " <p> " + Var(i + 1) + " .";
  }
  return q + std::string(static_cast<size_t>(opened), '}') + " }";
}

/// `{ ?v0 <p> ?v1 OPTIONAL { ?v1 <p> ?v2 } OPTIONAL { ?v2 <p> ?v3 } ... }`:
/// sibling OPTIONALs sharing a variable the root lacks (not well
/// designed from the second one on).
std::string SiblingChain(int n) {
  std::string q = "SELECT * WHERE { ?v0 <p> ?v1";
  for (int i = 1; i + 1 < n; ++i) {
    q += " OPTIONAL { " + Var(i) + " <p> " + Var(i + 1) + " }";
  }
  return q + " }";
}

/// A mandatory chain over n variables, then one OPTIONAL sharing the
/// variables 62..64 (on both sides of the first word boundary) with it,
/// plus an equality filter between the first and last variable.
std::string WideInterface(int n) {
  std::string q = "SELECT * WHERE {";
  for (int i = 0; i + 1 < n; ++i) {
    q += " " + Var(i) + " <p> " + Var(i + 1) + " .";
  }
  q += " OPTIONAL { ?v62 <q> ?v63 . ?v64 <q> ?w }";
  q += " FILTER(" + Var(0) + " = " + Var(n - 1) + ") }";
  return q;
}

void ExpectSameAsOracle(const std::string& text) {
  auto r = ParseQuery(text);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const Query& q = r.value();
  FragmentScratch scratch;
  const FragmentClass got = ClassifyFragment(q, scratch);
  const FragmentClass want = testing::reference::ClassifyFragment(q);
  EXPECT_EQ(got.select_or_ask, want.select_or_ask);
  EXPECT_EQ(got.aof, want.aof);
  EXPECT_EQ(got.cq, want.cq);
  EXPECT_EQ(got.cpf, want.cpf);
  EXPECT_EQ(got.cqf, want.cqf);
  EXPECT_EQ(got.well_designed, want.well_designed);
  EXPECT_EQ(got.cqof, want.cqof);
  EXPECT_EQ(got.simple_filters, want.simple_filters);
  EXPECT_EQ(got.interface_width, want.interface_width);
  EXPECT_EQ(got.num_triples, want.num_triples);
  EXPECT_EQ(got.var_predicate, want.var_predicate);
  EXPECT_EQ(analysis::ClassifyProjection(q, scratch.vars),
            testing::reference::ClassifyProjection(q));
}

TEST(FragmentTest, OptionalChainsAcrossTheWordBoundaryMatchOracle) {
  for (int n : {63, 64, 65, 130}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    ExpectSameAsOracle(NestedChain(n));
    ExpectSameAsOracle(SiblingChain(n));
    ExpectSameAsOracle(WideInterface(n));

    // The bitsets really are ceil(n / 64) words wide.
    auto r = ParseQuery(NestedChain(n));
    ASSERT_TRUE(r.ok());
    FragmentScratch scratch;
    FragmentClass fc = ClassifyFragment(r.value(), scratch);
    EXPECT_TRUE(fc.well_designed);
    EXPECT_EQ(fc.interface_width, 1);
    EXPECT_TRUE(fc.cqof);
    EXPECT_EQ(scratch.vars.size(), n);
    EXPECT_EQ(scratch.words, (n + 63) / 64);
  }
}

TEST(FragmentTest, WideInterfaceCountsAcrossWords) {
  FragmentClass fc = Classify(WideInterface(130));
  EXPECT_TRUE(fc.well_designed);
  EXPECT_EQ(fc.interface_width, 3);  // ?v62, ?v63 and ?v64
  EXPECT_FALSE(fc.cqof);
}

TEST(FragmentTest, WarmScratchClassifiesWithoutAllocating) {
  const std::string texts[] = {
      NestedChain(130), SiblingChain(70), WideInterface(65),
      "SELECT ?x WHERE { ?x <p> ?y OPTIONAL { ?y <q> ?z FILTER(?z > 1) } }",
      "ASK { ?x <p> ?y . ?y <q> ?z }"};
  std::vector<Query> queries;
  for (const std::string& text : texts) {
    auto r = ParseQuery(text);
    ASSERT_TRUE(r.ok()) << text;
    queries.push_back(std::move(r).value());
  }
  FragmentScratch scratch;
  for (const Query& q : queries) {
    ClassifyFragment(q, scratch);  // warm up
    analysis::ClassifyProjection(q, scratch.vars);
  }
  for (const Query& q : queries) {
    const uint64_t before = obs::ThreadAllocationCount();
    ClassifyFragment(q, scratch);
    analysis::ClassifyProjection(q, scratch.vars);
    EXPECT_EQ(obs::ThreadAllocationCount() - before, 0u)
        << sparql::Serialize(q);
  }
}

}  // namespace
}  // namespace sparqlog::fragments
