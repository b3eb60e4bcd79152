#include <gtest/gtest.h>

#include "graph/canonical.h"
#include "graph/graph.h"
#include "graph/hypergraph.h"
#include "sparql/parser.h"

namespace sparqlog::graph {
namespace {

using sparql::ParseQuery;

Graph Path(int n) {
  Graph g(n);
  for (int i = 0; i + 1 < n; ++i) g.AddEdge(i, i + 1);
  return g;
}

Graph Cycle(int n) {
  Graph g = Path(n);
  g.AddEdge(n - 1, 0);
  return g;
}

// ---------------------------------------------------------------------------
// Graph basics
// ---------------------------------------------------------------------------

TEST(GraphTest, EdgesAreSetSemantics) {
  Graph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 0);
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
}

TEST(GraphTest, SelfLoops) {
  Graph g(2);
  g.AddEdge(0, 0);
  g.AddEdge(0, 1);
  EXPECT_TRUE(g.HasSelfLoop(0));
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_EQ(g.num_proper_edges(), 1);
  EXPECT_EQ(g.Degree(0), 1);  // self-loop does not count as a neighbor
}

TEST(GraphTest, AcyclicityAndGirth) {
  EXPECT_TRUE(Path(5).IsAcyclic());
  EXPECT_EQ(Path(5).Girth(), 0);
  EXPECT_FALSE(Cycle(3).IsAcyclic());
  EXPECT_EQ(Cycle(3).Girth(), 3);
  EXPECT_EQ(Cycle(7).Girth(), 7);
}

TEST(GraphTest, GirthPicksShortestCycle) {
  Graph g = Cycle(6);
  g.AddEdge(0, 3);  // chord creates two 4-cycles
  EXPECT_EQ(g.Girth(), 4);
}

TEST(GraphTest, SelfLoopIsGirthOne) {
  Graph g(2);
  g.AddEdge(0, 1);
  g.AddEdge(1, 1);
  EXPECT_EQ(g.Girth(), 1);
  EXPECT_FALSE(g.IsAcyclic());
  EXPECT_TRUE(g.IsAcyclic(/*ignore_self_loops=*/true));
}

// ---------------------------------------------------------------------------
// Canonical graph (Section 5)
// ---------------------------------------------------------------------------

CanonicalGraph CanonicalOf(std::string_view query,
                           CanonicalOptions options = {}) {
  auto r = ParseQuery(query);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return BuildCanonicalGraph(r.value().where, options);
}

TEST(CanonicalTest, ChainQueryGivesPath) {
  // First query of Example 5.1: a chain of three edges.
  CanonicalGraph cg = CanonicalOf(
      "ASK WHERE {?x1 <a> ?x2 . ?x2 <b> ?x3 . ?x3 <c> ?x4}");
  ASSERT_TRUE(cg.valid);
  EXPECT_EQ(cg.graph.num_nodes(), 4);
  EXPECT_EQ(cg.graph.num_edges(), 3);
  EXPECT_TRUE(cg.graph.IsAcyclic());
}

TEST(CanonicalTest, VariablePredicateInvalidatesGraph) {
  // Second query of Example 5.1.
  CanonicalGraph cg = CanonicalOf(
      "ASK WHERE {?x1 ?x2 ?x3 . ?x3 <a> ?x4 . ?x4 ?x2 ?x5}");
  EXPECT_FALSE(cg.valid);
}

TEST(CanonicalTest, ConstantsAreNodes) {
  CanonicalGraph cg = CanonicalOf("ASK WHERE { ?x <p> <c> }");
  ASSERT_TRUE(cg.valid);
  EXPECT_EQ(cg.graph.num_nodes(), 2);
  EXPECT_EQ(cg.graph.num_edges(), 1);
}

TEST(CanonicalTest, ExcludingConstantsDropsEdge) {
  CanonicalOptions options;
  options.include_constants = false;
  CanonicalGraph cg = CanonicalOf("ASK WHERE { ?x <p> <c> }", options);
  ASSERT_TRUE(cg.valid);
  EXPECT_EQ(cg.graph.num_nodes(), 1);
  EXPECT_EQ(cg.graph.num_edges(), 0);
}

TEST(CanonicalTest, RepeatedConstantsShareNode) {
  CanonicalGraph cg =
      CanonicalOf("ASK WHERE { ?x <p> <c> . ?y <q> <c> }");
  ASSERT_TRUE(cg.valid);
  EXPECT_EQ(cg.graph.num_nodes(), 3);
}

TEST(CanonicalTest, EqualityFilterCollapsesNodes) {
  // Footnote 20: FILTER(?y = ?z) collapses ?y and ?z, making a path
  // into a shorter path.
  CanonicalGraph cg = CanonicalOf(
      "ASK WHERE { ?x <p> ?y . ?z <q> ?w FILTER(?y = ?z) }");
  ASSERT_TRUE(cg.valid);
  EXPECT_EQ(cg.graph.num_nodes(), 3);
  EXPECT_EQ(cg.graph.num_edges(), 2);
}

TEST(CanonicalTest, EqualityCollapseCanCreateCycle) {
  CanonicalGraph cg = CanonicalOf(
      "ASK WHERE { ?a <p> ?b . ?b <q> ?c . ?c <r> ?d FILTER(?a = ?d) }");
  ASSERT_TRUE(cg.valid);
  EXPECT_FALSE(cg.graph.IsAcyclic());
  EXPECT_EQ(cg.graph.Girth(), 3);
}

TEST(CanonicalTest, SelfLoopFromRepeatedVariable) {
  CanonicalGraph cg = CanonicalOf("ASK WHERE { ?x <p> ?x }");
  ASSERT_TRUE(cg.valid);
  EXPECT_EQ(cg.graph.num_nodes(), 1);
  EXPECT_TRUE(cg.graph.HasSelfLoop(0));
}

// ---------------------------------------------------------------------------
// Canonical hypergraph (Section 5)
// ---------------------------------------------------------------------------

Hypergraph HypergraphOf(std::string_view query) {
  auto r = ParseQuery(query);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  std::vector<const sparql::TriplePattern*> triples;
  std::vector<const sparql::Expr*> filters;
  CollectTriplesAndFilters(r.value().where, triples, filters);
  return BuildCanonicalHypergraph(triples, filters);
}

TEST(HypergraphTest, Example51CapturesJoinOnPredicateVar) {
  // The hypergraph of the second Example 5.1 query is cyclic: the join
  // on ?x2 is visible.
  Hypergraph hg = HypergraphOf(
      "ASK WHERE {?x1 ?x2 ?x3 . ?x3 <a> ?x4 . ?x4 ?x2 ?x5}");
  EXPECT_EQ(hg.num_edges(), 3);
  EXPECT_FALSE(hg.IsAlphaAcyclic());
}

TEST(HypergraphTest, ChainIsAlphaAcyclic) {
  Hypergraph hg = HypergraphOf(
      "ASK WHERE {?x1 <a> ?x2 . ?x2 <b> ?x3 . ?x3 <c> ?x4}");
  EXPECT_TRUE(hg.IsAlphaAcyclic());
}

TEST(HypergraphTest, TriangleIsCyclic) {
  Hypergraph hg = HypergraphOf(
      "ASK WHERE {?a <p> ?b . ?b <q> ?c . ?c <r> ?a}");
  EXPECT_FALSE(hg.IsAlphaAcyclic());
}

TEST(HypergraphTest, TriangleWithGuardIsAcyclic) {
  // A hyperedge covering all three vertices makes it alpha-acyclic:
  // exercised through a predicate variable shared across a triple.
  Hypergraph hg;
  hg.AddEdge({0, 1});
  hg.AddEdge({1, 2});
  hg.AddEdge({0, 2});
  hg.AddEdge({0, 1, 2});  // guard
  EXPECT_TRUE(hg.IsAlphaAcyclic());
}

TEST(HypergraphTest, ConstantsExcluded) {
  Hypergraph hg = HypergraphOf("ASK WHERE { ?x <p> <c> }");
  EXPECT_EQ(hg.num_edges(), 1);
  EXPECT_EQ(hg.num_nodes(), 1);
}

TEST(HypergraphTest, AllConstantTripleContributesNoEdge) {
  Hypergraph hg = HypergraphOf("ASK WHERE { <s> <p> <o> }");
  EXPECT_EQ(hg.num_edges(), 0);
  EXPECT_TRUE(hg.IsAlphaAcyclic());
}

}  // namespace
}  // namespace sparqlog::graph
