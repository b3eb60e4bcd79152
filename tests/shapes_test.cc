#include <gtest/gtest.h>

#include "graph/shapes.h"

namespace sparqlog::graph {
namespace {

Graph Path(int n) {
  Graph g(n);
  for (int i = 0; i + 1 < n; ++i) g.AddEdge(i, i + 1);
  return g;
}

Graph CycleGraph(int n) {
  Graph g = Path(n);
  g.AddEdge(n - 1, 0);
  return g;
}

Graph StarGraph(int leaves) {
  Graph g(leaves + 1);
  for (int i = 1; i <= leaves; ++i) g.AddEdge(0, i);
  return g;
}

// ---------------------------------------------------------------------------
// Tree-like shapes
// ---------------------------------------------------------------------------

TEST(ShapesTest, SingleEdge) {
  ShapeClass s = ClassifyShape(Path(2));
  EXPECT_TRUE(s.single_edge);
  EXPECT_TRUE(s.chain);
  EXPECT_TRUE(s.chain_set);
  EXPECT_TRUE(s.tree);
  EXPECT_TRUE(s.forest);
  EXPECT_TRUE(s.flower);
  EXPECT_TRUE(s.flower_set);
  EXPECT_FALSE(s.star);
  EXPECT_FALSE(s.cycle);
  EXPECT_EQ(s.girth, 0);
}

TEST(ShapesTest, ChainSubsumptionOrder) {
  ShapeClass s = ClassifyShape(Path(5));
  EXPECT_FALSE(s.single_edge);
  EXPECT_TRUE(s.chain);
  EXPECT_TRUE(s.chain_set);
  EXPECT_TRUE(s.tree);
  EXPECT_TRUE(s.forest);
}

TEST(ShapesTest, ChainSet) {
  Graph g(6);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(3, 4);
  g.AddEdge(4, 5);
  ShapeClass s = ClassifyShape(g);
  EXPECT_FALSE(s.chain);  // disconnected
  EXPECT_TRUE(s.chain_set);
  EXPECT_FALSE(s.tree);
  EXPECT_TRUE(s.forest);
  EXPECT_FALSE(s.flower);
  EXPECT_TRUE(s.flower_set);
}

TEST(ShapesTest, StarDefinitionRequiresHub) {
  // Definition: a tree with exactly one node with more than two
  // neighbors; a path is NOT a star.
  EXPECT_FALSE(ClassifyShape(Path(4)).star);
  ShapeClass s = ClassifyShape(StarGraph(3));
  EXPECT_TRUE(s.star);
  EXPECT_TRUE(s.tree);
  EXPECT_FALSE(s.chain);
}

TEST(ShapesTest, TwoHubsNotAStar) {
  // Two degree-3 nodes: a "double star" is a tree but not a star.
  Graph g(8);
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  g.AddEdge(0, 3);
  g.AddEdge(3, 4);
  g.AddEdge(4, 5);
  g.AddEdge(4, 6);
  g.AddEdge(4, 7);
  ShapeClass s = ClassifyShape(g);
  EXPECT_FALSE(s.star);
  EXPECT_TRUE(s.tree);
}

TEST(ShapesTest, TreeIsFlower) {
  Graph g(6);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(1, 3);
  g.AddEdge(3, 4);
  g.AddEdge(3, 5);
  ShapeClass s = ClassifyShape(g);
  EXPECT_TRUE(s.tree);
  EXPECT_TRUE(s.flower);
}

// ---------------------------------------------------------------------------
// Cycles, petals, flowers
// ---------------------------------------------------------------------------

class CycleShapeTest : public ::testing::TestWithParam<int> {};

TEST_P(CycleShapeTest, CyclesClassify) {
  int n = GetParam();
  ShapeClass s = ClassifyShape(CycleGraph(n));
  EXPECT_TRUE(s.cycle);
  EXPECT_TRUE(s.flower);  // a cycle is a petal at any of its nodes
  EXPECT_TRUE(s.flower_set);
  EXPECT_FALSE(s.tree);
  EXPECT_FALSE(s.forest);
  EXPECT_EQ(s.girth, n);
}

INSTANTIATE_TEST_SUITE_P(Lengths, CycleShapeTest,
                         ::testing::Values(3, 4, 5, 8, 14));

TEST(ShapesTest, PetalThetaGraph) {
  // Two nodes joined by three internally disjoint paths of length 2:
  // a petal, not a cycle.
  Graph g(5);
  g.AddEdge(0, 2);
  g.AddEdge(2, 1);
  g.AddEdge(0, 3);
  g.AddEdge(3, 1);
  g.AddEdge(0, 4);
  g.AddEdge(4, 1);
  ShapeClass s = ClassifyShape(g);
  EXPECT_FALSE(s.cycle);
  EXPECT_TRUE(s.flower);
  EXPECT_TRUE(s.flower_set);
  // Only the branch nodes 0 and 1 may serve as the petal's center: a
  // pendant there keeps the flower, one on a path node breaks it.
  Graph at_branch = g;
  at_branch.AddEdge(1, at_branch.AddNode());
  EXPECT_TRUE(ClassifyShape(at_branch).flower);
  Graph at_path = g;
  at_path.AddEdge(2, at_path.AddNode());
  EXPECT_FALSE(ClassifyShape(at_path).flower);
  EXPECT_FALSE(ClassifyShape(at_path).flower_set);
}

TEST(ShapesTest, PetalWithDirectEdge) {
  // s-t edge plus an s..t path: a petal (cycle in fact).
  Graph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  g.AddEdge(2, 1);
  ShapeClass s = ClassifyShape(g);
  EXPECT_TRUE(s.cycle);
  EXPECT_TRUE(s.flower);
  EXPECT_TRUE(s.flower_set);
}

TEST(ShapesTest, FlowerWithPetalsAndStamens) {
  // Center 0 with: a petal (cycle 0-1-2-0), a stamen (chain 0-3-4), and
  // a stem (tree 0-5 with 5-6, 5-7).
  Graph g(8);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 0);
  g.AddEdge(0, 3);
  g.AddEdge(3, 4);
  g.AddEdge(0, 5);
  g.AddEdge(5, 6);
  g.AddEdge(5, 7);
  ShapeClass s = ClassifyShape(g);
  EXPECT_TRUE(s.flower);
  EXPECT_TRUE(s.flower_set);
  EXPECT_FALSE(s.cycle);
  EXPECT_FALSE(s.forest);
  // The center is 0, not the petal node 1: a stamen at 1 as well leaves
  // no node every acyclic part attaches at.
  g.AddEdge(1, g.AddNode());
  s = ClassifyShape(g);
  EXPECT_FALSE(s.flower);
  EXPECT_FALSE(s.flower_set);
}

TEST(ShapesTest, PaperFlowerMultiplePetals) {
  // Like Figure 6: a central node with several petals and stamens.
  Graph g(9);
  // Petal 1: 0-1-2-0.
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 0);
  // Petal 2 with three paths 0..3: 0-4-3, 0-5-3, 0-3.
  g.AddEdge(0, 4);
  g.AddEdge(4, 3);
  g.AddEdge(0, 5);
  g.AddEdge(5, 3);
  g.AddEdge(0, 3);
  // Stamens.
  g.AddEdge(0, 6);
  g.AddEdge(0, 7);
  g.AddEdge(7, 8);
  ShapeClass s = ClassifyShape(g);
  EXPECT_TRUE(s.flower);
  EXPECT_TRUE(s.flower_set);
}

TEST(ShapesTest, TwoDisjointCyclesAreFlowerSetNotFlower) {
  Graph g(6);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 0);
  g.AddEdge(3, 4);
  g.AddEdge(4, 5);
  g.AddEdge(5, 3);
  ShapeClass s = ClassifyShape(g);
  EXPECT_FALSE(s.flower);
  EXPECT_TRUE(s.flower_set);
}

TEST(ShapesTest, TwoCyclesSharingANodeIsFlower) {
  // Figure-eight: both cycles attach at node 0.
  Graph g(5);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 0);
  g.AddEdge(0, 3);
  g.AddEdge(3, 4);
  g.AddEdge(4, 0);
  ShapeClass s = ClassifyShape(g);
  EXPECT_TRUE(s.flower);
  EXPECT_FALSE(s.cycle);
}

TEST(ShapesTest, CyclesAtDifferentNodesNotAFlower) {
  // Two cycles connected by a path: no single attachment node.
  Graph g(7);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 0);
  g.AddEdge(2, 3);  // bridge
  g.AddEdge(3, 4);
  g.AddEdge(4, 5);
  g.AddEdge(5, 6);
  g.AddEdge(6, 4);
  ShapeClass s = ClassifyShape(g);
  EXPECT_FALSE(s.flower);
  EXPECT_FALSE(s.flower_set);
}

TEST(ShapesTest, PendantOnFarSideOfPetalNotAFlower) {
  // A cycle through x with a tree hanging off the opposite node: trees
  // must attach at the center (strict Definition 6.1 reading).
  Graph g(5);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  g.AddEdge(3, 0);
  g.AddEdge(2, 4);  // pendant at node 2
  // Candidate centers are all cycle nodes; only node 2 admits the
  // pendant, and the petal allows any node as center, so with x = 2 this
  // IS a flower.
  ShapeClass s = ClassifyShape(g);
  EXPECT_TRUE(s.flower);
  EXPECT_TRUE(s.flower_set);
  EXPECT_FALSE(s.cycle);
}

TEST(ShapesTest, TwoPendantsOnDifferentCycleNodesNotAFlower) {
  Graph g(6);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  g.AddEdge(3, 0);
  g.AddEdge(1, 4);  // pendant at 1
  g.AddEdge(3, 5);  // pendant at 3
  EXPECT_FALSE(ClassifyShape(g).flower);
  EXPECT_FALSE(ClassifyShape(g).flower_set);
}

TEST(ShapesTest, K4IsNotAFlower) {
  Graph g(4);
  for (int i = 0; i < 4; ++i) {
    for (int j = i + 1; j < 4; ++j) g.AddEdge(i, j);
  }
  ShapeClass s = ClassifyShape(g);
  EXPECT_FALSE(s.flower);
  EXPECT_FALSE(s.flower_set);
  EXPECT_EQ(s.girth, 3);
}

TEST(ShapesTest, SelfLoopOnlyIsDegenerateCycle) {
  Graph g(1);
  g.AddEdge(0, 0);
  ShapeClass s = ClassifyShape(g);
  EXPECT_TRUE(s.cycle);
  EXPECT_EQ(s.girth, 1);
}

TEST(ShapesTest, EmptyGraph) {
  ShapeClass s = ClassifyShape(Graph(0));
  EXPECT_TRUE(s.forest);
  EXPECT_TRUE(s.flower_set);
  EXPECT_FALSE(s.single_edge);
}

/// Property sweep: every chain is a chain set, every tree a forest,
/// every cycle a flower, and subsumption holds on random graphs.
class ShapeSubsumptionTest : public ::testing::TestWithParam<int> {};

TEST_P(ShapeSubsumptionTest, SubsumptionInvariants) {
  // Construct a pseudo-random graph from the seed.
  int seed = GetParam();
  int n = 3 + seed % 7;
  Graph g(n);
  unsigned state = static_cast<unsigned>(seed) * 2654435761u + 1;
  for (int i = 0; i < n + seed % 5; ++i) {
    state = state * 1664525u + 1013904223u;
    int u = static_cast<int>(state % static_cast<unsigned>(n));
    state = state * 1664525u + 1013904223u;
    int v = static_cast<int>(state % static_cast<unsigned>(n));
    if (u != v) g.AddEdge(u, v);
  }
  ShapeClass s = ClassifyShape(g);
  if (s.single_edge) { EXPECT_TRUE(s.chain); }
  if (s.chain) { EXPECT_TRUE(s.chain_set); }
  if (s.chain) { EXPECT_TRUE(s.tree || g.num_edges() == 0); }
  if (s.star) { EXPECT_TRUE(s.tree); }
  if (s.tree) { EXPECT_TRUE(s.forest); }
  if (s.cycle) { EXPECT_TRUE(s.flower); }
  if (s.flower) { EXPECT_TRUE(s.flower_set); }
  if (s.forest) { EXPECT_TRUE(s.flower_set); }
  if (s.forest) { EXPECT_EQ(s.girth, 0); }
  if (!s.forest) { EXPECT_GT(s.girth, 0); }
}

INSTANTIATE_TEST_SUITE_P(Random, ShapeSubsumptionTest,
                         ::testing::Range(0, 60));

}  // namespace
}  // namespace sparqlog::graph
