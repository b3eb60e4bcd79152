// Differential tests for the allocation-lean structural-analysis path:
// the new flat-graph ClassifyShape / Treewidth / girth (and the
// multi-word GHW) must agree with the retained pre-change
// implementations in testing/reference_analysis on random graphs —
// including self-loops, disconnected forests, K4 (treewidth 3), the
// 64/65-node boundary where Graph switches from bitset masks to
// sorted-vector adjacency, and hypergraphs around the 64-vertex and
// 64-edge word boundaries — and on every unique query of the generated
// paper corpus.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "corpus/analysis_scratch.h"
#include "corpus/ingest.h"
#include "graph/canonical.h"
#include "graph/graph.h"
#include "graph/hypergraph.h"
#include "graph/shapes.h"
#include "sparql/parser.h"
#include "testing/invariants.h"
#include "testing/reference_analysis.h"
#include "util/budget.h"
#include "util/rng.h"
#include "width/hypertree.h"
#include "width/treewidth.h"

namespace sparqlog {
namespace {

namespace reference = testing::reference;
using graph::Graph;
using graph::ShapeClass;

void ExpectSameShape(const ShapeClass& ref, const ShapeClass& got,
                     const std::string& what) {
  EXPECT_EQ(ref.single_edge, got.single_edge) << what;
  EXPECT_EQ(ref.chain, got.chain) << what;
  EXPECT_EQ(ref.chain_set, got.chain_set) << what;
  EXPECT_EQ(ref.star, got.star) << what;
  EXPECT_EQ(ref.tree, got.tree) << what;
  EXPECT_EQ(ref.forest, got.forest) << what;
  EXPECT_EQ(ref.cycle, got.cycle) << what;
  EXPECT_EQ(ref.flower, got.flower) << what;
  EXPECT_EQ(ref.flower_set, got.flower_set) << what;
  EXPECT_EQ(ref.girth, got.girth) << what;
}

/// Runs both classifiers and both treewidth pipelines on `g`, sharing
/// one long-lived scratch so cross-call state leaks would surface.
void CheckGraph(const Graph& g, graph::ShapeScratch& shape_scratch,
                width::TreewidthScratch& tw_scratch, const std::string& what) {
  reference::ReferenceGraph ref = reference::FromGraph(g);
  ExpectSameShape(reference::ClassifyShape(ref),
                  graph::ClassifyShape(g, shape_scratch), what);
  width::TreewidthResult ref_tw = reference::Treewidth(ref);
  width::TreewidthResult new_tw = width::Treewidth(g, tw_scratch);
  if (ref_tw.exact && new_tw.exact) {
    EXPECT_EQ(ref_tw.width, new_tw.width) << what;
  }
  EXPECT_EQ(reference::TreewidthAtMost2(ref), width::TreewidthAtMost2(g))
      << what;
  EXPECT_EQ(ref.Girth(), g.Girth()) << what;
}

Graph RandomGraph(util::Rng& rng, int n, double edge_prob,
                  double loop_prob) {
  Graph g(n);
  for (int u = 0; u < n; ++u) {
    if (rng.NextDouble() < loop_prob) g.AddEdge(u, u);
    for (int v = u + 1; v < n; ++v) {
      if (rng.NextDouble() < edge_prob) g.AddEdge(u, v);
    }
  }
  return g;
}

TEST(AnalysisEquivalenceTest, RandomSmallGraphs) {
  util::Rng rng(20260726);
  graph::ShapeScratch shape_scratch;
  width::TreewidthScratch tw_scratch;
  const double densities[] = {0.05, 0.15, 0.3, 0.6};
  for (int iter = 0; iter < 400; ++iter) {
    int n = static_cast<int>(rng.Below(13));
    double p = densities[rng.Below(4)];
    double loops = rng.Chance(0.3) ? 0.15 : 0.0;
    Graph g = RandomGraph(rng, n, p, loops);
    CheckGraph(g, shape_scratch, tw_scratch,
               "iter " + std::to_string(iter) + " n=" + std::to_string(n));
  }
}

TEST(AnalysisEquivalenceTest, RandomSparseGraphsAtBitsetBoundary) {
  util::Rng rng(64656466);
  graph::ShapeScratch shape_scratch;
  width::TreewidthScratch tw_scratch;
  for (int iter = 0; iter < 40; ++iter) {
    // 60..70 nodes crosses the 64-node mask/vector switch; subcritical
    // density keeps components small so the exact solvers stay fast on
    // both paths.
    int n = 60 + static_cast<int>(rng.Below(11));
    Graph g = RandomGraph(rng, n, 1.2 / n, rng.Chance(0.25) ? 0.05 : 0.0);
    CheckGraph(g, shape_scratch, tw_scratch,
               "boundary iter " + std::to_string(iter) +
                   " n=" + std::to_string(n));
  }
}

TEST(AnalysisEquivalenceTest, NamedShapesAcrossTheBoundary) {
  graph::ShapeScratch shape_scratch;
  width::TreewidthScratch tw_scratch;
  for (int n : {63, 64, 65, 66}) {
    Graph path(n);
    for (int i = 0; i + 1 < n; ++i) path.AddEdge(i, i + 1);
    CheckGraph(path, shape_scratch, tw_scratch, "path " + std::to_string(n));

    Graph cycle(n);
    for (int i = 0; i < n; ++i) cycle.AddEdge(i, (i + 1) % n);
    CheckGraph(cycle, shape_scratch, tw_scratch, "cycle " + std::to_string(n));

    Graph star(n);
    for (int i = 1; i < n; ++i) star.AddEdge(0, i);
    CheckGraph(star, shape_scratch, tw_scratch, "star " + std::to_string(n));
  }
}

TEST(AnalysisEquivalenceTest, GrowingAcrossTheBoundaryPreservesEdges) {
  // Build edge set while the graph spills from masks to vectors.
  Graph g(0);
  for (int i = 0; i < 70; ++i) {
    EXPECT_EQ(g.AddNode(), i);
    if (i > 0) g.AddEdge(i - 1, i);
    if (i >= 10) g.AddEdge(i - 10, i);
  }
  EXPECT_FALSE(g.small());
  EXPECT_EQ(g.num_nodes(), 70);
  for (int i = 1; i < 70; ++i) EXPECT_TRUE(g.HasEdge(i - 1, i));
  for (int i = 10; i < 70; ++i) EXPECT_TRUE(g.HasEdge(i - 10, i));
  // Neighbor iteration stays ascending after the spill.
  int prev = -1;
  for (int w : g.Neighbors(35)) {
    EXPECT_GT(w, prev);
    prev = w;
  }
  graph::ShapeScratch shape_scratch;
  width::TreewidthScratch tw_scratch;
  CheckGraph(g, shape_scratch, tw_scratch, "spilled ladder");
}

TEST(AnalysisEquivalenceTest, DisconnectedForestsAndLoops) {
  graph::ShapeScratch shape_scratch;
  width::TreewidthScratch tw_scratch;
  // Disconnected forest: three trees of different shapes.
  Graph forest(12);
  forest.AddEdge(0, 1);
  forest.AddEdge(1, 2);
  forest.AddEdge(3, 4);
  forest.AddEdge(3, 5);
  forest.AddEdge(3, 6);
  forest.AddEdge(7, 8);
  CheckGraph(forest, shape_scratch, tw_scratch, "forest");

  // Self-loops: at a tree node, at a cycle node, and at two nodes.
  Graph looped = forest;
  looped.AddEdge(1, 1);
  CheckGraph(looped, shape_scratch, tw_scratch, "forest+loop");
  looped.AddEdge(7, 7);
  CheckGraph(looped, shape_scratch, tw_scratch, "forest+2loops");

  Graph cycle_loop(5);
  for (int i = 0; i < 4; ++i) cycle_loop.AddEdge(i, (i + 1) % 4);
  cycle_loop.AddEdge(0, 0);
  CheckGraph(cycle_loop, shape_scratch, tw_scratch, "cycle+loop");
}

TEST(AnalysisEquivalenceTest, K4HasTreewidthThreeAndIsNoFlower) {
  Graph k4(4);
  for (int i = 0; i < 4; ++i) {
    for (int j = i + 1; j < 4; ++j) k4.AddEdge(i, j);
  }
  graph::ShapeScratch shape_scratch;
  width::TreewidthScratch tw_scratch;
  CheckGraph(k4, shape_scratch, tw_scratch, "K4");
  EXPECT_EQ(width::Treewidth(k4).width, 3);
  EXPECT_FALSE(graph::ClassifyShape(k4).flower_set);
}

TEST(AnalysisEquivalenceTest, ScratchReuseIsStateless) {
  // The same scratch must classify a pathological sequence (big, small,
  // cyclic, empty, looped) exactly like fresh scratch each time.
  util::Rng rng(977);
  graph::ShapeScratch reused;
  width::TreewidthScratch reused_tw;
  for (int iter = 0; iter < 60; ++iter) {
    int n = iter % 2 == 0 ? static_cast<int>(rng.Below(70))
                          : static_cast<int>(rng.Below(8));
    Graph g = RandomGraph(rng, n, n > 20 ? 1.3 / n : 0.3,
                          rng.Chance(0.2) ? 0.1 : 0.0);
    graph::ShapeScratch fresh;
    width::TreewidthScratch fresh_tw;
    ExpectSameShape(graph::ClassifyShape(g, fresh),
                    graph::ClassifyShape(g, reused),
                    "reuse iter " + std::to_string(iter));
    EXPECT_EQ(width::Treewidth(g, fresh_tw).width,
              width::Treewidth(g, reused_tw).width)
        << iter;
  }
}

// ---------------------------------------------------------------------------
// Canonical builders and GHW, old vs new, on parsed queries.
// ---------------------------------------------------------------------------

TEST(AnalysisEquivalenceTest, CanonicalBuildersMatchOnHandwrittenQueries) {
  const char* queries[] = {
      "ASK WHERE {?x1 <a> ?x2 . ?x2 <b> ?x3 . ?x3 <c> ?x4}",
      "ASK WHERE { ?x <p> <c> . ?y <q> <c> }",
      "ASK WHERE { ?x <p> ?y . ?z <q> ?w FILTER(?y = ?z) }",
      "ASK WHERE { ?a <p> ?b . ?b <q> ?c . ?c <r> ?d FILTER(?a = ?d) }",
      "ASK WHERE { ?x <p> ?x }",
      "ASK WHERE {?x1 ?x2 ?x3 . ?x3 <a> ?x4 . ?x4 ?x2 ?x5}",
      "ASK { ?s <p> \"lit\"^^<http://dt> . ?s <q> \"lit\"@en . ?s <r> \"lit\" }",
      "SELECT * WHERE { ?a ?p ?b . ?b ?p ?c . ?c ?p ?a }",
      "ASK { <s> <p> <o> }",
  };
  corpus::AnalysisScratch scratch;
  sparql::Parser parser;
  for (const char* text : queries) {
    auto r = parser.Parse(text);
    ASSERT_TRUE(r.ok()) << text;
    auto v = testing::CheckAnalysisEquivalence(r.value(), scratch);
    EXPECT_FALSE(v.has_value())
        << text << ": " << (v ? v->detail : std::string());
  }
}

// Every unique query of the 13-profile paper corpus, in ingest order,
// through one long-lived scratch: canonical graph, shape flags, girth,
// treewidth and GHW must match the reference implementations query by
// query. GHW is compared at every hypergraph size: at 2000 entries per
// dataset the corpus holds hypergraphs above the fuzzer's 24-edge bound,
// which no other differential case reaches. (The Table 4 / Section 6
// cells built from them are pinned by the paper_report golden.)
TEST(AnalysisEquivalenceTest, EveryUniquePaperCorpusQueryMatchesReference) {
  const std::vector<std::string> lines = testing::PaperCorpusLog(2000);
  sparql::Parser parser;
  std::string decode_buf;
  std::unordered_set<uint64_t> seen;
  corpus::AnalysisScratch scratch;
  size_t checked = 0;
  int max_edges = 0;
  for (const std::string& line : lines) {
    corpus::ParsedLine parsed =
        corpus::ParseLogLine(parser, std::string_view(line), decode_buf);
    if (!parsed.valid || !seen.insert(parsed.canonical_hash).second) continue;
    ++checked;
    auto v = testing::CheckAnalysisEquivalence(
        *parsed.query, scratch, std::numeric_limits<int>::max());
    ASSERT_FALSE(v.has_value())
        << v->invariant << ": " << v->detail << "\n" << v->input;
    max_edges = std::max(max_edges, scratch.hypergraph.num_edges());
  }
  EXPECT_GT(checked, 1000u);
  EXPECT_GT(max_edges, 24);
}

/// Compares alpha-acyclicity, GHW width, decomposition size and
/// exactness against the set-based reference. With `budgeted`, the
/// search is replayed under finite budgets too: exactly the steps it
/// needs reaches the same answer, half of them abandons.
void CheckGhw(const std::vector<std::set<int>>& edges,
              width::GhwScratch& scratch, bool budgeted,
              const std::string& what) {
  graph::Hypergraph hg;
  reference::ReferenceHypergraph ref;
  for (const std::set<int>& edge : edges) {
    ref.AddEdge(edge);
    hg.AddEdge(std::vector<int>(edge.begin(), edge.end()));
  }
  EXPECT_EQ(ref.IsAlphaAcyclic(), hg.IsAlphaAcyclic()) << what;
  width::GhwResult ref_ghw = reference::GeneralizedHypertreeWidth(ref);
  width::GhwResult new_ghw = width::GeneralizedHypertreeWidth(hg, scratch);
  EXPECT_EQ(ref_ghw.width, new_ghw.width) << what;
  EXPECT_EQ(ref_ghw.decomposition_nodes, new_ghw.decomposition_nodes)
      << what;
  EXPECT_EQ(ref_ghw.exact, new_ghw.exact) << what;
  if (!budgeted) return;
  constexpr uint64_t kGenerous = uint64_t{1} << 32;
  util::StepBudget generous(kGenerous);
  width::GeneralizedHypertreeWidth(hg, scratch, 4, &generous);
  uint64_t steps = kGenerous - generous.remaining();
  if (steps < 2) return;  // alpha-acyclic: no separator search
  util::StepBudget exact(steps);
  width::GhwResult fits =
      width::GeneralizedHypertreeWidth(hg, scratch, 4, &exact);
  EXPECT_FALSE(fits.abandoned) << what;
  EXPECT_EQ(ref_ghw.width, fits.width) << what;
  EXPECT_EQ(ref_ghw.decomposition_nodes, fits.decomposition_nodes) << what;
  util::StepBudget half(steps / 2);
  width::GhwResult cut =
      width::GeneralizedHypertreeWidth(hg, scratch, 4, &half);
  EXPECT_TRUE(cut.abandoned) << what;
  EXPECT_FALSE(cut.exact) << what;
}

/// A random edge over `arity` distinct vertices below `n`.
std::set<int> RandomEdge(util::Rng& rng, int n, int arity) {
  std::set<int> edge;
  while (static_cast<int>(edge.size()) < arity) {
    edge.insert(static_cast<int>(rng.Below(static_cast<size_t>(n))));
  }
  return edge;
}

TEST(AnalysisEquivalenceTest, RandomHypergraphsAgreeOnGhw) {
  util::Rng rng(4242);
  width::GhwScratch scratch;
  for (int iter = 0; iter < 120; ++iter) {
    int n = 2 + static_cast<int>(rng.Below(7));
    int m = 1 + static_cast<int>(rng.Below(8));
    std::vector<std::set<int>> edges;
    for (int e = 0; e < m; ++e) {
      std::set<int> edge;
      int arity = 1 + static_cast<int>(rng.Below(3));
      for (int k = 0; k < arity; ++k) {
        edge.insert(static_cast<int>(rng.Below(static_cast<size_t>(n))));
      }
      edges.push_back(edge);
    }
    CheckGhw(edges, scratch, /*budgeted=*/iter % 4 == 0,
             "small #" + std::to_string(iter));
  }
  // Around the word boundaries of the vertex sets: a path of arcs of
  // 2-6 consecutive vertices covering all n, closed into a ring, and
  // the ring with a random chord and ternary edge.
  for (int n : {63, 64, 65, 130}) {
    for (int variant = 0; variant < 3; ++variant) {
      std::vector<std::set<int>> edges;
      for (int v = 0; v < n - 1;) {
        int end = std::min(n - 1, v + 1 + static_cast<int>(rng.Below(5)));
        std::set<int> arc;
        for (int u = v; u <= end; ++u) arc.insert(u);
        edges.push_back(arc);
        v = end;
      }
      if (variant != 0) edges.push_back({n - 1, 0});
      if (variant == 2) {
        edges.push_back(RandomEdge(rng, n, 2));
        edges.push_back(RandomEdge(rng, n, 3));
      }
      CheckGhw(edges, scratch, /*budgeted=*/variant != 0,
               std::to_string(n) + " vertices, variant " +
                   std::to_string(variant));
    }
  }
  // Around the word boundaries of the edge-id sets: a binary cycle plus
  // chords and ternary edges spanning at most a quarter of it, m edges
  // in all. (Long crossing chords lift the width to 3, where the
  // reference's exhaustive k = 2 search takes seconds at m = 130.)
  for (int m : {63, 64, 65, 130}) {
    for (int variant = 0; variant < 4; ++variant) {
      int extras = 1 + variant;
      int len = m - extras;
      std::vector<std::set<int>> edges;
      for (int i = 0; i < len; ++i) edges.push_back({i, (i + 1) % len});
      for (int x = 0; x < extras; ++x) {
        int a = static_cast<int>(rng.Below(static_cast<size_t>(len)));
        int span =
            2 + static_cast<int>(rng.Below(static_cast<size_t>(len / 4)));
        std::set<int> extra{a, (a + span) % len};
        if (x % 2 == 1) extra.insert((a + 1) % len);
        edges.push_back(extra);
      }
      CheckGhw(edges, scratch, /*budgeted=*/variant % 2 == 0,
               std::to_string(m) + " edges, variant " +
                   std::to_string(variant));
    }
  }
}

// ---------------------------------------------------------------------------
// Kernelization linearity: the restart-free worklist must suppress a
// long degree-2 chain (here closed into a cycle so the series-parallel
// rule, not leaf pruning, does the work) in linear time. The pre-change
// implementation re-scanned every vertex per pass; at this size a
// quadratic pass structure would take minutes, the worklist milliseconds.
// ---------------------------------------------------------------------------

TEST(KernelizationWorklistTest, LongCycleReducesInLinearTime) {
  const int n = 300000;
  Graph cycle(n);
  for (int i = 0; i < n; ++i) cycle.AddEdge(i, (i + 1) % n);
  width::TreewidthScratch scratch;
  auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(width::TreewidthAtMost2(cycle, scratch));
  width::TreewidthResult tw = width::Treewidth(cycle, scratch);
  double seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  EXPECT_EQ(tw.width, 2);
  EXPECT_TRUE(tw.exact);
  // Generous even for sanitizer builds; a quadratic reduction cannot
  // come close at 300k nodes.
  EXPECT_LT(seconds, 20.0);
}

TEST(KernelizationWorklistTest, LollipopKernelizesToTheClique) {
  // K5 with a 100k-node tail: the tail must be eaten by the worklist
  // and the kernel solved exactly (treewidth 4).
  const int tail = 100000;
  Graph g(5 + tail);
  for (int i = 0; i < 5; ++i) {
    for (int j = i + 1; j < 5; ++j) g.AddEdge(i, j);
  }
  g.AddEdge(4, 5);
  for (int i = 5; i + 1 < 5 + tail; ++i) g.AddEdge(i, i + 1);
  width::TreewidthScratch scratch;
  auto start = std::chrono::steady_clock::now();
  width::TreewidthResult tw = width::Treewidth(g, scratch);
  double seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  EXPECT_EQ(tw.width, 4);
  EXPECT_TRUE(tw.exact);
  EXPECT_LT(seconds, 20.0);
}

}  // namespace
}  // namespace sparqlog
