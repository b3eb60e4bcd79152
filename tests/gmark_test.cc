#include <gtest/gtest.h>

#include "gmark/graph_gen.h"
#include "gmark/query_gen.h"
#include "gmark/schema.h"
#include "graph/canonical.h"
#include "graph/shapes.h"
#include "sparql/parser.h"
#include "sparql/serializer.h"
#include "store/engine.h"

namespace sparqlog::gmark {
namespace {

TEST(SchemaTest, BibSchemaWellFormed) {
  Schema s = Schema::Bib();
  EXPECT_GE(s.types.size(), 4u);
  EXPECT_EQ(s.types.size(), s.type_proportions.size());
  for (const PredicateSpec& p : s.predicates) {
    EXPECT_GE(p.source_type, 0);
    EXPECT_LT(p.source_type, static_cast<int>(s.types.size()));
    EXPECT_GE(p.target_type, 0);
    EXPECT_LT(p.target_type, static_cast<int>(s.types.size()));
  }
}

TEST(SchemaTest, PredicateLookups) {
  Schema s = Schema::Bib();
  // Papers have outgoing predicates (authors, cites, ...).
  EXPECT_FALSE(s.PredicatesFrom(1).empty());
  // Researchers have incoming predicates (authors).
  EXPECT_FALSE(s.PredicatesInto(0).empty());
}

TEST(GraphGenTest, GeneratesRequestedSize) {
  store::TripleStore store;
  GraphGenOptions options;
  options.num_nodes = 2000;
  options.seed = 1;
  GenerateGraph(Schema::Bib(), options, store);
  // Types + edges; every node has an rdf:type triple.
  EXPECT_GE(store.size(), 2000u);
}

TEST(GraphGenTest, DeterministicForSeed) {
  store::TripleStore a, b;
  GraphGenOptions options;
  options.num_nodes = 500;
  options.seed = 77;
  GenerateGraph(Schema::Bib(), options, a);
  GenerateGraph(Schema::Bib(), options, b);
  EXPECT_EQ(a.size(), b.size());
}

TEST(GraphGenTest, EdgesRespectSchemaTypes) {
  store::TripleStore store;
  GraphGenOptions options;
  options.num_nodes = 800;
  GenerateGraph(Schema::Bib(), options, store);
  Schema schema = Schema::Bib();
  // Every "authors" edge goes Paper -> Researcher by IRI prefix.
  rdf::TermId authors =
      store.dict().Lookup(schema.namespace_iri + "authors");
  ASSERT_NE(authors, 0u);
  for (const auto& t : store.Match(0, authors, 0)) {
    ASSERT_NE(store.dict().term(t.s), nullptr);
    ASSERT_NE(store.dict().term(t.o), nullptr);
    EXPECT_NE(store.dict().term(t.s)->find("Paper/"), std::string::npos);
    EXPECT_NE(store.dict().term(t.o)->find("Researcher/"), std::string::npos);
  }
}

class WorkloadShapeTest : public ::testing::TestWithParam<int> {};

TEST_P(WorkloadShapeTest, ChainQueriesAreChains) {
  QueryGenOptions options;
  options.shape = QueryShape::kChain;
  options.length = GetParam();
  options.workload_size = 20;
  auto workload = GenerateWorkload(Schema::Bib(), options);
  ASSERT_EQ(workload.size(), 20u);
  for (const GeneratedQuery& q : workload) {
    EXPECT_EQ(q.length, GetParam());
    graph::CanonicalGraph cg = graph::BuildCanonicalGraph(q.sparql.where);
    ASSERT_TRUE(cg.valid);
    graph::ShapeClass s = graph::ClassifyShape(cg.graph);
    EXPECT_TRUE(s.chain) << sparql::Serialize(q.sparql);
  }
}

TEST_P(WorkloadShapeTest, CycleQueriesAreCycles) {
  QueryGenOptions options;
  options.shape = QueryShape::kCycle;
  options.length = GetParam();
  options.workload_size = 20;
  auto workload = GenerateWorkload(Schema::Bib(), options);
  for (const GeneratedQuery& q : workload) {
    graph::CanonicalGraph cg = graph::BuildCanonicalGraph(q.sparql.where);
    ASSERT_TRUE(cg.valid);
    graph::ShapeClass s = graph::ClassifyShape(cg.graph);
    EXPECT_TRUE(s.cycle || s.girth > 0) << sparql::Serialize(q.sparql);
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, WorkloadShapeTest,
                         ::testing::Values(3, 4, 5, 6, 7, 8));

TEST(WorkloadTest, StarShape) {
  QueryGenOptions options;
  options.shape = QueryShape::kStar;
  options.length = 4;
  options.workload_size = 10;
  for (const GeneratedQuery& q : GenerateWorkload(Schema::Bib(), options)) {
    graph::CanonicalGraph cg = graph::BuildCanonicalGraph(q.sparql.where);
    ASSERT_TRUE(cg.valid);
    graph::ShapeClass s = graph::ClassifyShape(cg.graph);
    EXPECT_TRUE(s.star || s.tree) << sparql::Serialize(q.sparql);
  }
}

TEST(WorkloadTest, AskFormIsAsk) {
  QueryGenOptions options;
  options.ask_form = true;
  options.workload_size = 5;
  for (const GeneratedQuery& q : GenerateWorkload(Schema::Bib(), options)) {
    EXPECT_EQ(q.sparql.form, sparql::QueryForm::kAsk);
  }
}

TEST(WorkloadTest, SqlEmitted) {
  QueryGenOptions options;
  options.shape = QueryShape::kCycle;
  options.length = 3;
  options.workload_size = 3;
  for (const GeneratedQuery& q : GenerateWorkload(Schema::Bib(), options)) {
    EXPECT_NE(q.sql.find("SELECT"), std::string::npos);
    EXPECT_NE(q.sql.find("FROM"), std::string::npos);
    EXPECT_NE(q.sql.find("WHERE"), std::string::npos);  // join conditions
  }
}

TEST(WorkloadTest, GeneratedSparqlSerializesAndReparses) {
  QueryGenOptions options;
  options.workload_size = 10;
  for (const GeneratedQuery& q : GenerateWorkload(Schema::Bib(), options)) {
    std::string text = sparql::Serialize(q.sparql);
    auto parsed = sparql::ParseQuery(text);
    EXPECT_TRUE(parsed.ok()) << text;
  }
}

TEST(WorkloadTest, CompileAndRunOnEngines) {
  store::TripleStore store;
  GraphGenOptions gopts;
  gopts.num_nodes = 2000;
  GenerateGraph(Schema::Bib(), gopts, store);
  QueryGenOptions options;
  options.shape = QueryShape::kChain;
  options.length = 3;
  options.workload_size = 10;
  store::GraphEngine bg(store);
  store::RelationalEngine pg(store);
  int compiled = 0;
  for (const GeneratedQuery& q : GenerateWorkload(Schema::Bib(), options)) {
    auto bgp = CompileForEngine(q, store);
    if (!bgp.has_value()) continue;
    ++compiled;
    store::EvalStats a = bg.Evaluate(*bgp, store::EvalMode::kAsk);
    store::EvalStats b = pg.Evaluate(*bgp, store::EvalMode::kAsk);
    EXPECT_EQ(a.matched, b.matched) << q.sql;
  }
  EXPECT_GT(compiled, 0);
}

}  // namespace
}  // namespace sparqlog::gmark
