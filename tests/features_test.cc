#include <gtest/gtest.h>

#include "analysis/features.h"
#include "analysis/operator_set.h"
#include "analysis/projection.h"
#include "sparql/parser.h"

namespace sparqlog::analysis {
namespace {

using sparql::ParseQuery;
using sparql::Query;
using sparql::QueryForm;

QueryFeatures Features(std::string_view text) {
  auto r = ParseQuery(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString() << "\n" << text;
  fragments::VariableTable vars;
  return ExtractFeatures(r.value(), vars);
}

// ---------------------------------------------------------------------------
// Keyword flags (Table 2)
// ---------------------------------------------------------------------------

TEST(FeaturesTest, FormDetection) {
  EXPECT_EQ(Features("SELECT * WHERE { ?s ?p ?o }").form,
            QueryForm::kSelect);
  EXPECT_EQ(Features("ASK { ?s ?p ?o }").form, QueryForm::kAsk);
  EXPECT_EQ(Features("DESCRIBE <r>").form, QueryForm::kDescribe);
  EXPECT_EQ(Features("CONSTRUCT WHERE { ?s <p> ?o }").form,
            QueryForm::kConstruct);
}

TEST(FeaturesTest, ModifierFlags) {
  QueryFeatures f = Features(
      "SELECT DISTINCT ?x WHERE { ?x <p> ?y } ORDER BY ?x LIMIT 2 OFFSET 1");
  EXPECT_TRUE(f.distinct);
  EXPECT_TRUE(f.has_limit);
  EXPECT_TRUE(f.has_offset);
  EXPECT_TRUE(f.has_order_by);
  EXPECT_FALSE(f.has_group_by);
}

TEST(FeaturesTest, OperatorFlags) {
  QueryFeatures f = Features(
      "SELECT * WHERE { ?x <p> ?y . ?y <q> ?z OPTIONAL { ?x <r> ?w } "
      "FILTER(?z > 1) { ?a <s> ?b } UNION { ?a <t> ?b } "
      "GRAPH ?g { ?g <u> ?h } MINUS { ?x <v> <bad> } }");
  EXPECT_TRUE(f.conj);
  EXPECT_TRUE(f.optional);
  EXPECT_TRUE(f.filter);
  EXPECT_TRUE(f.union_);
  EXPECT_TRUE(f.graph);
  EXPECT_TRUE(f.minus);
}

TEST(FeaturesTest, SingleTripleHasNoAnd) {
  QueryFeatures f = Features("SELECT * WHERE { ?x <p> ?y }");
  EXPECT_FALSE(f.conj);
  EXPECT_EQ(f.opset, 0);
}

TEST(FeaturesTest, OptionalAloneIsNotAnd) {
  // {t OPTIONAL {t'}} translates to LeftJoin, not Join.
  QueryFeatures f = Features(
      "SELECT * WHERE { ?x <p> ?y OPTIONAL { ?x <q> ?z } }");
  EXPECT_FALSE(f.conj);
  EXPECT_TRUE(f.optional);
  EXPECT_EQ(f.opset, QueryFeatures::kOpO);
}

TEST(FeaturesTest, ExistsVsNotExists) {
  QueryFeatures f = Features(
      "SELECT * WHERE { ?x <p> ?y FILTER EXISTS { ?x <q> ?z } }");
  EXPECT_TRUE(f.exists);
  EXPECT_FALSE(f.not_exists);
  f = Features(
      "SELECT * WHERE { ?x <p> ?y FILTER NOT EXISTS { ?x <q> ?z } }");
  EXPECT_TRUE(f.not_exists);
}

TEST(FeaturesTest, AggregateFlags) {
  QueryFeatures f = Features(
      "SELECT (COUNT(*) AS ?c) (MAX(?v) AS ?m) (SUM(?v) AS ?s) WHERE "
      "{ ?x <p> ?v } GROUP BY ?x");
  EXPECT_TRUE(f.agg_count);
  EXPECT_TRUE(f.agg_max);
  EXPECT_TRUE(f.agg_sum);
  EXPECT_FALSE(f.agg_avg);
  EXPECT_TRUE(f.has_group_by);
}

TEST(FeaturesTest, TripleCountIncludesSubqueriesAndSugar) {
  QueryFeatures f = Features(
      "SELECT * WHERE { ?x <p> ?a , ?b { SELECT ?y WHERE { ?y <q> ?z . "
      "?z <r> ?w } } }");
  EXPECT_EQ(f.num_triples, 4);
}

TEST(FeaturesTest, PropertyPathFlags) {
  QueryFeatures f = Features("SELECT * WHERE { ?x <p>/<q> ?y }");
  EXPECT_TRUE(f.property_path);
  EXPECT_TRUE(f.navigational_path);
  f = Features("SELECT * WHERE { ?x !<p> ?y }");
  EXPECT_TRUE(f.property_path);
  EXPECT_FALSE(f.navigational_path);  // !a is trivial (Section 7)
}

TEST(FeaturesTest, VarPredicateFlag) {
  EXPECT_TRUE(Features("SELECT * WHERE { ?x ?p ?y }").var_predicate);
  EXPECT_FALSE(Features("SELECT * WHERE { ?x <p> ?y }").var_predicate);
}

// ---------------------------------------------------------------------------
// Operator sets (Table 3)
// ---------------------------------------------------------------------------

TEST(OperatorSetTest, ExactSets) {
  EXPECT_EQ(Features("SELECT * WHERE { ?x <p> ?y }").opset, 0);
  EXPECT_EQ(Features("SELECT * WHERE { ?x <p> ?y FILTER(?y > 1) }").opset,
            QueryFeatures::kOpF);
  EXPECT_EQ(Features("SELECT * WHERE { ?x <p> ?y . ?y <q> ?z }").opset,
            QueryFeatures::kOpA);
  EXPECT_EQ(
      Features("SELECT * WHERE { ?x <p> ?y . ?y <q> ?z FILTER(?z != 1) }")
          .opset,
      QueryFeatures::kOpA | QueryFeatures::kOpF);
  EXPECT_EQ(
      Features("SELECT * WHERE { { ?x <p> ?y } UNION { ?x <q> ?y } }").opset,
      QueryFeatures::kOpU);
  EXPECT_EQ(Features("SELECT * WHERE { GRAPH <g> { ?x <p> ?y } }").opset,
            QueryFeatures::kOpG);
}

TEST(OperatorSetTest, OtherFeaturesDetected) {
  EXPECT_TRUE(Features("SELECT * WHERE { ?x <p>* ?y }").opset_other);
  EXPECT_TRUE(Features(
      "SELECT * WHERE { ?x <p> ?y MINUS { ?x <q> <b> } }").opset_other);
  EXPECT_TRUE(Features(
      "SELECT * WHERE { ?x <p> ?y BIND(1 AS ?one) }").opset_other);
  EXPECT_TRUE(Features(
      "SELECT * WHERE { { SELECT ?x WHERE { ?x <p> ?y } } }").opset_other);
  EXPECT_FALSE(Features("SELECT * WHERE { ?x <p> ?y }").opset_other);
}

TEST(OperatorSetTest, DistributionAggregation) {
  OperatorSetDistribution dist;
  dist.Add(Features("SELECT * WHERE { ?x <p> ?y }"));
  dist.Add(Features("SELECT * WHERE { ?x <p> ?y FILTER(?y > 1) }"));
  dist.Add(Features("SELECT * WHERE { ?x <p> ?y . ?y <q> ?z }"));
  dist.Add(Features(
      "SELECT * WHERE { ?x <p> ?y . ?y <q> ?z FILTER(?z != 1) }"));
  dist.Add(Features("DESCRIBE <r>"));  // not Select/Ask: ignored
  EXPECT_EQ(dist.total, 4u);
  EXPECT_EQ(dist.CpfSubtotal(), 4u);
  EXPECT_EQ(dist.Exact(0), 1u);
  EXPECT_EQ(dist.Exact(QueryFeatures::kOpF), 1u);
}

TEST(OperatorSetTest, CpfPlusComputation) {
  OperatorSetDistribution dist;
  dist.Add(Features(
      "SELECT * WHERE { ?x <p> ?y OPTIONAL { ?x <q> ?z } }"));  // {O}
  dist.Add(Features(
      "SELECT * WHERE { ?x <p> ?y . ?y <q> ?z OPTIONAL { ?x <r> ?w } "
      "FILTER(?y != 2) }"));  // {A, O, F}
  EXPECT_EQ(dist.CpfPlus(QueryFeatures::kOpO), 2u);
  EXPECT_EQ(dist.CpfSubtotal(), 0u);
}

TEST(OperatorSetTest, NamesMatchPaperNotation) {
  EXPECT_EQ(OperatorSetName(0), "none");
  EXPECT_EQ(OperatorSetName(QueryFeatures::kOpF), "F");
  EXPECT_EQ(OperatorSetName(QueryFeatures::kOpA | QueryFeatures::kOpO |
                            QueryFeatures::kOpU | QueryFeatures::kOpF),
            "A, O, U, F");
}

// ---------------------------------------------------------------------------
// Projection (Section 4.4)
// ---------------------------------------------------------------------------

TEST(ProjectionTest, SelectStarNeverProjects) {
  EXPECT_EQ(Features("SELECT * WHERE { ?x <p> ?y }").projection,
            ProjectionUse::kNo);
}

TEST(ProjectionTest, FullSelectionDoesNotProject) {
  EXPECT_EQ(Features("SELECT ?x ?y WHERE { ?x <p> ?y }").projection,
            ProjectionUse::kNo);
}

TEST(ProjectionTest, DroppedVariableProjects) {
  EXPECT_EQ(Features("SELECT ?x WHERE { ?x <p> ?y }").projection,
            ProjectionUse::kYes);
}

TEST(ProjectionTest, FilterVariablesAreNotInScope) {
  // ?z only occurs in a FILTER: it is not an in-scope variable, so
  // selecting ?x ?y is complete.
  EXPECT_EQ(Features("SELECT ?x ?y WHERE { ?x <p> ?y FILTER(?y > 1) }")
                .projection,
            ProjectionUse::kNo);
}

TEST(ProjectionTest, AskWithVariablesProjects) {
  EXPECT_EQ(Features("ASK { ?x <p> ?y }").projection, ProjectionUse::kYes);
}

TEST(ProjectionTest, ConcreteAskDoesNotProject) {
  // Most Ask queries test a concrete triple (the paper's observation).
  EXPECT_EQ(Features("ASK { <s> <p> <o> }").projection, ProjectionUse::kNo);
}

TEST(ProjectionTest, BindMakesIndeterminate) {
  EXPECT_EQ(Features(
                "SELECT ?x WHERE { ?x <p> ?y BIND(STR(?y) AS ?s) }")
                .projection,
            ProjectionUse::kIndeterminate);
  EXPECT_EQ(Features("SELECT (1 AS ?one) WHERE { ?x <p> ?y }").projection,
            ProjectionUse::kIndeterminate);
}

TEST(ProjectionTest, DescribeAndConstructDoNotProject) {
  EXPECT_EQ(Features("DESCRIBE ?x WHERE { ?x <p> ?y }").projection,
            ProjectionUse::kNo);
  EXPECT_EQ(Features("CONSTRUCT WHERE { ?s <p> ?o }").projection,
            ProjectionUse::kNo);
}

TEST(ProjectionTest, MinusBodyNotInScope) {
  // Variables bound only inside MINUS are not visible to projection.
  EXPECT_EQ(Features(
                "SELECT ?x ?y WHERE { ?x <p> ?y MINUS { ?x <q> ?z } }")
                .projection,
            ProjectionUse::kNo);
}

TEST(ProjectionTest, SubSelectScoping) {
  // Only the subquery's selected variables are in scope outside.
  EXPECT_EQ(Features("SELECT ?y WHERE { { SELECT ?y WHERE "
                     "{ ?y <q> ?z } } }")
                .projection,
            ProjectionUse::kNo);
  EXPECT_EQ(Features("SELECT ?y WHERE { ?y <p> ?w { SELECT ?y WHERE "
                     "{ ?y <q> ?z } } }")
                .projection,
            ProjectionUse::kYes);  // drops ?w
}

}  // namespace
}  // namespace sparqlog::analysis
