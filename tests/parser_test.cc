#include <gtest/gtest.h>

#include "sparql/parser.h"
#include "sparql/serializer.h"

namespace sparqlog::sparql {
namespace {

Query MustParse(std::string_view text) {
  auto r = ParseQuery(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString() << "\nquery: " << text;
  return r.ok() ? std::move(r).value() : Query{};
}

// ---------------------------------------------------------------------------
// Query forms
// ---------------------------------------------------------------------------

TEST(ParserTest, SelectStar) {
  Query q = MustParse("SELECT * WHERE { ?s ?p ?o }");
  EXPECT_EQ(q.form, QueryForm::kSelect);
  EXPECT_TRUE(q.select_star);
  ASSERT_TRUE(q.has_body);
  std::vector<const TriplePattern*> triples;
  q.where.CollectTriples(triples);
  ASSERT_EQ(triples.size(), 1u);
  EXPECT_TRUE(triples[0]->subject.is_variable());
  EXPECT_TRUE(triples[0]->has_variable_predicate());
}

TEST(ParserTest, SelectDistinctVars) {
  Query q = MustParse("SELECT DISTINCT ?a ?b WHERE { ?a <p> ?b }");
  EXPECT_TRUE(q.distinct);
  ASSERT_EQ(q.select_items.size(), 2u);
  EXPECT_EQ(q.select_items[0].var.value, "a");
}

TEST(ParserTest, SelectReduced) {
  Query q = MustParse("SELECT REDUCED ?a WHERE { ?a <p> ?b }");
  EXPECT_TRUE(q.reduced);
}

TEST(ParserTest, SelectExpressionAs) {
  Query q = MustParse(
      "SELECT (COUNT(*) AS ?c) (?x + 1 AS ?y) WHERE { ?x <p> ?o }");
  ASSERT_EQ(q.select_items.size(), 2u);
  ASSERT_TRUE(q.select_items[0].expr.has_value());
  EXPECT_EQ(q.select_items[0].expr->kind, ExprKind::kAggregate);
  EXPECT_TRUE(q.select_items[0].expr->star);
}

TEST(ParserTest, AskQuery) {
  Query q = MustParse("ASK { <s> <p> <o> }");
  EXPECT_EQ(q.form, QueryForm::kAsk);
  EXPECT_TRUE(q.BodyVariables().empty());
}

TEST(ParserTest, ConstructFullForm) {
  Query q = MustParse(
      "CONSTRUCT { ?s <made> ?o } WHERE { ?s <p> ?o }");
  EXPECT_EQ(q.form, QueryForm::kConstruct);
  ASSERT_EQ(q.construct_template.size(), 1u);
  EXPECT_EQ(q.construct_template[0].predicate.value, "made");
}

TEST(ParserTest, ConstructShortForm) {
  Query q = MustParse("CONSTRUCT WHERE { ?s <p> ?o }");
  ASSERT_EQ(q.construct_template.size(), 1u);
  EXPECT_TRUE(q.has_body);
}

TEST(ParserTest, DescribeWithoutBody) {
  Query q = MustParse("DESCRIBE <http://ex/r>");
  EXPECT_EQ(q.form, QueryForm::kDescribe);
  EXPECT_FALSE(q.has_body);
  ASSERT_EQ(q.describe_targets.size(), 1u);
}

TEST(ParserTest, DescribeWithBodyAndVar) {
  Query q = MustParse("DESCRIBE ?x WHERE { ?x <p> <o> }");
  EXPECT_TRUE(q.has_body);
  EXPECT_TRUE(q.describe_targets[0].is_variable());
}

TEST(ParserTest, UpdateRequestsRejectedAsUnsupported) {
  for (const char* update :
       {"INSERT DATA { <a> <b> <c> }", "DELETE WHERE { ?s ?p ?o }",
        "CLEAR GRAPH <g>", "LOAD <remote>", "DROP ALL",
        "WITH <g> DELETE { ?s ?p ?o } WHERE { ?s ?p ?o }"}) {
    auto r = ParseQuery(update);
    ASSERT_FALSE(r.ok()) << update;
    EXPECT_EQ(r.status().code(), util::StatusCode::kUnsupported) << update;
  }
}

// ---------------------------------------------------------------------------
// Prologue and IRIs
// ---------------------------------------------------------------------------

TEST(ParserTest, PrefixExpansion) {
  Query q = MustParse(
      "PREFIX ex: <http://ex.org/> SELECT * WHERE { ex:s ex:p ex:o }");
  std::vector<const TriplePattern*> triples;
  q.where.CollectTriples(triples);
  EXPECT_EQ(triples[0]->subject.value, "http://ex.org/s");
}

TEST(ParserTest, DefaultPrefixesAvailable) {
  Query q = MustParse("SELECT * WHERE { ?x rdf:type foaf:Person }");
  std::vector<const TriplePattern*> triples;
  q.where.CollectTriples(triples);
  EXPECT_EQ(triples[0]->predicate.value,
            "http://www.w3.org/1999/02/22-rdf-syntax-ns#type");
  EXPECT_EQ(triples[0]->object.value, "http://xmlns.com/foaf/0.1/Person");
}

TEST(ParserTest, UndeclaredPrefixFails) {
  auto r = ParseQuery("SELECT * WHERE { ?x zzz:foo ?y }");
  EXPECT_FALSE(r.ok());
}

TEST(ParserTest, AKeywordIsRdfType) {
  Query q = MustParse("SELECT * WHERE { ?x a <C> }");
  std::vector<const TriplePattern*> triples;
  q.where.CollectTriples(triples);
  EXPECT_EQ(triples[0]->predicate.value,
            "http://www.w3.org/1999/02/22-rdf-syntax-ns#type");
}

// ---------------------------------------------------------------------------
// Triples block sugar
// ---------------------------------------------------------------------------

TEST(ParserTest, SemicolonAndCommaSugar) {
  Query q = MustParse(
      "SELECT * WHERE { ?x <p1> ?a , ?b ; <p2> ?c . }");
  std::vector<const TriplePattern*> triples;
  q.where.CollectTriples(triples);
  ASSERT_EQ(triples.size(), 3u);
  EXPECT_EQ(triples[0]->object.value, "a");
  EXPECT_EQ(triples[1]->object.value, "b");
  EXPECT_EQ(triples[2]->predicate.value, "p2");
}

TEST(ParserTest, TrailingSemicolonTolerated) {
  MustParse("SELECT * WHERE { ?x <p> ?y ; . }");
}

TEST(ParserTest, BlankNodePropertyList) {
  Query q = MustParse(
      "SELECT * WHERE { ?x <knows> [ <name> ?n ; <age> ?a ] }");
  std::vector<const TriplePattern*> triples;
  q.where.CollectTriples(triples);
  // [..] introduces 2 triples plus the outer one.
  ASSERT_EQ(triples.size(), 3u);
  int blanks = 0;
  for (const TriplePattern* t : triples) {
    if (t->subject.is_blank() || t->object.is_blank()) ++blanks;
  }
  EXPECT_GE(blanks, 2);
}

TEST(ParserTest, BareBlankNodePropertyListAsTriple) {
  Query q = MustParse("SELECT * WHERE { [ <p> ?v ] }");
  std::vector<const TriplePattern*> triples;
  q.where.CollectTriples(triples);
  EXPECT_EQ(triples.size(), 1u);
}

TEST(ParserTest, Collections) {
  Query q = MustParse("SELECT * WHERE { ?x <list> ( 1 2 3 ) }");
  std::vector<const TriplePattern*> triples;
  q.where.CollectTriples(triples);
  // first/rest chain: 2 per element + outer triple.
  EXPECT_EQ(triples.size(), 7u);
}

TEST(ParserTest, EmptyCollectionIsRdfNil) {
  Query q = MustParse("SELECT * WHERE { ?x <list> () }");
  std::vector<const TriplePattern*> triples;
  q.where.CollectTriples(triples);
  ASSERT_EQ(triples.size(), 1u);
  EXPECT_EQ(triples[0]->object.value,
            "http://www.w3.org/1999/02/22-rdf-syntax-ns#nil");
}

TEST(ParserTest, LiteralForms) {
  Query q = MustParse(
      "SELECT * WHERE { ?x <p> \"lit\"@en . ?x <q> \"5\"^^xsd:int . "
      "?x <r> 3.14 . ?x <s> true . ?x <t> -7 }");
  std::vector<const TriplePattern*> triples;
  q.where.CollectTriples(triples);
  ASSERT_EQ(triples.size(), 5u);
  EXPECT_EQ(triples[0]->object.lang, "en");
  EXPECT_EQ(triples[1]->object.datatype,
            "http://www.w3.org/2001/XMLSchema#int");
  EXPECT_EQ(triples[3]->object.value, "true");
  EXPECT_EQ(triples[4]->object.value, "-7");
}

// ---------------------------------------------------------------------------
// Graph pattern operators
// ---------------------------------------------------------------------------

TEST(ParserTest, OptionalPattern) {
  Query q = MustParse(
      "SELECT * WHERE { ?x <p> ?y OPTIONAL { ?x <q> ?z } }");
  bool found = false;
  for (const Pattern& c : q.where.children()) {
    if (c.kind() == PatternKind::kOptional) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(ParserTest, UnionPattern) {
  Query q = MustParse(
      "SELECT * WHERE { { ?x <p> ?y } UNION { ?x <q> ?y } UNION "
      "{ ?x <r> ?y } }");
  ASSERT_EQ(q.where.children().size(), 1u);
  EXPECT_EQ(q.where.children()[0].kind(), PatternKind::kUnion);
  EXPECT_EQ(q.where.children()[0].children().size(), 3u);
}

TEST(ParserTest, MinusGraphServiceBindValues) {
  Query q = MustParse(
      "SELECT * WHERE { ?s <p> ?o MINUS { ?s <q> <bad> } "
      "GRAPH ?g { ?s <r> ?t } SERVICE SILENT <http://endpoint/> "
      "{ ?s <u> ?v } BIND(STR(?o) AS ?str) VALUES ?w { <a> <b> } }");
  int kinds[12] = {0};
  for (const Pattern& c : q.where.children()) {
    ++kinds[static_cast<int>(c.kind())];
  }
  EXPECT_EQ(kinds[static_cast<int>(PatternKind::kMinus)], 1);
  EXPECT_EQ(kinds[static_cast<int>(PatternKind::kGraph)], 1);
  EXPECT_EQ(kinds[static_cast<int>(PatternKind::kService)], 1);
  EXPECT_EQ(kinds[static_cast<int>(PatternKind::kBind)], 1);
  EXPECT_EQ(kinds[static_cast<int>(PatternKind::kValues)], 1);
}

TEST(ParserTest, SubSelect) {
  Query q = MustParse(
      "SELECT ?x WHERE { ?x <p> ?y { SELECT ?y WHERE { ?y <q> ?z } "
      "LIMIT 3 } }");
  bool found = false;
  for (const Pattern& c : q.where.children()) {
    if (c.kind() == PatternKind::kGroup) {
      for (const Pattern& gc : c.children()) {
        if (gc.kind() == PatternKind::kSubSelect) {
          found = true;
          EXPECT_EQ(gc.subquery().limit, 3u);
        }
      }
    }
    if (c.kind() == PatternKind::kSubSelect) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(ParserTest, MultiVarValues) {
  Query q = MustParse(
      "SELECT * WHERE { ?x <p> ?y } VALUES (?x ?y) { (<a> 1) (UNDEF 2) }");
  ASSERT_TRUE(q.trailing_values.has_value());
  EXPECT_EQ(q.trailing_values->values().vars.size(), 2u);
  ASSERT_EQ(q.trailing_values->values().rows.size(), 2u);
  EXPECT_FALSE(q.trailing_values->values().rows[1][0].has_value());  // UNDEF
}

// ---------------------------------------------------------------------------
// Filters and expressions
// ---------------------------------------------------------------------------

TEST(ParserTest, FilterPrecedence) {
  Query q = MustParse(
      "SELECT * WHERE { ?x <p> ?y FILTER(?y > 1 && ?y < 5 || !BOUND(?x)) }");
  const Pattern* filter = nullptr;
  for (const Pattern& c : q.where.children()) {
    if (c.kind() == PatternKind::kFilter) filter = &c;
  }
  ASSERT_NE(filter, nullptr);
  EXPECT_EQ(filter->expr().kind, ExprKind::kOr);
  ASSERT_EQ(filter->expr().args.size(), 2u);
  EXPECT_EQ(filter->expr().args[0].kind, ExprKind::kAnd);
  EXPECT_EQ(filter->expr().args[1].kind, ExprKind::kNot);
}

TEST(ParserTest, ArithmeticPrecedence) {
  Query q = MustParse("SELECT (1 + 2 * 3 AS ?v) WHERE { ?x <p> ?y }");
  const Expr& e = *q.select_items[0].expr;
  ASSERT_EQ(e.kind, ExprKind::kArith);
  EXPECT_EQ(e.op, "+");
  EXPECT_EQ(e.args[1].op, "*");
}

TEST(ParserTest, InAndNotIn) {
  Query q = MustParse(
      "SELECT * WHERE { ?x <p> ?y FILTER(?y IN (1, 2) && "
      "?x NOT IN (<a>)) }");
  const Pattern* filter = nullptr;
  for (const Pattern& c : q.where.children()) {
    if (c.kind() == PatternKind::kFilter) filter = &c;
  }
  ASSERT_NE(filter, nullptr);
  EXPECT_EQ(filter->expr().args[0].kind, ExprKind::kIn);
  EXPECT_EQ(filter->expr().args[1].kind, ExprKind::kNotIn);
}

TEST(ParserTest, ExistsAndNotExists) {
  Query q = MustParse(
      "SELECT * WHERE { ?x <p> ?y FILTER EXISTS { ?x <q> ?z } "
      "FILTER NOT EXISTS { ?x <r> ?w } }");
  int exists = 0, not_exists = 0;
  for (const Pattern& c : q.where.children()) {
    if (c.kind() != PatternKind::kFilter) continue;
    if (c.expr().kind == ExprKind::kExists) ++exists;
    if (c.expr().kind == ExprKind::kNotExists) ++not_exists;
  }
  EXPECT_EQ(exists, 1);
  EXPECT_EQ(not_exists, 1);
}

TEST(ParserTest, BuiltinCalls) {
  MustParse(
      "SELECT * WHERE { ?x <p> ?y FILTER(REGEX(STR(?y), \"^A\", \"i\") || "
      "LANGMATCHES(LANG(?y), \"en\") || ISIRI(?x) || "
      "CONTAINS(UCASE(?y), \"Z\")) }");
}

TEST(ParserTest, AggregatesFull) {
  Query q = MustParse(
      "SELECT (SUM(?v) AS ?s) (AVG(DISTINCT ?v) AS ?a) "
      "(GROUP_CONCAT(?n; SEPARATOR=\",\") AS ?g) WHERE { ?x <p> ?v ; "
      "<n> ?n } GROUP BY ?x HAVING (SUM(?v) > 10)");
  EXPECT_EQ(q.select_items[1].expr->distinct, true);
  EXPECT_EQ(q.select_items[2].expr->separator, ",");
  EXPECT_EQ(q.group_by.size(), 1u);
  EXPECT_EQ(q.having.size(), 1u);
}

// ---------------------------------------------------------------------------
// Solution modifiers
// ---------------------------------------------------------------------------

TEST(ParserTest, SolutionModifiersAllForms) {
  Query q = MustParse(
      "SELECT * WHERE { ?x <p> ?y } ORDER BY DESC(?y) ?x LIMIT 10 OFFSET 5");
  ASSERT_EQ(q.order_by.size(), 2u);
  EXPECT_TRUE(q.order_by[0].descending);
  EXPECT_FALSE(q.order_by[1].descending);
  EXPECT_EQ(q.limit, 10u);
  EXPECT_EQ(q.offset, 5u);
}

TEST(ParserTest, OffsetBeforeLimit) {
  Query q = MustParse("SELECT * WHERE { ?x <p> ?y } OFFSET 2 LIMIT 4");
  EXPECT_EQ(q.limit, 4u);
  EXPECT_EQ(q.offset, 2u);
}

TEST(ParserTest, DatasetClauses) {
  Query q = MustParse(
      "SELECT * FROM <http://g1> FROM NAMED <http://g2> WHERE { ?s ?p ?o }");
  ASSERT_EQ(q.dataset.size(), 2u);
  EXPECT_FALSE(q.dataset[0].named);
  EXPECT_TRUE(q.dataset[1].named);
}

// ---------------------------------------------------------------------------
// Property paths
// ---------------------------------------------------------------------------

TEST(ParserTest, PropertyPathForms) {
  Query q = MustParse(
      "SELECT * WHERE { ?a <p>/<q> ?b . ?a <p>|<q> ?c . ?a ^<p> ?d . "
      "?a <p>* ?e . ?a <p>+ ?f . ?a <p>? ?g . ?a !(<p>|^<q>) ?h . "
      "?a (<p>/<q>)* ?i }");
  std::vector<const TriplePattern*> triples;
  q.where.CollectTriples(triples);
  ASSERT_EQ(triples.size(), 8u);
  EXPECT_EQ(triples[0]->path().kind, PathKind::kSeq);
  EXPECT_EQ(triples[1]->path().kind, PathKind::kAlt);
  EXPECT_EQ(triples[2]->path().kind, PathKind::kInverse);
  EXPECT_EQ(triples[3]->path().kind, PathKind::kZeroOrMore);
  EXPECT_EQ(triples[4]->path().kind, PathKind::kOneOrMore);
  EXPECT_EQ(triples[5]->path().kind, PathKind::kZeroOrOne);
  EXPECT_EQ(triples[6]->path().kind, PathKind::kNegated);
  EXPECT_EQ(triples[6]->path().children.size(), 2u);
  EXPECT_EQ(triples[7]->path().kind, PathKind::kZeroOrMore);
  EXPECT_EQ(triples[7]->path().children[0].kind, PathKind::kSeq);
}

TEST(ParserTest, BareIriPathIsPlainTriple) {
  Query q = MustParse("SELECT * WHERE { ?a <p> ?b }");
  std::vector<const TriplePattern*> triples;
  q.where.CollectTriples(triples);
  EXPECT_FALSE(triples[0]->has_path());
}

TEST(ParserTest, WikidataExampleFromPaper) {
  // The "Locations of archaeological sites" query from Section 3.
  Query q = MustParse(
      "SELECT ?label ?coord ?subj WHERE "
      "{ ?subj wdt:P31/wdt:P279* wd:Q839954 . ?subj wdt:P625 ?coord . "
      "?subj rdfs:label ?label filter(lang(?label)=\"en\") }");
  std::vector<const TriplePattern*> triples;
  q.where.CollectTriples(triples);
  ASSERT_EQ(triples.size(), 3u);
  EXPECT_TRUE(triples[0]->has_path());
  EXPECT_EQ(q.select_items.size(), 3u);
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

TEST(ParserTest, SyntaxErrors) {
  for (const char* bad :
       {"SELECT", "SELECT * WHERE { ?x", "SELECT WHERE { ?x <p> ?y }",
        "ASK { ?x <p> }", "SELECT * WHERE { ?x <p> ?y } LIMIT ?x",
        "SELECT * WHERE { FILTER } ", "FOO BAR", "",
        "SELECT * WHERE { ?x <p> ?y } UNION { ?x <q> ?y }",
        "SELECT ?x WHERE { { ?x <p> ?y }", "PREFIX : SELECT * WHERE {}"}) {
    EXPECT_FALSE(ParseQuery(bad).ok()) << bad;
  }
}

TEST(ParserTest, MalformedWikidataQueryFromPaper) {
  // "Public Art in Paris" was malformed: missing closing braces and a
  // bad aggregate (footnote 8).
  auto r = ParseQuery(
      "SELECT ?item (COUNT() AS ?c WHERE { ?item wdt:P31 wd:Q838948 ");
  EXPECT_FALSE(r.ok());
}

TEST(ParserTest, EmptyGroupIsValid) {
  Query q = MustParse("SELECT * WHERE { }");
  EXPECT_TRUE(q.has_body);
  EXPECT_TRUE(q.where.children().empty());
}

// ---------------------------------------------------------------------------
// Deep-copy semantics of the out-of-line AST payloads
// ---------------------------------------------------------------------------

// Regression: Expr and Pattern hold their recursive payloads (EXISTS
// pattern, subquery) out of line. The copy path must clone the payload,
// not alias it — an aliasing copy lets a mutation of the copy (the
// shrinker does this constantly) silently rewrite the original.

TEST(ParserTest, CopiedExistsPatternIsIndependent) {
  Query q = MustParse(
      "SELECT * WHERE { ?x <p> ?y FILTER EXISTS { ?x <q> ?y } }");
  const std::string before = Serialize(q);

  Query copy = q;
  // Find the FILTER child and gut its EXISTS payload.
  ASSERT_TRUE(copy.has_body);
  Pattern* filter = nullptr;
  for (Pattern& child : copy.where.children()) {
    if (child.kind() == PatternKind::kFilter) filter = &child;
  }
  ASSERT_NE(filter, nullptr);
  ASSERT_EQ(filter->expr().kind, ExprKind::kExists);
  ASSERT_NE(filter->expr().pattern, nullptr);
  ASSERT_NE(filter->expr().pattern, q.where.children().back().expr().pattern)
      << "copy aliases the original EXISTS payload";
  filter->expr().pattern->SetChildren({});

  EXPECT_EQ(Serialize(q), before)
      << "mutating the copy's EXISTS pattern changed the original";
  EXPECT_NE(Serialize(copy), before);
}

TEST(ParserTest, CopiedSubqueryIsIndependent) {
  Query q = MustParse(
      "SELECT ?x WHERE { ?x <p> ?y { SELECT ?y WHERE { ?y <q> ?z } "
      "LIMIT 3 } }");
  const std::string before = Serialize(q);

  Query copy = q;
  ASSERT_TRUE(copy.has_body);
  Pattern* sub = nullptr;
  for (Pattern& child : copy.where.children()) {
    if (child.kind() == PatternKind::kSubSelect) sub = &child;
  }
  ASSERT_NE(sub, nullptr);
  for (const Pattern& child : q.where.children()) {
    if (child.kind() == PatternKind::kSubSelect) {
      ASSERT_NE(&sub->subquery(), &child.subquery())
          << "copy aliases the original subquery payload";
    }
  }
  sub->subquery().limit = 99;
  sub->subquery().where.SetChildren({});

  EXPECT_EQ(Serialize(q), before)
      << "mutating the copy's subquery changed the original";
  EXPECT_NE(Serialize(copy), before);
}

// ---------------------------------------------------------------------------
// Recursion depth cap
// ---------------------------------------------------------------------------

std::string Nested(const char* open, const char* body, const char* close,
                   int depth) {
  std::string s = "ASK ";
  for (int i = 0; i < depth; ++i) s += open;
  s += body;
  for (int i = 0; i < depth; ++i) s += close;
  return s;
}

TEST(ParserTest, RecursionCapRejectsDeepGroupNesting) {
  Parser parser;
  // Well beyond the default cap: each '{' is one recursion frame. The
  // pre-cap parser overran the C++ stack here (a crash containment
  // cannot catch); now it is an ordinary parse error.
  auto deep = parser.Parse(Nested("{", "?s ?p ?o", "}", 100000));
  ASSERT_FALSE(deep.ok());
  EXPECT_EQ(deep.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(deep.status().message().find("maximum depth"), std::string::npos);
}

TEST(ParserTest, RecursionCapRejectsDeepExpressionAndNodeNesting) {
  Parser parser;
  // Parenthesized expressions recurse through ParsePrimaryExpression.
  std::string expr = "ASK { ?s ?p ?o FILTER(";
  for (int i = 0; i < 100000; ++i) expr += "(";
  expr += "1";
  auto deep_expr = parser.Parse(expr);
  ASSERT_FALSE(deep_expr.ok());
  EXPECT_EQ(deep_expr.status().code(), util::StatusCode::kInvalidArgument);

  // Blank-node property lists recurse through ParseVarOrTermOrNode.
  std::string bnodes = "ASK { ";
  for (int i = 0; i < 100000; ++i) bnodes += "[ <p:p> ";
  auto deep_bnode = parser.Parse(bnodes);
  ASSERT_FALSE(deep_bnode.ok());
  EXPECT_EQ(deep_bnode.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(ParserTest, RecursionCapLeavesRealisticNestingAlone) {
  Parser parser;
  // Deeply nested but within the cap: parses fine.
  auto ok = parser.Parse(Nested("{", "?s ?p ?o", "}", 100));
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();

  // Each '{' is one frame and the innermost subject term one more, so
  // kMaxRecursionDepth - 1 braces is the deepest nesting that parses.
  const int cap = Parser::kMaxRecursionDepth;
  auto accepted = parser.Parse(Nested("{", "?s ?p ?o", "}", cap - 1));
  EXPECT_TRUE(accepted.ok()) << accepted.status().ToString();
  auto rejected = parser.Parse(Nested("{", "?s ?p ?o", "}", cap));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), util::StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace sparqlog::sparql
