#include <gtest/gtest.h>

#include "rdf/dictionary.h"
#include "rdf/term.h"

namespace sparqlog::rdf {
namespace {

TEST(TermTest, Constructors) {
  EXPECT_TRUE(Term::Iri("http://a").is_iri());
  EXPECT_TRUE(Term::Literal("x").is_literal());
  EXPECT_TRUE(Term::Blank("b").is_blank());
  EXPECT_TRUE(Term::Var("v").is_variable());
}

TEST(TermTest, UnknownVsConstant) {
  EXPECT_TRUE(Term::Var("v").is_unknown());
  EXPECT_TRUE(Term::Blank("b").is_unknown());
  EXPECT_FALSE(Term::Iri("i").is_unknown());
  EXPECT_TRUE(Term::Iri("i").is_constant());
  EXPECT_TRUE(Term::Literal("l").is_constant());
}

TEST(TermTest, ToStringForms) {
  EXPECT_EQ(Term::Iri("http://a").ToString(), "<http://a>");
  EXPECT_EQ(Term::Var("x").ToString(), "?x");
  EXPECT_EQ(Term::Blank("b1").ToString(), "_:b1");
  EXPECT_EQ(Term::Literal("hi").ToString(), "\"hi\"");
  EXPECT_EQ(Term::Literal("hi", "", "en").ToString(), "\"hi\"@en");
  EXPECT_EQ(Term::Literal("1", "http://int").ToString(),
            "\"1\"^^<http://int>");
}

TEST(TermTest, LiteralEscaping) {
  EXPECT_EQ(Term::Literal("a\"b\\c\nd").ToString(),
            "\"a\\\"b\\\\c\\nd\"");
}

TEST(TermTest, EqualityAndOrdering) {
  EXPECT_EQ(Term::Var("x"), Term::Var("x"));
  EXPECT_NE(Term::Var("x"), Term::Iri("x"));
  EXPECT_NE(Term::Literal("x", "", "en"), Term::Literal("x", "", "de"));
  EXPECT_TRUE(Term::Iri("a") < Term::Literal("a") ||
              Term::Literal("a") < Term::Iri("a"));
}

TEST(DictionaryTest, InternIsIdempotent) {
  Dictionary d;
  TermId a = d.Intern("hello");
  TermId b = d.Intern("hello");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, 0u);
  EXPECT_EQ(d.size(), 1u);
}

TEST(DictionaryTest, LookupMissingReturnsZero) {
  Dictionary d;
  EXPECT_EQ(d.Lookup("absent"), 0u);
  d.Intern("present");
  EXPECT_NE(d.Lookup("present"), 0u);
}

TEST(DictionaryTest, ResolveRoundTrip) {
  Dictionary d;
  TermId a = d.Intern("alpha");
  TermId b = d.Intern("beta");
  EXPECT_EQ(d.Resolve(a), "alpha");
  EXPECT_EQ(d.Resolve(b), "beta");
}

TEST(DictionaryTest, SurvivesRehash) {
  // Force many insertions of short (SSO-sized) terms so the backing
  // store and the index grow many times; all ids and lookups must stay
  // valid.
  Dictionary d;
  std::vector<TermId> ids;
  for (int i = 0; i < 5000; ++i) {
    ids.push_back(d.Intern("term-" + std::to_string(i)));
  }
  for (int i = 0; i < 5000; ++i) {
    EXPECT_EQ(d.Resolve(ids[static_cast<size_t>(i)]),
              "term-" + std::to_string(i));
    EXPECT_EQ(d.Lookup("term-" + std::to_string(i)),
              ids[static_cast<size_t>(i)]);
  }
  EXPECT_EQ(d.size(), 5000u);
}

TEST(DictionaryTest, EmptyStringIsInternable) {
  Dictionary d;
  TermId e = d.Intern("");
  EXPECT_NE(e, 0u);
  EXPECT_EQ(d.Resolve(e), "");
}

}  // namespace
}  // namespace sparqlog::rdf
