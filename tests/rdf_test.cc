#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "rdf/dictionary.h"
#include "rdf/term.h"
#include "util/vbyte.h"

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

TEST(DictionaryTest, InternIsIdempotentAndDense) {
  // Distinct terms get distinct dense ids, each interned once.
  Dictionary d;
  d.Intern("hello");
  TermId w = d.Intern("wikidata");
  TermId p = d.Intern("dbpedia");
  EXPECT_EQ(d.Intern("wikidata"), w);
  EXPECT_EQ(d.Intern("dbpedia"), p);
  EXPECT_NE(w, p);
  EXPECT_EQ(d.size(), 3u);
  ASSERT_NE(d.term(w), nullptr);
  EXPECT_EQ(*d.term(w), "wikidata");
  EXPECT_EQ(d.term(99), nullptr);
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
  ASSERT_NE(d.term(a), nullptr);
  ASSERT_NE(d.term(b), nullptr);
  EXPECT_EQ(*d.term(a), "alpha");
  EXPECT_EQ(*d.term(b), "beta");
}

TEST(DictionaryTest, ReservedAndUnassignedIdsHaveNoTerm) {
  Dictionary d;
  EXPECT_EQ(d.term(0), nullptr);
  EXPECT_EQ(d.term(1), nullptr);
  d.Intern("alpha");
  d.Intern("beta");
  EXPECT_EQ(d.term(0), nullptr);
  EXPECT_EQ(d.term(d.size() + 1), nullptr);
  ASSERT_NE(d.term(d.size()), nullptr);
  EXPECT_EQ(*d.term(d.size()), "beta");
  // A snapshot word wider than TermId names no term; it must not wrap
  // onto a real id.
  EXPECT_EQ(d.term((uint64_t{1} << 32) + 1), nullptr);
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
    const std::string* term = d.term(ids[static_cast<size_t>(i)]);
    ASSERT_NE(term, nullptr);
    EXPECT_EQ(*term, "term-" + std::to_string(i));
    EXPECT_EQ(d.Lookup("term-" + std::to_string(i)),
              ids[static_cast<size_t>(i)]);
  }
  EXPECT_EQ(d.size(), 5000u);
}

TEST(DictionaryTest, EmptyStringIsInternable) {
  Dictionary d;
  TermId e = d.Intern("");
  EXPECT_NE(e, 0u);
  ASSERT_NE(d.term(e), nullptr);
  EXPECT_EQ(*d.term(e), "");
}

TEST(DictionaryTest, EncodeDecodeRoundTrip) {
  Dictionary dict;
  for (int i = 0; i < 50; ++i) {
    dict.Intern("term-" + std::to_string(i * 7 % 50));
  }
  std::string buf;
  dict.EncodeTo(buf);
  Dictionary loaded;
  std::string_view in = buf;
  ASSERT_TRUE(loaded.DecodeFrom(in));
  EXPECT_TRUE(in.empty());
  ASSERT_EQ(loaded.size(), dict.size());
  for (TermId id = 1; id <= dict.size(); ++id) {
    ASSERT_NE(loaded.term(id), nullptr);
    EXPECT_EQ(*loaded.term(id), *dict.term(id));
    EXPECT_EQ(loaded.Lookup(*dict.term(id)), id);
  }
  EXPECT_EQ(loaded.term(0), nullptr);
  EXPECT_EQ(loaded.term(loaded.size() + 1), nullptr);
}

TEST(DictionaryTest, DecodedIdsFollowEncodeOrder) {
  // The payload is a varint count, then length-prefixed terms; decoding
  // numbers them 1..n in that order, whatever order produced them.
  std::string buf;
  util::vbyte::PutVarint(buf, 3);
  for (const char* term : {"zeta", "alpha", "mu"}) {
    util::vbyte::PutLenPrefixed(buf, term);
  }
  Dictionary d;
  d.Intern("stale");  // replaced by the decode
  std::string_view in = buf;
  ASSERT_TRUE(d.DecodeFrom(in));
  EXPECT_EQ(d.size(), 3u);
  EXPECT_EQ(d.Lookup("zeta"), 1u);
  EXPECT_EQ(d.Lookup("alpha"), 2u);
  EXPECT_EQ(d.Lookup("mu"), 3u);
  EXPECT_EQ(d.Lookup("stale"), 0u);
  // Re-encoding reproduces the payload byte for byte.
  std::string again;
  d.EncodeTo(again);
  EXPECT_EQ(again, buf);
}

TEST(DictionaryTest, DecodeRejectsTruncationAndDuplicates) {
  Dictionary dict;
  dict.Intern("alpha");
  dict.Intern("beta");
  std::string buf;
  dict.EncodeTo(buf);
  for (size_t cut = 0; cut + 1 < buf.size(); ++cut) {
    Dictionary d;
    std::string_view in(buf.data(), cut);
    EXPECT_FALSE(d.DecodeFrom(in)) << "cut " << cut;
  }
  // Two identical terms cannot both intern to distinct dense ids.
  std::string dup;
  util::vbyte::PutVarint(dup, 2);
  util::vbyte::PutLenPrefixed(dup, "same");
  util::vbyte::PutLenPrefixed(dup, "same");
  Dictionary d;
  std::string_view in = dup;
  EXPECT_FALSE(d.DecodeFrom(in));
}

}  // namespace
}  // namespace sparqlog::rdf
