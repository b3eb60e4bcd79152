#include <gtest/gtest.h>

#include <cctype>
#include <set>
#include <string>
#include <vector>

#include "corpus/ingest.h"
#include "sparql/parser.h"
#include "sparql/serializer.h"
#include "sparql/termgen.h"
#include "testing/invariants.h"
#include "testing/log_mutator.h"
#include "testing/query_fuzzer.h"
#include "testing/shrink.h"
#include "util/rng.h"

namespace sparqlog::testing {
namespace {

// ---------------------------------------------------------------------------
// Term/escape generation hooks (sparql::termgen).
// ---------------------------------------------------------------------------

TEST(TermGenTest, Deterministic) {
  util::Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(sparql::termgen::RandomTerm(a).value,
              sparql::termgen::RandomTerm(b).value);
  }
}

TEST(TermGenTest, IriStringsStayInsideTheIrirefAlphabet) {
  util::Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    std::string iri = sparql::termgen::IriString(rng);
    for (char c : iri) {
      unsigned char u = static_cast<unsigned char>(c);
      EXPECT_GT(u, 0x20u) << "control byte in IRI";
      EXPECT_EQ(std::string_view("<>\"{}|^`\\").find(c),
                std::string_view::npos)
          << "lexer-rejected byte in IRI: " << c;
    }
  }
}

TEST(TermGenTest, LiteralBodiesCoverTheSerializerEscapeSet) {
  util::Rng rng(11);
  std::set<char> seen;
  for (int i = 0; i < 5000; ++i) {
    for (char c : sparql::termgen::LiteralBody(rng, 0.5)) {
      if (sparql::termgen::EscapedLiteralChars().find(c) !=
          std::string_view::npos) {
        seen.insert(c);
      }
    }
  }
  // Every character the serializer escapes must be generated, or an
  // escaping bug in one of them could never be caught.
  EXPECT_EQ(seen.size(), sparql::termgen::EscapedLiteralChars().size());
}

TEST(TermGenTest, VariableNamesAlwaysLex) {
  util::Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    std::string name = sparql::termgen::VariableName(rng);
    ASSERT_FALSE(name.empty());
    for (char c : name) {
      EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(c)) || c == '_');
    }
  }
}

// ---------------------------------------------------------------------------
// Query fuzzer.
// ---------------------------------------------------------------------------

TEST(QueryFuzzerTest, DeterministicSequence) {
  QueryFuzzOptions options;
  options.seed = 123;
  QueryFuzzer a(options), b(options);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(sparql::Serialize(a.Next()), sparql::Serialize(b.Next()));
  }
}

TEST(QueryFuzzerTest, DifferentSeedsDiverge) {
  QueryFuzzOptions oa, ob;
  oa.seed = 1;
  ob.seed = 2;
  QueryFuzzer a(oa), b(ob);
  bool diverged = false;
  for (int i = 0; i < 20 && !diverged; ++i) {
    diverged = sparql::Serialize(a.Next()) != sparql::Serialize(b.Next());
  }
  EXPECT_TRUE(diverged);
}

TEST(QueryFuzzerTest, CoversEveryOperatorPathClassFormAndShape) {
  QueryFuzzOptions options;
  options.seed = 99;
  QueryFuzzer fuzzer(options);
  for (int i = 0; i < 3000; ++i) fuzzer.Next();
  const FuzzCoverage& cov = fuzzer.coverage();
  for (size_t i = 0; i < cov.forms.size(); ++i) {
    EXPECT_GT(cov.forms[i], 0u) << "query form " << i << " never generated";
  }
  for (size_t i = 0; i < cov.patterns.size(); ++i) {
    EXPECT_GT(cov.patterns[i], 0u) << "pattern kind " << i
                                   << " never generated";
  }
  for (size_t i = 0; i < cov.paths.size(); ++i) {
    EXPECT_GT(cov.paths[i], 0u) << "path kind " << i << " never generated";
  }
  for (size_t i = 0; i < cov.exprs.size(); ++i) {
    EXPECT_GT(cov.exprs[i], 0u) << "expr kind " << i << " never generated";
  }
  for (size_t i = 0; i < cov.terms.size(); ++i) {
    EXPECT_GT(cov.terms[i], 0u) << "term kind " << i << " never generated";
  }
  for (size_t i = 0; i < cov.shapes.size(); ++i) {
    EXPECT_GT(cov.shapes[i], 0u) << "gmark shape " << i << " never used";
  }
  EXPECT_GT(cov.escaped_literals, 0u);
  EXPECT_GT(cov.gmark_skeletons, 0u);
}

TEST(QueryFuzzerTest, GeneratedQueriesSatisfyAllInvariants) {
  QueryFuzzOptions options;
  options.seed = 2026;
  QueryFuzzer fuzzer(options);
  sparql::Parser parser;
  for (int i = 0; i < 500; ++i) {
    sparql::Query q = fuzzer.Next();
    auto violation = CheckQuery(parser, q);
    ASSERT_FALSE(violation.has_value())
        << violation->invariant << ": " << violation->detail << "\n"
        << violation->input;
  }
}

// ---------------------------------------------------------------------------
// Log-line mutator.
// ---------------------------------------------------------------------------

TEST(LogMutatorTest, EncodeLineDecodesBackExactly) {
  LogMutatorOptions options;
  options.seed = 17;
  LogLineMutator mutator(options);
  const std::string text = "SELECT * WHERE { ?s ?p \"100% of a&b + c\" }";
  for (int i = 0; i < 200; ++i) {
    std::string line = mutator.EncodeLine(text);
    std::string decode_buf;
    auto extracted = corpus::ExtractQueryText(line, decode_buf);
    ASSERT_TRUE(extracted.has_value());
    EXPECT_EQ(*extracted, text) << line;
  }
}

TEST(LogMutatorTest, Deterministic) {
  LogMutatorOptions options;
  options.seed = 4;
  LogLineMutator a(options), b(options);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextLine("ASK { ?s ?p ?o }"), b.NextLine("ASK { ?s ?p ?o }"));
  }
}

TEST(LogMutatorTest, MutatedLinesSatisfyIngestInvariants) {
  LogMutatorOptions options;
  options.seed = 31337;
  LogLineMutator mutator(options);
  sparql::Parser parser;
  const char* texts[] = {
      "SELECT * WHERE { ?s ?p ?o }",
      "ASK { <a> <b> \"esc\\\"aped\\n\" }",
      "PREFIX foaf: <http://xmlns.com/foaf/0.1/> SELECT ?n WHERE { ?p "
      "foaf:name ?n } LIMIT 10",
  };
  for (int i = 0; i < 600; ++i) {
    std::string line = mutator.NextLine(texts[i % 3]);
    auto violation = CheckLogLine(parser, line);
    ASSERT_FALSE(violation.has_value())
        << violation->invariant << ": " << violation->detail << "\n"
        << violation->input;
  }
}

// ---------------------------------------------------------------------------
// Invariant checks flag real divergence (sanity that they can fail).
// ---------------------------------------------------------------------------

TEST(InvariantsTest, FixtureQueriesPass) {
  sparql::Parser parser;
  EXPECT_FALSE(CheckQueryText(parser, "SELECT * WHERE { ?s ?p ?o }"));
  EXPECT_FALSE(CheckQueryText(parser, "ASK { ?s <p:p> \"a\\\"b\\nc\" }"));
  EXPECT_FALSE(CheckQueryText(parser, "not a query at all"));  // unparseable
}

TEST(InvariantsTest, ClosureViolationDetectedOnHandcraftedBadAst) {
  // An empty SELECT clause cannot be serialized into parseable text;
  // the checker must report it rather than crash or pass.
  sparql::Query q;
  q.form = sparql::QueryForm::kSelect;  // no items, no star
  q.has_body = true;
  q.where = sparql::Pattern::Group({});
  sparql::Parser parser;
  auto violation = CheckQuery(parser, q);
  ASSERT_TRUE(violation.has_value());
  EXPECT_EQ(violation->invariant, "serializer-closure");
}

TEST(InvariantsTest, LogLineFixturesPass) {
  sparql::Parser parser;
  EXPECT_FALSE(CheckLogLine(parser, "query=ASK%20%7B%20%3Fs%20%3Fp%20%3Fo%20%7D"));
  EXPECT_FALSE(CheckLogLine(parser, "query=broken%%%garbage"));
  EXPECT_FALSE(CheckLogLine(parser, "noise line without prefix"));
  EXPECT_FALSE(CheckLogLine(parser, "query="));
  EXPECT_FALSE(CheckLogLine(parser, std::string_view("\xff\xc0\x80", 3)));
}

// ---------------------------------------------------------------------------
// Serial-vs-parallel digest equivalence under randomized configs.
// ---------------------------------------------------------------------------

TEST(EquivalenceTest, RandomConfigsProduceIdenticalDigests) {
  QueryFuzzOptions fuzz_options;
  fuzz_options.seed = 6;
  QueryFuzzer fuzzer(fuzz_options);
  LogMutatorOptions mutator_options;
  mutator_options.seed = 6;
  LogLineMutator mutator(mutator_options);
  std::vector<std::string> texts;
  for (int i = 0; i < 16; ++i) {
    texts.push_back(sparql::Serialize(fuzzer.Next()));
  }
  util::Rng rng(6);
  std::vector<std::string> log;
  for (int i = 0; i < 400; ++i) {
    log.push_back(mutator.NextLine(texts[rng.Below(texts.size())]));
  }
  for (int round = 0; round < 4; ++round) {
    pipeline::PipelineOptions config = RandomEquivalenceConfig(rng);
    auto violation = CheckSerialParallelEquivalence(log, config);
    ASSERT_FALSE(violation.has_value())
        << violation->invariant << ": " << violation->detail;
  }
}

TEST(EquivalenceTest, ShardsDecoupledFromThreads) {
  std::vector<std::string> log = {
      "query=SELECT%20%2A%20WHERE%20%7B%20%3Fs%20%3Fp%20%3Fo%20%7D",
      "query=ASK%20%7B%20%3Ca%3E%20%3Cb%3E%20%3Cc%3E%20%7D",
      "query=SELECT%20%2A%20WHERE%20%7B%20%3Fs%20%3Fp%20%3Fo%20%7D",  // dup
      "noise",
  };
  for (size_t shards : {1u, 2u, 3u, 7u}) {
    pipeline::PipelineOptions config;
    config.threads = 2;
    config.shards = shards;
    config.chunk_size = 1;
    auto violation = CheckSerialParallelEquivalence(log, config);
    ASSERT_FALSE(violation.has_value())
        << "shards=" << shards << ": " << violation->detail;
  }
}

// ---------------------------------------------------------------------------
// Shrinking.
// ---------------------------------------------------------------------------

TEST(ShrinkTest, ReducesToThePlantedNeedle) {
  std::string haystack =
      "SELECT * WHERE { ?a ?b ?c . ?d ?e ?f . FILTER (?x = \"NEEDLE\") } "
      "LIMIT 100";
  auto fails = [](const std::string& s) {
    return s.find("NEEDLE") != std::string::npos;
  };
  ShrinkOutcome outcome = ShrinkText(haystack, fails);
  EXPECT_EQ(outcome.text, "NEEDLE");
  EXPECT_GT(outcome.accepted, 0);
}

TEST(ShrinkTest, PredicateNeverSeesAPassingAcceptedState) {
  // Every accepted intermediate must fail; final result must fail.
  auto fails = [](const std::string& s) { return s.size() >= 3; };
  ShrinkOutcome outcome = ShrinkText("abcdefghij", fails);
  EXPECT_EQ(outcome.text.size(), 3u);
}

TEST(ShrinkTest, AstShrinkerReducesToMinimalWitness) {
  // Plant a failure: any query whose canonical form mentions OPTIONAL.
  QueryFuzzOptions options;
  options.seed = 8;
  QueryFuzzer fuzzer(options);
  sparql::Query q;
  std::string s;
  do {
    q = fuzzer.Next();
    s = sparql::Serialize(q);
  } while (s.find("OPTIONAL") == std::string::npos || s.size() < 400);
  auto fails = [](const sparql::Query& cand) {
    return sparql::Serialize(cand).find("OPTIONAL") != std::string::npos;
  };
  AstShrinkOutcome outcome = ShrinkQueryAst(q, fails);
  std::string minimal = sparql::Serialize(outcome.query);
  EXPECT_NE(minimal.find("OPTIONAL"), std::string::npos);
  // ASK { OPTIONAL { } } plus formatting.
  EXPECT_LT(minimal.size(), 40u) << minimal;
}

TEST(ShrinkTest, AstShrinkerKeepsWellFormedness) {
  // Shrinking against "serializer-closure" must not fabricate a
  // violation out of a degenerate AST (e.g. a bare FILTER as the WHERE
  // root): on a healthy serializer the predicate is never true, so the
  // input must come back untouched.
  QueryFuzzOptions options;
  options.seed = 14;
  QueryFuzzer fuzzer(options);
  sparql::Query q = fuzzer.Next();
  sparql::Parser parser;
  auto fails = [&parser](const sparql::Query& cand) {
    auto v = CheckQuery(parser, cand);
    return v.has_value() && v->invariant == "serializer-closure";
  };
  AstShrinkOutcome outcome = ShrinkQueryAst(q, fails);
  EXPECT_EQ(outcome.accepted, 0);
  EXPECT_EQ(sparql::Serialize(outcome.query), sparql::Serialize(q));
}

TEST(ShrinkTest, CppStringLiteralEscapesEverything) {
  std::string weird = "a\"b\\c\nd\te\x01\xff g";
  std::string lit = CppStringLiteral(weird);
  EXPECT_EQ(lit,
            "\"a\\\"b\\\\c\\nd\\te\\001\\377 g\"");
}

TEST(ShrinkTest, ReproducersAreReadyToPaste) {
  std::string r = FormatReproducer("QuerySeed1Case2", "query",
                                   "ASK { ?a ?a \"x\" }", 1);
  EXPECT_NE(r.find("TEST(FuzzRegression, QuerySeed1Case2)"),
            std::string::npos);
  EXPECT_NE(r.find("CheckQueryText"), std::string::npos);
  std::string l = FormatReproducer("LogLineSeed1Case3", "log_line",
                                   "query=ASK%7B%7D", 1);
  EXPECT_NE(l.find("CheckLogLine"), std::string::npos);
  std::string replay =
      FormatSeedReplayReproducer("QuerySeed5Case7", 5, 7,
                                 "serializer-closure", "ASK {\n}");
  EXPECT_NE(replay.find("options.seed = 5ULL"), std::string::npos);
  EXPECT_NE(replay.find("i <= 7"), std::string::npos);
  EXPECT_NE(replay.find("CheckQuery"), std::string::npos);
}

}  // namespace
}  // namespace sparqlog::testing
