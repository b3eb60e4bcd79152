#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "corpus/generator.h"
#include "corpus/ingest.h"
#include "corpus/profile.h"
#include "corpus/report.h"
#include "pipeline/merge.h"
#include "rdf/dictionary.h"
#include "sparql/serializer.h"
#include "testing/invariants.h"
#include "util/fields.h"
#include "util/strings.h"
#include "util/vbyte.h"

namespace sparqlog::corpus {
namespace {

TEST(ProfileTest, ThirteenDatasets) {
  auto profiles = PaperProfiles();
  EXPECT_EQ(profiles.size(), 13u);
  uint64_t total = 0;
  for (const auto& p : profiles) total += p.total_queries;
  // Table 1 states a total of 180,653,910, but its thirteen rows sum to
  // 180,653,456 (the paper's total row is off by 454). Our profiles use
  // the per-dataset values verbatim.
  EXPECT_EQ(total, 180653456u);
}

TEST(ProfileTest, RatesAreProbabilities) {
  for (const auto& p : PaperProfiles()) {
    EXPECT_GT(p.total_queries, 0u) << p.name;
    EXPECT_GE(p.valid_rate, 0.0);
    EXPECT_LE(p.valid_rate, 1.0);
    EXPECT_GE(p.unique_rate, 0.0);
    EXPECT_LE(p.unique_rate, 1.0);
    double wsum = p.w_select + p.w_ask + p.w_describe + p.w_construct;
    EXPECT_NEAR(wsum, 1.0, 0.02) << p.name;
    double tsum = 0;
    for (double w : p.triples_weights) tsum += w;
    EXPECT_NEAR(tsum, 1.0, 0.06) << p.name;
  }
}

TEST(ProfileTest, LookupByName) {
  auto profiles = PaperProfiles();
  EXPECT_EQ(ProfileByName(profiles, "WikiData17").total_queries, 309u);
  EXPECT_EQ(ProfileByName(profiles, "BioP13").graph_rate, 0.80);
}

// ---------------------------------------------------------------------------
// Generator
// ---------------------------------------------------------------------------

TEST(GeneratorTest, AllGeneratedQueriesAreValid) {
  auto profiles = PaperProfiles();
  GeneratorOptions options;
  options.seed = 5;
  sparql::Parser parser;
  for (const auto& profile : profiles) {
    SyntheticLogGenerator gen(profile, options);
    for (int i = 0; i < 30; ++i) {
      std::string text = sparql::Serialize(gen.GenerateQuery());
      EXPECT_TRUE(parser.IsValid(text)) << profile.name << "\n" << text;
    }
  }
}

TEST(GeneratorTest, LogContainsNoiseAndMalformed) {
  auto profiles = PaperProfiles();
  GeneratorOptions options;
  options.min_entries = 500;
  SyntheticLogGenerator gen(ProfileByName(profiles, "LGD13"), options);
  auto log = gen.GenerateLog();
  EXPECT_GE(log.size(), 500u);
  int noise = 0, queries = 0;
  for (const std::string& line : log) {
    if (line.rfind("query=", 0) == 0) {
      ++queries;
    } else {
      ++noise;
    }
  }
  EXPECT_GT(noise, 0);
  EXPECT_GT(queries, noise);
}

TEST(GeneratorTest, DeterministicForSeed) {
  auto profiles = PaperProfiles();
  GeneratorOptions options;
  options.seed = 9;
  SyntheticLogGenerator a(profiles[0], options);
  SyntheticLogGenerator b(profiles[0], options);
  EXPECT_EQ(sparql::Serialize(a.GenerateQuery()),
            sparql::Serialize(b.GenerateQuery()));
}

// ---------------------------------------------------------------------------
// Ingestion pipeline (Table 1 semantics)
// ---------------------------------------------------------------------------

TEST(IngestTest, PipelineCounts) {
  LogIngestor ingestor;
  ingestor.ProcessLine("GET /nonsense HTTP/1.1");         // dropped
  ingestor.ProcessLine("query=SELECT%20*%20WHERE%20%7B%20%3Fs%20%3Fp%20"
                       "%3Fo%20%7D");                     // valid
  ingestor.ProcessLine("query=SELECT%20*%20WHERE%20%7B%20%3Fs%20%3Fp%20"
                       "%3Fo%20%7D");                     // duplicate
  ingestor.ProcessLine("query=NOT%20SPARQL");             // invalid
  const CorpusStats& stats = ingestor.stats();
  EXPECT_EQ(stats.total, 3u);
  EXPECT_EQ(stats.valid, 2u);
  EXPECT_EQ(stats.unique, 1u);
}

TEST(IngestTest, UpdateRequestsAreInvalid) {
  LogIngestor ingestor;
  ingestor.ProcessLine("query=INSERT%20DATA%20%7B%20%3Ca%3E%20%3Cb%3E%20"
                       "%3Cc%3E%20%7D");
  EXPECT_EQ(ingestor.stats().total, 1u);
  EXPECT_EQ(ingestor.stats().valid, 0u);
}

TEST(IngestTest, SinksReceiveQueries) {
  LogIngestor ingestor;
  int unique_count = 0, valid_count = 0;
  ingestor.set_unique_sink([&](const sparql::Query&) { ++unique_count; });
  ingestor.set_valid_sink([&](const sparql::Query&) { ++valid_count; });
  std::string line =
      "query=" + util::PercentEncode("ASK { <a> <b> <c> }");
  ingestor.ProcessLine(line);
  ingestor.ProcessLine(line);
  EXPECT_EQ(unique_count, 1);
  EXPECT_EQ(valid_count, 2);
}

TEST(IngestTest, PlusDecodesAsSpace) {
  LogIngestor ingestor;
  // '+' is the form-encoding of space; an encoded "%2B" stays a plus.
  ingestor.ProcessLine("query=SELECT+*+WHERE+%7B+%3Fs+%3Fp+%3Fo+%7D");
  EXPECT_EQ(ingestor.stats().total, 1u);
  EXPECT_EQ(ingestor.stats().valid, 1u);
}

TEST(IngestTest, TruncatedEscapesCountAsMalformed) {
  LogIngestor ingestor;
  // Truncated '%' escapes pass through verbatim; the garbled text fails
  // the parser and must be counted as Total-but-not-Valid, not dropped.
  ingestor.ProcessLine("query=SELECT%20%7");
  ingestor.ProcessLine("query=SELECT%20%");
  EXPECT_EQ(ingestor.stats().total, 2u);
  EXPECT_EQ(ingestor.stats().valid, 0u);
}

TEST(IngestTest, EmptyQueryValueIsMalformed) {
  LogIngestor ingestor;
  ingestor.ProcessLine("query=");
  EXPECT_EQ(ingestor.stats().total, 1u);
  EXPECT_EQ(ingestor.stats().valid, 0u);
}

TEST(IngestTest, TrailingCgiParametersAreStripped) {
  LogIngestor ingestor;
  ingestor.ProcessLine(
      "query=" + util::PercentEncode("SELECT * WHERE { ?s ?p ?o }") +
      "&format=json&timeout=30");
  EXPECT_EQ(ingestor.stats().total, 1u);
  EXPECT_EQ(ingestor.stats().valid, 1u);
  // An *encoded* '&' (%26) is query text, not a parameter separator:
  // here it garbles the query, which must still count toward Total.
  ingestor.ProcessLine("query=SELECT%20%26%20nonsense");
  EXPECT_EQ(ingestor.stats().total, 2u);
  EXPECT_EQ(ingestor.stats().valid, 1u);
}

TEST(IngestTest, ParsedLineMatchesProcessLine) {
  // The parse/ingest split used by the parallel pipeline must agree
  // with the one-shot serial entry point.
  sparql::Parser parser;
  LogIngestor split, serial;
  std::vector<std::string> lines = {
      "GET /noise HTTP/1.1",
      "query=" + util::PercentEncode("SELECT * WHERE { ?s ?p ?o }"),
      "query=" + util::PercentEncode("SELECT * WHERE { ?s ?p ?o }"),
      "query=NOT%20SPARQL",
  };
  for (const std::string& line : lines) {
    ParsedLine parsed = testing::ParseLogLine(parser, line);
    split.Ingest(parsed);
    serial.ProcessLine(line);
    EXPECT_EQ(parsed.is_query, line.rfind("query=", 0) == 0);
  }
  EXPECT_EQ(split.stats().total, serial.stats().total);
  EXPECT_EQ(split.stats().valid, serial.stats().valid);
  EXPECT_EQ(split.stats().unique, serial.stats().unique);
}

TEST(IngestTest, WhitespaceVariantsAreDuplicates) {
  // Dedup works on the canonical AST serialization, so formatting
  // variants of the same query collapse.
  LogIngestor ingestor;
  ingestor.ProcessLine(
      "query=" + util::PercentEncode("SELECT * WHERE { ?s ?p ?o }"));
  ingestor.ProcessLine(
      "query=" + util::PercentEncode("SELECT *\nWHERE {\n  ?s ?p ?o .\n}"));
  EXPECT_EQ(ingestor.stats().valid, 2u);
  EXPECT_EQ(ingestor.stats().unique, 1u);
}

TEST(IngestTest, EndToEndStats) {
  auto profiles = PaperProfiles();
  const DatasetProfile& profile = ProfileByName(profiles, "DBpedia13");
  GeneratorOptions options;
  options.min_entries = 1500;
  options.scale = 0;  // force min_entries
  SyntheticLogGenerator gen(profile, options);
  LogIngestor ingestor;
  ingestor.ProcessLog(gen.GenerateLog());
  const CorpusStats& stats = ingestor.stats();
  EXPECT_GE(stats.total, 1500u);
  // Valid / Total should approximate the profile's valid_rate.
  double valid_rate = static_cast<double>(stats.valid) /
                      static_cast<double>(stats.total);
  EXPECT_NEAR(valid_rate, profile.valid_rate, 0.05);
  // Unique / Valid approximates unique_rate (serializer collisions can
  // only lower it slightly).
  double unique_rate = static_cast<double>(stats.unique) /
                       static_cast<double>(stats.valid);
  EXPECT_NEAR(unique_rate, profile.unique_rate, 0.08);
}

// ---------------------------------------------------------------------------
// Analyzer calibration
// ---------------------------------------------------------------------------

TEST(AnalyzerTest, FormMixMatchesProfile) {
  auto profiles = PaperProfiles();
  const DatasetProfile& profile = ProfileByName(profiles, "BioMed13");
  GeneratorOptions options;
  SyntheticLogGenerator gen(profile, options);
  CorpusAnalyzer analyzer;
  for (int i = 0; i < 2000; ++i) {
    analyzer.AddQuery(gen.GenerateQuery(), profile.name);
  }
  const KeywordCounts& kw = analyzer.keywords();
  // BioMed13: ~85% Describe queries (Section 4.1).
  double describe_share = static_cast<double>(kw.describe) /
                          static_cast<double>(kw.total);
  EXPECT_NEAR(describe_share, 0.848, 0.05);
}

TEST(AnalyzerTest, AvgTriplesInCalibrationBand) {
  auto profiles = PaperProfiles();
  GeneratorOptions options;
  for (const char* name : {"BioP13", "SWDF13", "BritM14"}) {
    const DatasetProfile& profile = ProfileByName(profiles, name);
    SyntheticLogGenerator gen(profile, options);
    CorpusAnalyzer analyzer;
    for (int i = 0; i < 1500; ++i) {
      analyzer.AddQuery(gen.GenerateQuery(), profile.name);
    }
    double avg = analyzer.per_dataset().at(profile.name).AvgTriples();
    EXPECT_NEAR(avg, profile.avg_triples, profile.avg_triples * 0.45)
        << name;
  }
}

TEST(AnalyzerTest, ShapesArePredominantlyAcyclic) {
  auto profiles = PaperProfiles();
  GeneratorOptions options;
  const DatasetProfile& profile = ProfileByName(profiles, "DBpedia14");
  SyntheticLogGenerator gen(profile, options);
  CorpusAnalyzer analyzer;
  for (int i = 0; i < 3000; ++i) {
    analyzer.AddQuery(gen.GenerateQuery(), profile.name);
  }
  const ShapeCounts& cq = analyzer.cq_shapes();
  ASSERT_GT(cq.total, 0u);
  // Table 4: >99% of CQs are forests; flower sets reach ~100%.
  EXPECT_GT(static_cast<double>(cq.forest) / cq.total, 0.97);
  EXPECT_GT(static_cast<double>(cq.flower_set) / cq.total, 0.99);
  EXPECT_EQ(cq.treewidth_le2 + cq.treewidth_3 + cq.treewidth_gt3,
            cq.total);
  EXPECT_EQ(cq.treewidth_gt3, 0u);
}

TEST(AnalyzerTest, FragmentSubsumption) {
  auto profiles = PaperProfiles();
  GeneratorOptions options;
  SyntheticLogGenerator gen(ProfileByName(profiles, "DBpedia15"), options);
  CorpusAnalyzer analyzer;
  for (int i = 0; i < 2000; ++i) {
    analyzer.AddQuery(gen.GenerateQuery(), "DBpedia15");
  }
  const FragmentStats& fs = analyzer.fragments();
  EXPECT_LE(fs.cq, fs.cpf);
  EXPECT_LE(fs.cqf, fs.cpf);
  EXPECT_LE(fs.cpf, fs.aof + fs.cqf);  // CPF subset of AOF
  EXPECT_LE(fs.cqof, fs.aof);
  EXPECT_LE(fs.well_designed, fs.aof);
  EXPECT_GT(fs.aof, 0u);
}

TEST(AnalyzerTest, PathTypeTableCovered) {
  auto profiles = PaperProfiles();
  GeneratorOptions options;
  // WikiData17 has the highest property-path rate (29.87%).
  SyntheticLogGenerator gen(ProfileByName(profiles, "WikiData17"), options);
  CorpusAnalyzer analyzer;
  for (int i = 0; i < 4000; ++i) {
    analyzer.AddQuery(gen.GenerateQuery(), "WikiData17");
  }
  const PathStats& ps = analyzer.paths();
  EXPECT_GT(ps.total_paths, 0u);
  // Star-of-alternation and plain star dominate (Table 5).
  EXPECT_GT(ps.by_type.count(paths::PathType::kStarOfAlt), 0u);
  // Hardly anything is outside C_tract.
  EXPECT_LE(ps.not_ctract, ps.navigational / 50 + 1);
}

TEST(AnalyzerTest, ProjectionRateReasonable) {
  auto profiles = PaperProfiles();
  GeneratorOptions options;
  SyntheticLogGenerator gen(ProfileByName(profiles, "DBpedia14"), options);
  CorpusAnalyzer analyzer;
  for (int i = 0; i < 3000; ++i) {
    analyzer.AddQuery(gen.GenerateQuery(), "DBpedia14");
  }
  const ProjectionStats& ps = analyzer.projection();
  double rate = static_cast<double>(ps.with_projection) /
                static_cast<double>(ps.total);
  // Paper: ~15% overall.
  EXPECT_GT(rate, 0.03);
  EXPECT_LT(rate, 0.4);
}

// ---------------------------------------------------------------------------
// CorpusAnalyzer snapshot state (SaveState/LoadState), on its own.
// ---------------------------------------------------------------------------

// The unique corpus of the 13-profile paper log, spread over three
// dataset labels by line index.
CorpusAnalyzer BuildPaperCorpusAnalyzer() {
  const std::vector<std::string> lines = testing::PaperCorpusLog(200);
  const char* labels[] = {"DBpedia", "WikiData", "LGD"};
  CorpusAnalyzer analyzer;
  size_t line = 0;
  LogIngestor ingestor;
  ingestor.set_unique_sink([&](const sparql::Query& q) {
    analyzer.AddQuery(q, labels[line % 3]);
  });
  for (; line < lines.size(); ++line) ingestor.ProcessLine(lines[line]);
  return analyzer;
}

const CorpusAnalyzer& PaperCorpusAnalyzer() {
  static const CorpusAnalyzer analyzer = BuildPaperCorpusAnalyzer();
  return analyzer;
}

TEST(AnalyzerStateTest, RoundTripKeepsDigestAndBytes) {
  const CorpusAnalyzer& original = PaperCorpusAnalyzer();
  ASSERT_EQ(original.per_dataset().size(), 3u);
  rdf::Dictionary dict;
  std::string blob;
  original.SaveState(blob, dict);
  EXPECT_EQ(dict.size(), 3u);

  CorpusAnalyzer loaded;
  std::string_view in = blob;
  ASSERT_TRUE(loaded.LoadState(in, dict));
  EXPECT_TRUE(in.empty());
  EXPECT_EQ(pipeline::StatisticsDigest(loaded),
            pipeline::StatisticsDigest(original));

  rdf::Dictionary dict2;
  std::string again;
  loaded.SaveState(again, dict2);
  EXPECT_EQ(again, blob);
  EXPECT_EQ(dict2.size(), dict.size());
}

TEST(AnalyzerStateTest, EveryStrictPrefixIsRejected) {
  rdf::Dictionary dict;
  std::string blob;
  PaperCorpusAnalyzer().SaveState(blob, dict);
  for (size_t len = 0; len < blob.size(); ++len) {
    CorpusAnalyzer fresh;
    std::string_view in(blob.data(), len);
    EXPECT_FALSE(fresh.LoadState(in, dict)) << "prefix of " << len << " bytes";
  }
}

TEST(AnalyzerStateTest, DatasetIdMissingFromDictionaryIsRejected) {
  rdf::Dictionary dict;
  std::string blob;
  PaperCorpusAnalyzer().SaveState(blob, dict);
  rdf::Dictionary partial;
  for (rdf::TermId id = 1; id < dict.size(); ++id) {
    partial.Intern(*dict.term(id));
  }
  CorpusAnalyzer fresh;
  std::string_view in = blob;
  EXPECT_FALSE(fresh.LoadState(in, partial));
}

TEST(AnalyzerStateTest, RepeatedMapKeyIsRejected) {
  // A ShapeCounts blob: 14 zero counters, then a girth map of two
  // entries that both claim girth 3.
  std::string blob(14, '\0');
  util::vbyte::PutVarint(blob, 2);
  for (int i = 0; i < 2; ++i) {
    util::vbyte::PutZigzag(blob, 3);
    util::vbyte::PutVarint(blob, 1);
  }
  ShapeCounts sc;
  std::string_view in = blob;
  EXPECT_FALSE(util::fields::Load(in, sc));
}

TEST(AnalyzerStateTest, HistogramLayoutMismatchIsRejected) {
  TripleStats saved;
  saved.histogram = util::BucketHistogram(5);
  std::string blob;
  util::fields::Save(blob, saved);
  TripleStats fresh;  // 11 direct buckets
  std::string_view in = blob;
  EXPECT_FALSE(util::fields::Load(in, fresh));
}

}  // namespace
}  // namespace sparqlog::corpus
