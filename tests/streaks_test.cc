#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "pipeline/paper_report.h"
#include "pipeline/streak_stage.h"
#include "streaks/streaks.h"
#include "testing/reference_streaks.h"
#include "util/levenshtein.h"
#include "util/rng.h"
#include "util/strings.h"

namespace sparqlog::streaks {
namespace {

StreakReport Detect(const std::vector<std::string>& log,
                 StreakOptions options = StreakOptions()) {
  StreakDetector detector(options);
  for (const std::string& q : log) detector.Add(q);
  return detector.Finish();
}

using sparqlog::testing::reference::OldStripPrologue;
using sparqlog::testing::reference::ReferenceDetector;

void ExpectReportsEqual(const StreakReport& a, const StreakReport& b,
                        const std::string& context) {
  for (size_t i = 0; i < 11; ++i) {
    EXPECT_EQ(a.counts[i], b.counts[i]) << context << " bucket " << i;
  }
  EXPECT_EQ(a.total_streaks, b.total_streaks) << context;
  EXPECT_EQ(a.longest, b.longest) << context;
  EXPECT_EQ(a.queries_processed, b.queries_processed) << context;
}

/// A log with planted refinement sessions: bases with random suffixed
/// edits, interleaved with noise, heavy on duplicates — the shape the
/// prefilter cascade and dedup short-circuit must get exactly right.
std::vector<std::string> FuzzedLog(util::Rng& rng, size_t n) {
  std::vector<std::string> bases = {
      "SELECT ?x WHERE { ?x <birthPlace> <Paris> }",
      "PREFIX foaf: <http://xmlns.com/foaf/0.1/> SELECT ?p WHERE { ?p a "
      "foaf:Person }",
      "ASK { <a> <b> <c> }",
      "DESCRIBE <http://dbpedia.org/resource/Berlin>",
      "CONSTRUCT WHERE { ?s ?p ?o }",
  };
  std::vector<std::string> log;
  std::string current = bases[0];
  for (size_t i = 0; i < n; ++i) {
    double roll = rng.NextDouble();
    if (roll < 0.3) {
      current = bases[rng.Below(bases.size())];
    } else if (roll < 0.7) {
      // Small edit of the running query: refinement-session shape.
      std::string mutated = current;
      size_t edits = 1 + rng.Below(4);
      for (size_t e = 0; e < edits; ++e) {
        size_t pos = rng.Below(mutated.size() + 1);
        if (rng.Chance(0.5)) {
          mutated.insert(pos, 1, static_cast<char>('a' + rng.Below(26)));
        } else if (pos < mutated.size()) {
          mutated[pos] = static_cast<char>('a' + rng.Below(26));
        }
      }
      current = mutated;
    }
    // else: exact duplicate of the running query.
    log.push_back(current);
  }
  return log;
}

TEST(StripPrologueTest, RemovesPrefixDeclarations) {
  std::string q =
      "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n"
      "PREFIX rdf: <http://rdf/>\nSELECT ?x WHERE { ?x a foaf:Person }";
  std::string stripped = StripPrologue(q);
  EXPECT_EQ(stripped.rfind("SELECT", 0), 0u);
}

TEST(StripPrologueTest, KeepsQueryWithoutPrologue) {
  EXPECT_EQ(StripPrologue("ASK { <a> <b> <c> }"),
            "ASK { <a> <b> <c> }");
}

TEST(StripPrologueTest, CaseInsensitive) {
  EXPECT_EQ(StripPrologue("prefix x: <u> select * where {}").rfind(
                "select", 0),
            0u);
}

TEST(StripPrologueTest, DoesNotCutInsideIris) {
  // "describe" appears inside an IRI before the real keyword.
  std::string q =
      "PREFIX a: <http://x/describe/y>\nCONSTRUCT WHERE { ?s ?p ?o }";
  EXPECT_EQ(StripPrologue(q).rfind("CONSTRUCT", 0), 0u);
}

TEST(StreakTest, IdenticalQueriesFormOneStreak) {
  std::string q = "SELECT ?x WHERE { ?x <p> ?y }";
  StreakReport r = Detect({q, q, q, q});
  EXPECT_EQ(r.total_streaks, 1u);
  EXPECT_EQ(r.longest, 4u);
  EXPECT_EQ(r.counts[0], 1u);  // bucket 1-10
}

TEST(StreakTest, DissimilarQueriesAreSingletons) {
  StreakReport r = Detect({
      "SELECT ?x WHERE { ?x <aaaaaaaaaa> ?y }",
      "ASK { <completely> <different> <thing> }",
      "DESCRIBE <http://yet.another/thing/entirely>",
  });
  EXPECT_EQ(r.total_streaks, 3u);
  EXPECT_EQ(r.longest, 1u);
}

TEST(StreakTest, GradualRefinementChains) {
  // Each query differs slightly from the previous; Levenshtein
  // similarity chains them into one streak.
  std::vector<std::string> log;
  std::string base = "SELECT ?x WHERE { ?x <birthPlace> <Paris> }";
  for (int i = 0; i < 6; ++i) {
    log.push_back(base + std::string(static_cast<size_t>(i), '#'));
  }
  StreakReport r = Detect(log);
  EXPECT_EQ(r.longest, 6u);
}

TEST(StreakTest, WindowLimitsMatching) {
  StreakOptions options;
  options.window = 2;
  std::string q = "SELECT ?x WHERE { ?x <p> ?y }";
  std::string far1 = "ASK { <aaaa> <bbbb> <cccc> }";
  std::string far2 = "DESCRIBE <http://unrelated/e>";
  std::string far3 = "CONSTRUCT WHERE { ?a <zz> ?b }";
  // q ... 3 dissimilar queries ... q: gap of 4 > window 2.
  StreakReport r = Detect({q, far1, far2, far3, q}, options);
  EXPECT_EQ(r.longest, 1u);
  EXPECT_EQ(r.total_streaks, 5u);
}

TEST(StreakTest, IntermediateSimilarBlocksMatch) {
  // Definition (2): q_i and q_j do not match if some query between them
  // is similar to q_i — the streak goes through the intermediate.
  std::string a = "SELECT ?x WHERE { ?x <p> ?y } #a";
  std::string b = "SELECT ?x WHERE { ?x <p> ?y } #b";  // similar to a
  std::string c = "SELECT ?x WHERE { ?x <p> ?y } #c";  // similar to both
  StreakReport r = Detect({a, b, c});
  // One streak a -> b -> c of length 3 (c matches b, not a).
  EXPECT_EQ(r.total_streaks, 1u);
  EXPECT_EQ(r.longest, 3u);
}

TEST(StreakTest, PrologueDifferencesIgnored) {
  // Identical after prefix stripping: should chain despite different
  // (long) prologues.
  std::string q1 =
      "PREFIX a: <http://very.long.namespace.example.org/alpha#>\n"
      "SELECT ?x WHERE { ?x <p> ?y }";
  std::string q2 =
      "PREFIX zz: <http://other.namespace.example.com/beta#>\n"
      "SELECT ?x WHERE { ?x <p> ?y }";
  StreakReport r = Detect({q1, q2});
  EXPECT_EQ(r.longest, 2u);
}

TEST(StreakTest, BucketBoundaries) {
  StreakReport r;
  r.AddStreakLength(1);
  r.AddStreakLength(10);
  r.AddStreakLength(11);
  r.AddStreakLength(100);
  r.AddStreakLength(101);
  r.AddStreakLength(169);  // the paper's longest
  EXPECT_EQ(r.counts[0], 2u);   // 1-10
  EXPECT_EQ(r.counts[1], 1u);   // 11-20
  EXPECT_EQ(r.counts[9], 1u);   // 91-100
  EXPECT_EQ(r.counts[10], 2u);  // >100
  EXPECT_EQ(r.longest, 169u);
}

TEST(StreakTest, BoundaryValues10And100LandInTheLowerBucket) {
  // The Table 6 buckets are [10i+1, 10i+10]: a streak of exactly 10
  // belongs to bucket 0 and exactly 100 to bucket 9 — the two spots an
  // off-by-one in (length - 1) / 10 would move.
  StreakReport ten;
  ten.AddStreakLength(10);
  EXPECT_EQ(ten.counts[0], 1u);
  EXPECT_EQ(ten.counts[1], 0u);
  StreakReport hundred;
  hundred.AddStreakLength(100);
  EXPECT_EQ(hundred.counts[9], 1u);
  EXPECT_EQ(hundred.counts[10], 0u);
}

TEST(StreakTest, MergeWithEmptyIsIdentity) {
  StreakReport r;
  r.AddStreakLength(3);
  r.AddStreakLength(42);
  r.queries_processed = 7;
  StreakReport copy = r;
  r.Merge(StreakReport{});
  EXPECT_EQ(r.counts[0], copy.counts[0]);
  EXPECT_EQ(r.counts[4], copy.counts[4]);
  EXPECT_EQ(r.total_streaks, copy.total_streaks);
  EXPECT_EQ(r.longest, copy.longest);
  EXPECT_EQ(r.queries_processed, copy.queries_processed);
}

TEST(StreakTest, MergeIsOrderIndependent) {
  StreakReport a;
  a.AddStreakLength(5);
  a.AddStreakLength(101);
  a.queries_processed = 10;
  StreakReport b;
  b.AddStreakLength(10);
  b.AddStreakLength(55);
  b.queries_processed = 3;

  StreakReport ab = a;
  ab.Merge(b);
  StreakReport ba = b;
  ba.Merge(a);
  for (size_t i = 0; i < 11; ++i) EXPECT_EQ(ab.counts[i], ba.counts[i]);
  EXPECT_EQ(ab.total_streaks, ba.total_streaks);
  EXPECT_EQ(ab.longest, ba.longest);
  EXPECT_EQ(ab.queries_processed, ba.queries_processed);
  EXPECT_EQ(ab.total_streaks, 4u);
  EXPECT_EQ(ab.longest, 101u);
  EXPECT_EQ(ab.queries_processed, 13u);
}

TEST(StreakTest, QueriesProcessedCounted) {
  StreakReport r = Detect({"SELECT ?x WHERE { ?x <p> ?y }",
                        "ASK { <aa> <bb> <cc> }"});
  EXPECT_EQ(r.queries_processed, 2u);
}

TEST(StreakTest, InterleavedSessions) {
  // Two interleaved refinement sessions stay separate streaks.
  std::string a = "SELECT ?x WHERE { ?x <birthPlace> ?place } ";
  std::string b = "ASK { <someone> <wrote> <something-entirely-else> } ";
  std::vector<std::string> log;
  for (int i = 0; i < 4; ++i) {
    log.push_back(a + std::string(static_cast<size_t>(i), 'a'));
    log.push_back(b + std::string(static_cast<size_t>(i), 'b'));
  }
  StreakReport r = Detect(log);
  EXPECT_EQ(r.total_streaks, 2u);
  EXPECT_EQ(r.longest, 4u);
}

TEST(StreakTest, FinishResetsState) {
  StreakDetector detector;
  detector.Add("SELECT ?x WHERE { ?x <p> ?y }");
  StreakReport first = detector.Finish();
  EXPECT_EQ(first.total_streaks, 1u);
  StreakReport second = detector.Finish();
  EXPECT_EQ(second.total_streaks, 0u);
  EXPECT_EQ(second.queries_processed, 0u);
}

// -----------------------------------------------------------------------
// StripPrologue fast path vs the old implementation
// -----------------------------------------------------------------------

TEST(StripPrologueTest, MatchesOldImplementationOnFuzzedQueries) {
  util::Rng rng(20260726);
  const std::string pieces[] = {
      "PREFIX ", "foaf:", "<http://x/describe/y>", "<http://ask.example/>",
      "select",  "ASK",   "ConStRuCt",             "describe",
      "_select", "a",     ":",                     "/select",
      "#ask",    " ",     "\n",                    "9select",
      "asking",  "x",     "constructs",            "{ ?s ?p ?o }",
      "BASE",    "\t",    "d",                     "sel",
  };
  for (int i = 0; i < 2000; ++i) {
    std::string q;
    size_t parts = rng.Below(12);
    for (size_t p = 0; p < parts; ++p) {
      if (rng.Chance(0.8)) {
        q += pieces[rng.Below(std::size(pieces))];
      } else {
        q += static_cast<char>(rng.Below(256));
      }
    }
    EXPECT_EQ(StripPrologue(q), OldStripPrologue(q)) << "query: " << q;
    // The view variant must agree and view into the input.
    std::string_view v = StripPrologueView(q);
    EXPECT_EQ(std::string(v), OldStripPrologue(q));
    if (!q.empty() && !v.empty()) {
      EXPECT_GE(v.data(), q.data());
      EXPECT_LE(v.data() + v.size(), q.data() + q.size());
    }
  }
}

TEST(StripPrologueTest, KeywordsEmbeddedInIrisAndWords) {
  // Inside an IRI path, after '_', inside longer words: all skipped.
  EXPECT_EQ(StripPrologue("<http://x/select/y> foo"),
            "<http://x/select/y> foo");
  EXPECT_EQ(StripPrologue("my_select ASK {}"), "ASK {}");
  EXPECT_EQ(StripPrologue("selects construct {}"), "construct {}");
  EXPECT_EQ(StripPrologue("#describe\nSELECT *"), "SELECT *");
  // Keyword at the very start and at the very end.
  EXPECT_EQ(StripPrologue("ask {}"), "ask {}");
  EXPECT_EQ(StripPrologue("prefix p: <u> ask"), "ask");
}

// -----------------------------------------------------------------------
// Fast path vs the reference detector: bit-identical reports
// -----------------------------------------------------------------------

TEST(StreakTest, FastPathMatchesReferenceOnFuzzedLogs) {
  util::Rng rng(7);
  for (int round = 0; round < 8; ++round) {
    StreakOptions options;
    options.window = 1 + rng.Below(40);
    options.similarity_threshold =
        (round % 3 == 0) ? 0.1 : (round % 3 == 1 ? 0.25 : 0.5);
    std::vector<std::string> log = FuzzedLog(rng, 300);

    ReferenceDetector reference(options);
    for (const std::string& q : log) reference.Add(q);
    StreakReport fast = Detect(log, options);
    ExpectReportsEqual(fast, reference.Finish(),
                       "round " + std::to_string(round) + " window " +
                           std::to_string(options.window));
  }
}

// The paper's Table 6 workload: the reference detector, the serial fast
// path and the sharded stage must report identically on all three day
// logs (Table6DayLogs sizes them proportionally to the paper's logs).
TEST(StreakTest, Table6DayLogsMatchReferenceOnEveryPath) {
  const std::vector<std::vector<std::string>> days =
      pipeline::Table6DayLogs(1500);
  for (size_t d = 0; d < days.size(); ++d) {
    StreakOptions options;
    ReferenceDetector reference(options);
    for (const std::string& q : days[d]) reference.Add(q);
    const StreakReport expected = reference.Finish();

    pipeline::StreakStageOptions stage_options;
    stage_options.streak = options;
    stage_options.threads = 4;
    const StreakReport serial = Detect(days[d], options);
    const StreakReport sharded =
        pipeline::StreakStage(stage_options).Run(days[d]).report;
    const std::string context = "day " + std::to_string(d);
    ExpectReportsEqual(serial, expected, context + " serial");
    ExpectReportsEqual(sharded, expected, context + " sharded");
    // operator== also covers any field ExpectReportsEqual does not list.
    EXPECT_TRUE(serial == expected) << context;
    EXPECT_TRUE(sharded == expected) << context;
  }
}

TEST(StreakTest, PrefilterStatsAccountForEveryPair) {
  util::Rng rng(11);
  std::vector<std::string> log = FuzzedLog(rng, 400);
  StreakDetector detector;
  for (const std::string& q : log) detector.Add(q);
  detector.Finish();
  const PrefilterStats& stats = detector.prefilter_stats();
  EXPECT_GT(stats.pairs, 0u);
  // Duplicate-heavy log: the exact-hash tier must fire.
  EXPECT_GT(stats.exact_hash_hits, 0u);
  // Every pair is settled by exactly one tier or reaches the DP.
  EXPECT_EQ(stats.pairs, stats.exact_hash_hits + stats.length_rejects +
                             stats.charmap_rejects +
                             stats.histogram_rejects +
                             stats.levenshtein_calls);
  // The cascade must actually avoid work on this workload.
  EXPECT_LT(stats.levenshtein_calls, stats.pairs);
}

TEST(StreakTest, PrefilterStatsMerge) {
  PrefilterStats a{10, 1, 2, 3, 1, 3, 1, 300};
  PrefilterStats b{5, 0, 1, 1, 1, 2, 0, 40};
  a.Merge(b);
  EXPECT_EQ(a.pairs, 15u);
  EXPECT_EQ(a.exact_hash_hits, 1u);
  EXPECT_EQ(a.length_rejects, 3u);
  EXPECT_EQ(a.charmap_rejects, 4u);
  EXPECT_EQ(a.histogram_rejects, 2u);
  EXPECT_EQ(a.levenshtein_calls, 5u);
  EXPECT_EQ(a.abandoned_pairs, 1u);
  EXPECT_EQ(a.dp_block_steps, 340u);
}

// -----------------------------------------------------------------------
// Prefilter admissibility: no tier may reject a truly similar pair
// -----------------------------------------------------------------------

TEST(PrefilterTest, LowerBoundsNeverExceedTrueDistance) {
  util::Rng rng(31337);
  for (int i = 0; i < 500; ++i) {
    size_t len_a = rng.Below(120);
    size_t len_b = rng.Below(120);
    std::string a(len_a, '\0'), b(len_b, '\0');
    for (char& c : a) c = static_cast<char>(rng.Below(256));
    // Half the time, b is a small edit of a (near-miss pairs are where
    // an inadmissible bound would bite).
    if (rng.Chance(0.5) && !a.empty()) {
      b = a;
      size_t edits = 1 + rng.Below(6);
      for (size_t e = 0; e < edits && !b.empty(); ++e) {
        b[rng.Below(b.size())] = static_cast<char>(rng.Below(256));
      }
    } else {
      for (char& c : b) c = static_cast<char>(rng.Below(256));
    }
    size_t dist = util::Levenshtein(a, b);
    QueryFingerprint fa = FingerprintOf(a);
    QueryFingerprint fb = FingerprintOf(b);
    size_t longer = std::max(a.size(), b.size());
    size_t shorter = std::min(a.size(), b.size());
    EXPECT_LE(longer - shorter, dist) << "length bound, case " << i;
    EXPECT_LE(CharmapLowerBound(fa, fb), dist) << "charmap bound, case " << i;
    EXPECT_LE(HistogramLowerBound(fa, fb), dist)
        << "histogram bound, case " << i;
  }
}

TEST(PrefilterTest, HistogramSaturationStaysAdmissible) {
  // 300 'a's vs 300 'a's plus noise: counts clamp at 255 on both sides,
  // which must only weaken the bound.
  std::string a(300, 'a');
  std::string b = a + std::string(40, 'b');
  size_t dist = util::Levenshtein(a, b);  // 40
  QueryFingerprint fa = FingerprintOf(a);
  QueryFingerprint fb = FingerprintOf(b);
  EXPECT_EQ(fa.hist[static_cast<unsigned char>('a')], 255);
  EXPECT_LE(HistogramLowerBound(fa, fb), dist);
  EXPECT_LE(CharmapLowerBound(fa, fb), dist);
}

TEST(PrefilterTest, FingerprintBasics) {
  QueryFingerprint fp = FingerprintOf("ab\xff");
  EXPECT_EQ(fp.length, 3u);
  EXPECT_TRUE(fp.charmap[1] & (1ULL << ('a' - 64)));
  EXPECT_TRUE(fp.charmap[3] & (1ULL << (0xff - 192)));
  EXPECT_FALSE(fp.charmap[0] & 1ULL);  // NUL absent
  EXPECT_EQ(fp.hist[static_cast<unsigned char>('a')], 1);
  EXPECT_EQ(fp.hist[static_cast<unsigned char>('z')], 0);
  EXPECT_NE(fp.hash, FingerprintOf("ab").hash);
}

// -----------------------------------------------------------------------
// Window boundary semantics (EvictExpired timing)
// -----------------------------------------------------------------------

/// Builds a log of two identical queries separated by `gap - 1` pairwise
/// very dissimilar fillers, so the only possible chain is the pair.
std::vector<std::string> GapLog(size_t gap) {
  std::string q = "SELECT ?x WHERE { ?x <p> ?y }";
  std::vector<std::string> log = {q};
  for (size_t i = 1; i < gap; ++i) {
    // Each filler is dominated by a run of a per-position letter, so any
    // two fillers are ~20 edits apart (far over the 25% budget) and none
    // resembles q.
    log.push_back("ASK { <" +
                  std::string(20, static_cast<char>('a' + (i % 26))) +
                  "> <p> <o> }");
  }
  log.push_back(q);
  return log;
}

TEST(StreakTest, GapJustInsideTheWindowChains) {
  StreakOptions options;
  options.window = 5;
  StreakReport r = Detect(GapLog(4), options);  // gap == window - 1
  EXPECT_EQ(r.longest, 2u);
}

TEST(StreakTest, GapEqualToWindowDoesNotChain) {
  // Eviction runs after the index advances, so a predecessor exactly
  // `window` positions back is already gone when the scan happens —
  // the boundary the fast path must not move.
  StreakOptions options;
  options.window = 5;
  StreakReport r = Detect(GapLog(5), options);  // gap == window
  EXPECT_EQ(r.longest, 1u);
}

TEST(StreakTest, GapOnePastTheWindowDoesNotChain) {
  StreakOptions options;
  options.window = 5;
  StreakReport r = Detect(GapLog(6), options);  // gap == window + 1
  EXPECT_EQ(r.longest, 1u);
}

TEST(StreakTest, ZeroWindowMakesEveryQueryASingleton) {
  StreakOptions options;
  options.window = 0;
  std::string q = "SELECT ?x WHERE { ?x <p> ?y }";
  StreakReport r = Detect({q, q, q}, options);
  EXPECT_EQ(r.total_streaks, 3u);
  EXPECT_EQ(r.longest, 1u);
}

TEST(StreakTest, EmptyLogYieldsEmptyReport) {
  StreakReport r = Detect({});
  EXPECT_EQ(r.total_streaks, 0u);
  EXPECT_EQ(r.longest, 0u);
  EXPECT_EQ(r.queries_processed, 0u);
}

// -----------------------------------------------------------------------
// Report bucket edges around 10/11 and 100/101
// -----------------------------------------------------------------------

TEST(StreakTest, BucketEdgesElevenAndOneHundredOne) {
  StreakReport r;
  r.AddStreakLength(11);
  EXPECT_EQ(r.counts[0], 0u);
  EXPECT_EQ(r.counts[1], 1u);  // 11 opens the 11-20 bucket
  StreakReport s;
  s.AddStreakLength(101);
  EXPECT_EQ(s.counts[9], 0u);
  EXPECT_EQ(s.counts[10], 1u);  // 101 is the first >100 value
}

// -----------------------------------------------------------------------
// SimilarityWindow + StreakChainTracker building blocks
// -----------------------------------------------------------------------

TEST(SimilarityWindowTest, EmitsGapsOfMatchedPredecessors) {
  StreakOptions options;
  SimilarityWindow window(options);
  std::vector<uint32_t> gaps;
  std::string q = "SELECT ?x WHERE { ?x <p> ?y }";
  window.Add(q, gaps);
  EXPECT_TRUE(gaps.empty());
  window.Add(q, gaps);
  ASSERT_EQ(gaps.size(), 1u);
  EXPECT_EQ(gaps[0], 1u);
  // The second duplicate blocks the first (has_later_similar): only the
  // most recent predecessor matches.
  window.Add(q, gaps);
  ASSERT_EQ(gaps.size(), 1u);
  EXPECT_EQ(gaps[0], 1u);
}

TEST(StreakChainTrackerTest, DrainPlusFinishEqualsFinish) {
  // Feeding identical gap streams, a tracker drained mid-run and merged
  // must equal one finished in a single sweep.
  std::vector<std::vector<uint32_t>> stream = {
      {}, {1}, {1}, {}, {2}, {}, {}, {1}};
  StreakChainTracker one(3);
  for (const auto& gaps : stream) one.Add(gaps.data(), gaps.size());
  StreakReport whole = one.Finish();

  StreakChainTracker two(3);
  StreakReport merged;
  for (size_t i = 0; i < stream.size(); ++i) {
    two.Add(stream[i].data(), stream[i].size());
    if (i == 3) merged.Merge(two.DrainFinalized());
  }
  merged.Merge(two.DrainFinalized());
  merged.Merge(two.Finish());
  ExpectReportsEqual(merged, whole, "drain vs finish");
}

}  // namespace
}  // namespace sparqlog::streaks
