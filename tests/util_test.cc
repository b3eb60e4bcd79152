#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/arena.h"
#include "util/fnv.h"
#include "util/histogram.h"
#include "util/levenshtein.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/result.h"
#include "util/strings.h"
#include "util/table.h"

namespace sparqlog::util {
namespace {

// ---------------------------------------------------------------------------
// StringInterner
// ---------------------------------------------------------------------------

TEST(StringInternerTest, CallerHashedOverloadsMatchTheirKeysExactly) {
  StringInterner memo;
  const std::string_view a = "query=ASK { ?s ?p ?o }";
  const std::string_view b = "query=ASK { ?s ?p ?x }";
  // Both keys under one hash: the probe must still compare the bytes.
  memo.Insert(a, 7, "first");
  memo.Insert(b, 7, "second");
  memo.Insert(a, 7, "ignored");  // the first insertion wins
  ASSERT_NE(memo.Find(a, 7), nullptr);
  EXPECT_EQ(*memo.Find(a, 7), "first");
  ASSERT_NE(memo.Find(b, 7), nullptr);
  EXPECT_EQ(*memo.Find(b, 7), "second");
  EXPECT_EQ(memo.Find("query=ASK { ?s ?p ?y }", 7), nullptr);
  EXPECT_EQ(memo.size(), 2u);
  // The plain overloads hash with FNV-1a and agree with passing it.
  memo.Insert("dbo:", "http://dbpedia.org/ontology/");
  ASSERT_NE(memo.Find("dbo:", Fnv1aHash("dbo:")), nullptr);
  EXPECT_EQ(*memo.Find("dbo:"), "http://dbpedia.org/ontology/");
}

TEST(StringInternerTest, FlushesWholeAtItsByteBudget) {
  StringInterner memo(/*max_bytes=*/64);
  memo.Insert(std::string(30, 'a'), 1, "x");
  memo.Insert(std::string(30, 'b'), 2, "y");
  EXPECT_EQ(memo.size(), 2u);
  const uint64_t epoch = memo.epoch();
  memo.Insert(std::string(30, 'c'), 3, "z");  // 93 bytes > 64: flush first
  EXPECT_EQ(memo.epoch(), epoch + 1);
  EXPECT_EQ(memo.size(), 1u);
  EXPECT_EQ(memo.Find(std::string(30, 'a'), 1), nullptr);
  ASSERT_NE(memo.Find(std::string(30, 'c'), 3), nullptr);
  EXPECT_EQ(*memo.Find(std::string(30, 'c'), 3), "z");
  memo.Clear();
  EXPECT_EQ(memo.Find(std::string(30, 'c'), 3), nullptr);
}

// ---------------------------------------------------------------------------
// Status / Result
// ---------------------------------------------------------------------------

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad token");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad token");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad token");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(7), 7);
}

// ---------------------------------------------------------------------------
// Strings
// ---------------------------------------------------------------------------

TEST(StringsTest, AsciiCase) {
  EXPECT_EQ(AsciiLower("SeLeCt"), "select");
  EXPECT_EQ(AsciiUpper("SeLeCt"), "SELECT");
  EXPECT_TRUE(EqualsIgnoreCase("OPTIONAL", "optional"));
  EXPECT_FALSE(EqualsIgnoreCase("OPTIONAL", "optionally"));
  EXPECT_TRUE(StartsWithIgnoreCase("select * where", "SELECT"));
  EXPECT_FALSE(StartsWithIgnoreCase("sel", "SELECT"));
}

TEST(StringsTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  a b \t\n"), "a b");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace(" \t "), "");
}

TEST(StringsTest, SplitAndJoin) {
  std::vector<std::string> parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(Join(parts, "|"), "a|b||c");
}

TEST(StringsTest, PercentRoundTrip) {
  std::string original = "SELECT ?x WHERE { ?x a <http://ex/C> . } # 100%";
  std::string encoded = PercentEncode(original);
  EXPECT_EQ(encoded.find(' '), std::string::npos);
  EXPECT_EQ(PercentDecode(encoded), original);
}

TEST(StringsTest, PercentDecodeMalformed) {
  EXPECT_EQ(PercentDecode("%zz"), "%zz");
  EXPECT_EQ(PercentDecode("abc%2"), "abc%2");
  EXPECT_EQ(PercentDecode("a+b"), "a b");
}

TEST(StringsTest, WithThousands) {
  EXPECT_EQ(WithThousands(0), "0");
  EXPECT_EQ(WithThousands(999), "999");
  EXPECT_EQ(WithThousands(1000), "1,000");
  EXPECT_EQ(WithThousands(180653910), "180,653,910");
  EXPECT_EQ(WithThousands(-1234567), "-1,234,567");
}

TEST(StringsTest, Percent) {
  EXPECT_EQ(Percent(8797, 10000), "87.97%");
  EXPECT_EQ(Percent(1, 0), "0.00%");
}

TEST(StringsTest, ParseCountIsStrict) {
  const uint64_t kMax = std::numeric_limits<uint64_t>::max();
  EXPECT_EQ(ParseCount("0", kMax), 0u);
  EXPECT_EQ(ParseCount("42", kMax), 42u);
  EXPECT_EQ(ParseCount("007", kMax), 7u);
  EXPECT_EQ(ParseCount("18446744073709551615", kMax), kMax);
  EXPECT_EQ(ParseCount("10", 10), 10u);
  for (const char* junk : {"", "abc", "5x", "x5", "-1", "+5", " 5", "5 ",
                           "1.5", "18446744073709551616"}) {
    EXPECT_EQ(ParseCount(junk, kMax), std::nullopt) << '"' << junk << '"';
  }
  EXPECT_EQ(ParseCount("11", 10), std::nullopt);
}

// ---------------------------------------------------------------------------
// Levenshtein
// ---------------------------------------------------------------------------

TEST(LevenshteinTest, KnownDistances) {
  EXPECT_EQ(Levenshtein("", ""), 0u);
  EXPECT_EQ(Levenshtein("abc", "abc"), 0u);
  EXPECT_EQ(Levenshtein("kitten", "sitting"), 3u);
  EXPECT_EQ(Levenshtein("flaw", "lawn"), 2u);
  EXPECT_EQ(Levenshtein("", "abc"), 3u);
}

TEST(LevenshteinTest, BoundedAgreesWithExactWithinBudget) {
  Rng rng(99);
  LevenshteinScratch scratch;
  const std::string alphabet = "abcd";
  for (int trial = 0; trial < 200; ++trial) {
    std::string a, b;
    size_t la = rng.Below(20), lb = rng.Below(20);
    for (size_t i = 0; i < la; ++i) a += alphabet[rng.Below(4)];
    for (size_t i = 0; i < lb; ++i) b += alphabet[rng.Below(4)];
    size_t exact = Levenshtein(a, b);
    for (size_t budget : {0u, 1u, 3u, 10u, 40u}) {
      size_t bounded = BoundedLevenshtein(a, b, budget, scratch);
      if (exact <= budget) {
        EXPECT_EQ(bounded, exact) << a << " vs " << b;
      } else {
        EXPECT_GT(bounded, budget) << a << " vs " << b;
      }
    }
  }
}

TEST(LevenshteinTest, SymmetryProperty) {
  Rng rng(7);
  for (int trial = 0; trial < 100; ++trial) {
    std::string a, b;
    for (size_t i = 0; i < rng.Below(15); ++i) {
      a += static_cast<char>('a' + rng.Below(3));
    }
    for (size_t i = 0; i < rng.Below(15); ++i) {
      b += static_cast<char>('a' + rng.Below(3));
    }
    EXPECT_EQ(Levenshtein(a, b), Levenshtein(b, a));
  }
}

TEST(LevenshteinTest, TriangleInequality) {
  Rng rng(11);
  for (int trial = 0; trial < 100; ++trial) {
    std::string s[3];
    for (auto& str : s) {
      for (size_t i = 0; i < rng.Below(12); ++i) {
        str += static_cast<char>('a' + rng.Below(3));
      }
    }
    size_t ab = Levenshtein(s[0], s[1]);
    size_t bc = Levenshtein(s[1], s[2]);
    size_t ac = Levenshtein(s[0], s[2]);
    EXPECT_LE(ac, ab + bc);
  }
}

TEST(LevenshteinTest, SimilarityThreshold) {
  // 25% of the longer string, as in the paper's streak analysis.
  LevenshteinScratch scratch;
  auto similar = [&scratch](std::string_view a, std::string_view b) {
    size_t k = std::max(a.size(), b.size()) / 4;
    return BoundedLevenshtein(a, b, k, scratch) <= k;
  };
  EXPECT_TRUE(similar("aaaa", "aaaa"));
  EXPECT_TRUE(similar("aaaaaaab", "aaaaaaaa"));  // 1/8
  EXPECT_FALSE(similar("abcd", "wxyz"));
  EXPECT_TRUE(similar("", ""));
}

TEST(LevenshteinTest, LengthGapShortCircuit) {
  std::string small(5, 'a');
  std::string large(500, 'a');
  LevenshteinScratch scratch;
  StepBudget steps(1);
  EXPECT_GT(BoundedLevenshtein(small, large, 10, scratch, &steps), 10u);
  EXPECT_EQ(steps.remaining(), 1u);  // rejected before any DP step
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, BelowStaysInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Below(17), 17u);
  }
}

TEST(RngTest, RangeInclusive) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.Range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    if (v == -3) saw_lo = true;
    if (v == 3) saw_hi = true;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Chance(0.0));
    EXPECT_TRUE(rng.Chance(1.0));
  }
}

TEST(RngTest, WeightedRespectsZeros) {
  Rng rng(5);
  std::vector<double> weights = {0.0, 1.0, 0.0};
  for (int i = 0; i < 200; ++i) EXPECT_EQ(rng.Weighted(weights), 1u);
}

TEST(RngTest, WeightedDistribution) {
  Rng rng(5);
  std::vector<double> weights = {1.0, 3.0};
  int counts[2] = {0, 0};
  for (int i = 0; i < 10000; ++i) ++counts[rng.Weighted(weights)];
  double ratio = static_cast<double>(counts[1]) / counts[0];
  EXPECT_NEAR(ratio, 3.0, 0.5);
}

TEST(RngTest, ZipfSkewsLow) {
  Rng rng(5);
  int low = 0, total = 5000;
  for (int i = 0; i < total; ++i) {
    uint64_t v = rng.Zipf(1000, 1.5);
    EXPECT_GE(v, 1u);
    EXPECT_LE(v, 1000u);
    if (v <= 10) ++low;
  }
  // Zipf(1.5): the first ten ranks carry most of the mass.
  EXPECT_GT(low, total / 2);
}

// ---------------------------------------------------------------------------
// Table / Histogram
// ---------------------------------------------------------------------------

TEST(TableTest, AlignsColumns) {
  Table t({"A", "LongHeader"});
  t.AddRow({"xx", "1"});
  t.AddSeparator();
  t.AddRow({"y", "22"});
  std::ostringstream os;
  t.Print(os);
  std::string out = os.str();
  EXPECT_NE(out.find("LongHeader"), std::string::npos);
  EXPECT_NE(out.find("xx"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(TableTest, CsvOutput) {
  Table t({"a", "b"});
  t.AddRow({"1", "2"});
  std::ostringstream os;
  t.PrintCsv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(HistogramTest, BucketsAndOverflow) {
  BucketHistogram h(11);
  h.Add(0);
  h.Add(1);
  h.Add(1);
  h.Add(11);
  h.Add(12);
  h.Add(229);
  EXPECT_EQ(h.Count(0), 1u);
  EXPECT_EQ(h.Count(1), 2u);
  EXPECT_EQ(h.Count(11), 1u);
  EXPECT_EQ(h.Overflow(), 2u);
  EXPECT_EQ(h.Total(), 6u);
}

TEST(HistogramTest, NegativeClampsToZero) {
  BucketHistogram h(5);
  h.Add(-3);
  EXPECT_EQ(h.Count(0), 1u);
}

TEST(HistogramTest, ValuesExactlyOnBucketLimits) {
  // The edge buckets are where an off-by-one would hide: the last
  // direct value must not spill into overflow, and the first value
  // past it must not land in a direct bucket.
  BucketHistogram h(10);
  h.Add(9);
  h.Add(10);  // == max_direct: last direct bucket
  h.Add(11);  // first overflow value
  EXPECT_EQ(h.Count(9), 1u);
  EXPECT_EQ(h.Count(10), 1u);
  EXPECT_EQ(h.Overflow(), 1u);
  EXPECT_EQ(h.Total(), 3u);

  BucketHistogram one(1);
  one.Add(0);
  one.Add(1);
  one.Add(2);
  EXPECT_EQ(one.Count(0), 1u);
  EXPECT_EQ(one.Count(1), 1u);
  EXPECT_EQ(one.Overflow(), 1u);
}

TEST(HistogramTest, WeightedAddOnBoundary) {
  BucketHistogram h(11);
  h.Add(11, 5);
  h.Add(12, 7);
  EXPECT_EQ(h.Count(11), 5u);
  EXPECT_EQ(h.Overflow(), 7u);
}

TEST(HistogramTest, MergeAddsBucketwiseAndRejectsLayoutMismatch) {
  BucketHistogram a(5), b(5);
  a.Add(5);
  b.Add(5);
  b.Add(6);
  a.Merge(b);
  EXPECT_EQ(a.Count(5), 2u);
  EXPECT_EQ(a.Overflow(), 1u);

  BucketHistogram empty(5);
  a.Merge(empty);  // identity
  EXPECT_EQ(a.Count(5), 2u);
  EXPECT_EQ(a.Overflow(), 1u);
  EXPECT_EQ(a.Total(), 3u);
}

}  // namespace
}  // namespace sparqlog::util
