// Property tests for the banded bit-parallel Levenshtein kernel: it
// must agree with the classic DP and with the pre-band Myers kernel kept
// in testing/reference_streaks on arbitrary byte strings — including
// invalid UTF-8, embedded NULs, lengths that cross the 64-row block
// boundaries, shared prefixes/suffixes, and budgets on both sides of
// the true distance.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <string>
#include <string_view>

#include "testing/reference_streaks.h"
#include "util/levenshtein.h"
#include "util/rng.h"

namespace sparqlog::util {
namespace {

namespace reference = testing::reference;

/// A budget no distance reaches: the kernel returns the exact distance.
constexpr size_t kUnbounded = SIZE_MAX - 1;

std::string RandomBytes(Rng& rng, size_t max_len) {
  size_t len = rng.Below(max_len + 1);
  std::string s(len, '\0');
  for (char& c : s) {
    if (rng.Chance(0.5)) {
      // Small alphabet: forces many equal characters (the interesting
      // DP paths) and frequent near-misses.
      c = static_cast<char>('a' + rng.Below(4));
    } else {
      // Raw bytes: NULs, invalid UTF-8, high bit set — all of it.
      c = static_cast<char>(rng.Below(256));
    }
  }
  return s;
}

/// A mutated copy of `s`: a few random edits, so pairs cover the whole
/// distance range from 0 to far apart.
std::string Mutate(Rng& rng, std::string s, size_t max_edits = 8) {
  size_t edits = rng.Below(max_edits);
  for (size_t e = 0; e < edits; ++e) {
    size_t pos = s.empty() ? 0 : rng.Below(s.size() + 1);
    switch (rng.Below(3)) {
      case 0:
        s.insert(pos, 1, static_cast<char>(rng.Below(256)));
        break;
      case 1:
        if (!s.empty() && pos < s.size()) s.erase(pos, 1);
        break;
      default:
        if (!s.empty() && pos < s.size()) {
          s[pos] = static_cast<char>(rng.Below(256));
        }
        break;
    }
  }
  return s;
}

size_t Distance(std::string_view a, std::string_view b) {
  LevenshteinScratch scratch;
  return BoundedLevenshtein(a, b, kUnbounded, scratch);
}

TEST(MyersLevenshteinTest, KnownDistances) {
  EXPECT_EQ(Distance("", ""), 0u);
  EXPECT_EQ(Distance("abc", "abc"), 0u);
  EXPECT_EQ(Distance("kitten", "sitting"), 3u);
  EXPECT_EQ(Distance("flaw", "lawn"), 2u);
  EXPECT_EQ(Distance("", "abc"), 3u);
  EXPECT_EQ(Distance("abc", ""), 3u);
  EXPECT_EQ(reference::MyersBoundedLevenshtein("kitten", "sitting",
                                               kUnbounded),
            3u);
}

TEST(MyersLevenshteinTest, ExactlyAtTheWordBoundary) {
  // Patterns of length 63, 64, 65 exercise the single-block mask edge
  // and the switch to several blocks.
  for (size_t len : {63u, 64u, 65u, 128u, 129u}) {
    std::string a(len, 'x');
    std::string b = a;
    b.back() = 'y';
    std::string c = a;
    c.front() = 'y';
    c.back() = 'z';
    EXPECT_EQ(Distance(a, a), 0u) << "len=" << len;
    EXPECT_EQ(Distance(a, b), 1u) << "len=" << len;
    EXPECT_EQ(Distance(a, b + "zz"), 3u) << "len=" << len;
    // Mismatches at both ends: the trim leaves the whole pattern.
    EXPECT_EQ(Distance(a, c), 2u) << "len=" << len;
  }
}

TEST(MyersLevenshteinTest, AgreesWithClassicOnRandomByteStrings) {
  Rng rng(20260726);
  LevenshteinScratch scratch;
  for (int i = 0; i < 400; ++i) {
    // Lengths 0..300: both sides of the 64-row block and several block
    // counts.
    std::string a = RandomBytes(rng, 300);
    std::string b = rng.Chance(0.5) ? Mutate(rng, a) : RandomBytes(rng, 300);
    size_t expected = Levenshtein(a, b);
    EXPECT_EQ(BoundedLevenshtein(a, b, kUnbounded, scratch), expected)
        << "case " << i << " |a|=" << a.size() << " |b|=" << b.size();
    EXPECT_EQ(reference::MyersBoundedLevenshtein(a, b, kUnbounded), expected)
        << "reference, case " << i;
  }
}

TEST(BoundedLevenshteinTest, ScratchOverloadMatchesAllocating) {
  // One scratch reused across calls of every size must answer like a
  // fresh scratch per call: the pattern masks are cleared after use.
  Rng rng(99);
  LevenshteinScratch shared;
  for (int i = 0; i < 300; ++i) {
    std::string a = RandomBytes(rng, 200);
    std::string b = rng.Chance(0.5) ? Mutate(rng, a) : RandomBytes(rng, 200);
    size_t max_dist = rng.Below(64);
    LevenshteinScratch fresh;
    EXPECT_EQ(BoundedLevenshtein(a, b, max_dist, shared),
              BoundedLevenshtein(a, b, max_dist, fresh))
        << "case " << i << " k=" << max_dist;
  }
  for (uint64_t word : shared.peq) EXPECT_EQ(word, 0u);
}

TEST(BoundedLevenshteinTest, AllVariantsHonorTheContract) {
  // Contract: exact distance when it is <= k, k + 1 otherwise — for the
  // banded kernel and the reference kernel.
  Rng rng(4242);
  LevenshteinScratch scratch;
  for (int i = 0; i < 300; ++i) {
    std::string a = RandomBytes(rng, 180);
    std::string b = rng.Chance(0.6) ? Mutate(rng, a) : RandomBytes(rng, 180);
    size_t exact = Levenshtein(a, b);
    for (size_t k : {size_t{0}, exact / 2, exact, exact + 1, exact + 10}) {
      size_t expected = std::min(exact, k + 1);
      EXPECT_EQ(BoundedLevenshtein(a, b, k, scratch), expected)
          << "banded, case " << i << " k=" << k;
      EXPECT_EQ(reference::MyersBoundedLevenshtein(a, b, k), expected)
          << "reference, case " << i << " k=" << k;
    }
  }
}

TEST(BoundedLevenshteinTest, BandedKernelMatchesClassicAndReference) {
  // Lengths that cross 64/128/192, pairs sharing long prefixes and
  // suffixes (the trim), equal and empty strings, and budgets at the
  // distance's edges plus the paper's floor(0.25 * longer).
  Rng rng(20170734);
  LevenshteinScratch scratch;
  const size_t lengths[] = {0, 1, 63, 64, 65, 127, 128, 129, 191, 192, 193};
  for (int i = 0; i < 1500; ++i) {
    std::string a;
    std::string b;
    switch (i % 5) {
      case 0: {  // independent random strings near the block boundaries
        size_t la = lengths[rng.Below(std::size(lengths))] + rng.Below(3);
        size_t lb = lengths[rng.Below(std::size(lengths))] + rng.Below(3);
        for (size_t j = 0; j < la; ++j) {
          a += static_cast<char>('a' + rng.Below(3));
        }
        for (size_t j = 0; j < lb; ++j) {
          b += static_cast<char>('a' + rng.Below(3));
        }
        break;
      }
      case 1: {  // a refinement: few edits of a long string
        a = RandomBytes(rng, 260);
        b = Mutate(rng, a, 24);
        break;
      }
      case 2: {  // shared prefix and suffix around differing middles
        std::string prefix = RandomBytes(rng, 150);
        std::string suffix = RandomBytes(rng, 150);
        a = prefix + RandomBytes(rng, 90) + suffix;
        b = prefix + RandomBytes(rng, 90) + suffix;
        break;
      }
      case 3: {  // equal strings, or one empty
        a = RandomBytes(rng, 200);
        b = rng.Chance(0.5) ? a : std::string();
        break;
      }
      default: {  // a repeated motif: many equal-cost alignments
        std::string motif = RandomBytes(rng, 5) + "x";
        const size_t target = 70 + rng.Below(140);
        while (a.size() < target) a += motif;
        b = Mutate(rng, a, 12);
        break;
      }
    }
    if (rng.Chance(0.5)) std::swap(a, b);
    const size_t d = Levenshtein(a, b);
    const size_t longer = std::max(a.size(), b.size());
    const size_t quarter = static_cast<size_t>(std::floor(0.25 * longer));
    for (size_t k : {size_t{0}, d > 0 ? d - 1 : 0, d, d + 1, quarter}) {
      const size_t expected = std::min(d, k + 1);
      EXPECT_EQ(BoundedLevenshtein(a, b, k, scratch), expected)
          << "case " << i << " |a|=" << a.size() << " |b|=" << b.size()
          << " d=" << d << " k=" << k;
      EXPECT_EQ(reference::MyersBoundedLevenshtein(a, b, k), expected)
          << "reference, case " << i << " k=" << k;
    }
  }
}

TEST(BoundedLevenshteinTest, BudgetChargesOneStepPerBandBlock) {
  // A 64-byte pattern is one block: one step per text column.
  LevenshteinScratch scratch;
  std::string a(64, 'a');
  std::string b = "b" + std::string(62, 'a') + "bc";  // no common ends
  StepBudget one_block(1000);
  EXPECT_EQ(BoundedLevenshtein(a, b, 8, scratch, &one_block), 3u);
  EXPECT_EQ(1000 - one_block.remaining(), b.size());

  // Ten blocks, budget 8: the band holds at most two blocks per column,
  // where the unbanded DP steps all ten.
  std::string p(640, 'p');
  std::string t = "q" + p.substr(1, 638) + "r";
  StepBudget band(1'000'000);
  EXPECT_EQ(BoundedLevenshtein(p, t, 8, scratch, &band), 2u);
  const uint64_t charged = 1'000'000 - band.remaining();
  EXPECT_GE(charged, t.size());
  EXPECT_LE(charged, 2 * t.size());

  // Exhaustion stops the DP, returns k + 1 and leaves the scratch clean.
  StepBudget tiny(5);
  EXPECT_EQ(BoundedLevenshtein(p, t, 8, scratch, &tiny), 9u);
  EXPECT_TRUE(tiny.exhausted());
  for (uint64_t word : scratch.peq) EXPECT_EQ(word, 0u);
}

TEST(SimilarByLevenshteinTest, OverloadsAgree) {
  // The reference predicate and the banded kernel at the same budget
  // both decide the paper's definition.
  Rng rng(777);
  LevenshteinScratch scratch;
  for (int i = 0; i < 300; ++i) {
    std::string a = RandomBytes(rng, 150);
    std::string b = rng.Chance(0.7) ? Mutate(rng, a) : RandomBytes(rng, 150);
    for (double threshold : {0.0, 0.1, 0.25, 0.5, 1.0}) {
      size_t longer = std::max(a.size(), b.size());
      size_t k = static_cast<size_t>(std::floor(threshold * longer));
      bool by_definition = longer == 0 || Levenshtein(a, b) <= k;
      EXPECT_EQ(reference::SimilarByLevenshtein(a, b, threshold),
                by_definition)
          << "case " << i << " t=" << threshold;
      EXPECT_EQ(BoundedLevenshtein(a, b, k, scratch) <= k, by_definition)
          << "case " << i << " t=" << threshold;
    }
  }
}

TEST(SimilarByLevenshteinTest, EmptyStringsAreSimilar) {
  LevenshteinScratch scratch;
  EXPECT_TRUE(reference::SimilarByLevenshtein("", "", 0.0));
  EXPECT_TRUE(reference::SimilarByLevenshtein("", "", 0.25));
  EXPECT_EQ(BoundedLevenshtein("", "", 0, scratch), 0u);
}

TEST(MyersLevenshteinTest, EmbeddedNulsAreOrdinaryBytes) {
  std::string a("a\0b\0c", 5);
  std::string b("a\0b\0d", 5);
  std::string c("abc", 3);
  EXPECT_EQ(Distance(a, a), 0u);
  EXPECT_EQ(Distance(a, b), 1u);
  EXPECT_EQ(Distance(a, c), Levenshtein(a, c));
}

TEST(MyersLevenshteinTest, ScratchIsReusableAcrossSizes) {
  // A scratch that served a many-block call must still be valid for
  // smaller and single-block calls (state is re-initialized per call).
  LevenshteinScratch scratch;
  std::string big(300, 'q');
  std::string big2(280, 'q');
  std::string mid(70, 'z');
  EXPECT_EQ(BoundedLevenshtein(big, big2, kUnbounded, scratch), 20u);
  EXPECT_EQ(BoundedLevenshtein("kitten", "sitting", kUnbounded, scratch), 3u);
  EXPECT_EQ(BoundedLevenshtein(mid, big, kUnbounded, scratch), 300u);
  EXPECT_EQ(BoundedLevenshtein("", "x", kUnbounded, scratch), 1u);
  EXPECT_EQ(BoundedLevenshtein(big + mid, mid + big, kUnbounded, scratch),
            Levenshtein(big + mid, mid + big));
}

}  // namespace
}  // namespace sparqlog::util
