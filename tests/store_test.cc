#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "store/engine.h"
#include "store/store.h"

namespace sparqlog::store {
namespace {

TripleStore SmallGraph() {
  TripleStore s;
  // A small social graph: alice -> bob -> carol -> alice (knows cycle),
  // plus names.
  s.Add("alice", "knows", "bob");
  s.Add("bob", "knows", "carol");
  s.Add("carol", "knows", "alice");
  s.Add("alice", "name", "Alice");
  s.Add("bob", "name", "Bob");
  s.Add("dave", "knows", "alice");
  s.Build();
  return s;
}

TEST(StoreTest, BuildDeduplicates) {
  TripleStore s;
  s.Add("a", "p", "b");
  s.Add("a", "p", "b");
  s.Build();
  EXPECT_EQ(s.size(), 1u);
}

TEST(StoreTest, MatchBySubject) {
  TripleStore s = SmallGraph();
  EXPECT_EQ(s.Match(s.dict().Lookup("alice"), 0, 0).size(),
            2u);  // knows bob, name Alice
}

TEST(StoreTest, MatchByPredicate) {
  TripleStore s = SmallGraph();
  EXPECT_EQ(s.Match(0, s.dict().Lookup("knows"), 0).size(), 4u);
  EXPECT_EQ(s.CountPredicate(s.dict().Lookup("knows")), 4u);
}

TEST(StoreTest, MatchByPredicateObject) {
  TripleStore s = SmallGraph();
  EXPECT_EQ(
      s.Match(0, s.dict().Lookup("knows"), s.dict().Lookup("alice")).size(),
      2u);  // carol, dave
}

// Every bound/unbound combination of (s, p, o) over every term of the
// dictionary (0 is the wildcard), present in that position or not: each
// lookup returns exactly the rows a filter over the full scan keeps. Two
// predicates link alice to bob and alice knows herself, so the
// variable-predicate lookups (s, ?, o) and (?, ?, o) have runs of more
// than one row.
TEST(StoreTest, MatchByPredicateObjectEqualsBruteForce) {
  TripleStore s = SmallGraph();
  s.Add("alice", "likes", "bob");
  s.Add("alice", "knows", "alice");
  s.Build();
  const std::span<const rdf::EncodedTriple> all = s.Match(0, 0, 0);
  ASSERT_EQ(all.size(), s.size());
  const TermId max_id = static_cast<TermId>(s.dict().size());
  for (TermId sv = 0; sv <= max_id; ++sv) {
    for (TermId pv = 0; pv <= max_id; ++pv) {
      for (TermId ov = 0; ov <= max_id; ++ov) {
        std::vector<rdf::EncodedTriple> expected;
        for (const rdf::EncodedTriple& t : all) {
          if ((sv == 0 || t.s == sv) && (pv == 0 || t.p == pv) &&
              (ov == 0 || t.o == ov)) {
            expected.push_back(t);
          }
        }
        const std::span<const rdf::EncodedTriple> run = s.Match(sv, pv, ov);
        std::vector<rdf::EncodedTriple> got(run.begin(), run.end());
        std::sort(got.begin(), got.end());
        EXPECT_EQ(got, expected) << "s=" << sv << " p=" << pv << " o=" << ov;
      }
    }
  }
  EXPECT_EQ(
      s.Match(s.dict().Lookup("alice"), 0, s.dict().Lookup("bob")).size(),
      2u);  // knows, likes
}

TEST(StoreTest, MatchFullScan) {
  TripleStore s = SmallGraph();
  EXPECT_EQ(s.Match(0, 0, 0).size(), s.size());
}

TEST(StoreTest, DistinctCounts) {
  TripleStore s = SmallGraph();
  EXPECT_EQ(s.DistinctSubjects(s.dict().Lookup("knows")), 4u);
  EXPECT_EQ(s.DistinctObjects(s.dict().Lookup("knows")), 3u);
}

// ---------------------------------------------------------------------------
// Engines: correctness (both engines must agree)
// ---------------------------------------------------------------------------

BgpQuery ChainQuery(const TripleStore& s, int length) {
  BgpQuery q;
  int64_t prev = q.AddVar();
  for (int i = 0; i < length; ++i) {
    int64_t next = q.AddVar();
    BgpPattern p;
    p.s = prev;
    p.p = static_cast<int64_t>(s.dict().Lookup("knows"));
    p.o = next;
    q.triples.push_back(p);
    prev = next;
  }
  return q;
}

BgpQuery CycleQuery(const TripleStore& s, int length) {
  BgpQuery q;
  std::vector<int64_t> vars;
  for (int i = 0; i < length; ++i) vars.push_back(q.AddVar());
  for (int i = 0; i < length; ++i) {
    BgpPattern p;
    p.s = vars[static_cast<size_t>(i)];
    p.p = static_cast<int64_t>(s.dict().Lookup("knows"));
    p.o = vars[static_cast<size_t>((i + 1) % length)];
    q.triples.push_back(p);
  }
  return q;
}

TEST(EngineTest, AskChainBothEnginesAgree) {
  TripleStore s = SmallGraph();
  GraphEngine bg(s);
  RelationalEngine pg(s);
  for (int len = 1; len <= 4; ++len) {
    BgpQuery q = ChainQuery(s, len);
    EvalStats a = bg.Evaluate(q, EvalMode::kAsk);
    EvalStats b = pg.Evaluate(q, EvalMode::kAsk);
    EXPECT_EQ(a.matched, b.matched) << "len=" << len;
    EXPECT_TRUE(a.matched);
  }
}

TEST(EngineTest, SelectCountsAgree) {
  TripleStore s = SmallGraph();
  GraphEngine bg(s);
  RelationalEngine pg(s);
  for (int len = 1; len <= 3; ++len) {
    BgpQuery q = ChainQuery(s, len);
    EvalStats a = bg.Evaluate(q, EvalMode::kSelect);
    EvalStats b = pg.Evaluate(q, EvalMode::kSelect);
    EXPECT_EQ(a.num_results, b.num_results) << "len=" << len;
    EXPECT_GT(a.num_results, 0u);
  }
}

TEST(EngineTest, CycleDetection) {
  TripleStore s = SmallGraph();
  GraphEngine bg(s);
  RelationalEngine pg(s);
  // The knows-cycle has length 3: a cycle query of length 3 matches,
  // length 4 does not (no 4-cycle: dave -> alice closes nothing).
  EvalStats a3 = bg.Evaluate(CycleQuery(s, 3), EvalMode::kAsk);
  EvalStats b3 = pg.Evaluate(CycleQuery(s, 3), EvalMode::kAsk);
  EXPECT_TRUE(a3.matched);
  EXPECT_TRUE(b3.matched);
  EvalStats a4 = bg.Evaluate(CycleQuery(s, 4), EvalMode::kAsk);
  EvalStats b4 = pg.Evaluate(CycleQuery(s, 4), EvalMode::kAsk);
  EXPECT_FALSE(a4.matched);
  EXPECT_FALSE(b4.matched);
}

TEST(EngineTest, SelectCycleCountsAgree) {
  TripleStore s = SmallGraph();
  GraphEngine bg(s);
  RelationalEngine pg(s);
  BgpQuery q = CycleQuery(s, 3);
  EvalStats a = bg.Evaluate(q, EvalMode::kSelect);
  EvalStats b = pg.Evaluate(q, EvalMode::kSelect);
  EXPECT_EQ(a.num_results, b.num_results);
  EXPECT_EQ(a.num_results, 3u);  // 3 rotations of the triangle
}

TEST(EngineTest, ConstantsInPatterns) {
  TripleStore s = SmallGraph();
  GraphEngine bg(s);
  RelationalEngine pg(s);
  BgpQuery q;
  int64_t x = q.AddVar();
  BgpPattern p;
  p.s = static_cast<int64_t>(s.dict().Lookup("alice"));
  p.p = static_cast<int64_t>(s.dict().Lookup("knows"));
  p.o = x;
  q.triples.push_back(p);
  EXPECT_EQ(bg.Evaluate(q, EvalMode::kSelect).num_results, 1u);
  EXPECT_EQ(pg.Evaluate(q, EvalMode::kSelect).num_results, 1u);
}

TEST(EngineTest, GroundPatternBothEnginesAgree) {
  // A pattern without variables matches iff its triple is stored. Alone
  // it has one (empty) solution or none; joined with a variable pattern
  // it keeps or empties the other side's solutions.
  TripleStore s = SmallGraph();
  GraphEngine bg(s);
  RelationalEngine pg(s);
  auto id = [&s](const char* term) {
    return static_cast<int64_t>(s.dict().Lookup(term));
  };
  for (bool present : {true, false}) {
    const std::string context = present ? "present" : "absent";
    BgpQuery ground;
    BgpPattern fact;
    fact.s = id("alice");
    fact.p = id("knows");
    fact.o = id(present ? "bob" : "carol");  // alice knows only bob
    ground.triples.push_back(fact);
    for (EvalMode mode : {EvalMode::kAsk, EvalMode::kSelect}) {
      EvalStats a = bg.Evaluate(ground, mode);
      EvalStats b = pg.Evaluate(ground, mode);
      EXPECT_EQ(a.matched, present) << context;
      EXPECT_EQ(b.matched, present) << context;
      EXPECT_EQ(b.num_results, a.num_results) << context;
    }

    BgpQuery joined;
    BgpPattern named;
    named.s = joined.AddVar();
    named.p = id("name");
    named.o = joined.AddVar();
    for (bool ground_first : {true, false}) {
      joined.triples = ground_first ? std::vector<BgpPattern>{fact, named}
                                    : std::vector<BgpPattern>{named, fact};
      EvalStats a = bg.Evaluate(joined, EvalMode::kSelect);
      EvalStats b = pg.Evaluate(joined, EvalMode::kSelect);
      EXPECT_EQ(a.num_results, present ? 2u : 0u) << context;
      EXPECT_EQ(b.num_results, a.num_results)
          << context << " ground_first=" << ground_first;
      EXPECT_EQ(b.matched, present) << context;
    }
  }
}

TEST(EngineTest, EmptyResultHandled) {
  TripleStore s = SmallGraph();
  GraphEngine bg(s);
  RelationalEngine pg(s);
  BgpQuery q;
  int64_t x = q.AddVar();
  BgpPattern p;
  p.s = x;
  p.p = static_cast<int64_t>(s.dict().Lookup("name"));
  // A term known to the dictionary but never asserted in a triple.
  p.o = static_cast<int64_t>(s.dict().Intern("Nobody"));
  q.triples.push_back(p);
  EXPECT_FALSE(bg.Evaluate(q, EvalMode::kAsk).matched);
  EXPECT_FALSE(pg.Evaluate(q, EvalMode::kAsk).matched);
}

TEST(EngineTest, RepeatedVariableWithinTriple) {
  TripleStore s;
  s.Add("n1", "self", "n1");
  s.Add("n1", "self", "n2");
  s.Build();
  GraphEngine bg(s);
  RelationalEngine pg(s);
  BgpQuery q;
  int64_t x = q.AddVar();
  BgpPattern p;
  p.s = x;
  p.p = static_cast<int64_t>(s.dict().Lookup("self"));
  p.o = x;  // same variable: only the true self-loop matches
  q.triples.push_back(p);
  EXPECT_EQ(bg.Evaluate(q, EvalMode::kSelect).num_results, 1u);
  EXPECT_EQ(pg.Evaluate(q, EvalMode::kSelect).num_results, 1u);
}

TEST(EngineTest, StepCapReported) {
  // A 6-cycle query over a 100-node graph (n -> 37n mod 100), on both
  // engines.
  TripleStore s;
  for (int i = 0; i < 3000; ++i) {
    s.Add("n" + std::to_string(i % 100), "e",
          "n" + std::to_string((i * 37) % 100));
  }
  s.Build();
  BgpQuery q = CycleQuery(s, 6);
  // Rebuild against this store's dictionary.
  for (auto& t : q.triples) {
    t.p = static_cast<int64_t>(s.dict().Lookup("e"));
  }
  GraphEngine bg(s);
  RelationalEngine pg(s);
  for (const Engine* engine : {static_cast<const Engine*>(&bg),
                               static_cast<const Engine*>(&pg)}) {
    SCOPED_TRACE(engine->name());
    // A cap of one step stops the evaluation at its second tuple.
    util::StepBudget tiny(1);
    EvalStats capped = engine->Evaluate(q, EvalMode::kSelect, &tiny);
    EXPECT_TRUE(capped.capped);
    EXPECT_EQ(capped.steps, 1u);

    // Steps are a pure function of the store and the query.
    EvalStats first = engine->Evaluate(q, EvalMode::kSelect);
    EvalStats second = engine->Evaluate(q, EvalMode::kSelect);
    EXPECT_FALSE(first.capped);
    EXPECT_GT(first.steps, 1u);
    // 37^6 = 9 (mod 100), so only the walks from 0, 25, 50 and 75 close.
    EXPECT_EQ(first.num_results, 4u);
    EXPECT_EQ(first.steps, second.steps);

    // A cap the evaluation never reaches changes nothing.
    util::StepBudget generous(first.steps * 2);
    EvalStats limited = engine->Evaluate(q, EvalMode::kSelect, &generous);
    EXPECT_FALSE(limited.capped);
    EXPECT_EQ(limited.steps, first.steps);
    EXPECT_EQ(limited.num_results, first.num_results);
  }
}

}  // namespace
}  // namespace sparqlog::store
