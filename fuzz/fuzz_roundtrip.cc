// fuzz_roundtrip — the standing differential-verification driver.
//
// From one fixed seed it (1) generates queries with the property-based
// fuzzer and checks the round-trip / streaming-hash invariants,
// (2) mutates log lines and checks the ingest invariants, (3) replays
// randomized serial-vs-parallel digest equivalence rounds, and
// (4) replays randomized serial-vs-sharded streak-report equivalence
// rounds on fuzzed refinement-session logs, with pairs planted on the
// edges of the Levenshtein kernel's band, and (5) replays fuzzed
// queries through the pre-change vs allocation-lean structural-analysis
// paths (shape/girth/treewidth/GHW, the bench oracle) plus
// serial-vs-parallel StatsReport digests over analysis-heavy logs, and
// (6) replays the vectorized-scan differential (naive vs scalar vs SIMD
// at every start offset, PercentDecode, full-lexer determinism) on
// fuzzed queries, mutated log lines, and raw byte soup pinned around
// the 16-byte vector width, plus mmap-vs-stream-vs-vector source
// equivalence rounds on fuzzed files (CRLF, missing trailing newline,
// tiny slice budgets), and (7) replays seeded fault plans — truncated
// sources, transient/persistent read errors, injected allocation
// failures, deterministic poison lines — through the fault-containment
// pipeline, checking that nothing escapes, accounting conservation
// holds, quarantine reporting agrees with the counters, and
// deterministic plans replay bit-identically.
// Any violation is greedily shrunk to a minimal reproducer, printed as
// a ready-to-paste unit test, appended to --out, and fails the run.
//
// Usage:
//   fuzz_roundtrip [--seed N] [--queries N] [--lines N]
//                  [--pipeline-rounds N] [--pipeline-lines N]
//                  [--streak-rounds N] [--streak-queries N]
//                  [--analysis-rounds N] [--analysis-queries N]
//                  [--scan-inputs N] [--source-rounds N]
//                  [--fault-rounds N] [--fault-lines N]
//                  [--snapshot-rounds N] [--snapshot-lines N] [--out PATH]
// Numeric values are unsigned decimal integers. A bad value, an unknown
// flag or a missing value exits 2 with a message, so a typo can never
// quietly shrink the budget.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

// Install the counting/fault-injecting allocator: phase 7's
// allocation-failure plans need operator new to consult the injection
// countdown (obs/alloc_tracker.h). Exactly one TU per binary.
#include "obs/alloc_hooks.h"
#include "sparql/parser.h"
#include "sparql/serializer.h"
#include "streaks/streaks.h"
#include "testing/fault_injection.h"
#include "testing/snapshot_faults.h"
#include "testing/invariants.h"
#include "testing/log_mutator.h"
#include "testing/query_fuzzer.h"
#include "testing/shrink.h"
#include "util/rng.h"
#include "util/strings.h"

namespace {

using sparqlog::testing::CheckLogLine;
using sparqlog::testing::CheckLogLineScratch;
using sparqlog::testing::CheckQuery;
using sparqlog::testing::CheckQueryText;
using sparqlog::testing::CheckSerialParallelEquivalence;
using sparqlog::testing::Violation;

struct Config {
  uint64_t seed = 20260726;
  long queries = 10000;
  long lines = 10000;
  long pipeline_rounds = 4;
  long pipeline_lines = 1500;
  long streak_rounds = 6;
  long streak_queries = 400;
  long analysis_rounds = 4;
  long analysis_queries = 300;
  long scan_inputs = 384;
  long source_rounds = 4;
  long fault_rounds = 1000;
  long fault_lines = 120;
  long snapshot_rounds = 60;
  long snapshot_lines = 96;
  std::string out_path = "fuzz_reproducers.txt";
};

[[noreturn]] void UsageError(const std::string& message) {
  std::fprintf(stderr, "fuzz_roundtrip: %s\n", message.c_str());
  std::exit(2);
}

Config ParseArgs(int argc, char** argv) {
  Config config;
  const std::pair<std::string_view, long*> counts[] = {
      {"--queries", &config.queries},
      {"--lines", &config.lines},
      {"--pipeline-rounds", &config.pipeline_rounds},
      {"--pipeline-lines", &config.pipeline_lines},
      {"--streak-rounds", &config.streak_rounds},
      {"--streak-queries", &config.streak_queries},
      {"--analysis-rounds", &config.analysis_rounds},
      {"--analysis-queries", &config.analysis_queries},
      {"--scan-inputs", &config.scan_inputs},
      {"--source-rounds", &config.source_rounds},
      {"--fault-rounds", &config.fault_rounds},
      {"--fault-lines", &config.fault_lines},
      {"--snapshot-rounds", &config.snapshot_rounds},
      {"--snapshot-lines", &config.snapshot_lines},
  };
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) UsageError(flag + " needs a value");
      return argv[++i];
    };
    auto count = [&](uint64_t max) {
      std::optional<uint64_t> v = sparqlog::util::ParseCount(value(), max);
      if (!v) UsageError("bad value for " + flag);
      return *v;
    };
    if (flag == "--seed") {
      config.seed = count(std::numeric_limits<uint64_t>::max());
    } else if (flag == "--out") {
      config.out_path = value();
    } else {
      auto it = std::find_if(std::begin(counts), std::end(counts),
                             [&](const auto& c) { return c.first == flag; });
      if (it == std::end(counts)) UsageError("unknown flag " + flag);
      *it->second =
          static_cast<long>(count(std::numeric_limits<long>::max()));
    }
  }
  return config;
}

/// A variant of `core` (a query whose prologue is already stripped) at
/// distance k + delta from it, delta in {-1, 0, +1}, where k is the
/// pair's similarity budget floor(threshold * longer). Every insertion
/// sits at one end, right after the form keyword, and every deletion at
/// the other (`insert_first` picks which), so the only optimal alignment
/// runs along an edge of the bounded kernel's Ukkonen band: a band that
/// is one row short there answers "not similar" for a similar pair.
/// Random single edits rarely build such pairs. nullopt when `core` is
/// too short for the distance.
std::optional<std::string> BandEdgeVariant(std::string_view core,
                                           double threshold, int delta,
                                           bool insert_first,
                                           sparqlog::util::Rng& rng) {
  const size_t space = core.find(' ');
  if (space == std::string_view::npos) return std::nullopt;
  const size_t head = space + 1;  // kept intact, so the prologue strip
                                  // still starts at the keyword
  // g is the length gap; the distance needs the parity of g.
  for (size_t g = rng.Below(3); g < 8; ++g) {
    const size_t k = static_cast<size_t>(
        std::floor(threshold * static_cast<double>(core.size() + g)));
    if (static_cast<long>(k) + delta < static_cast<long>(g)) continue;
    const size_t d = static_cast<size_t>(static_cast<long>(k) + delta);
    if ((d - g) % 2 != 0) continue;
    const size_t ins = (d + g) / 2, del = (d - g) / 2;
    if (head + del >= core.size()) return std::nullopt;
    // '~' is rare in a fuzzed query, so inserted bytes seldom match.
    const std::string run(ins, '~');
    std::string out(core.substr(0, head));
    if (insert_first) {
      out += run;
      out += core.substr(head, core.size() - head - del);
    } else {
      out += core.substr(head + del);
      out += run;
    }
    return out;
  }
  return std::nullopt;
}

/// Shrinks and reports one violation; returns the reproducer text.
std::string Report(const Config& config, const Violation& violation,
                   std::string_view kind, int index,
                   const sparqlog::testing::FailPredicate& fails) {
  std::string minimal = violation.input;
  if (!violation.input.empty() && fails(violation.input)) {
    sparqlog::testing::ShrinkOutcome shrunk =
        sparqlog::testing::ShrinkText(violation.input, fails);
    minimal = shrunk.text;
    std::fprintf(stderr,
                 "  shrink: %zu -> %zu bytes (%d evals, %d reductions)\n",
                 violation.input.size(), minimal.size(), shrunk.evals,
                 shrunk.accepted);
  }
  std::string name =
      std::string(kind == "log_line" ? "LogLine" : "Query") + "Seed" +
      std::to_string(config.seed) + "Case" + std::to_string(index);
  std::string reproducer = sparqlog::testing::FormatReproducer(
      name, kind, minimal, config.seed);
  std::fprintf(stderr, "VIOLATION [%s] %s\n%s\n", violation.invariant.c_str(),
               violation.detail.c_str(), reproducer.c_str());
  std::ofstream out(std::string(config.out_path), std::ios::app);
  out << "// [" << violation.invariant << "] " << violation.detail << "\n"
      << reproducer << "\n";
  return reproducer;
}

}  // namespace

int main(int argc, char** argv) {
  Config config = ParseArgs(argc, argv);
  std::fprintf(stderr,
               "fuzz_roundtrip: seed=%llu queries=%ld lines=%ld "
               "pipeline_rounds=%ld\n",
               static_cast<unsigned long long>(config.seed), config.queries,
               config.lines, config.pipeline_rounds);

  sparqlog::sparql::Parser parser;
  int violations = 0;

  // Phase 1: generated queries — round-trip + streaming-hash invariants.
  {
    sparqlog::testing::QueryFuzzOptions fuzz_options;
    fuzz_options.seed = config.seed;
    sparqlog::testing::QueryFuzzer fuzzer(fuzz_options);
    for (long i = 0; i < config.queries; ++i) {
      sparqlog::sparql::Query q = fuzzer.Next();
      if (auto v = CheckQuery(parser, q)) {
        ++violations;
        // Shrink structurally first (a closure violation has no
        // parseable text to shrink), pinned to the same invariant so
        // the reducer cannot wander to a different bug.
        std::string invariant = v->invariant;
        sparqlog::testing::AstShrinkOutcome shrunk =
            sparqlog::testing::ShrinkQueryAst(
                q, [&parser, &invariant](const sparqlog::sparql::Query& cand) {
                  auto cv = CheckQuery(parser, cand);
                  return cv.has_value() && cv->invariant == invariant;
                });
        std::string minimal = sparqlog::sparql::Serialize(shrunk.query);
        std::fprintf(stderr,
                     "  ast-shrink: %zu -> %zu bytes (%d evals, %d "
                     "reductions)\n",
                     v->input.size(), minimal.size(), shrunk.evals,
                     shrunk.accepted);
        std::string name = "QuerySeed" + std::to_string(config.seed) +
                           "Case" + std::to_string(i);
        std::string reproducer;
        auto text_violation = CheckQueryText(parser, minimal);
        if (text_violation.has_value() &&
            text_violation->invariant == invariant) {
          // The minimal canonical form still parses and still violates:
          // a plain text reproducer works and can shrink further.
          sparqlog::testing::ShrinkOutcome text_shrunk =
              sparqlog::testing::ShrinkText(
                  minimal, [&parser, &invariant](const std::string& text) {
                    auto cv = CheckQueryText(parser, text);
                    return cv.has_value() && cv->invariant == invariant;
                  });
          reproducer = sparqlog::testing::FormatReproducer(
              name, "query", text_shrunk.text, config.seed);
        } else {
          reproducer = sparqlog::testing::FormatSeedReplayReproducer(
              name, config.seed, i, invariant, minimal);
        }
        std::fprintf(stderr, "VIOLATION [%s] %s\n%s\n", v->invariant.c_str(),
                     v->detail.c_str(), reproducer.c_str());
        std::ofstream out(config.out_path, std::ios::app);
        out << "// [" << v->invariant << "] " << v->detail << "\n"
            << reproducer << "\n";
      }
    }
    const sparqlog::testing::FuzzCoverage& cov = fuzzer.coverage();
    std::fprintf(stderr,
                 "  queries: %llu checked (%llu from gmark skeletons, "
                 "%llu escaped literals)\n",
                 static_cast<unsigned long long>(cov.queries),
                 static_cast<unsigned long long>(cov.gmark_skeletons),
                 static_cast<unsigned long long>(cov.escaped_literals));
  }

  // Phase 2: mutated log lines — ingest invariants.
  {
    sparqlog::testing::QueryFuzzOptions fuzz_options;
    fuzz_options.seed = config.seed ^ 0x9E3779B97F4A7C15ULL;
    sparqlog::testing::QueryFuzzer fuzzer(fuzz_options);
    sparqlog::testing::LogMutatorOptions mutator_options;
    mutator_options.seed = config.seed;
    sparqlog::testing::LogLineMutator mutator(mutator_options);
    // A small rotating pool of query texts keeps generation cheap and
    // produces duplicate-after-mutation collisions on purpose. The
    // handwritten entries carry escape forms the serializer might
    // mishandle — they must NOT come from Serialize itself, or a
    // serializer escaping bug could never reach the parser intact.
    std::vector<std::string> pool = {
        "ASK { ?s ?p \"quo\\\"te\" }",
        "ASK { ?s ?p \"back\\\\slash\\n\\ttab\" }",
        "SELECT * WHERE { ?s ?p \"uni\\u0041code\" }",
        "ASK { ?s ?p '''long\n\"string\"''' }",
        "SELECT ?x WHERE { ?x <p:p> \"l\"@en-us . FILTER(?x != \"\\r\") }",
        "PREFIX ex: <http://e.org/> ASK { ex:s ex:p ex:o }",
        "ASK { ?s <http://e.org/%20sp> \"100%\" }",
        "SELECT (GROUP_CONCAT(?x; SEPARATOR=\"\\\"\") AS ?c) WHERE { ?s ?p ?x }",
    };
    const size_t handwritten = pool.size();
    for (int i = 0; i < 56; ++i) {
      pool.push_back(sparqlog::sparql::Serialize(fuzzer.Next()));
    }
    // One scratch for the whole phase: thousands of sequential
    // ParseLogLine calls reuse the same arena/token/pname state, with a
    // deliberately infrequent Reset so epoch recycling is exercised too.
    // Under ASan/UBSan this is the arena-reuse soak test.
    sparqlog::corpus::ParseScratch scratch;
    for (long i = 0; i < config.lines; ++i) {
      if (i > 0 && i % 97 == 0) {
        // Refresh only fuzzer-generated slots; the handwritten escape
        // fixtures must survive the whole run.
        pool[handwritten +
             static_cast<size_t>(i / 97) % (pool.size() - handwritten)] =
            sparqlog::sparql::Serialize(fuzzer.Next());
      }
      const std::string& text = pool[static_cast<size_t>(i) % pool.size()];
      std::string line = mutator.NextLine(text);
      if (auto v = CheckLogLine(parser, line)) {
        ++violations;
        // Pin the shrink to the observed invariant so byte deletion
        // cannot morph the witness into a different bug.
        std::string invariant = v->invariant;
        Report(config, *v, "log_line", static_cast<int>(i),
               [&parser, invariant](const std::string& candidate) {
                 auto cv = CheckLogLine(parser, candidate);
                 return cv.has_value() && cv->invariant == invariant;
               });
      }
      if (i % 701 == 0) scratch.Reset();
      if (auto v = CheckLogLineScratch(parser, line, scratch)) {
        ++violations;
        std::string invariant = v->invariant;
        Report(config, *v, "log_line_scratch", static_cast<int>(i),
               [&parser, invariant](const std::string& candidate) {
                 // Fresh scratch per candidate: the shrink predicate
                 // must be deterministic, not a function of how many
                 // candidates ran before it.
                 sparqlog::corpus::ParseScratch fresh;
                 auto cv = CheckLogLineScratch(parser, candidate, fresh);
                 return cv.has_value() && cv->invariant == invariant;
               });
      }
    }
    std::fprintf(stderr, "  log lines: %ld checked\n", config.lines);
  }

  // Phase 3: randomized serial-vs-parallel digest equivalence.
  {
    sparqlog::util::Rng rng(config.seed ^ 0xA5A5A5A5A5A5A5A5ULL);
    sparqlog::testing::QueryFuzzOptions fuzz_options;
    fuzz_options.seed = config.seed + 1;
    sparqlog::testing::QueryFuzzer fuzzer(fuzz_options);
    sparqlog::testing::LogMutatorOptions mutator_options;
    mutator_options.seed = config.seed + 1;
    sparqlog::testing::LogLineMutator mutator(mutator_options);
    std::vector<std::string> texts;
    for (int i = 0; i < 48; ++i) {
      texts.push_back(sparqlog::sparql::Serialize(fuzzer.Next()));
    }
    for (long round = 0; round < config.pipeline_rounds; ++round) {
      std::vector<std::string> log;
      log.reserve(static_cast<size_t>(config.pipeline_lines));
      for (long i = 0; i < config.pipeline_lines; ++i) {
        // Duplicates on purpose: dedup correctness is the point.
        log.push_back(
            mutator.NextLine(texts[rng.Below(texts.size())]));
      }
      sparqlog::pipeline::PipelineOptions equiv =
          sparqlog::testing::RandomEquivalenceConfig(rng);
      if (auto v = CheckSerialParallelEquivalence(log, equiv)) {
        ++violations;
        std::fprintf(stderr, "VIOLATION [%s] %s (round %ld)\n",
                     v->invariant.c_str(), v->detail.c_str(), round);
        std::ofstream out(config.out_path, std::ios::app);
        out << "// [" << v->invariant << "] " << v->detail << " (round "
            << round << ", seed " << config.seed << ")\n";
      }
    }
    std::fprintf(stderr, "  pipeline rounds: %ld x %ld lines checked\n",
                 config.pipeline_rounds, config.pipeline_lines);
  }

  // Phase 4: randomized reference-vs-serial-vs-sharded streak-report
  // equivalence on fuzzed refinement-session logs (duplicates, small
  // edits, topic switches — the Section 8 workload shape).
  {
    sparqlog::util::Rng rng(config.seed ^ 0x5157EA4B00F5ULL);
    sparqlog::testing::QueryFuzzOptions fuzz_options;
    fuzz_options.seed = config.seed + 2;
    sparqlog::testing::QueryFuzzer fuzzer(fuzz_options);
    std::vector<std::string> bases;
    for (int i = 0; i < 24; ++i) {
      bases.push_back(sparqlog::sparql::Serialize(fuzzer.Next()));
    }
    for (long round = 0; round < config.streak_rounds; ++round) {
      // Drawn first: the band-edge pairs need the round's threshold.
      sparqlog::testing::StreakEquivalenceConfig streak_config =
          sparqlog::testing::RandomStreakConfig(rng);
      std::vector<std::string> log;
      log.reserve(static_cast<size_t>(config.streak_queries));
      std::string current = bases[rng.Below(bases.size())];
      for (long i = 0; i < config.streak_queries; ++i) {
        if (i + 1 < config.streak_queries && rng.Chance(0.15)) {
          // A band-edge pair at distance k - 1, k or k + 1.
          const std::string core(sparqlog::streaks::StripPrologueView(current));
          std::optional<std::string> variant = BandEdgeVariant(
              core, streak_config.similarity_threshold,
              static_cast<int>(rng.Below(3)) - 1, rng.Chance(0.5), rng);
          if (variant.has_value()) {
            log.push_back(core);
            log.push_back(*variant);
            current = *variant;
            ++i;
            continue;
          }
        }
        double roll = rng.NextDouble();
        if (roll < 0.25) {
          current = bases[rng.Below(bases.size())];
        } else if (roll < 0.75 && !current.empty()) {
          // Refinement-session edit: insert, delete, or flip one byte.
          size_t pos = rng.Below(current.size());
          switch (rng.Below(3)) {
            case 0:
              current.insert(pos, 1,
                             static_cast<char>('a' + rng.Below(26)));
              break;
            case 1:
              current.erase(pos, 1);
              break;
            default:
              current[pos] = static_cast<char>('a' + rng.Below(26));
              break;
          }
        }
        log.push_back(current);
      }
      if (auto v = sparqlog::testing::CheckStreakEquivalence(log,
                                                             streak_config)) {
        ++violations;
        std::fprintf(stderr, "VIOLATION [%s] %s (round %ld)\n",
                     v->invariant.c_str(), v->detail.c_str(), round);
        std::ofstream out(config.out_path, std::ios::app);
        out << "// [" << v->invariant << "] " << v->detail << " (round "
            << round << ", seed " << config.seed << ")\n";
      }
    }
    std::fprintf(stderr, "  streak rounds: %ld x %ld queries checked\n",
                 config.streak_rounds, config.streak_queries);
  }

  // Phase 5: structural-analysis equivalence — every fuzzed query runs
  // through the pre-change (reference) and allocation-lean
  // shape/treewidth/GHW paths with a long-lived scratch (so recycled-
  // buffer state leaks surface), then each round's queries form a log
  // (duplicates included) replayed through randomized serial-vs-parallel
  // StatsReport digest equivalence.
  {
    sparqlog::util::Rng rng(config.seed ^ 0xA11A1F5EEDULL);
    sparqlog::testing::QueryFuzzOptions fuzz_options;
    fuzz_options.seed = config.seed + 3;
    sparqlog::testing::QueryFuzzer fuzzer(fuzz_options);
    sparqlog::corpus::AnalysisScratch scratch;
    long checked = 0;
    for (long round = 0; round < config.analysis_rounds; ++round) {
      std::vector<std::string> log;
      log.reserve(static_cast<size_t>(config.analysis_queries));
      for (long i = 0; i < config.analysis_queries; ++i) {
        sparqlog::sparql::Query q = fuzzer.Next();
        ++checked;
        if (auto v = sparqlog::testing::CheckAnalysisEquivalence(q, scratch)) {
          ++violations;
          // Shrink structurally, pinned to analysis divergence (a fresh
          // scratch per candidate keeps the reducer deterministic).
          sparqlog::testing::AstShrinkOutcome shrunk =
              sparqlog::testing::ShrinkQueryAst(
                  q, [](const sparqlog::sparql::Query& cand) {
                    sparqlog::corpus::AnalysisScratch fresh;
                    return sparqlog::testing::CheckAnalysisEquivalence(cand,
                                                                       fresh)
                        .has_value();
                  });
          std::string minimal = sparqlog::sparql::Serialize(shrunk.query);
          std::fprintf(stderr,
                       "  ast-shrink: %zu -> %zu bytes (%d evals, %d "
                       "reductions)\n",
                       v->input.size(), minimal.size(), shrunk.evals,
                       shrunk.accepted);
          std::fprintf(stderr, "VIOLATION [%s] %s\n  minimal: %s\n",
                       v->invariant.c_str(), v->detail.c_str(),
                       minimal.c_str());
          std::ofstream out(config.out_path, std::ios::app);
          out << "// [" << v->invariant << "] " << v->detail << " (round "
              << round << ", seed " << config.seed << ")\n// minimal: "
              << minimal << "\n";
        }
        // Duplicates on purpose: the analysis stage runs per *unique*
        // query, so repeated texts exercise dedup + analysis together.
        std::string text = sparqlog::sparql::Serialize(q);
        log.push_back(text);
        if (rng.Chance(0.3)) log.push_back(std::move(text));
      }
      sparqlog::pipeline::PipelineOptions equiv =
          sparqlog::testing::RandomEquivalenceConfig(rng);
      if (auto v = sparqlog::testing::CheckSerialParallelEquivalence(log,
                                                                     equiv)) {
        ++violations;
        std::fprintf(stderr, "VIOLATION [%s] %s (analysis round %ld)\n",
                     v->invariant.c_str(), v->detail.c_str(), round);
        std::ofstream out(config.out_path, std::ios::app);
        out << "// [" << v->invariant << "] " << v->detail
            << " (analysis round " << round << ", seed " << config.seed
            << ")\n";
      }
    }
    std::fprintf(stderr,
                 "  analysis rounds: %ld x %ld queries checked (%ld total)\n",
                 config.analysis_rounds, config.analysis_queries, checked);
  }

  // Phase 6: vectorized-scan differential + source equivalence. Scan
  // inputs mix fuzzed queries, mutated log lines, and raw byte soup
  // biased toward the scan primitives' stop bytes ('%', '+', quotes,
  // backslash, newlines, high bytes), with lengths pinned around the
  // 16-byte vector width so register tails and boundary loads are hit.
  {
    sparqlog::util::Rng rng(config.seed ^ 0x51A45CA7D1FFULL);
    sparqlog::testing::QueryFuzzOptions fuzz_options;
    fuzz_options.seed = config.seed + 4;
    sparqlog::testing::QueryFuzzer fuzzer(fuzz_options);
    sparqlog::testing::LogMutatorOptions mutator_options;
    mutator_options.seed = config.seed + 4;
    sparqlog::testing::LogLineMutator mutator(mutator_options);

    static constexpr char kSoup[] = {
        '%',    '%',    '+',    '+',    '"',    '"',    '\'',   '\\',
        '\\',   '\n',   '\r',   '\t',   ' ',    '#',    '<',    '>',
        '?',    '$',    '_',    '-',    '.',    ':',    '@',    '^',
        'a',    'b',    'z',    'A',    'Z',    '0',    '9',    'f',
        'F',    '\x00', '\x7f', '\x80', '\xc3', '\xff'};
    auto soup = [&rng](size_t len) {
      std::string s;
      s.reserve(len);
      for (size_t i = 0; i < len; ++i) {
        s.push_back(kSoup[rng.Below(sizeof(kSoup))]);
      }
      return s;
    };

    std::vector<std::string> pool = {"SELECT * WHERE { ?s ?p ?o }"};
    long checked = 0;
    for (long i = 0; i < config.scan_inputs; ++i) {
      std::string input;
      switch (i % 4) {
        case 0:
          input = sparqlog::sparql::Serialize(fuzzer.Next());
          break;
        case 1:
          input = mutator.NextLine(pool[rng.Below(pool.size())]);
          break;
        case 2: {
          // Lengths straddling the vector width stress the tails.
          static constexpr size_t kEdges[] = {0, 1, 15, 16, 17, 31, 32, 33};
          input = soup(kEdges[rng.Below(8)]);
          break;
        }
        default:
          input = soup(rng.Below(160));
          break;
      }
      // The check is quadratic in input length (every start offset);
      // cap it so multi-KB fuzzed queries stay cheap.
      if (input.size() > 512) input.resize(512);
      ++checked;
      if (auto v = sparqlog::testing::CheckScanEquivalence(input)) {
        ++violations;
        std::string invariant = v->invariant;
        Report(config, *v, "scan_input", static_cast<int>(i),
               [invariant](const std::string& candidate) {
                 auto cv = sparqlog::testing::CheckScanEquivalence(candidate);
                 return cv.has_value() && cv->invariant == invariant;
               });
      }
      if (pool.size() < 64 && !input.empty()) pool.push_back(input);
    }

    for (long round = 0; round < config.source_rounds; ++round) {
      std::vector<std::string> lines;
      const size_t n = 50 + rng.Below(350);
      lines.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        switch (rng.Below(4)) {
          case 0:
            lines.push_back("");  // empty lines stress the framing
            break;
          case 1:
            lines.push_back(soup(rng.Below(48)));
            break;
          default:
            lines.push_back(mutator.NextLine(pool[rng.Below(pool.size())]));
            break;
        }
      }
      sparqlog::testing::SourceEquivalenceConfig source_config =
          sparqlog::testing::RandomSourceConfig(rng);
      if (auto v = sparqlog::testing::CheckSourceEquivalence(lines,
                                                             source_config)) {
        ++violations;
        std::fprintf(stderr, "VIOLATION [%s] %s (source round %ld)\n",
                     v->invariant.c_str(), v->detail.c_str(), round);
        std::ofstream out(config.out_path, std::ios::app);
        out << "// [" << v->invariant << "] " << v->detail
            << " (source round " << round << ", seed " << config.seed
            << ")\n";
      }
    }
    std::fprintf(stderr,
                 "  scan inputs: %ld checked, source rounds: %ld checked\n",
                 checked, config.source_rounds);
  }

  // Phase 7: seeded fault-injection replay. Each round builds a small
  // mutated log, samples one FaultPlan (source truncation, transient/
  // persistent read errors, allocation failure, poison lines — or the
  // fault-free control) and one pipeline shape, and checks the
  // containment contract: no escape, conservation, quarantine agreement,
  // honest source_status, and bit-identical replay for deterministic
  // plans. One plan in four also runs through RunWithJournal, with
  // checkpoint barriers every 1-4 chunks drawn from a second stream (so
  // the plans themselves stay those of the seed). A violation report
  // carries the plan description — the plan is a pure function of the
  // phase seed and round, so it replays exactly.
  {
    sparqlog::util::Rng rng(config.seed ^ 0xFA177C0A17ED5ULL);
    sparqlog::util::Rng journal_rng(config.seed ^ 0x70A2A1EDB4CCE7ULL);
    long journaled_plans = 0;
    sparqlog::testing::QueryFuzzOptions fuzz_options;
    fuzz_options.seed = config.seed + 7;
    sparqlog::testing::QueryFuzzer fuzzer(fuzz_options);
    sparqlog::testing::LogMutatorOptions mutator_options;
    mutator_options.seed = config.seed + 7;
    sparqlog::testing::LogLineMutator mutator(mutator_options);
    std::vector<std::string> texts;
    for (int i = 0; i < 32; ++i) {
      texts.push_back(sparqlog::sparql::Serialize(fuzzer.Next()));
    }
    long fault_plans = 0;
    for (long round = 0; round < config.fault_rounds; ++round) {
      std::vector<std::string> log;
      log.reserve(static_cast<size_t>(config.fault_lines));
      for (long i = 0; i < config.fault_lines; ++i) {
        log.push_back(mutator.NextLine(texts[rng.Below(texts.size())]));
      }
      sparqlog::testing::FaultPlan plan =
          sparqlog::testing::RandomFaultPlan(rng);
      if (plan.any()) ++fault_plans;
      sparqlog::pipeline::PipelineOptions equiv =
          sparqlog::testing::RandomEquivalenceConfig(rng);
      size_t chunks_per_segment = 0;
      if (round % 4 == 3) {
        chunks_per_segment = 1 + journal_rng.Below(4);
        ++journaled_plans;
      }
      if (auto v = sparqlog::testing::CheckFaultContainment(
              log, plan, equiv, chunks_per_segment)) {
        ++violations;
        std::fprintf(stderr, "VIOLATION [%s] %s (fault round %ld, %s)\n",
                     v->invariant.c_str(), v->detail.c_str(), round,
                     plan.Describe().c_str());
        std::ofstream out(config.out_path, std::ios::app);
        out << "// [" << v->invariant << "] " << v->detail
            << " (fault round " << round << ", seed " << config.seed << ", "
            << plan.Describe() << ")\n";
      }
    }
    std::fprintf(stderr,
                 "  fault rounds: %ld x %ld lines checked (%ld with faults, "
                 "%ld also journaled)\n",
                 config.fault_rounds, config.fault_lines, fault_plans,
                 journaled_plans);
  }

  // Phase 8: storage-fault durability replay. Each round builds a small
  // mutated log and samples one StorageFaultPlan — a bit flip, file
  // truncation, torn publish, or fsync/rename failure against a
  // snapshot generation or the journal manifest (or the fault-free
  // control) — then checks the durability contract: every damaged byte
  // is detected, a damaged current generation falls back to the
  // previous one, damage never makes the finished run's digest diverge
  // from an uninterrupted run, and failed publishes surface loudly
  // while the prior checkpoint stays resumable.
  {
    sparqlog::util::Rng rng(config.seed ^ 0x5D15CF0857A6EULL);
    sparqlog::testing::QueryFuzzOptions fuzz_options;
    fuzz_options.seed = config.seed + 8;
    sparqlog::testing::QueryFuzzer fuzzer(fuzz_options);
    sparqlog::testing::LogMutatorOptions mutator_options;
    mutator_options.seed = config.seed + 8;
    sparqlog::testing::LogLineMutator mutator(mutator_options);
    std::vector<std::string> texts;
    for (int i = 0; i < 24; ++i) {
      texts.push_back(sparqlog::sparql::Serialize(fuzzer.Next()));
    }
    long storage_faults = 0;
    for (long round = 0; round < config.snapshot_rounds; ++round) {
      std::vector<std::string> log;
      log.reserve(static_cast<size_t>(config.snapshot_lines));
      for (long i = 0; i < config.snapshot_lines; ++i) {
        log.push_back(mutator.NextLine(texts[rng.Below(texts.size())]));
      }
      sparqlog::testing::StorageFaultPlan plan =
          sparqlog::testing::RandomStorageFaultPlan(rng);
      if (plan.kind != sparqlog::testing::StorageFaultPlan::Kind::kNone) {
        ++storage_faults;
      }
      sparqlog::pipeline::PipelineOptions equiv =
          sparqlog::testing::RandomEquivalenceConfig(rng);
      if (auto v = sparqlog::testing::CheckSnapshotDurability(log, plan,
                                                              equiv)) {
        ++violations;
        std::fprintf(stderr, "VIOLATION [%s] %s (snapshot round %ld, %s)\n",
                     v->invariant.c_str(), v->detail.c_str(), round,
                     plan.Describe().c_str());
        std::ofstream out(config.out_path, std::ios::app);
        out << "// [" << v->invariant << "] " << v->detail
            << " (snapshot round " << round << ", seed " << config.seed
            << ", " << plan.Describe() << ")\n";
      }
    }
    std::fprintf(
        stderr,
        "  snapshot rounds: %ld x %ld lines checked (%ld with faults)\n",
        config.snapshot_rounds, config.snapshot_lines, storage_faults);
  }

  if (violations > 0) {
    std::fprintf(stderr, "fuzz_roundtrip: %d violation(s); reproducers in %s\n",
                 violations, config.out_path.c_str());
    return 1;
  }
  std::fprintf(stderr, "fuzz_roundtrip: all invariants held\n");
  return 0;
}
