#include "testing/invariants.h"

#include <atomic>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <utility>

#include "analysis/projection.h"
#include "corpus/generator.h"
#include "corpus/ingest.h"
#include "corpus/profile.h"
#include "corpus/report.h"
#include "fragments/fragment.h"
#include "graph/canonical.h"
#include "graph/shapes.h"
#include "obs/metrics.h"
#include "pipeline/chunk_source.h"
#include "pipeline/merge.h"
#include "pipeline/pipeline.h"
#include "pipeline/streak_stage.h"
#include "sparql/lexer.h"
#include "sparql/serializer.h"
#include "streaks/streaks.h"
#include "testing/reference_analysis.h"
#include "testing/reference_fragments.h"
#include "testing/reference_streaks.h"
#include "util/ascii.h"
#include "util/simd_scan.h"
#include "util/strings.h"
#include "width/hypertree.h"
#include "width/treewidth.h"

namespace sparqlog::testing {

namespace {

std::optional<Violation> Violate(std::string invariant, std::string detail,
                                 std::string_view input) {
  Violation v;
  v.invariant = std::move(invariant);
  v.detail = std::move(detail);
  v.input = std::string(input);
  return v;
}

/// Field-for-field comparison of two ParsedLine results; returns a
/// description of the first difference, or empty.
std::string DiffParsedLines(const corpus::ParsedLine& a,
                            const corpus::ParsedLine& b) {
  if (a.is_query != b.is_query) return "is_query differs";
  if (a.valid != b.valid) return "valid differs";
  if (a.canonical_hash != b.canonical_hash) return "canonical_hash differs";
  if (a.line_hash != b.line_hash) return "line_hash differs";
  if (a.query.has_value() != b.query.has_value()) return "query engagement differs";
  if (a.query.has_value() &&
      sparql::Serialize(*a.query) != sparql::Serialize(*b.query)) {
    return "canonical serialization differs";
  }
  return {};
}

}  // namespace

std::optional<Violation> CheckQuery(const sparql::Parser& parser,
                                    const sparql::Query& q) {
  std::string s0 = sparql::Serialize(q);
  if (sparql::CanonicalHash(q) != corpus::HashBytes(s0)) {
    return Violate("canonical-hash",
                   "CanonicalHash(q) != FNV(Serialize(q)) on the input AST",
                   s0);
  }
  util::Result<sparql::Query> reparsed = parser.Parse(s0);
  if (!reparsed.ok()) {
    return Violate("serializer-closure",
                   "canonical form does not re-parse: " +
                       reparsed.status().message(),
                   s0);
  }
  std::string s1 = sparql::Serialize(reparsed.value());
  if (s1 != s0) {
    size_t i = 0;
    while (i < s0.size() && i < s1.size() && s0[i] == s1[i]) ++i;
    return Violate("roundtrip-idempotence",
                   "Serialize(Parse(s)) != s, first difference at byte " +
                       std::to_string(i),
                   s0);
  }
  if (sparql::CanonicalHash(reparsed.value()) != corpus::HashBytes(s1)) {
    return Violate("canonical-hash",
                   "CanonicalHash(q) != FNV(Serialize(q)) on the reparsed AST",
                   s0);
  }
  return std::nullopt;
}

std::optional<Violation> CheckQueryText(const sparql::Parser& parser,
                                        std::string_view text) {
  util::Result<sparql::Query> parsed = parser.Parse(text);
  if (!parsed.ok()) return std::nullopt;
  return CheckQuery(parser, parsed.value());
}

std::optional<Violation> CheckLogLine(sparql::Parser& parser,
                                      std::string_view line) {
  std::string decode_buf;
  corpus::ParsedLine scratch = corpus::ParseLogLine(parser, line, decode_buf);
  corpus::ParsedLine owned =
      corpus::ParseLogLine(parser, std::string(line));
  if (std::string diff = DiffParsedLines(scratch, owned); !diff.empty()) {
    return Violate("logline-overload-agreement",
                   "scratch-buffer and convenience overloads disagree: " +
                       diff,
                   line);
  }
  std::string decode_buf2;
  corpus::ParsedLine again = corpus::ParseLogLine(parser, line, decode_buf2);
  if (std::string diff = DiffParsedLines(scratch, again); !diff.empty()) {
    return Violate("logline-determinism",
                   "same line parsed twice differs: " + diff, line);
  }
  std::string extract_buf;
  bool extracted =
      corpus::ExtractQueryText(line, extract_buf).has_value();
  if (extracted != scratch.is_query) {
    return Violate("logline-classification",
                   "ExtractQueryText and ParseLogLine disagree on is_query",
                   line);
  }
  if (scratch.valid) {
    if (!scratch.query.has_value()) {
      return Violate("logline-engagement", "valid entry without a query AST",
                     line);
    }
    if (scratch.canonical_hash !=
        corpus::HashBytes(sparql::Serialize(*scratch.query))) {
      return Violate("logline-canonical-hash",
                     "canonical_hash != FNV of the canonical serialization",
                     line);
    }
    if (auto v = CheckQuery(parser, *scratch.query)) {
      v->input = std::string(line);
      return v;
    }
  } else if (scratch.is_query) {
    if (scratch.line_hash != corpus::HashBytes(line)) {
      return Violate("logline-route-hash",
                     "malformed entry's line_hash != FNV of the raw line",
                     line);
    }
  }
  return std::nullopt;
}

std::optional<Violation> CheckLogLineScratch(sparql::Parser& parser,
                                             std::string_view line,
                                             corpus::ParseScratch& scratch) {
  corpus::ParsedLine arena = corpus::ParseLogLine(parser, line, scratch);
  corpus::ParsedLine heap = corpus::ParseLogLine(parser, std::string(line));
  if (std::string diff = DiffParsedLines(arena, heap); !diff.empty()) {
    return Violate("logline-scratch-agreement",
                   "arena-scratch and heap overloads disagree: " + diff, line);
  }
  if (arena.query.has_value()) {
    // Detach semantics: a plain copy of an arena-resident Query must be
    // an independent heap AST that still serializes identically.
    sparql::Query detached = *arena.query;
    if (sparql::Serialize(detached) != sparql::Serialize(*heap.query)) {
      return Violate("logline-scratch-detach",
                     "copying the arena-built Query changed its "
                     "canonical serialization",
                     line);
    }
  }
  return std::nullopt;
}

std::vector<std::string> PaperCorpusLog(uint64_t entries_per_dataset) {
  std::vector<std::string> lines;
  uint64_t seed = 2017;
  for (const corpus::DatasetProfile& profile : corpus::PaperProfiles()) {
    corpus::GeneratorOptions options;
    options.scale = 0;
    options.min_entries = entries_per_dataset;
    options.seed = seed++;
    std::vector<std::string> log =
        corpus::SyntheticLogGenerator(profile, options).GenerateLog();
    lines.insert(lines.end(), std::make_move_iterator(log.begin()),
                 std::make_move_iterator(log.end()));
  }
  return lines;
}

SerialResult RunSerial(pipeline::ChunkSource& source,
                       bool use_valid_corpus) {
  SerialResult result;
  corpus::LogIngestor ingestor;
  auto sink = [&result](const sparql::Query& q) {
    result.analysis.AddQuery(q, "all");
  };
  if (use_valid_corpus) {
    ingestor.set_valid_sink(sink);
  } else {
    ingestor.set_unique_sink(sink);
  }
  pipeline::LineChunk chunk;
  std::string line;
  while (source.NextChunk(4096, chunk)) {
    for (std::string_view view : chunk.lines) {
      line.assign(view);
      ingestor.ProcessLine(line);
    }
  }
  result.stats = ingestor.stats();
  return result;
}

SerialResult RunSerial(const std::vector<std::string>& lines,
                       bool use_valid_corpus) {
  pipeline::VectorChunkSource source(lines);
  return RunSerial(source, use_valid_corpus);
}

pipeline::PipelineOptions RandomEquivalenceConfig(util::Rng& rng) {
  pipeline::PipelineOptions config;
  config.threads = static_cast<int>(1 + rng.Below(5));
  // Tiny chunks move every chunk boundary; large ones test batching.
  config.chunk_size = 1 + rng.Below(64);
  config.queue_capacity = 1 + rng.Below(8);
  config.shards =
      rng.Chance(0.5) ? 0 : static_cast<size_t>(1 + rng.Below(7));
  config.use_valid_corpus = rng.Chance(0.25);
  return config;
}

std::optional<Violation> CheckSerialParallelEquivalence(
    const std::vector<std::string>& log,
    const pipeline::PipelineOptions& config) {
  auto describe = [&config] {
    return "threads=" + std::to_string(config.threads) +
           " chunk=" + std::to_string(config.chunk_size) +
           " queue=" + std::to_string(config.queue_capacity) +
           " shards=" + std::to_string(config.shards) +
           " corpus=" + (config.use_valid_corpus ? "valid" : "unique");
  };

  const SerialResult oracle = RunSerial(log, config.use_valid_corpus);

  pipeline::PipelineOptions options = config;
  // Collect the metrics registry alongside: the run's telemetry must be
  // internally consistent and scheduling-independent too.
  options.telemetry.metrics = true;
  pipeline::ParallelLogPipeline parallel(options);
  pipeline::PipelineResult result = parallel.Run(log);

  const corpus::CorpusStats& serial = oracle.stats;
  if (result.stats.total != serial.total ||
      result.stats.valid != serial.valid ||
      result.stats.unique != serial.unique) {
    return Violate(
        "serial-parallel-stats",
        "Total/Valid/Unique diverge (" + describe() + "): serial " +
            std::to_string(serial.total) + "/" + std::to_string(serial.valid) +
            "/" + std::to_string(serial.unique) + " vs parallel " +
            std::to_string(result.stats.total) + "/" +
            std::to_string(result.stats.valid) + "/" +
            std::to_string(result.stats.unique),
        "");
  }
  if (result.lines != log.size()) {
    return Violate("serial-parallel-lines",
                   "pipeline consumed " + std::to_string(result.lines) +
                       " of " + std::to_string(log.size()) + " lines (" +
                       describe() + ")",
                   "");
  }
  std::vector<uint64_t> serial_digest =
      pipeline::StatisticsDigest(oracle.analysis);
  std::vector<uint64_t> parallel_digest =
      pipeline::StatisticsDigest(result.analysis);
  if (serial_digest != parallel_digest) {
    size_t i = 0;
    while (i < serial_digest.size() && i < parallel_digest.size() &&
           serial_digest[i] == parallel_digest[i]) {
      ++i;
    }
    return Violate("serial-parallel-digest",
                   "StatisticsDigest diverges at index " + std::to_string(i) +
                       " (" + describe() + ")",
                   "");
  }

  // ---- Telemetry invariants.
  if (!result.telemetry.has_value()) {
    return Violate("telemetry-missing",
                   "metrics requested but pipeline returned no telemetry (" +
                       describe() + ")",
                   "");
  }
  const obs::RunTelemetry& t = *result.telemetry;
  // Internal consistency: the registry must agree with the pipeline's
  // own results — reader/parse saw every line, the shard stage kept
  // exactly the valid entries, the shards account for every query.
  uint64_t shard_sum = 0;
  for (uint64_t q : t.shard_queries) shard_sum += q;
  const uint64_t analysis_expected =
      config.use_valid_corpus ? serial.valid : serial.unique;
  if (t.stage(obs::kStageReader).items_in != log.size() ||
      t.stage(obs::kStageParse).items_in != log.size() ||
      t.stage(obs::kStageShard).items_in != serial.total ||
      t.stage(obs::kStageShard).items_out != serial.valid ||
      t.stage(obs::kStageShard).malformed != serial.total - serial.valid ||
      t.stage(obs::kStageAnalysis).items_in != analysis_expected ||
      shard_sum != serial.total) {
    return Violate(
        "telemetry-consistency",
        "telemetry counters disagree with pipeline results (" + describe() +
            "): reader=" + std::to_string(t.stage(obs::kStageReader).items_in) +
            " parse=" + std::to_string(t.stage(obs::kStageParse).items_in) +
            " shard=" + std::to_string(t.stage(obs::kStageShard).items_in) +
            "/" + std::to_string(t.stage(obs::kStageShard).items_out) +
            " analysis=" +
            std::to_string(t.stage(obs::kStageAnalysis).items_in) +
            " shard_sum=" + std::to_string(shard_sum) + " vs lines=" +
            std::to_string(log.size()) + " total=" +
            std::to_string(serial.total) + " valid=" +
            std::to_string(serial.valid),
        "");
  }
  // Scheduling independence: a single-threaded run over the same
  // input with the same resolved shard count but a different chunk
  // size must produce the identical telemetry digest.
  pipeline::PipelineOptions reference_options = options;
  reference_options.threads = 1;
  reference_options.shards = parallel.shards();
  reference_options.chunk_size = config.chunk_size == 1 ? 37 : 1;
  reference_options.queue_capacity = 16;
  pipeline::ParallelLogPipeline reference(reference_options);
  pipeline::PipelineResult reference_result = reference.Run(log);
  if (!reference_result.telemetry.has_value() ||
      obs::TelemetryDigest(*reference_result.telemetry) !=
          obs::TelemetryDigest(t)) {
    return Violate("telemetry-digest",
                   "TelemetryDigest differs between the run (" + describe() +
                       ") and its single-threaded reference",
                   "");
  }
  return std::nullopt;
}

StreakEquivalenceConfig RandomStreakConfig(util::Rng& rng) {
  StreakEquivalenceConfig config;
  config.threads = static_cast<int>(1 + rng.Below(5));
  // Tiny chunks force every streak across a stitch boundary; large ones
  // test the fully-local case.
  config.chunk_size = 1 + rng.Below(96);
  config.window = 1 + rng.Below(40);
  const double thresholds[] = {0.1, 0.25, 0.4};
  config.similarity_threshold = thresholds[rng.Below(3)];
  return config;
}

namespace {

/// Names the first field in which two StreakReports differ.
std::optional<Violation> CompareStreakReports(
    const std::string& invariant, const std::string& context,
    const char* left_name, const streaks::StreakReport& left,
    const char* right_name, const streaks::StreakReport& right) {
  if (left == right) return std::nullopt;
  auto mismatch = [&](const std::string& field, uint64_t a, uint64_t b) {
    return Violate(invariant,
                   "StreakReport." + field + " diverges (" + context + "): " +
                       left_name + " " + std::to_string(a) + " vs " +
                       right_name + " " + std::to_string(b),
                   "");
  };
  for (size_t i = 0; i < 11; ++i) {
    if (left.counts[i] != right.counts[i]) {
      return mismatch("counts[" + std::to_string(i) + "]", left.counts[i],
                      right.counts[i]);
    }
  }
  if (left.total_streaks != right.total_streaks) {
    return mismatch("total_streaks", left.total_streaks, right.total_streaks);
  }
  if (left.longest != right.longest) {
    return mismatch("longest", left.longest, right.longest);
  }
  if (left.queries_processed != right.queries_processed) {
    return mismatch("queries_processed", left.queries_processed,
                    right.queries_processed);
  }
  // operator== said unequal but no named field differs: a field was
  // added to StreakReport without extending this diagnosis.
  return mismatch("operator==", 0, 1);
}

}  // namespace

std::optional<Violation> CheckStreakEquivalence(
    const std::vector<std::string>& queries,
    const StreakEquivalenceConfig& config) {
  streaks::StreakOptions streak;
  streak.window = config.window;
  streak.similarity_threshold = config.similarity_threshold;
  const std::string context =
      "threads=" + std::to_string(config.threads) +
      " chunk=" + std::to_string(config.chunk_size) +
      " window=" + std::to_string(config.window) +
      " threshold=" + std::to_string(config.similarity_threshold);

  reference::ReferenceDetector oracle(streak);
  for (const std::string& q : queries) oracle.Add(q);
  streaks::StreakDetector detector(streak);
  for (const std::string& q : queries) detector.Add(q);
  streaks::StreakReport serial = detector.Finish();
  if (auto v = CompareStreakReports("streak-serial-reference", context,
                                    "serial", serial, "reference",
                                    oracle.Finish())) {
    return v;
  }

  pipeline::StreakStageOptions options;
  options.streak = streak;
  options.threads = config.threads;
  options.chunk_size = config.chunk_size;
  streaks::StreakReport sharded =
      pipeline::StreakStage(options).Run(queries).report;
  return CompareStreakReports("streak-serial-sharded", context, "serial",
                              serial, "sharded", sharded);
}

namespace {

namespace scan = util::scan;

/// Byte-at-a-time references, deliberately written without the class
/// table's ScanClassScalar or any word tricks, so they can catch bugs
/// in both the SWAR scalar kernels and the table itself.
size_t NaiveClassRun(std::string_view s, size_t pos, uint16_t mask) {
  while (pos < s.size() && (util::AsciiClassOf(s[pos]) & mask) != 0) ++pos;
  return pos;
}

size_t NaiveFindStringStop(std::string_view s, size_t pos, char quote,
                           bool long_quote) {
  for (; pos < s.size(); ++pos) {
    const char c = s[pos];
    if (c == quote || c == '\\' || (!long_quote && c == '\n')) return pos;
  }
  return s.size();
}

size_t NaiveFindEscape(std::string_view s, size_t pos) {
  for (; pos < s.size(); ++pos) {
    if (s[pos] == '%' || s[pos] == '+') return pos;
  }
  return s.size();
}

std::string NaivePercentDecode(std::string_view s) {
  auto hex = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  std::string out;
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '%' && i + 2 < s.size()) {
      const int hi = hex(s[i + 1]), lo = hex(s[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out.push_back(static_cast<char>(hi * 16 + lo));
        i += 2;
        continue;
      }
    }
    out.push_back(s[i] == '+' ? ' ' : s[i]);
  }
  return out;
}

}  // namespace

std::optional<Violation> CheckScanEquivalence(std::string_view input) {
  auto fail = [&input](const std::string& what, size_t pos, size_t a,
                       size_t b) {
    return Violate("scan-differential",
                   what + " diverges at start offset " + std::to_string(pos) +
                       ": " + std::to_string(a) + " vs " + std::to_string(b),
                   input);
  };

  struct RunPrimitive {
    const char* name;
    size_t (*scalar)(std::string_view, size_t);
    size_t (*simd)(std::string_view, size_t);
    uint16_t mask;
  };
  static constexpr RunPrimitive kRuns[] = {
      {"NameRun", scan::ScalarNameRun, scan::SimdNameRun,
       util::kAsciiNameChar},
      {"VarRun", scan::ScalarVarRun, scan::SimdVarRun, util::kAsciiVarChar},
      {"PnLocalRun", scan::ScalarPnLocalRun, scan::SimdPnLocalRun,
       util::kAsciiPnLocal},
      {"BlankLabelRun", scan::ScalarBlankLabelRun, scan::SimdBlankLabelRun,
       util::kAsciiBlankLabel},
      {"LangTagRun", scan::ScalarLangTagRun, scan::SimdLangTagRun,
       util::kAsciiLangTag},
      {"WhitespaceRun", scan::ScalarWhitespaceRun, scan::SimdWhitespaceRun,
       util::kAsciiSpace},
      {"IriRun", scan::ScalarIriRun, scan::SimdIriRun, util::kAsciiIriChar},
      {"DigitRun", scan::ScalarDigitRun, scan::SimdDigitRun,
       util::kAsciiDigit},
  };

  for (size_t pos = 0; pos <= input.size(); ++pos) {
    for (const RunPrimitive& p : kRuns) {
      const size_t naive = NaiveClassRun(input, pos, p.mask);
      const size_t scalar = p.scalar(input, pos);
      if (scalar != naive) {
        return fail(std::string(p.name) + " scalar-vs-naive", pos, scalar,
                    naive);
      }
      const size_t simd = p.simd(input, pos);
      if (simd != scalar) {
        return fail(std::string(p.name) + " simd-vs-scalar", pos, simd,
                    scalar);
      }
    }
    for (const char quote : {'"', '\''}) {
      for (const bool long_quote : {false, true}) {
        const std::string what = std::string("FindStringStop(") + quote +
                                 (long_quote ? ",long)" : ",short)");
        const size_t naive = NaiveFindStringStop(input, pos, quote, long_quote);
        const size_t scalar =
            scan::ScalarFindStringStop(input, pos, quote, long_quote);
        if (scalar != naive) {
          return fail(what + " scalar-vs-naive", pos, scalar, naive);
        }
        const size_t simd =
            scan::SimdFindStringStop(input, pos, quote, long_quote);
        if (simd != scalar) {
          return fail(what + " simd-vs-scalar", pos, simd, scalar);
        }
      }
    }
    {
      const size_t naive = NaiveFindEscape(input, pos);
      const size_t scalar = scan::ScalarFindEscape(input, pos);
      if (scalar != naive) {
        return fail("FindEscape scalar-vs-naive", pos, scalar, naive);
      }
      const size_t simd = scan::SimdFindEscape(input, pos);
      if (simd != scalar) {
        return fail("FindEscape simd-vs-scalar", pos, simd, scalar);
      }
    }
  }

  const std::string expect = NaivePercentDecode(input);
  const std::string got = util::PercentDecode(input);
  if (got != expect) {
    size_t i = 0;
    while (i < expect.size() && i < got.size() && expect[i] == got[i]) ++i;
    return Violate("scan-percent-decode",
                   "PercentDecode diverges from the byte-at-a-time reference "
                   "at output byte " +
                       std::to_string(i),
                   input);
  }

  // Drive the full lexer over the raw bytes twice — mostly for the
  // sanitizer legs, where any out-of-bounds vector load in the lexed
  // fast paths trips ASan regardless of token agreement.
  util::Result<sparql::TokenStream> t1 = sparql::Lexer::Tokenize(input);
  util::Result<sparql::TokenStream> t2 = sparql::Lexer::Tokenize(input);
  if (t1.ok() != t2.ok()) {
    return Violate("scan-lexer-determinism",
                   "Tokenize status differs between identical runs", input);
  }
  if (t1.ok()) {
    const sparql::TokenStream& a = t1.value();
    const sparql::TokenStream& b = t2.value();
    if (a.size() != b.size()) {
      return Violate("scan-lexer-determinism", "token count differs", input);
    }
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i].type != b[i].type || a[i].value != b[i].value ||
          a[i].pos != b[i].pos || a[i].line != b[i].line ||
          a[i].col != b[i].col) {
        return Violate("scan-lexer-determinism",
                       "token " + std::to_string(i) + " differs", input);
      }
    }
  }
  return std::nullopt;
}

SourceEquivalenceConfig RandomSourceConfig(util::Rng& rng) {
  SourceEquivalenceConfig config;
  config.pipeline = RandomEquivalenceConfig(rng);
  config.crlf = rng.Chance(0.3);
  config.trailing_newline = rng.Chance(0.8);
  return config;
}

std::optional<Violation> CheckSourceEquivalence(
    const std::vector<std::string>& lines,
    const SourceEquivalenceConfig& config) {
  // Strip framing bytes so the file parses back to exactly these lines.
  std::vector<std::string> sanitized;
  sanitized.reserve(lines.size());
  for (const std::string& line : lines) {
    std::string clean;
    clean.reserve(line.size());
    for (char c : line) {
      if (c != '\n' && c != '\r') clean.push_back(c);
    }
    sanitized.push_back(std::move(clean));
  }
  // A final empty line is only representable with a terminator.
  bool trailing = config.trailing_newline;
  if (!sanitized.empty() && sanitized.back().empty()) trailing = true;

  auto describe = [&config, trailing] {
    return "threads=" + std::to_string(config.pipeline.threads) +
           " chunk=" + std::to_string(config.pipeline.chunk_size) +
           " shards=" + std::to_string(config.pipeline.shards) +
           (config.crlf ? " crlf" : " lf") +
           (trailing ? " trailing-nl" : " no-trailing-nl");
  };

  // Unique temp path: pid-distinct via ASLR'd static address, plus a
  // process-local counter (fuzz legs and tests run concurrently).
  static std::atomic<uint64_t> counter{0};
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("sparqlog_source_eq_" +
       std::to_string(reinterpret_cast<uintptr_t>(&counter) & 0xFFFFFF) +
       "_" + std::to_string(counter.fetch_add(1)) + ".log");
  struct FileGuard {
    std::filesystem::path p;
    ~FileGuard() {
      std::error_code ec;
      std::filesystem::remove(p, ec);
    }
  } guard{path};

  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Violate("source-io", "cannot create temp file " + path.string(),
                     "");
    }
    const char* sep = config.crlf ? "\r\n" : "\n";
    for (size_t i = 0; i < sanitized.size(); ++i) {
      out << sanitized[i];
      if (i + 1 < sanitized.size() || trailing) out << sep;
    }
  }

  pipeline::PipelineOptions options = config.pipeline;
  options.telemetry.metrics = true;
  pipeline::ParallelLogPipeline pipe(options);

  pipeline::PipelineResult mem = pipe.Run(sanitized);

  util::Result<std::unique_ptr<pipeline::MmapChunkSource>> mapped =
      pipeline::MmapChunkSource::Open(path.string());
  if (!mapped.ok()) {
    return Violate("source-io",
                   "mmap open failed: " + mapped.status().message(), "");
  }
  pipeline::PipelineResult mm = pipe.Run(*mapped.value());

  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Violate("source-io", "cannot reopen temp file " + path.string(),
                   "");
  }
  pipeline::IstreamChunkSource stream_source(in);
  pipeline::PipelineResult st = pipe.Run(stream_source);

  auto compare = [&](const pipeline::PipelineResult& a,
                     const pipeline::PipelineResult& b, const char* an,
                     const char* bn) -> std::optional<Violation> {
    const std::string pair = std::string(an) + " vs " + bn;
    if (a.lines != b.lines) {
      return Violate("source-equivalence",
                     pair + " line counts diverge (" + describe() + "): " +
                         std::to_string(a.lines) + " vs " +
                         std::to_string(b.lines),
                     "");
    }
    if (a.stats.total != b.stats.total || a.stats.valid != b.stats.valid ||
        a.stats.unique != b.stats.unique) {
      return Violate("source-equivalence",
                     pair + " Total/Valid/Unique diverge (" + describe() + ")",
                     "");
    }
    if (pipeline::StatisticsDigest(a.analysis) !=
        pipeline::StatisticsDigest(b.analysis)) {
      return Violate("source-equivalence",
                     pair + " StatisticsDigest diverges (" + describe() + ")",
                     "");
    }
    if (a.telemetry.has_value() != b.telemetry.has_value() ||
        (a.telemetry.has_value() &&
         obs::TelemetryDigest(*a.telemetry) !=
             obs::TelemetryDigest(*b.telemetry))) {
      return Violate("source-equivalence",
                     pair + " TelemetryDigest diverges (" + describe() + ")",
                     "");
    }
    return std::nullopt;
  };
  if (auto v = compare(mem, mm, "vector", "mmap")) return v;
  if (auto v = compare(mem, st, "vector", "stream")) return v;
  if (mem.lines != sanitized.size()) {
    return Violate("source-equivalence",
                   "pipeline consumed " + std::to_string(mem.lines) + " of " +
                       std::to_string(sanitized.size()) + " lines (" +
                       describe() + ")",
                   "");
  }
  return std::nullopt;
}

std::optional<Violation> CheckAnalysisEquivalence(
    const sparql::Query& q, corpus::AnalysisScratch& scratch,
    int max_ghw_edges) {
  std::string text = sparql::Serialize(q);
  auto fail = [&text](const std::string& detail) {
    return Violate("analysis-old-vs-new", detail, text);
  };

  // ---- Fragment classes (Section 5.2) and projection (Section 4.4) ----
  const fragments::FragmentClass ref_fc = reference::ClassifyFragment(q);
  const fragments::FragmentClass new_fc =
      fragments::ClassifyFragment(q, scratch.fragments);
  auto field = [&](const char* name, int a, int b)
      -> std::optional<Violation> {
    if (a == b) return std::nullopt;
    return fail(std::string("FragmentClass.") + name + " differs: old " +
                std::to_string(a) + " vs new " + std::to_string(b));
  };
  if (auto v = field("select_or_ask", ref_fc.select_or_ask,
                     new_fc.select_or_ask)) {
    return v;
  }
  if (auto v = field("aof", ref_fc.aof, new_fc.aof)) return v;
  if (auto v = field("cq", ref_fc.cq, new_fc.cq)) return v;
  if (auto v = field("cpf", ref_fc.cpf, new_fc.cpf)) return v;
  if (auto v = field("cqf", ref_fc.cqf, new_fc.cqf)) return v;
  if (auto v = field("well_designed", ref_fc.well_designed,
                     new_fc.well_designed)) {
    return v;
  }
  if (auto v = field("cqof", ref_fc.cqof, new_fc.cqof)) return v;
  if (auto v = field("simple_filters", ref_fc.simple_filters,
                     new_fc.simple_filters)) {
    return v;
  }
  if (auto v = field("interface_width", ref_fc.interface_width,
                     new_fc.interface_width)) {
    return v;
  }
  if (auto v = field("num_triples", ref_fc.num_triples,
                     new_fc.num_triples)) {
    return v;
  }
  if (auto v = field("var_predicate", ref_fc.var_predicate,
                     new_fc.var_predicate)) {
    return v;
  }
  if (auto v = field("projection",
                     static_cast<int>(reference::ClassifyProjection(q)),
                     static_cast<int>(analysis::ClassifyProjection(
                         q, scratch.fragments.vars)))) {
    return v;
  }
  if (!q.has_body) return std::nullopt;

  scratch.triples.clear();
  scratch.filters.clear();
  graph::CollectTriplesAndFilters(q.where, scratch.triples, scratch.filters);

  // ---- Canonical graph: build, shape, girth, treewidth ----
  reference::ReferenceCanonicalGraph ref =
      reference::BuildCanonicalGraph(scratch.triples, scratch.filters);
  graph::BuildCanonicalGraph(scratch.triples, scratch.filters,
                             graph::CanonicalOptions(), scratch.canonical,
                             scratch.graph);
  const graph::CanonicalGraph& got = scratch.graph;
  if (ref.valid != got.valid) return fail("canonical validity differs");
  if (ref.valid) {
    if (ref.graph.num_nodes() != got.graph.num_nodes()) {
      return fail("canonical node count differs");
    }
    if (ref.graph.num_edges() != got.graph.num_edges()) {
      return fail("canonical edge count differs");
    }
    for (size_t i = 0; i < ref.node_terms.size(); ++i) {
      if (ref.node_terms[i] != *got.node_terms[i]) {
        return fail("canonical node term " + std::to_string(i) + " differs");
      }
    }
    for (int u = 0; u < ref.graph.num_nodes(); ++u) {
      if (ref.graph.HasSelfLoop(u) != got.graph.HasSelfLoop(u)) {
        return fail("self-loop set differs at node " + std::to_string(u));
      }
      for (int v : ref.graph.Neighbors(u)) {
        if (!got.graph.HasEdge(u, v)) {
          return fail("edge " + std::to_string(u) + "-" + std::to_string(v) +
                      " missing from the flat graph");
        }
      }
    }
    graph::ShapeClass ref_shape = reference::ClassifyShape(ref.graph);
    graph::ShapeClass new_shape =
        graph::ClassifyShape(got.graph, scratch.shape);
    auto flag = [&](const char* name, bool a, bool b)
        -> std::optional<Violation> {
      if (a == b) return std::nullopt;
      return fail(std::string("ShapeClass.") + name + " differs (old " +
                  (a ? "true" : "false") + ")");
    };
    if (auto v = flag("single_edge", ref_shape.single_edge,
                      new_shape.single_edge)) {
      return v;
    }
    if (auto v = flag("chain", ref_shape.chain, new_shape.chain)) return v;
    if (auto v = flag("chain_set", ref_shape.chain_set, new_shape.chain_set)) {
      return v;
    }
    if (auto v = flag("star", ref_shape.star, new_shape.star)) return v;
    if (auto v = flag("tree", ref_shape.tree, new_shape.tree)) return v;
    if (auto v = flag("forest", ref_shape.forest, new_shape.forest)) return v;
    if (auto v = flag("cycle", ref_shape.cycle, new_shape.cycle)) return v;
    if (auto v = flag("flower", ref_shape.flower, new_shape.flower)) return v;
    if (auto v = flag("flower_set", ref_shape.flower_set,
                      new_shape.flower_set)) {
      return v;
    }
    if (ref_shape.girth != new_shape.girth) {
      return fail("girth differs: old " + std::to_string(ref_shape.girth) +
                  " vs new " + std::to_string(new_shape.girth));
    }
    width::TreewidthResult ref_tw = reference::Treewidth(ref.graph);
    width::TreewidthResult new_tw =
        width::Treewidth(got.graph, scratch.treewidth);
    if (ref_tw.width != new_tw.width || ref_tw.exact != new_tw.exact) {
      return fail("treewidth differs: old " + std::to_string(ref_tw.width) +
                  " vs new " + std::to_string(new_tw.width));
    }
  }

  // ---- Canonical hypergraph: build + GHW ----
  reference::ReferenceHypergraph ref_hg =
      reference::BuildCanonicalHypergraph(scratch.triples, scratch.filters);
  graph::BuildCanonicalHypergraph(scratch.triples, scratch.filters,
                                  graph::CanonicalOptions(), scratch.canonical,
                                  scratch.hypergraph);
  if (ref_hg.num_edges() != scratch.hypergraph.num_edges()) {
    return fail("hyperedge count differs");
  }
  if (ref_hg.num_nodes() != scratch.hypergraph.num_nodes()) {
    return fail("hypergraph node count differs");
  }
  if (ref_hg.IsAlphaAcyclic() != scratch.hypergraph.IsAlphaAcyclic()) {
    return fail("alpha-acyclicity differs");
  }
  if (ref_hg.num_edges() <= max_ghw_edges) {
    width::GhwResult ref_ghw = reference::GeneralizedHypertreeWidth(ref_hg);
    width::GhwResult new_ghw =
        width::GeneralizedHypertreeWidth(scratch.hypergraph, scratch.ghw);
    if (ref_ghw.width != new_ghw.width ||
        ref_ghw.decomposition_nodes != new_ghw.decomposition_nodes ||
        ref_ghw.exact != new_ghw.exact) {
      return fail("GHW differs: old " + std::to_string(ref_ghw.width) + "/" +
                  std::to_string(ref_ghw.decomposition_nodes) + " vs new " +
                  std::to_string(new_ghw.width) + "/" +
                  std::to_string(new_ghw.decomposition_nodes));
    }
  }
  return std::nullopt;
}

}  // namespace sparqlog::testing
