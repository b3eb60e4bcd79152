#ifndef SPARQLOG_TESTING_INVARIANTS_H_
#define SPARQLOG_TESTING_INVARIANTS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "corpus/analysis_scratch.h"
#include "corpus/ingest.h"
#include "corpus/report.h"
#include "pipeline/pipeline.h"
#include "sparql/ast.h"
#include "sparql/parser.h"
#include "util/rng.h"

namespace sparqlog::testing {

/// One invariant violation: which invariant broke, how, and the exact
/// input that triggers it (query text or raw log line — feed it back
/// through the matching Check* function to reproduce).
struct Violation {
  std::string invariant;
  std::string detail;
  std::string input;
};

/// The heap reference for `corpus::ParseLogLine`: the same cleaning,
/// parse and hash, with the query parsed onto the heap (one allocation
/// per node, no scratch to alias). The oracle CheckLogLineScratch and
/// the tests diff the production scratch path against. `decode_buf` is
/// URL-decode scratch, reused across lines.
corpus::ParsedLine ParseLogLine(const sparql::Parser& parser,
                                std::string_view line,
                                std::string& decode_buf);
/// Same, with a private decode buffer.
corpus::ParsedLine ParseLogLine(const sparql::Parser& parser,
                                const std::string& line);

/// Checks the serializer/parser invariants on an AST:
///  * serializer closure — Serialize(q) must re-parse;
///  * round-trip idempotence — Serialize(Parse(Serialize(q))) == Serialize(q);
///  * streaming hash — CanonicalHash(x) == HashBytes(Serialize(x)) for
///    both the original and the reparsed AST.
std::optional<Violation> CheckQuery(const sparql::Parser& parser,
                                    const sparql::Query& q);

/// Text-level variant: parses `text` and, when it parses, runs
/// CheckQuery on the result. Unparseable text is not a violation (the
/// corpus is full of invalid queries); this is the entry point printed
/// reproducers use.
std::optional<Violation> CheckQueryText(const sparql::Parser& parser,
                                        std::string_view text);

/// Checks the log-ingest invariants on one raw line:
///  * both heap ParseLogLine overloads above agree field for field;
///  * parsing the same line twice is deterministic;
///  * classification matches ExtractQueryText;
///  * valid entries: canonical_hash equals the FNV of the canonical
///    serialization, and the parsed query passes CheckQuery;
///  * malformed entries: line_hash equals the FNV of the raw line.
std::optional<Violation> CheckLogLine(sparql::Parser& parser,
                                      std::string_view line);

/// Arena-path variant of CheckLogLine: parses `line` through the
/// production `corpus::ParseLogLine` — reusing `scratch` across calls is
/// the point, the caller owns the Reset cadence — and diffs every field
/// plus the canonical serialization against the heap ParseLogLine above
/// (the allocation-per-node differential oracle). Also checks detach
/// semantics: plain-copying the arena-built Query must yield an
/// independent heap AST with an identical serialization.
std::optional<Violation> CheckLogLineScratch(sparql::Parser& parser,
                                             std::string_view line,
                                             corpus::ParseScratch& scratch);

/// The 13-profile synthetic paper corpus: every PaperProfiles() dataset
/// generated with at least `entries_per_dataset` entries (scale 0),
/// seeded 2017, 2018, ... in profile order, concatenated.
std::vector<std::string> PaperCorpusLog(uint64_t entries_per_dataset);

/// Output of the serial oracle.
struct SerialResult {
  corpus::CorpusStats stats;
  corpus::CorpusAnalyzer analysis;
};

/// The serial oracle every serial-vs-parallel check compares against:
/// every line of `source` through one LogIngestor feeding one
/// CorpusAnalyzer from the unique sink (the valid sink when
/// `use_valid_corpus`) — the wiring a Shard uses, single-threaded.
SerialResult RunSerial(pipeline::ChunkSource& source,
                       bool use_valid_corpus = false);

/// RunSerial over an in-memory log.
SerialResult RunSerial(const std::vector<std::string>& lines,
                       bool use_valid_corpus = false);

/// Samples a pipeline configuration for the serial-vs-parallel checks:
/// thread/chunk/queue/shard counts from the ranges that shook out races
/// during development (1..5 threads, tiny chunks included so chunk
/// boundaries move, shards != threads half the time) and the corpus
/// mode (valid a quarter of the time).
pipeline::PipelineOptions RandomEquivalenceConfig(util::Rng& rng);

/// Runs `log` through RunSerial and through ParallelLogPipeline under
/// `config` (metrics collection forced on), then compares
/// Total/Valid/Unique, the line count, and the full StatisticsDigest.
/// Any difference is a violation.
std::optional<Violation> CheckSerialParallelEquivalence(
    const std::vector<std::string>& log,
    const pipeline::PipelineOptions& config);

/// One randomized configuration for the serial-vs-sharded streak check.
struct StreakEquivalenceConfig {
  int threads = 2;
  size_t chunk_size = 64;
  size_t window = 30;
  double similarity_threshold = 0.25;
};

/// Samples thread/chunk/window/threshold combinations, biased toward
/// the stress cases: chunks narrower than the window (every streak
/// crosses a stitch boundary) and tiny windows (eviction edges move).
StreakEquivalenceConfig RandomStreakConfig(util::Rng& rng);

/// Runs `queries` through reference::ReferenceDetector (the pre-band
/// Myers kernel, no prefilters), the serial StreakDetector and the
/// sharded StreakStage under `config`, and compares every field of the
/// serial StreakReport with the other two. Any difference is a
/// violation: against the reference it checks the banded Levenshtein
/// kernel and the prefilter cascade, against the stage the sharding.
std::optional<Violation> CheckStreakEquivalence(
    const std::vector<std::string>& queries,
    const StreakEquivalenceConfig& config);

/// Differentially verifies the vectorized ingest scan layer on one
/// input:
///  * every Scalar* scan primitive (util/simd_scan.h) against a naive
///    byte-at-a-time reference, at every start offset — catches SWAR
///    bugs in the scalar path that non-SSE2 targets run;
///  * every Simd* primitive against its Scalar* twin, at every start
///    offset — the vector-vs-scalar lexer differential;
///  * util::PercentDecode against a byte-at-a-time reference decoder;
///  * Lexer::Tokenize determinism across two runs on the input.
std::optional<Violation> CheckScanEquivalence(std::string_view input);

/// One configuration for the mmap/stream/vector source equivalence
/// check: the pipeline config plus the file framing to exercise.
struct SourceEquivalenceConfig {
  pipeline::PipelineOptions pipeline;
  /// Write CRLF line endings (both file sources must strip the '\r').
  bool crlf = false;
  /// End the file with a line terminator (getline drops the would-be
  /// final empty line; both sources must agree).
  bool trailing_newline = true;
};

/// Samples CRLF and missing-trailing-newline framings.
SourceEquivalenceConfig RandomSourceConfig(util::Rng& rng);

/// Writes `lines` to a temporary file and pipelines it three ways —
/// in-memory vector, MmapChunkSource, IstreamChunkSource — under
/// `config`, comparing Total/Valid/Unique, line counts, the full
/// StatisticsDigest, and the TelemetryDigest across all three. Bytes
/// that the line framing would consume ('\n', '\r') are stripped from
/// the lines first so the file round-trips exactly.
std::optional<Violation> CheckSourceEquivalence(
    const std::vector<std::string>& lines,
    const SourceEquivalenceConfig& config);

/// Replays one query's structural analysis through the pre-change
/// implementations (testing/reference_analysis: NodeKey-string interning,
/// std::set graphs, restart kernelization, set-based det-k-decomp;
/// testing/reference_fragments: string-set fragment classification and
/// projection) and the allocation-lean scratch path, comparing every
/// FragmentClass field, ClassifyProjection, canonical graph size,
/// node terms, every ShapeClass flag, girth, treewidth, and — for
/// hypergraphs of at most `max_ghw_edges` hyperedges, since both exact
/// searches are exponential in the worst case — GHW width and
/// decomposition size. `scratch` is deliberately long-lived so cross-
/// query state leaks in the recycled buffers would surface as
/// divergence.
std::optional<Violation> CheckAnalysisEquivalence(
    const sparql::Query& q, corpus::AnalysisScratch& scratch,
    int max_ghw_edges = 24);

}  // namespace sparqlog::testing

#endif  // SPARQLOG_TESTING_INVARIANTS_H_
