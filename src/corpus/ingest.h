#ifndef SPARQLOG_CORPUS_INGEST_H_
#define SPARQLOG_CORPUS_INGEST_H_

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "sparql/ast.h"
#include "sparql/parser.h"
#include "util/fields.h"
#include "util/status.h"

namespace sparqlog::obs {
struct RunTelemetry;
}

namespace sparqlog::corpus {

/// The Table 1 pipeline counters: Total (query entries after cleaning),
/// Valid (parseable and fully analyzed), Unique (valid after duplicate
/// elimination) — plus the failure-model buckets. Every query entry
/// lands in exactly one of valid / malformed / abandoned / quarantined
/// (the conservation invariant `Conserved()`; see DESIGN.md "Failure
/// model").
struct CorpusStats {
  uint64_t total = 0;
  uint64_t valid = 0;
  uint64_t unique = 0;
  /// Query entries whose text did not parse (Total-but-not-Valid).
  uint64_t malformed = 0;
  /// Parseable entries whose structural analysis exhausted its step
  /// budget (Status::kTimeout from the analyzer). Always 0 with the
  /// default unlimited budgets.
  uint64_t abandoned = 0;
  /// Lines whose processing threw inside a pipeline worker (bad_alloc,
  /// injected faults); isolated by the containment layer so the run
  /// continues. Always 0 on a fault-free run.
  uint64_t quarantined = 0;

  /// Merging is exact when the partitions saw disjoint slices of the
  /// canonical-hash space (see pipeline/shard.h).
  static auto Fields(auto& s) {
    return util::fields::List(s.total, s.valid, s.unique, s.malformed,
                              s.abandoned, s.quarantined);
  }
  bool operator==(const CorpusStats&) const = default;

  /// The accounting-conservation invariant: the four outcome buckets
  /// partition the query entries.
  bool Conserved() const {
    return total == valid + malformed + abandoned + quarantined;
  }
};

/// FNV-1a — the hash used for duplicate elimination and shard routing.
uint64_t HashBytes(std::string_view s);

/// One log line after the parse stage: cleaned, URL-decoded, parsed, and
/// canonically hashed. This is the unit of work routed between pipeline
/// stages; `LogIngestor::Ingest` consumes it.
struct ParsedLine {
  /// The line was a query entry (counts toward Total).
  bool is_query = false;
  /// The query text parsed (counts toward Valid).
  bool valid = false;
  /// FNV-1a of the canonical serialization; meaningful iff `valid`.
  /// Equal hashes identify duplicates (same canonical AST).
  uint64_t canonical_hash = 0;
  /// FNV-1a of the raw line, for deterministic routing of entries that
  /// have no canonical form; only set for malformed and quarantined
  /// query entries.
  uint64_t line_hash = 0;
  /// The line's processing threw inside a pipeline worker and was
  /// isolated by the containment layer. Counts toward Total and the
  /// quarantined bucket; `valid` is false and `query` disengaged.
  bool quarantined = false;
  /// The AST; engaged iff `valid`, except on a valid line the pipeline's
  /// parse memo recognised as a byte-equal repeat (unique corpus only):
  /// such a line carries its hash and no AST, and its shard has already
  /// bucketed the first occurrence (see `LogIngestor::Ingest`).
  std::optional<sparql::Query> query;
};

/// The cleaning stage of `ParseLogLine`, shared with perfbench's layer
/// pass and the allocation test so they see exactly the production
/// input: strips the "query=" prefix and trailing CGI parameters (first
/// raw '&'), URL-decoding into `decode_buf` only when `%`/`+` escapes
/// are present (otherwise the returned view slices `line` directly).
/// Returns nullopt for non-query noise lines. The view dies with
/// `line`/`decode_buf`.
std::optional<std::string_view> ExtractQueryText(std::string_view line,
                                                 std::string& decode_buf);

/// Runs the cleaning + validation stages on one raw log line:
///  * `query=<urlencoded>` lines are query entries; the value ends at
///    the first raw `&` (further CGI parameters are not query text);
///  * any other line is non-query noise (`is_query` false).
/// The decoded text is parsed with `parser`; entries whose value does
/// not decode to valid SPARQL come back with `valid == false` so the
/// ingestor can count them as Total-but-not-Valid. Thread-safe when
/// each thread uses its own parser.
///
/// `decode_buf` is caller-provided scratch for URL-decoding, reused
/// across lines so the steady state allocates nothing (values without
/// any `%`/`+` escape are parsed in place and skip even the decode
/// write). The canonical hash is streamed off the AST (`CanonicalHash`)
/// — the canonical string is never materialized.
ParsedLine ParseLogLine(sparql::Parser& parser, std::string_view line,
                        std::string& decode_buf);

/// Convenience overload with private scratch (one allocation per
/// escaped line); hot loops should hoist the buffer.
ParsedLine ParseLogLine(sparql::Parser& parser, const std::string& line);

/// Reusable per-worker ingest scratch: the parser's arena/token/pname
/// scratch plus the URL-decode buffer. One warm ParseScratch takes the
/// whole clean-decode-parse-hash path to zero heap allocations per
/// line. `Reset()` invalidates every Query previously parsed through
/// the scratch (they live on its arena) — reset only once downstream
/// consumers are done with them. The pname cache deliberately survives
/// Reset (cross-line hits are its purpose).
struct ParseScratch {
  sparql::ParserScratch parser;
  std::string decode_buf;

  void Reset() { parser.Reset(); }
};

/// Arena-pooled variant of ParseLogLine: the returned line's `query`
/// (when valid) lives on `scratch.parser.arena` until `scratch.Reset()`.
/// Multiple lines may be parsed into one scratch before resetting (the
/// pipeline accumulates a whole chunk); copying a Query detaches it
/// onto the heap. Byte-identical outputs to the heap overload — the
/// fuzz harness enforces this.
ParsedLine ParseLogLine(const sparql::Parser& parser, std::string_view line,
                        ParseScratch& scratch);

/// Callback invoked for every query that survives a pipeline stage.
using QuerySink = std::function<void(const sparql::Query&)>;

/// Gate consuming a query that would enter the analysis corpus. OK
/// means the query was fully analyzed (it counts as valid/unique);
/// Status::kTimeout means the analysis exhausted its step budget and
/// the query moves to the abandoned bucket instead. The verdict must be
/// deterministic per canonical query — budgets are step counts, so
/// equal queries always land in the same bucket regardless of
/// scheduling.
using QueryGate = std::function<util::Status(const sparql::Query&)>;

/// Log ingestion: cleaning, validation, and duplicate elimination
/// (Section 2 of the paper; Jena is replaced by our parser).
class LogIngestor {
 public:
  /// Processes one raw log line — equivalent to `ParseLogLine` followed
  /// by `Ingest`. Returns true iff the line was a query entry.
  bool ProcessLine(const std::string& line);

  /// Runs the counting + duplicate-elimination stages on an
  /// already-parsed line. This is the shard-local half of `ProcessLine`:
  /// the parallel pipeline parses on worker threads and feeds each
  /// shard's ingestor through here. `parsed.query` is read only where a
  /// gate runs; a valid line without an AST that reaches one aborts.
  void Ingest(const ParsedLine& parsed);

  /// Feeds a whole log.
  void ProcessLog(const std::vector<std::string>& lines);

  /// Registers a sink receiving every *unique* valid query (at its first
  /// occurrence) — this is the paper's primary analysis corpus.
  void set_unique_sink(QuerySink sink);

  /// Registers a sink receiving every *valid* query, duplicates
  /// included (the appendix corpus).
  void set_valid_sink(QuerySink sink);

  /// Gate variants of the sinks: the consumer may veto the delivery
  /// with Status::kTimeout (analysis budget exhausted), moving the
  /// query — and, in unique mode, all its later duplicates — into the
  /// abandoned bucket. A plain sink is a gate that always returns OK.
  void set_unique_gate(QueryGate gate) { unique_gate_ = std::move(gate); }
  void set_valid_gate(QueryGate gate) { valid_gate_ = std::move(gate); }

  /// Points the ingestor at a metrics registry (owned by the caller,
  /// outliving the ingestor's use). Ingest then counts query entries,
  /// malformed entries, and analysis-corpus deliveries into the shard
  /// and analysis stages — the same counters for the serial path and
  /// for every pipeline shard, which is what makes the merged telemetry
  /// digest identical across serial and parallel runs. Counting only;
  /// no clock reads on this path.
  void set_telemetry(obs::RunTelemetry* telemetry) { telemetry_ = telemetry; }

  const CorpusStats& stats() const { return stats_; }

  /// Appends the dedup/accounting state (varint counters plus both
  /// seen-hash sets, sorted and gap-encoded so the blob is compact and
  /// deterministic) for the snapshot subsystem (util/snapshot_io.h).
  /// The registered gates/sinks are NOT part of the state; a restored
  /// ingestor must be wired to an analyzer restored from the same
  /// checkpoint.
  void SaveState(std::string& out) const;
  /// Restores state written by SaveState, consuming the bytes read.
  /// Returns false (leaving the ingestor unspecified) on a
  /// truncated/corrupt blob.
  bool LoadState(std::string_view& in);

 private:
  sparql::Parser parser_;
  CorpusStats stats_;
  QueryGate unique_gate_;
  QueryGate valid_gate_;
  /// Hashes of canonical serializations seen so far.
  std::unordered_set<uint64_t> seen_hashes_;
  /// Canonical hashes whose first occurrence exhausted the analysis
  /// budget: later duplicates go straight to the abandoned bucket (the
  /// budget verdict is per-canonical-query, so re-running the analysis
  /// would burn the same steps for the same answer).
  std::unordered_set<uint64_t> seen_abandoned_;
  /// Reused parse scratch for ProcessLine/ProcessLog: arena-pooled AST
  /// storage, recycled token buffer, pname cache, URL-decode buffer.
  /// Reset at each ProcessLine entry — safe because Ingest calls its
  /// sinks synchronously, so nothing references the previous line's
  /// Query by then.
  ParseScratch scratch_;
  /// Optional metrics registry; not owned.
  obs::RunTelemetry* telemetry_ = nullptr;
};

}  // namespace sparqlog::corpus

#endif  // SPARQLOG_CORPUS_INGEST_H_
