#include "corpus/ingest.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "obs/metrics.h"
#include "sparql/serializer.h"
#include "util/fnv.h"
#include "util/vbyte.h"
#include "util/simd_scan.h"
#include "util/strings.h"

namespace sparqlog::corpus {

uint64_t HashBytes(std::string_view s) { return util::Fnv1aHash(s); }

std::optional<std::string_view> ExtractQueryText(std::string_view line,
                                                 std::string& decode_buf) {
  constexpr std::string_view kPrefix = "query=";
  if (line.substr(0, kPrefix.size()) != kPrefix) return std::nullopt;
  // The query value runs to the first raw '&' (an encoded '&' inside the
  // query text is "%26", so this only strips trailing CGI parameters
  // such as "&format=json").
  std::string_view value = line.substr(kPrefix.size());
  size_t amp = value.find('&');
  if (amp != std::string_view::npos) value = value.substr(0, amp);
  // Fast path: no '%'/'+' escapes means the value IS the query text —
  // parse the slice in place, no decode copy at all. Otherwise decode
  // into the caller's scratch buffer (reused across lines).
  if (util::scan::FindEscape(value, 0) == value.size()) {
    return value;
  }
  decode_buf.clear();
  util::PercentDecodeTo(value, decode_buf);
  return std::string_view(decode_buf);
}

ParsedLine ParseLogLine(const sparql::Parser& parser, std::string_view line,
                        ParseScratch& scratch) {
  ParsedLine out;
  std::optional<std::string_view> text =
      ExtractQueryText(line, scratch.decode_buf);
  if (!text.has_value()) return out;  // non-query noise
  out.is_query = true;
  util::Result<sparql::Query> parsed = parser.Parse(*text, scratch.parser);
  if (!parsed.ok()) {
    // Malformed: Total but not Valid. Only these entries route by raw
    // line (valid ones route by canonical hash), so hash lazily here.
    out.line_hash = HashBytes(line);
    return out;
  }
  out.valid = true;
  // Duplicate elimination via the canonical serialization: two queries
  // are duplicates iff they parse to the same AST. The hash streams the
  // serialization through an FNV-1a sink — bit-identical to hashing the
  // materialized canonical string, without building it.
  out.canonical_hash = sparql::CanonicalHash(parsed.value());
  out.query = std::move(parsed).value();
  return out;
}

void LogIngestor::set_unique_sink(QuerySink sink) {
  if (!sink) {
    unique_gate_ = nullptr;
    return;
  }
  unique_gate_ = [sink = std::move(sink)](const sparql::Query& q) {
    sink(q);
    return util::Status::OK();
  };
}

void LogIngestor::set_valid_sink(QuerySink sink) {
  if (!sink) {
    valid_gate_ = nullptr;
    return;
  }
  valid_gate_ = [sink = std::move(sink)](const sparql::Query& q) {
    sink(q);
    return util::Status::OK();
  };
}

namespace {

// Hash sets travel sorted and gap-encoded (util/vbyte.h): sorting makes
// the blob deterministic for a given state, and the deltas shave the
// shared high bits off neighboring 64-bit hashes.
void PutHashSet(std::string& out, const std::unordered_set<uint64_t>& set) {
  std::vector<uint64_t> sorted(set.begin(), set.end());
  std::sort(sorted.begin(), sorted.end());
  util::vbyte::PutDeltaSorted(out, sorted);
}

bool GetHashSet(std::string_view& in, std::unordered_set<uint64_t>& set) {
  std::vector<uint64_t> sorted;
  if (!util::vbyte::GetDeltaSorted(in, sorted)) return false;
  set.clear();
  set.reserve(sorted.size());
  set.insert(sorted.begin(), sorted.end());
  return true;
}

}  // namespace

void LogIngestor::SaveState(std::string& out) const {
  util::fields::Save(out, stats_);
  PutHashSet(out, seen_hashes_);
  PutHashSet(out, seen_abandoned_);
}

bool LogIngestor::LoadState(std::string_view& in) {
  return util::fields::Load(in, stats_) && GetHashSet(in, seen_hashes_) &&
         GetHashSet(in, seen_abandoned_);
}

bool LogIngestor::ProcessLine(const std::string& line) {
  // The previous line's Query (if any) died with the last Ingest call —
  // sinks run synchronously — so its arena storage can be reclaimed.
  scratch_.Reset();
  ParsedLine parsed = ParseLogLine(parser_, std::string_view(line), scratch_);
  Ingest(parsed);
  return parsed.is_query;
}

namespace {

/// The AST a gate analyzes. A valid line without one is a repeat the
/// pipeline's parse memo routed bare; it is only sound when its shard
/// has already seen the first occurrence, which then decided the
/// bucket before any gate. Reaching a gate without an AST means that
/// ordering broke, and counting on would silently drop a query from
/// the analysis, so it aborts.
const sparql::Query& GateQuery(const ParsedLine& parsed) {
  if (!parsed.query.has_value()) {
    std::fprintf(stderr,
                 "LogIngestor: valid entry %016llx reached an analysis gate "
                 "without its AST (a parse-memo hit ahead of its first "
                 "occurrence)\n",
                 static_cast<unsigned long long>(parsed.canonical_hash));
    std::abort();
  }
  return *parsed.query;
}

}  // namespace

void LogIngestor::Ingest(const ParsedLine& parsed) {
  if (!parsed.is_query) return;
  ++stats_.total;
  // Shard-stage accounting: every query entry is an item in; valid ones
  // survive. These are pure counter increments (no clock), shared by
  // the serial path and every pipeline shard.
  obs::StageMetrics* shard_metrics = nullptr;
  if (telemetry_) {
    shard_metrics = &telemetry_->stage(obs::kStageShard);
    ++shard_metrics->items_in;
  }
  if (parsed.quarantined) {
    ++stats_.quarantined;
    if (shard_metrics) ++shard_metrics->quarantined;
    return;
  }
  if (!parsed.valid) {
    ++stats_.malformed;
    if (shard_metrics) ++shard_metrics->malformed;
    return;
  }
  // Valid-corpus gate runs per occurrence: the budget verdict depends
  // only on the canonical query, so duplicates repeat the same verdict.
  if (valid_gate_) {
    if (telemetry_) ++telemetry_->stage(obs::kStageAnalysis).items_in;
    util::Status st = valid_gate_(GateQuery(parsed));
    if (!st.ok()) {
      ++stats_.abandoned;
      seen_abandoned_.insert(parsed.canonical_hash);
      if (shard_metrics) ++shard_metrics->abandoned;
      return;
    }
  }
  // Unique-mode bucketing: the first occurrence's gate verdict decides
  // the bucket for the whole duplicate class (all duplicates of one
  // canonical hash route to the same shard, so this is deterministic).
  if (seen_abandoned_.count(parsed.canonical_hash) > 0) {
    ++stats_.abandoned;
    if (shard_metrics) ++shard_metrics->abandoned;
    return;
  }
  if (seen_hashes_.count(parsed.canonical_hash) > 0) {
    ++stats_.valid;
    if (shard_metrics) ++shard_metrics->items_out;
    return;
  }
  // First occurrence: the unique gate may still abandon it.
  if (unique_gate_) {
    if (telemetry_) ++telemetry_->stage(obs::kStageAnalysis).items_in;
    util::Status st = unique_gate_(GateQuery(parsed));
    if (!st.ok()) {
      ++stats_.abandoned;
      seen_abandoned_.insert(parsed.canonical_hash);
      if (shard_metrics) ++shard_metrics->abandoned;
      return;
    }
  }
  seen_hashes_.insert(parsed.canonical_hash);
  ++stats_.valid;
  ++stats_.unique;
  if (shard_metrics) ++shard_metrics->items_out;
}

void LogIngestor::ProcessLog(const std::vector<std::string>& lines) {
  for (const std::string& line : lines) ProcessLine(line);
}

}  // namespace sparqlog::corpus
