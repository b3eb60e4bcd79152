#ifndef SPARQLOG_PIPELINE_SHARD_H_
#define SPARQLOG_PIPELINE_SHARD_H_

#include <cstddef>
#include <string>
#include <string_view>

#include "corpus/ingest.h"
#include "corpus/report.h"

namespace sparqlog::pipeline {

/// Configuration shared by every shard of one pipeline run.
struct ShardOptions {
  /// Dataset label for the per-dataset statistics (Figure 1).
  std::string dataset = "all";
  /// Analyze the valid corpus (duplicates included, the appendix
  /// tables) instead of the unique corpus.
  bool use_valid_corpus = false;
  /// Per-query step budgets for the analysis kernels (0 = unlimited).
  /// Exhaustion moves the query — and its duplicates — into the
  /// abandoned bucket instead of the statistics.
  corpus::AnalysisLimits analysis_limits;
};

/// One shard's state at a checkpoint, taken on the thread that drives
/// the shard. The ingestor's counters and seen-hash sets are encoded at
/// once; the analyzer is kept as a copy of its aggregates, because its
/// encoding interns dataset names into a dictionary shared by every
/// shard of the snapshot, which only the checkpoint writer assembles.
struct ShardCheckpoint {
  std::string ingestor;
  corpus::CorpusAnalyzer analyzer;
};

/// Appends `part` as one snapshot-section payload (ingestor blob, then
/// analyzer blob), interning strings into the snapshot-wide `dict`.
/// Shard::LoadState reads it back.
void EncodeShardCheckpoint(const ShardCheckpoint& part, std::string& out,
                           rdf::Dictionary& dict);

/// One worker shard: a LogIngestor (Table 1 accounting + duplicate
/// elimination) wired to its own CorpusAnalyzer. A shard owns the slice
/// of canonical-hash space `hash % num_shards == index`, so every
/// duplicate of a query lands on the same shard and global dedup stays
/// exact without any cross-shard coordination.
class Shard {
 public:
  explicit Shard(const ShardOptions& options);

  Shard(const Shard&) = delete;  // the ingestor sink captures `this`
  Shard& operator=(const Shard&) = delete;

  /// Ingests one parsed entry: Total/Valid/Unique accounting, then
  /// analysis of the surviving corpus. Not thread-safe; each shard is
  /// driven by a single consumer thread.
  void Consume(const corpus::ParsedLine& entry) { ingestor_.Ingest(entry); }

  /// Routes the shard's dedup/analysis counters into `telemetry` (the
  /// consumer thread's private registry instance; caller keeps it alive
  /// for the shard's lifetime).
  void set_telemetry(obs::RunTelemetry* telemetry) {
    ingestor_.set_telemetry(telemetry);
  }

  const corpus::CorpusStats& stats() const { return ingestor_.stats(); }
  const corpus::CorpusAnalyzer& analyzer() const { return analyzer_; }

  /// The shard's complete accounting + analysis state as it stands.
  ShardCheckpoint TakeCheckpoint() const;
  /// Restores state written by EncodeShardCheckpoint into a
  /// freshly-constructed shard (same ShardOptions), consuming the bytes
  /// read. Returns false on a corrupt blob.
  bool LoadState(std::string_view& in, const rdf::Dictionary& dict);

 private:
  corpus::LogIngestor ingestor_;
  corpus::CorpusAnalyzer analyzer_;
};

/// Deterministic entry→shard routing. Valid entries route by their
/// canonical-query hash (the dedup key, so duplicates — including
/// formatting variants of the same query — always share a shard);
/// malformed entries have no canonical form and route by raw-line hash,
/// which only spreads their Total counts. The result depends solely on
/// the entry and `num_shards`, never on thread timing.
size_t ShardIndexFor(const corpus::ParsedLine& entry, size_t num_shards);

}  // namespace sparqlog::pipeline

#endif  // SPARQLOG_PIPELINE_SHARD_H_
