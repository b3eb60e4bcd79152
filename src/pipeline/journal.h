#ifndef SPARQLOG_PIPELINE_JOURNAL_H_
#define SPARQLOG_PIPELINE_JOURNAL_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "pipeline/chunk_source.h"
#include "pipeline/pipeline.h"
#include "util/result.h"

namespace sparqlog::pipeline {

/// Journal-level schema version inside the snapshot container (the
/// container has its own format version), the first word of a
/// checkpoint's meta section. Bump when the meta layout or the shard
/// blob encoding changes incompatibly (3: TripleStats saves its
/// histogram after its counters; 4: dataset ids come from
/// rdf::Dictionary and start at 1). A checkpoint of another version is
/// refused.
inline constexpr uint64_t kJournalVersion = 4;

/// Crash-safe run journal: the source runs through ONE pipeline run
/// whose checkpoints are aligned barriers (CheckpointBarriers in
/// pipeline/pipeline.h). Barrier e falls after W_e = e *
/// `chunks_per_segment` reader chunks: each shard takes its part — its
/// complete dedup/analysis state after exactly the chunks below W_e —
/// while the run goes on, and a writer thread publishes the parts,
/// with the source's resume cursor at W_e, as a snapshot generation
/// (util/snapshot_io.h): a versioned, per-section-CRC32C file written
/// via write-fsync-rename, with `path` as the manifest tracking the two
/// most recent generations. After the run joins, one last checkpoint
/// covers the whole run. A rerun against the same journal restores the
/// newest intact generation, seeks the source to its watermark, and
/// continues; the final StatisticsDigest is bit-identical to an
/// uninterrupted run because the shard state at the watermark IS the
/// uninterrupted run's state at that point. Generation e holds the same
/// bytes a run stopped after e segments would write.
///
/// Damage handling: a corrupt newest generation (torn write, bit flip,
/// truncation — all CRC-detected) falls back to the previous
/// generation, re-reading the lost segment from the source; the result
/// is still exact. Only when no retained generation is usable — or the
/// checkpoint was written by an incompatible configuration or format
/// version — is the run refused, with a reason string (never a silent
/// restart: that would double-count the journal's prefix if the caller
/// later merges runs). A checkpoint that cannot be written (fsync,
/// rename or write error) stops the reader; the run drains and fails
/// with kInternal, leaving the previous generation resumable.
struct JournalOptions {
  /// Snapshot manifest path. Generations live at "<path>.g<N>"; each
  /// file is staged at "<name>.tmp" and renamed into place.
  std::string path;
  /// Reader chunks per segment: the checkpoint cadence. Smaller
  /// segments lose less work on a crash and write more generations.
  size_t chunks_per_segment = 64;
  /// Stop reading after this many segments' chunks even if input
  /// remains (0 = run to completion). The kill-then-resume tests use
  /// this to end a run at a checkpoint boundary deterministically.
  uint64_t max_segments = 0;
};

struct JournalRunResult {
  PipelineResult result;
  /// Generations THIS invocation published: one per barrier plus the
  /// last checkpoint (not counting work restored from the journal).
  uint64_t segments = 0;
  /// State was restored from an existing checkpoint.
  bool resumed = false;
  /// The source was exhausted — the result covers the whole input. False
  /// when the run stopped early (max_segments reached, or a persistent
  /// source error; see result.source_status).
  bool complete = false;
  /// Newest snapshot generation written by this run (or restored from,
  /// if this run wrote none). 0 = no checkpoint exists.
  uint64_t generation = 0;
  /// The newest generation was damaged and the run fell back to the
  /// previous one; `recovery_reason` says what was wrong with it.
  bool recovered_previous_generation = false;
  std::string recovery_reason;
};

/// Runs `options`' pipeline over `source` with journaling as described
/// above. The source must support resume (MmapChunkSource,
/// VectorChunkSource); otherwise it fails with kUnsupported. Fails
/// without touching the source with kInvalidArgument if the journal
/// manifest exists but no retained generation is intact (damage), and
/// with kUnsupported if the checkpoint was written by an incompatible
/// configuration (different shard count, dataset, corpus mode, or
/// analysis limits — checked via a fingerprint) or schema version.
util::Result<JournalRunResult> RunWithJournal(const PipelineOptions& options,
                                              ChunkSource& source,
                                              const JournalOptions& journal);

}  // namespace sparqlog::pipeline

#endif  // SPARQLOG_PIPELINE_JOURNAL_H_
