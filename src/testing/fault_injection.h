#ifndef SPARQLOG_TESTING_FAULT_INJECTION_H_
#define SPARQLOG_TESTING_FAULT_INJECTION_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "pipeline/chunk_source.h"
#include "pipeline/pipeline.h"
#include "testing/invariants.h"
#include "util/rng.h"

namespace sparqlog::testing {

/// One deterministic fault scenario. Every field is a pure function of
/// the generating seed, so a plan printed by a failing run replays
/// exactly. A plan composes independent fault classes:
///
///  * source truncation — the source silently ends after N chunks
///    (a truncated mmap / short file);
///  * transient read errors — a burst of TransientChunkError at one
///    chunk ordinal (EINTR, short read); the pipeline retries up to its
///    bound, so bursts within the bound lose nothing and longer bursts
///    degrade to a persistent failure;
///  * persistent read error — ChunkSourceError at one chunk ordinal
///    (mid-file I/O error); the run keeps everything read so far and
///    surfaces PipelineResult::source_status;
///  * allocation failure — the N-th worker-scope allocation throws
///    bad_alloc (requires the binary to install obs/alloc_hooks.h);
///  * poison lines — the parse_fault_hook throws for every line whose
///    content hash matches, modeling a line that deterministically
///    crashes the parser; such lines must come out quarantined.
struct FaultPlan {
  uint64_t seed = 0;
  /// Source ends after this many chunks (0 = never).
  uint64_t truncate_after_chunks = 0;
  /// 1-based chunk ordinal of the transient burst (0 = none).
  uint64_t transient_at_chunk = 0;
  /// Consecutive TransientChunkError throws in the burst.
  int transient_burst = 0;
  /// 1-based chunk ordinal of the persistent error (0 = none).
  uint64_t persistent_at_chunk = 0;
  /// Arm the one-shot allocation failure this many in-scope allocations
  /// in (-1 = none).
  int64_t alloc_fail_after = -1;
  /// Poison every line with HashBytes(line) % poison_modulus ==
  /// poison_residue (0 = no poisoning).
  uint64_t poison_modulus = 0;
  uint64_t poison_residue = 0;

  bool any() const {
    return truncate_after_chunks != 0 || transient_at_chunk != 0 ||
           persistent_at_chunk != 0 || alloc_fail_after >= 0 ||
           poison_modulus != 0;
  }
  /// True iff every injected fault is a deterministic function of the
  /// input lines and chunk ordinals — alloc faults are not (the
  /// countdown lands wherever the worker's allocation counter happens
  /// to be), everything else is. Deterministic plans must produce
  /// bit-identical results on replay.
  bool deterministic() const { return alloc_fail_after < 0; }
  /// Compact one-line rendering for failure reports.
  std::string Describe() const;
};

/// Samples a plan: each fault class fires independently, biased so most
/// plans carry one or two faults and some carry none (the fault-free
/// control) or several (compound failures).
FaultPlan RandomFaultPlan(util::Rng& rng);

/// Wraps a source and injects the plan's source-level faults: exceptions
/// surface through NextChunk exactly as a faulty real source's would.
/// Resume calls forward to the inner source (the journaled fault runs
/// use this).
class FaultInjectingChunkSource : public pipeline::ChunkSource {
 public:
  FaultInjectingChunkSource(pipeline::ChunkSource& inner,
                            const FaultPlan& plan)
      : inner_(inner), plan_(plan), transient_left_(plan.transient_burst) {}

  bool NextChunk(size_t max_lines, pipeline::LineChunk& out) override;

  bool SupportsResume() const override { return inner_.SupportsResume(); }
  uint64_t offset() const override { return inner_.offset(); }
  bool SeekTo(uint64_t offset) override { return inner_.SeekTo(offset); }

  /// What the plan actually did this run (a fault scheduled past the end
  /// of the input never fires); the containment checker keys its
  /// expectations off these, not off the plan.
  bool injected_truncation() const { return injected_truncation_; }
  int injected_transients() const { return injected_transients_; }
  bool injected_persistent() const { return injected_persistent_; }

 private:
  pipeline::ChunkSource& inner_;
  FaultPlan plan_;
  uint64_t ordinal_ = 0;  ///< chunks delivered (or attempted) so far
  int transient_left_ = 0;
  bool injected_truncation_ = false;
  int injected_transients_ = 0;
  bool injected_persistent_ = false;
};

/// Builds the pipeline options for a fault run: `config` with the
/// plan's poison hook installed. The caller is responsible for
/// arming/disarming the plan's allocation fault around Run (see
/// CheckFaultContainment).
pipeline::PipelineOptions FaultPipelineOptions(
    const pipeline::PipelineOptions& config, const FaultPlan& plan);

/// Runs `log` through a fault-containment pipeline under `plan` and
/// checks the containment contract:
///  * no exception escapes Run;
///  * conservation — total == valid + malformed + abandoned + quarantined;
///  * the quarantine report agrees with the quarantined counter, its
///    samples are deterministically ordered and capped at
///    QuarantineReport::kMaxSamples;
///  * a persistent source fault (or an over-bound transient burst)
///    surfaces as a non-OK source_status, and only then;
///  * lines are never invented (result.lines bounded by the input), and
///    without source faults every line is accounted for;
///  * deterministic plans replay bit-identically: a second run under a
///    different shard count yields the same counters, quarantine count,
///    and StatisticsDigest.
///  * with `journal_chunks_per_segment` > 0, the same plan through
///    RunWithJournal (checkpoint barriers every that many chunks)
///    conserves too, and for deterministic plans matches the plain run's
///    counters, quarantine count, line count and StatisticsDigest.
/// Requires the binary to have installed obs/alloc_hooks.h for plans
/// with alloc_fail_after >= 0 (without the hooks the alloc fault simply
/// never fires, which the contract tolerates).
std::optional<Violation> CheckFaultContainment(
    const std::vector<std::string>& log, const FaultPlan& plan,
    const pipeline::PipelineOptions& config,
    size_t journal_chunks_per_segment = 0);

}  // namespace sparqlog::testing

#endif  // SPARQLOG_TESTING_FAULT_INJECTION_H_
