#ifndef SPARQLOG_TESTING_SNAPSHOT_FAULTS_H_
#define SPARQLOG_TESTING_SNAPSHOT_FAULTS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "testing/invariants.h"
#include "util/rng.h"

namespace sparqlog::testing {

/// One deterministic storage-fault scenario for the snapshot-backed run
/// journal. Like FaultPlan, every field is a pure function of the
/// generating seed, so a plan printed by a failing run replays exactly.
/// A plan damages exactly one thing:
///
///  * bit flip — one byte of the target file is XORed after the
///    checkpoints were written (latent media corruption);
///  * truncate — the target file loses its tail (crash mid-copy,
///    filesystem rollback);
///  * torn publish — the NEXT checkpoint write of the target reaches
///    disk as prefix + zeros with no fsync (power cut during publish);
///  * fsync failure — the next checkpoint's fsync reports EIO; the
///    checkpoint write must fail loudly, and the previous checkpoint
///    must stay usable;
///  * rename failure — same, for the rename step of the publish.
///
/// Or nothing (kNone): the fault-free control must resume exactly, both
/// mid-run and from the finished checkpoint.
struct StorageFaultPlan {
  enum class Kind {
    kNone,
    kBitFlip,
    kTruncate,
    kTornPublish,
    kFsyncFailure,
    kRenameFailure,
  };
  enum class Target {
    kCurrentGeneration,
    kPreviousGeneration,  ///< only meaningful for kBitFlip/kTruncate
    kManifest,
  };

  uint64_t seed = 0;
  Kind kind = Kind::kNone;
  Target target = Target::kCurrentGeneration;
  /// Fractional position of the damage inside the target file, in
  /// [0, 1): byte offset for flips, kept-prefix length for truncations
  /// and torn writes.
  double where = 0.5;

  /// Compact one-line rendering for failure reports.
  std::string Describe() const;
};

/// Samples a plan; ~1 in 6 is the fault-free control.
StorageFaultPlan RandomStorageFaultPlan(util::Rng& rng);

/// Runs `log` through a journaled pipeline, applies `plan`'s damage,
/// and checks the durability contract:
///  * damage to any retained snapshot byte is DETECTED — never a
///    silently wrong resume;
///  * a damaged current generation degrades to the previous one and the
///    finished run is still digest-identical to an uninterrupted run;
///  * a damaged previous generation is invisible (the current one
///    carries the run);
///  * a damaged manifest is a hard, reasoned error — and starting over
///    from scratch reproduces the reference digest;
///  * fsync/rename failures during a checkpoint surface as errors while
///    leaving the prior checkpoint resumable;
///  * the fault-free control resumes bit-identically, mid-run and from
///    the finished checkpoint.
/// Uses a temp-directory journal derived from the plan seed; cleans up
/// after itself.
std::optional<Violation> CheckSnapshotDurability(
    const std::vector<std::string>& log, const StorageFaultPlan& plan,
    const pipeline::PipelineOptions& config);

}  // namespace sparqlog::testing

#endif  // SPARQLOG_TESTING_SNAPSHOT_FAULTS_H_
