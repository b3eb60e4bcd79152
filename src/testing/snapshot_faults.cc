#include "testing/snapshot_faults.h"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <utility>

#include "pipeline/journal.h"
#include "pipeline/merge.h"
#include "pipeline/pipeline.h"
#include "util/snapshot_io.h"

namespace sparqlog::testing {

namespace {

namespace snap = util::snapshot;

std::optional<Violation> Violate(std::string invariant, std::string detail) {
  Violation v;
  v.invariant = std::move(invariant);
  v.detail = std::move(detail);
  return v;
}

const char* KindName(StorageFaultPlan::Kind kind) {
  switch (kind) {
    case StorageFaultPlan::Kind::kNone:
      return "none";
    case StorageFaultPlan::Kind::kBitFlip:
      return "bitflip";
    case StorageFaultPlan::Kind::kTruncate:
      return "truncate";
    case StorageFaultPlan::Kind::kTornPublish:
      return "torn-publish";
    case StorageFaultPlan::Kind::kFsyncFailure:
      return "fsync-fail";
    case StorageFaultPlan::Kind::kRenameFailure:
      return "rename-fail";
  }
  return "?";
}

const char* TargetName(StorageFaultPlan::Target target) {
  switch (target) {
    case StorageFaultPlan::Target::kCurrentGeneration:
      return "current";
    case StorageFaultPlan::Target::kPreviousGeneration:
      return "previous";
    case StorageFaultPlan::Target::kManifest:
      return "manifest";
  }
  return "?";
}

/// XORs one byte of `path` at the fractional offset. Any change to a
/// snapshot or manifest byte must be CRC-detected, so which byte does
/// not matter for correctness — fuzzing `where` sweeps the format.
bool FlipByteAt(const std::string& path, double where) {
  std::error_code ec;
  const uint64_t size = std::filesystem::file_size(path, ec);
  if (ec || size == 0) return false;
  const auto offset = static_cast<std::streamoff>(std::min<uint64_t>(
      size - 1, static_cast<uint64_t>(where * static_cast<double>(size))));
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  if (!f.good()) return false;
  char b = 0;
  f.seekg(offset);
  f.read(&b, 1);
  b = static_cast<char>(b ^ 0x40);
  f.seekp(offset);
  f.write(&b, 1);
  return f.good();
}

/// Truncates `path` to a strict prefix at the fractional offset.
bool TruncateAt(const std::string& path, double where) {
  std::error_code ec;
  const uint64_t size = std::filesystem::file_size(path, ec);
  if (ec || size == 0) return false;
  const uint64_t keep = std::min<uint64_t>(
      size - 1, static_cast<uint64_t>(where * static_cast<double>(size)));
  std::filesystem::resize_file(path, keep, ec);
  return !ec;
}

}  // namespace

std::string StorageFaultPlan::Describe() const {
  std::string s = "storage{seed=" + std::to_string(seed);
  s += std::string(" kind=") + KindName(kind);
  if (kind != Kind::kNone) {
    s += std::string(" target=") + TargetName(target);
    s += " where=" + std::to_string(where);
  }
  return s + "}";
}

StorageFaultPlan RandomStorageFaultPlan(util::Rng& rng) {
  using Kind = StorageFaultPlan::Kind;
  using Target = StorageFaultPlan::Target;
  StorageFaultPlan plan;
  plan.seed = rng.Next();
  plan.where = rng.NextDouble();
  // ~1 in 6 plans are the fault-free control: resume must be exact when
  // nothing is damaged, mid-run and from the finished checkpoint.
  if (rng.Chance(1.0 / 6.0)) return plan;
  switch (rng.Below(5)) {
    case 0:
      plan.kind = Kind::kBitFlip;
      break;
    case 1:
      plan.kind = Kind::kTruncate;
      break;
    case 2:
      plan.kind = Kind::kTornPublish;
      break;
    case 3:
      plan.kind = Kind::kFsyncFailure;
      break;
    default:
      plan.kind = Kind::kRenameFailure;
      break;
  }
  if (plan.kind == Kind::kBitFlip || plan.kind == Kind::kTruncate) {
    // At-rest damage can hit any retained file.
    switch (rng.Below(3)) {
      case 0:
        plan.target = Target::kCurrentGeneration;
        break;
      case 1:
        plan.target = Target::kPreviousGeneration;
        break;
      default:
        plan.target = Target::kManifest;
        break;
    }
  } else if (plan.kind == Kind::kTornPublish) {
    // A tear happens to whatever is being published: a generation file
    // or the manifest.
    plan.target = rng.Chance(0.3) ? Target::kManifest
                                  : Target::kCurrentGeneration;
  }
  return plan;
}

std::optional<Violation> CheckSnapshotDurability(
    const std::vector<std::string>& log, const StorageFaultPlan& plan,
    const pipeline::PipelineOptions& config) {
  auto describe = [&] {
    return plan.Describe() + " threads=" + std::to_string(config.threads) +
           " shards=" + std::to_string(config.shards) +
           " lines=" + std::to_string(log.size());
  };

  pipeline::PipelineOptions options = config;
  // ~8 chunks regardless of log size, so the two setup segments (2
  // chunks each) leave input for the post-damage resume to re-read.
  options.chunk_size = std::max<size_t>(1, log.size() / 8);

  pipeline::ParallelLogPipeline reference(options);
  pipeline::PipelineResult expect = reference.Run(log);
  const std::vector<uint64_t> expect_digest =
      pipeline::StatisticsDigest(expect.analysis);

  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("sparqlog_snapfault_" + std::to_string(plan.seed) + ".ckpt");
  snap::SnapshotStore store(path.string());
  store.Remove();
  struct Cleanup {
    snap::SnapshotStore& store;
    ~Cleanup() { store.Remove(); }
  } cleanup{store};

  pipeline::JournalOptions jopts;
  jopts.path = path.string();
  jopts.chunks_per_segment = 2;

  auto resume = [&](uint64_t max_segments)
      -> util::Result<pipeline::JournalRunResult> {
    pipeline::VectorChunkSource source(log);
    pipeline::JournalOptions ropts = jopts;
    ropts.max_segments = max_segments;
    return pipeline::RunWithJournal(options, source, ropts);
  };

  // Setup: run two segments, leaving two retained generations and input
  // remaining.
  {
    auto r = resume(2);
    if (!r.ok()) {
      return Violate("storage-setup", "setup run failed: " +
                                          r.status().ToString() + " (" +
                                          describe() + ")");
    }
    if (r.value().complete) {
      // Log too small to split into segments: degrade to a plain
      // journaled-equals-plain check (still worth asserting).
      if (pipeline::StatisticsDigest(r.value().result.analysis) !=
          expect_digest) {
        return Violate("storage-exactness",
                       "single-segment journaled run diverges from plain "
                       "run (" +
                           describe() + ")");
      }
      return std::nullopt;
    }
    if (r.value().generation != 2) {
      return Violate("storage-setup",
                     "expected generation 2 after two segments, got " +
                         std::to_string(r.value().generation) + " (" +
                         describe() + ")");
    }
  }

  auto manifest = store.ReadManifest();
  if (!manifest.ok() || manifest.value().previous == 0) {
    return Violate("storage-setup", "two generations not retained (" +
                                        describe() + ")");
  }
  const std::string manifest_path = store.manifest_path();
  const std::string current_path =
      store.GenerationPath(manifest.value().current);
  const std::string previous_path =
      store.GenerationPath(manifest.value().previous);

  auto check_exact_finish = [&](const char* invariant,
                                bool expect_resumed = true)
      -> std::optional<Violation> {
    auto r = resume(0);
    if (!r.ok()) {
      return Violate(invariant, "resume failed: " + r.status().ToString() +
                                    " (" + describe() + ")");
    }
    if (r.value().resumed != expect_resumed || !r.value().complete) {
      return Violate(invariant, "resume did not restore and finish (" +
                                    describe() + ")");
    }
    if (pipeline::StatisticsDigest(r.value().result.analysis) !=
        expect_digest) {
      return Violate(invariant,
                     "resumed digest diverges from the uninterrupted run (" +
                         describe() + ")");
    }
    return std::nullopt;
  };

  switch (plan.kind) {
    case StorageFaultPlan::Kind::kNone: {
      // Resume to completion, then resume the finished journal (which
      // reads no input): both must reproduce the reference digest.
      if (auto v = check_exact_finish("storage-control")) return v;
      auto r = resume(0);
      if (!r.ok() || !r.value().resumed ||
          pipeline::StatisticsDigest(r.value().result.analysis) !=
              expect_digest) {
        return Violate("storage-control",
                       "resume of the finished checkpoint diverges (" +
                           describe() + ")");
      }
      return std::nullopt;
    }

    case StorageFaultPlan::Kind::kBitFlip:
    case StorageFaultPlan::Kind::kTruncate: {
      const std::string& victim =
          plan.target == StorageFaultPlan::Target::kManifest ? manifest_path
          : plan.target == StorageFaultPlan::Target::kCurrentGeneration
              ? current_path
              : previous_path;
      const bool damaged = plan.kind == StorageFaultPlan::Kind::kBitFlip
                               ? FlipByteAt(victim, plan.where)
                               : TruncateAt(victim, plan.where);
      if (!damaged) {
        return Violate("storage-setup",
                       "could not damage " + victim + " (" + describe() + ")");
      }
      if (plan.target == StorageFaultPlan::Target::kManifest) {
        // A damaged manifest must be a hard, reasoned error — and a
        // fresh start must reproduce the reference exactly.
        auto r = resume(0);
        if (r.ok()) {
          return Violate("storage-detection",
                         "damaged manifest accepted silently (" + describe() +
                             ")");
        }
        if (r.status().message().empty()) {
          return Violate("storage-detection",
                         "damaged manifest rejected without a reason (" +
                             describe() + ")");
        }
        store.Remove();
        return check_exact_finish("storage-fresh-restart",
                                  /*expect_resumed=*/false);
      }
      if (plan.target == StorageFaultPlan::Target::kCurrentGeneration) {
        // Must fall back to the previous generation and still be exact.
        auto r = resume(0);
        if (!r.ok()) {
          return Violate("storage-fallback",
                         "no fallback from damaged current generation: " +
                             r.status().ToString() + " (" + describe() + ")");
        }
        if (!r.value().recovered_previous_generation ||
            r.value().recovery_reason.empty()) {
          return Violate("storage-fallback",
                         "damaged current generation not reported as "
                         "recovered (" +
                             describe() + ")");
        }
        if (!r.value().complete ||
            pipeline::StatisticsDigest(r.value().result.analysis) !=
                expect_digest) {
          return Violate("storage-exactness",
                         "fallback resume diverges from the uninterrupted "
                         "run (" +
                             describe() + ")");
        }
        return std::nullopt;
      }
      // Previous generation damaged: invisible, the current one carries
      // the run.
      {
        auto r = resume(0);
        if (!r.ok() || r.value().recovered_previous_generation) {
          return Violate("storage-retention",
                         "damaged PREVIOUS generation affected the resume (" +
                             describe() + ")");
        }
        if (pipeline::StatisticsDigest(r.value().result.analysis) !=
            expect_digest) {
          return Violate("storage-exactness",
                         "resume with damaged previous generation "
                         "diverges (" +
                             describe() + ")");
        }
      }
      return std::nullopt;
    }

    case StorageFaultPlan::Kind::kTornPublish: {
      // Tear the NEXT publish of the target once, then run one more
      // segment (the tear is silent, like a power cut after an
      // unflushed write), then resume without faults: the result must
      // still be exact. Detection/fallback is exercised implicitly —
      // if the tear actually lost bytes, the resume must recover via
      // the previous generation or (manifest tear) fail hard; either
      // way the final digest must match.
      const bool manifest_target =
          plan.target == StorageFaultPlan::Target::kManifest;
      bool torn = false;
      snap::IoFaultHooks hooks;
      hooks.torn_write = [&](const std::string& p, size_t size) -> int64_t {
        const bool is_manifest = p == manifest_path;
        if (is_manifest != manifest_target || torn || size == 0) return -1;
        torn = true;
        return static_cast<int64_t>(std::min<uint64_t>(
            size - 1,
            static_cast<uint64_t>(plan.where * static_cast<double>(size))));
      };
      snap::SetIoFaultHooksForTest(&hooks);
      auto mid = resume(1);
      snap::SetIoFaultHooksForTest(nullptr);
      if (!mid.ok()) {
        return Violate("storage-torn",
                       "torn publish surfaced as a write error: " +
                           mid.status().ToString() + " (" + describe() + ")");
      }
      if (!torn) {
        return Violate("storage-setup",
                       "torn-publish hook never fired (" + describe() + ")");
      }
      auto r = resume(0);
      if (r.ok()) {
        if (!r.value().complete ||
            pipeline::StatisticsDigest(r.value().result.analysis) !=
                expect_digest) {
          return Violate("storage-exactness",
                         "post-tear resume diverges from the uninterrupted "
                         "run (" +
                             describe() + ")");
        }
        return std::nullopt;
      }
      // A torn manifest may be unrecoverable — that must be loud, and a
      // fresh start must still be exact.
      if (!manifest_target) {
        return Violate("storage-fallback",
                       "torn generation publish not recovered: " +
                           r.status().ToString() + " (" + describe() + ")");
      }
      store.Remove();
      return check_exact_finish("storage-fresh-restart",
                                /*expect_resumed=*/false);
    }

    case StorageFaultPlan::Kind::kFsyncFailure:
    case StorageFaultPlan::Kind::kRenameFailure: {
      // The next checkpoint publish fails at the fsync/rename step: the
      // run must surface an error (never limp on with an unsynced
      // checkpoint), and the prior checkpoint must remain resumable.
      snap::IoFaultHooks hooks;
      if (plan.kind == StorageFaultPlan::Kind::kFsyncFailure) {
        hooks.fail_fsync = [](const std::string&) { return true; };
      } else {
        hooks.fail_rename = [](const std::string&) { return true; };
      }
      snap::SetIoFaultHooksForTest(&hooks);
      auto mid = resume(1);
      snap::SetIoFaultHooksForTest(nullptr);
      if (mid.ok()) {
        return Violate("storage-publish-error",
                       "failed fsync/rename not surfaced (" + describe() +
                           ")");
      }
      if (mid.status().message().empty()) {
        return Violate("storage-publish-error",
                       "fsync/rename failure rejected without a reason (" +
                           describe() + ")");
      }
      return check_exact_finish("storage-publish-retry");
    }
  }
  return std::nullopt;
}

}  // namespace sparqlog::testing
