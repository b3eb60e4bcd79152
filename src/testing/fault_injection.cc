#include "testing/fault_injection.h"

#include <unistd.h>

#include <filesystem>
#include <stdexcept>
#include <utility>

#include "corpus/ingest.h"
#include "obs/alloc_tracker.h"
#include "pipeline/journal.h"
#include "pipeline/merge.h"
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

}  // namespace

std::string FaultPlan::Describe() const {
  std::string s = "plan{seed=" + std::to_string(seed);
  if (truncate_after_chunks != 0) {
    s += " truncate@" + std::to_string(truncate_after_chunks);
  }
  if (transient_at_chunk != 0) {
    s += " transient@" + std::to_string(transient_at_chunk) + "x" +
         std::to_string(transient_burst);
  }
  if (persistent_at_chunk != 0) {
    s += " persistent@" + std::to_string(persistent_at_chunk);
  }
  if (alloc_fail_after >= 0) {
    s += " alloc_fail_after=" + std::to_string(alloc_fail_after);
  }
  if (poison_modulus != 0) {
    s += " poison=" + std::to_string(poison_residue) + "/" +
         std::to_string(poison_modulus);
  }
  if (!any()) s += " fault-free";
  return s + "}";
}

FaultPlan RandomFaultPlan(util::Rng& rng) {
  FaultPlan plan;
  plan.seed = rng.Next();
  // ~1 in 6 plans are the fault-free control: the containment layer must
  // be invisible when nothing goes wrong.
  if (rng.Chance(1.0 / 6.0)) return plan;
  if (rng.Chance(0.25)) {
    plan.truncate_after_chunks = 1 + rng.Below(8);
  }
  if (rng.Chance(0.35)) {
    plan.transient_at_chunk = 1 + rng.Below(6);
    // Bursts straddle the retry bound (3): short bursts must recover
    // losslessly, long ones must degrade to a persistent failure.
    plan.transient_burst = static_cast<int>(1 + rng.Below(6));
  }
  if (rng.Chance(0.2)) {
    plan.persistent_at_chunk = 1 + rng.Below(6);
  }
  if (rng.Chance(0.3)) {
    plan.alloc_fail_after = static_cast<int64_t>(rng.Below(4000));
  }
  if (rng.Chance(0.4)) {
    plan.poison_modulus = 2 + rng.Below(30);
    plan.poison_residue = rng.Below(plan.poison_modulus);
  }
  return plan;
}

bool FaultInjectingChunkSource::NextChunk(size_t max_lines,
                                          pipeline::LineChunk& out) {
  if (plan_.truncate_after_chunks != 0 &&
      ordinal_ >= plan_.truncate_after_chunks) {
    injected_truncation_ = true;
    return false;
  }
  const uint64_t next_ordinal = ordinal_ + 1;
  if (plan_.transient_at_chunk == next_ordinal && transient_left_ > 0) {
    --transient_left_;
    ++injected_transients_;
    // The ordinal does NOT advance: a retry targets the same read, like
    // a real EINTR.
    throw pipeline::TransientChunkError(
        "injected transient fault at chunk " + std::to_string(next_ordinal));
  }
  if (plan_.persistent_at_chunk == next_ordinal && !injected_persistent_) {
    injected_persistent_ = true;
    ++ordinal_;  // the failed read consumed the ordinal
    throw pipeline::ChunkSourceError(
        "injected persistent fault at chunk " + std::to_string(next_ordinal));
  }
  if (!inner_.NextChunk(max_lines, out)) return false;
  ++ordinal_;
  return true;
}

pipeline::PipelineOptions FaultPipelineOptions(
    const pipeline::PipelineOptions& config, const FaultPlan& plan) {
  pipeline::PipelineOptions options = config;
  if (plan.poison_modulus != 0) {
    options.parse_fault_hook = [modulus = plan.poison_modulus,
                                residue = plan.poison_residue](
                                   std::string_view line) {
      if (corpus::HashBytes(line) % modulus == residue) {
        throw std::runtime_error("injected poison line");
      }
    };
  }
  return options;
}

std::optional<Violation> CheckFaultContainment(
    const std::vector<std::string>& log, const FaultPlan& plan,
    const pipeline::PipelineOptions& config,
    size_t journal_chunks_per_segment) {
  auto describe = [&] {
    return plan.Describe() + " threads=" + std::to_string(config.threads) +
           " shards=" + std::to_string(config.shards) +
           " chunk=" + std::to_string(config.chunk_size);
  };

  pipeline::ParallelLogPipeline pipeline(FaultPipelineOptions(config, plan));
  pipeline::VectorChunkSource inner(log);
  FaultInjectingChunkSource source(inner, plan);

  pipeline::PipelineResult result;
  if (plan.alloc_fail_after >= 0) obs::ArmAllocFailure(plan.alloc_fail_after);
  try {
    result = pipeline.Run(source);
    obs::DisarmAllocFailure();
  } catch (const std::exception& e) {
    obs::DisarmAllocFailure();
    return Violate("fault-escape", std::string("exception escaped Run: ") +
                                       e.what() + " (" + describe() + ")");
  } catch (...) {
    obs::DisarmAllocFailure();
    return Violate("fault-escape",
                   "non-std exception escaped Run (" + describe() + ")");
  }

  // ---- Accounting conservation.
  const corpus::CorpusStats& stats = result.stats;
  if (!stats.Conserved()) {
    return Violate(
        "fault-conservation",
        "total=" + std::to_string(stats.total) +
            " != valid=" + std::to_string(stats.valid) +
            " + malformed=" + std::to_string(stats.malformed) +
            " + abandoned=" + std::to_string(stats.abandoned) +
            " + quarantined=" + std::to_string(stats.quarantined) + " (" +
            describe() + ")");
  }

  // ---- Quarantine report agrees with the counters.
  if (result.quarantine.count != stats.quarantined) {
    return Violate("fault-quarantine-count",
                   "report count " + std::to_string(result.quarantine.count) +
                       " != stats.quarantined " +
                       std::to_string(stats.quarantined) + " (" + describe() +
                       ")");
  }
  const size_t samples = result.quarantine.samples.size();
  if (samples > pipeline::QuarantineReport::kMaxSamples ||
      samples > result.quarantine.count) {
    return Violate("fault-quarantine-samples",
                   "sample list over bound (" + describe() + ")");
  }
  for (size_t i = 1; i < result.quarantine.samples.size(); ++i) {
    const auto& a = result.quarantine.samples[i - 1];
    const auto& b = result.quarantine.samples[i];
    if (a.chunk > b.chunk ||
        (a.chunk == b.chunk && a.line_index >= b.line_index)) {
      return Violate("fault-quarantine-order",
                     "samples not in (chunk, line) order (" + describe() +
                         ")");
    }
  }

  // ---- Source status reflects what actually happened.
  const bool expect_source_failure =
      source.injected_persistent() ||
      source.injected_transients() > 3;  // over the reader's retry bound
  if (expect_source_failure && result.source_status.ok()) {
    return Violate("fault-source-status",
                   "persistent source fault not surfaced (" + describe() +
                       ")");
  }
  if (!expect_source_failure && !result.source_status.ok()) {
    return Violate("fault-source-status",
                   "spurious source failure: " +
                       result.source_status.ToString() + " (" + describe() +
                       ")");
  }

  // ---- Line accounting: never invent lines; without source loss every
  // line is consumed.
  if (result.lines > log.size()) {
    return Violate("fault-lines",
                   "consumed " + std::to_string(result.lines) + " of " +
                       std::to_string(log.size()) + " lines (" + describe() +
                       ")");
  }
  const bool lossless_source =
      !source.injected_truncation() && !expect_source_failure;
  if (lossless_source && result.lines != log.size()) {
    return Violate("fault-lines",
                   "lossless plan consumed " + std::to_string(result.lines) +
                       " of " + std::to_string(log.size()) + " lines (" +
                       describe() + ")");
  }

  // ---- The same plan through a journal: one run with checkpoint
  // barriers, whose result must not depend on the barriers.
  if (journal_chunks_per_segment > 0) {
    const std::string jdescribe =
        describe() +
        " chunks_per_segment=" + std::to_string(journal_chunks_per_segment);
    snap::SnapshotStore store(
        (std::filesystem::temp_directory_path() /
         ("sparqlog_faultjournal_" + std::to_string(::getpid()) + ".ckpt"))
            .string());
    store.Remove();
    pipeline::JournalOptions jopts;
    jopts.path = store.manifest_path();
    jopts.chunks_per_segment = journal_chunks_per_segment;
    pipeline::VectorChunkSource journal_inner(log);
    FaultInjectingChunkSource journal_source(journal_inner, plan);
    util::Result<pipeline::JournalRunResult> journaled =
        util::Status::Internal("not run");
    if (plan.alloc_fail_after >= 0) obs::ArmAllocFailure(plan.alloc_fail_after);
    try {
      journaled = pipeline::RunWithJournal(FaultPipelineOptions(config, plan),
                                           journal_source, jopts);
      obs::DisarmAllocFailure();
    } catch (const std::exception& e) {
      obs::DisarmAllocFailure();
      store.Remove();
      return Violate("fault-escape",
                     std::string("exception escaped RunWithJournal: ") +
                         e.what() + " (" + jdescribe + ")");
    }
    store.Remove();
    if (!journaled.ok()) {
      return Violate("fault-journal", "journaled run failed: " +
                                          journaled.status().ToString() +
                                          " (" + jdescribe + ")");
    }
    const pipeline::PipelineResult& j = journaled.value().result;
    if (!j.stats.Conserved()) {
      return Violate("fault-conservation",
                     "journaled run loses or invents entries (" + jdescribe +
                         ")");
    }
    if (plan.deterministic() &&
        (j.stats != stats || j.lines != result.lines ||
         j.quarantine.count != result.quarantine.count ||
         pipeline::StatisticsDigest(j.analysis) !=
             pipeline::StatisticsDigest(result.analysis))) {
      return Violate("fault-journal",
                     "journaled run diverges from the plain run (" +
                         jdescribe + ")");
    }
  }

  // ---- Deterministic plans replay bit-identically, shard count and
  // thread count notwithstanding.
  if (plan.deterministic()) {
    pipeline::PipelineOptions alt = config;
    alt.threads = config.threads == 1 ? 2 : 1;
    alt.shards = config.shards == 3 ? 5 : 3;
    pipeline::ParallelLogPipeline replay_pipeline(
        FaultPipelineOptions(alt, plan));
    pipeline::VectorChunkSource replay_inner(log);
    FaultInjectingChunkSource replay_source(replay_inner, plan);
    pipeline::PipelineResult replay;
    try {
      replay = replay_pipeline.Run(replay_source);
    } catch (const std::exception& e) {
      return Violate("fault-escape",
                     std::string("exception escaped replay Run: ") + e.what() +
                         " (" + describe() + ")");
    }
    // Different chunk boundaries are possible only via options, and the
    // replay keeps chunk_size — so the injected source faults hit the
    // same ordinals and the surviving line set is identical.
    if (replay.stats != stats) {
      return Violate("fault-determinism",
                     "replay counters diverge (" + describe() + ")");
    }
    if (pipeline::StatisticsDigest(replay.analysis) !=
        pipeline::StatisticsDigest(result.analysis)) {
      return Violate("fault-determinism",
                     "replay StatisticsDigest diverges (" + describe() + ")");
    }
    if (replay.quarantine.count != result.quarantine.count) {
      return Violate("fault-determinism",
                     "replay quarantine count diverges (" + describe() + ")");
    }
  }

  // ---- The fault-free control equals a plain run exactly.
  if (!plan.any()) {
    pipeline::PipelineOptions plain_options =
        FaultPipelineOptions(config, FaultPlan{});
    pipeline::ParallelLogPipeline plain(plain_options);
    pipeline::PipelineResult plain_result = plain.Run(log);
    if (plain_result.stats != stats ||
        pipeline::StatisticsDigest(plain_result.analysis) !=
            pipeline::StatisticsDigest(result.analysis)) {
      return Violate("fault-control",
                     "fault-free plan diverges from a plain run (" +
                         describe() + ")");
    }
    if (stats.quarantined != 0 || stats.abandoned != 0) {
      return Violate("fault-control",
                     "fault-free plan produced quarantined/abandoned "
                     "entries (" +
                         describe() + ")");
    }
  }

  return std::nullopt;
}

}  // namespace sparqlog::testing
