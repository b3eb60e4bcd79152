#include "pipeline/journal.h"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <system_error>
#include <utility>
#include <vector>

#include "pipeline/merge.h"
#include "rdf/dictionary.h"
#include "util/fnv.h"
#include "util/snapshot_io.h"
#include "util/vbyte.h"

namespace sparqlog::pipeline {

namespace {

namespace snap = util::snapshot;

/// Snapshot section ids. Per-shard state lives at kShardSectionBase + i.
constexpr uint64_t kMetaSection = 1;
constexpr uint64_t kDictionarySection = 2;
constexpr uint64_t kShardSectionBase = 16;

/// Everything that changes the meaning or layout of the checkpointed
/// shard state. A journal written under one fingerprint must not be
/// resumed under another: a different shard count re-routes duplicate
/// classes, different limits re-bucket abandoned queries.
uint64_t OptionsFingerprint(const PipelineOptions& o, size_t num_shards) {
  util::Fnv1a h;
  auto mix = [&h](uint64_t v) {
    char bytes[8];
    for (int i = 0; i < 8; ++i) bytes[i] = static_cast<char>(v >> (8 * i));
    h.Update(std::string_view(bytes, sizeof(bytes)));
  };
  h.Update(o.dataset);
  mix(o.dataset.size());
  mix(o.use_valid_corpus ? 1 : 0);
  mix(o.analysis_limits.ghw_steps);
  mix(o.analysis_limits.treewidth_steps);
  mix(o.analysis_limits.girth_steps);
  mix(num_shards);
  return h.digest();
}

/// Encodes one checkpoint — meta, dictionary and one section per shard
/// part, in shard order — and publishes it as the store's next
/// generation. Returns the bytes written.
util::Result<uint64_t> WriteCheckpoint(snap::SnapshotStore& store,
                                       uint64_t fingerprint, uint64_t offset,
                                       uint64_t lines_total,
                                       const std::vector<ShardCheckpoint>& parts,
                                       uint64_t& generation_out) {
  snap::SnapshotWriter writer;
  rdf::Dictionary dict;

  // Shards first: encoding the analyzers populates the dictionary, which
  // must be complete before its own section is encoded. (Sections load
  // by id, so file order does not matter.)
  corpus::CorpusAnalyzer merged;
  for (size_t i = 0; i < parts.size(); ++i) {
    std::string blob;
    EncodeShardCheckpoint(parts[i], blob, dict);
    writer.AddSection(kShardSectionBase + i, std::move(blob));
    merged.MergeFrom(parts[i].analyzer);
  }

  std::string dict_blob;
  dict.EncodeTo(dict_blob);
  writer.AddSection(kDictionarySection, std::move(dict_blob));

  std::string meta;
  util::vbyte::PutVarint(meta, kJournalVersion);
  util::vbyte::PutVarint(meta, fingerprint);
  util::vbyte::PutVarint(meta, parts.size());
  util::vbyte::PutVarint(meta, offset);
  util::vbyte::PutVarint(meta, lines_total);
  // Semantic integrity check on top of the container CRCs: the digest
  // of the merged analyzer state must reproduce on load.
  std::vector<uint64_t> digest = StatisticsDigest(merged);
  util::vbyte::PutVarint(meta, digest.size());
  for (uint64_t w : digest) util::vbyte::PutVarint(meta, w);
  writer.AddSection(kMetaSection, std::move(meta));

  auto gen = store.Save(writer);
  if (!gen.ok()) return gen.status();
  generation_out = gen.value();
  std::error_code ec;
  const uintmax_t bytes =
      std::filesystem::file_size(store.GenerationPath(gen.value()), ec);
  return ec ? uint64_t{0} : static_cast<uint64_t>(bytes);
}

/// Restores one loaded (container-verified) snapshot into freshly
/// constructed shards. Returns OK, kUnsupported for "written by an
/// incompatible configuration or schema" (not recoverable by falling
/// back — the previous generation shares the configuration), or
/// kInvalidArgument for content that doesn't hang together (treated as
/// corruption; the caller may fall back).
util::Status RestoreCheckpoint(const snap::Snapshot& snapshot,
                               uint64_t fingerprint, uint64_t& offset,
                               uint64_t& lines_total,
                               std::vector<std::unique_ptr<Shard>>& shards) {
  const std::string_view* meta = snapshot.section(kMetaSection);
  if (meta == nullptr) {
    return util::Status::InvalidArgument("checkpoint has no meta section");
  }
  std::string_view cursor = *meta;
  uint64_t version, fp, shard_count, digest_words;
  if (!(util::vbyte::GetVarint(cursor, version) &&
        util::vbyte::GetVarint(cursor, fp) &&
        util::vbyte::GetVarint(cursor, shard_count) &&
        util::vbyte::GetVarint(cursor, offset) &&
        util::vbyte::GetVarint(cursor, lines_total) &&
        util::vbyte::GetVarint(cursor, digest_words))) {
    return util::Status::InvalidArgument("checkpoint meta section truncated");
  }
  if (version != kJournalVersion) {
    return util::Status::Unsupported(
        "checkpoint schema version " + std::to_string(version) +
        " (this build reads " + std::to_string(kJournalVersion) + ")");
  }
  if (fp != fingerprint) {
    return util::Status::Unsupported("options fingerprint mismatch");
  }
  if (shard_count != shards.size()) {
    return util::Status::Unsupported(
        "checkpoint has " + std::to_string(shard_count) +
        " shards, this run has " + std::to_string(shards.size()));
  }
  std::vector<uint64_t> stored(static_cast<size_t>(digest_words));
  for (uint64_t& w : stored) {
    if (!util::vbyte::GetVarint(cursor, w)) {
      return util::Status::InvalidArgument("checkpoint digest truncated");
    }
  }
  if (!cursor.empty()) {
    return util::Status::InvalidArgument(
        "checkpoint meta section has trailing bytes");
  }

  const std::string_view* dict_blob = snapshot.section(kDictionarySection);
  if (dict_blob == nullptr) {
    return util::Status::InvalidArgument(
        "checkpoint has no dictionary section");
  }
  rdf::Dictionary dict;
  std::string_view dict_cursor = *dict_blob;
  if (!dict.DecodeFrom(dict_cursor) || !dict_cursor.empty()) {
    return util::Status::InvalidArgument(
        "checkpoint dictionary section is malformed");
  }

  for (size_t i = 0; i < shards.size(); ++i) {
    const std::string_view* blob = snapshot.section(kShardSectionBase + i);
    if (blob == nullptr) {
      return util::Status::InvalidArgument("checkpoint is missing shard " +
                                           std::to_string(i));
    }
    std::string_view shard_cursor = *blob;
    if (!shards[i]->LoadState(shard_cursor, dict) || !shard_cursor.empty()) {
      return util::Status::InvalidArgument("checkpoint shard " +
                                           std::to_string(i) +
                                           " state is malformed");
    }
  }

  PipelineResult merged = MergeShards(shards);
  if (StatisticsDigest(merged.analysis) != stored) {
    return util::Status::InvalidArgument(
        "checkpoint statistics digest does not reproduce from shard state");
  }
  return util::Status::OK();
}

}  // namespace

util::Result<JournalRunResult> RunWithJournal(const PipelineOptions& options,
                                              ChunkSource& source,
                                              const JournalOptions& jopts) {
  if (jopts.path.empty()) {
    return util::Status::InvalidArgument("journal: path must be set");
  }
  if (!source.SupportsResume()) {
    return util::Status::Unsupported(
        "journal: chunk source does not support resume "
        "(offset/SeekTo); use MmapChunkSource or VectorChunkSource");
  }
  const size_t chunks_per_segment =
      jopts.chunks_per_segment > 0 ? jopts.chunks_per_segment : 1;

  ParallelLogPipeline pipeline(options);
  const uint64_t fingerprint = OptionsFingerprint(options, pipeline.shards());
  snap::SnapshotStore store(jopts.path);

  std::vector<std::unique_ptr<Shard>> shards = pipeline.MakeShards();
  JournalRunResult out;
  uint64_t lines_total = 0;

  // Resume if a checkpoint manifest exists. A present-but-unusable
  // journal is a hard error: silently restarting from zero would
  // double-count the prefix the journal already covers if the caller
  // later merges runs. A damaged newest generation is NOT unusable —
  // the previous generation restores an earlier watermark and the lost
  // segment is simply re-read from the source.
  auto manifest = store.ReadManifest();
  if (!manifest.ok() &&
      manifest.status().code() != util::StatusCode::kNotFound) {
    return util::Status::InvalidArgument(
        "journal: existing checkpoint at '" + jopts.path +
        "' is corrupt or was written by an incompatible configuration (" +
        manifest.status().message() + ")");
  }
  if (manifest.ok()) {
    std::vector<uint64_t> generations{manifest.value().current};
    if (manifest.value().previous != 0) {
      generations.push_back(manifest.value().previous);
    }
    std::string reasons;
    bool restored = false;
    for (uint64_t gen : generations) {
      auto note = [&reasons, gen](const std::string& msg) {
        if (!reasons.empty()) reasons += "; ";
        reasons += "generation " + std::to_string(gen) + ": " + msg;
      };
      auto snapshot = store.LoadGeneration(gen, snap::LoadMode::kStream);
      if (!snapshot.ok()) {
        note(snapshot.status().message());
        continue;
      }
      uint64_t offset = 0;
      std::vector<std::unique_ptr<Shard>> fresh = pipeline.MakeShards();
      util::Status st = RestoreCheckpoint(snapshot.value(), fingerprint,
                                          offset, lines_total, fresh);
      if (st.code() == util::StatusCode::kUnsupported) {
        // Incompatibility is a property of the whole journal, not of
        // one damaged file; falling back cannot fix it.
        return util::Status::Unsupported(
            "journal: existing checkpoint at '" + jopts.path +
            "' was written by an incompatible configuration (" +
            st.message() + ")");
      }
      if (!st.ok()) {
        note(st.message());
        continue;
      }
      if (!source.SeekTo(offset)) {
        return util::Status::OutOfRange(
            "journal: checkpoint watermark is beyond the source (journal "
            "from a different input?)");
      }
      shards = std::move(fresh);
      out.resumed = true;
      out.generation = gen;
      if (gen != manifest.value().current) {
        out.recovered_previous_generation = true;
        out.recovery_reason = reasons;
      }
      restored = true;
      break;
    }
    if (!restored) {
      return util::Status::InvalidArgument(
          "journal: existing checkpoint at '" + jopts.path +
          "' is corrupt or was written by an incompatible configuration (" +
          reasons + ")");
    }
  }

  // One pipeline run; its barriers publish every checkpoint but the
  // last while the run goes on (see CheckpointBarriers). Barrier e
  // falls where segment e of the same journal options ends, so the
  // generations and their bytes do not depend on when they are written.
  auto write_error = [&jopts](const util::Status& st) {
    return util::Status::Internal("journal: cannot write checkpoint to '" +
                                  jopts.path + "': " + st.message());
  };
  const uint64_t lines_before = lines_total;
  const uint64_t start_ns = options.telemetry.enabled() ? obs::NowNs() : 0;
  CheckpointBarriers barriers;
  barriers.every = chunks_per_segment;
  barriers.max_chunks =
      jopts.max_segments <= UINT64_MAX / chunks_per_segment
          ? jopts.max_segments * chunks_per_segment
          : 0;
  barriers.publish = [&](const BarrierCheckpoint& barrier) {
    uint64_t generation = 0;
    return WriteCheckpoint(store, fingerprint, barrier.offset,
                           lines_before + barrier.lines, barrier.parts,
                           generation);
  };
  PipelineResult result = pipeline.Run(source, shards, &barriers);
  if (!barriers.error.ok()) return write_error(barriers.error);

  // The last checkpoint covers the joined shards: the input's end, the
  // chunk cap or a source failure. It is written before returning, so
  // each invocation publishes barriers + 1 generations.
  obs::RunTelemetry* telemetry =
      result.telemetry.has_value() ? &*result.telemetry : nullptr;
  std::vector<ShardCheckpoint> parts;
  parts.reserve(shards.size());
  for (const std::unique_ptr<Shard>& shard : shards) {
    const uint64_t p0 = telemetry ? obs::NowNs() : 0;
    parts.push_back(shard->TakeCheckpoint());
    if (telemetry) telemetry->checkpoint_part_ns.Record(obs::NowNs() - p0);
  }
  const uint64_t t1 = telemetry ? obs::NowNs() : 0;
  lines_total += result.lines;
  auto written = WriteCheckpoint(store, fingerprint, source.offset(),
                                 lines_total, parts, out.generation);
  if (!written.ok()) return write_error(written.status());
  if (telemetry) {
    const uint64_t t2 = obs::NowNs();
    obs::StageMetrics& m = telemetry->stage(obs::kStageCheckpoint);
    m.items_in += parts.size();
    ++m.chunks;
    m.bytes_in += written.value();
    m.chunk_ns.Record(t2 - t1);
    // The run's wall clock takes in the last checkpoint too.
    telemetry->wall_ns = std::max(telemetry->wall_ns, t2 - start_ns);
    if (result.trace.has_value()) result.trace->wall_ns = telemetry->wall_ns;
  }

  out.segments = barriers.published + 1;
  out.complete = barriers.exhausted;
  out.result = std::move(result);
  out.result.lines = lines_total;
  return out;
}

}  // namespace sparqlog::pipeline
