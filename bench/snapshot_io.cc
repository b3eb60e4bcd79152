// Snapshot I/O gate: prices the durable checkpoint path on real shard
// state and verifies that a checkpoint loads back to the exact
// pipeline result it saved.
//
// The synthetic paper corpus is run once journaled (single segment), so
// the final snapshot generation holds the complete dedup/analysis state
// of the run. The bench then measures, best-of-N:
//
//   * save  — rebuilding the checkpoint image (sections + CRC32C) and
//     publishing it write-fsync-rename to a scratch path;
//   * load (stream) / load (mmap) — fully verified Snapshot::Load of
//     the generation file.
//
// Fails (non-zero exit) if
//
//   * resuming the journal does not reproduce the plain run's
//     StatisticsDigest and Table 1 counters exactly (load-vs-recompute
//     equality — the durability contract), or
//   * the saved image differs from the on-disk generation byte-for-byte
//     (the rebuild-save arm must price the real payload).
//
// Knobs: SPARQLOG_BENCH_ENTRIES (per-dataset corpus floor, default
// 2000), SPARQLOG_BENCH_ROUNDS (best-of rounds, default 5),
// SPARQLOG_BENCH_JSON (artifact path, default BENCH_snapshot.json).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "corpus/generator.h"
#include "corpus/profile.h"
#include "pipeline/journal.h"
#include "pipeline/merge.h"
#include "pipeline/pipeline.h"
#include "util/snapshot_io.h"
#include "util/strings.h"
#include "util/table.h"

namespace {

using namespace sparqlog;
namespace snap = util::snapshot;

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int main() {
  uint64_t entries_per_dataset =
      bench::EnvCount("SPARQLOG_BENCH_ENTRIES", 2000);
  uint64_t rounds = bench::EnvCount("SPARQLOG_BENCH_ROUNDS", 5);

  std::cout << "Generating corpus (" << entries_per_dataset
            << " entries/dataset x 13 datasets)...\n";
  std::vector<std::string> lines;
  {
    auto profiles = corpus::PaperProfiles();
    uint64_t seed = 2017;
    for (const auto& profile : profiles) {
      corpus::GeneratorOptions options;
      options.scale = 0;
      options.min_entries = entries_per_dataset;
      options.seed = seed++;
      corpus::SyntheticLogGenerator gen(profile, options);
      auto log = gen.GenerateLog();
      lines.insert(lines.end(), log.begin(), log.end());
    }
  }
  std::cout << util::WithThousands(static_cast<long long>(lines.size()))
            << " log lines, best of " << rounds << " rounds\n\n";

  pipeline::PipelineOptions options;

  // Reference: plain uninterrupted run.
  pipeline::ParallelLogPipeline plain(options);
  pipeline::PipelineResult expect = plain.Run(lines);
  const std::vector<uint64_t> expect_digest =
      pipeline::StatisticsDigest(expect.analysis);

  const std::string base =
      (std::filesystem::temp_directory_path() / "sparqlog_bench_snapshot.ckpt")
          .string();
  snap::SnapshotStore store(base);
  store.Remove();

  bool ok = true;

  // Journaled run: one segment, so generation 1 is the complete state.
  pipeline::JournalOptions jopts;
  jopts.path = base;
  jopts.chunks_per_segment = 1u << 30;
  {
    pipeline::VectorChunkSource source(lines);
    auto jr = pipeline::RunWithJournal(options, source, jopts);
    if (!jr.ok() || !jr.value().complete) {
      std::cerr << "FAIL: journaled run did not complete: "
                << jr.status().ToString() << "\n";
      return 1;
    }
  }

  // Load-vs-recompute: resuming the finished journal must restore the
  // exact state (the resumed run re-reads nothing).
  for (bool mmap : {false, true}) {
    pipeline::VectorChunkSource source(lines);
    pipeline::JournalOptions ropts = jopts;
    ropts.mmap_load = mmap;
    auto jr = pipeline::RunWithJournal(options, source, ropts);
    if (!jr.ok() || !jr.value().resumed ||
        jr.value().result.stats.total != expect.stats.total ||
        jr.value().result.stats.valid != expect.stats.valid ||
        jr.value().result.stats.unique != expect.stats.unique ||
        pipeline::StatisticsDigest(jr.value().result.analysis) !=
            expect_digest) {
      std::cerr << "FAIL: resumed checkpoint ("
                << (mmap ? "mmap" : "stream")
                << ") diverges from the recomputed run\n";
      ok = false;
    }
  }

  auto manifest = store.ReadManifest();
  if (!manifest.ok()) {
    std::cerr << "FAIL: " << manifest.status().ToString() << "\n";
    return 1;
  }
  const std::string gen_path = store.GenerationPath(manifest.value().current);
  std::string image;
  {
    std::ifstream in(gen_path, std::ios::binary);
    image.assign(std::istreambuf_iterator<char>(in), {});
  }
  const double mib = static_cast<double>(image.size()) / (1024.0 * 1024.0);

  // Save arm: rebuild the image from its own sections and publish it
  // durably to a scratch path — the real serialize+checksum+fsync cost
  // on the real payload.
  double best_save = 1e300;
  const std::string scratch = base + ".bench";
  {
    auto loaded = snap::Snapshot::Load(gen_path, snap::LoadMode::kStream);
    if (!loaded.ok()) {
      std::cerr << "FAIL: " << loaded.status().ToString() << "\n";
      return 1;
    }
    for (uint64_t r = 0; r <= rounds; ++r) {
      auto start = std::chrono::steady_clock::now();
      snap::SnapshotWriter writer;
      for (const auto& [id, payload] : loaded.value().sections()) {
        writer.AddSection(id, std::string(payload));
      }
      const std::string rebuilt = writer.Finish();
      util::Status st = snap::AtomicWriteFile(scratch, rebuilt);
      double elapsed = Seconds(start);
      if (!st.ok()) {
        std::cerr << "FAIL: " << st.ToString() << "\n";
        return 1;
      }
      if (r == 0) {
        // Warm-up round doubles as the fidelity check.
        if (rebuilt != image) {
          std::cerr << "FAIL: rebuilt snapshot image differs from the "
                       "journal's generation file\n";
          ok = false;
        }
        continue;
      }
      if (elapsed < best_save) best_save = elapsed;
    }
    std::filesystem::remove(scratch);
  }

  // Load arms: fully verified loads, stream and mmap.
  double best_load[2] = {1e300, 1e300};
  for (int mode = 0; mode < 2; ++mode) {
    for (uint64_t r = 0; r <= rounds; ++r) {
      auto start = std::chrono::steady_clock::now();
      auto loaded = snap::Snapshot::Load(gen_path, mode == 0
                                                       ? snap::LoadMode::kStream
                                                       : snap::LoadMode::kMmap);
      double elapsed = Seconds(start);
      if (!loaded.ok()) {
        std::cerr << "FAIL: " << loaded.status().ToString() << "\n";
        return 1;
      }
      if (r > 0 && elapsed < best_load[mode]) best_load[mode] = elapsed;
    }
  }

  const double bytes_per_query =
      static_cast<double>(image.size()) /
      static_cast<double>(expect.stats.total ? expect.stats.total : 1);

  util::Table table({"Arm", "Best (s)", "MB/s"});
  char buf[64], buf2[64];
  auto row = [&](const char* name, double secs) {
    std::snprintf(buf, sizeof(buf), "%.4f", secs);
    std::snprintf(buf2, sizeof(buf2), "%.1f", mib / secs);
    table.AddRow({name, buf, buf2});
  };
  row("save (rebuild+fsync)", best_save);
  row("load (stream)", best_load[0]);
  row("load (mmap)", best_load[1]);
  table.Print(std::cout);
  std::cout << "\nsnapshot: " << util::WithThousands(static_cast<long long>(
                                     image.size()))
            << " bytes for "
            << util::WithThousands(
                   static_cast<long long>(expect.stats.total))
            << " queries (" << bytes_per_query << " bytes/query)\n";
  if (ok) std::cout << "load-vs-recompute digest equality held\n";

  std::ofstream json_out(bench::BenchJsonPath("BENCH_snapshot.json"));
  bench::JsonWriter json(json_out);
  json.BeginObject();
  json.KV("bench", "snapshot_io");
  json.KV("lines", expect.lines);
  json.KV("queries", expect.stats.total);
  json.KV("rounds", rounds);
  json.KV("snapshot_bytes", static_cast<uint64_t>(image.size()));
  json.KV("bytes_per_query", bytes_per_query);
  json.KV("save_seconds", best_save);
  json.KV("save_mb_per_s", mib / best_save);
  json.KV("load_stream_seconds", best_load[0]);
  json.KV("load_stream_mb_per_s", mib / best_load[0]);
  json.KV("load_mmap_seconds", best_load[1]);
  json.KV("load_mmap_mb_per_s", mib / best_load[1]);
  json.KV("digest_equal", ok);
  json.KV("ok", ok);
  json.EndObject();
  json.Finish();

  store.Remove();
  return ok ? 0 : 1;
}
