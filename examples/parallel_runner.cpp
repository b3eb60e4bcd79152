// Parallel log analysis: streams a query log through the sharded
// multi-threaded pipeline (src/pipeline/) and prints the Table 1
// counters, a compact query report (forms, fragments, CQ shapes,
// treewidth, property paths) and throughput. With --verify, the same input
// is re-run through the serial LogIngestor/CorpusAnalyzer path and the
// merged statistics are checked for exact equality.
//
// Usage: parallel_runner [options] [logfile]
//   --generate <Dataset|all>  synthesize a log instead of reading a file
//   --entries <n>             min entries per generated dataset (default 5000)
//   --threads <n>             parse worker threads (default 0: hardware)
//   --shards <n>              dedup/analysis shards (default: threads)
//   --chunk-size <n>          lines per work chunk (default 512)
//   --verify                  compare against the serial path; with a
//                             mapped logfile, also re-run the pipeline
//                             through the stream source and require
//                             identical statistics digests (a logfile
//                             that is not a regular file, such as a
//                             FIFO, is read once and not verified)
//   --streaks                 run the sharded Section 8 streak stage
//                             instead of the corpus pipeline (a logfile
//                             is read as one query per line, framed as
//                             in corpus mode; --generate plants
//                             refinement sessions; --chunk-size becomes
//                             queries per streak chunk). The corpus-only
//                             --shards, --budget, --journal,
//                             --max-segments and --segment-chunks exit 2
//                             with "--X is not supported with --streaks"
//   --metrics                 collect per-stage telemetry and print the
//                             stall/skew summary after the run
//   --metrics-json[=PATH]     write the telemetry registry as JSON
//                             (default metrics.json); implies --metrics
//   --metrics-prom[=PATH]     write Prometheus text exposition
//                             (default metrics.prom); implies --metrics
//   --trace[=PATH]            record per-worker spans and write Chrome
//                             trace-event JSON (default trace.json,
//                             load via chrome://tracing)
//   --budget <steps>          per-query step budget for each structural
//                             analysis kernel (ghw, treewidth, girth);
//                             exhausted queries land in the Abandoned
//                             bucket instead of stalling the run
//   --journal[=PATH]          crash-safe run journal (default
//                             run.journal): checkpoint shard state each
//                             segment; rerunning with the same journal
//                             resumes from the watermark. Requires a
//                             resumable source (mmap or in-memory)
//   --max-segments <n>        with --journal: stop after n segments
//                             even if input remains (simulates a kill
//                             at a checkpoint boundary)
//   --segment-chunks <n>      with --journal: reader chunks per segment
//                             (checkpoint cadence, default 64)
//
// A regular logfile is read through the zero-copy mmap chunk source,
// falling back to the line-by-line stream source with a warning if it
// cannot be mapped; anything else (a FIFO or a pipe) is streamed.
// Numeric values are unsigned decimal integers; anything else exits 2
// with "bad value for --flag".

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "corpus/generator.h"
#include "corpus/profile.h"
#include "corpus/report.h"
#include "obs/alloc_hooks.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "pipeline/journal.h"
#include "pipeline/merge.h"
#include "pipeline/paper_report.h"
#include "pipeline/pipeline.h"
#include "pipeline/streak_stage.h"
#include "streaks/streaks.h"
#include "testing/invariants.h"
#include "util/strings.h"
#include "util/table.h"

namespace {

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Where the telemetry of a run should go. Empty path == exporter off.
struct TelemetryOutputs {
  bool print_summary = false;
  std::string json_path;
  std::string prom_path;
  std::string trace_path;
};

/// Emits every requested exporter for one run's telemetry/trace pair.
/// Returns false (after a message on stderr) if an output file failed.
bool ExportTelemetry(const TelemetryOutputs& outputs,
                     const std::optional<sparqlog::obs::RunTelemetry>& telemetry,
                     const std::optional<sparqlog::obs::TraceData>& trace) {
  using namespace sparqlog;
  auto open = [](const std::string& path, std::ofstream& out) {
    out.open(path);
    if (!out) std::cerr << "cannot write " << path << "\n";
    return static_cast<bool>(out);
  };
  if (telemetry.has_value()) {
    if (outputs.print_summary) {
      std::cout << "\n";
      obs::PrintSummary(std::cout, *telemetry);
    }
    if (!outputs.json_path.empty()) {
      std::ofstream out;
      if (!open(outputs.json_path, out)) return false;
      obs::WriteTelemetryJson(out, *telemetry);
    }
    if (!outputs.prom_path.empty()) {
      std::ofstream out;
      if (!open(outputs.prom_path, out)) return false;
      out << obs::PrometheusText(*telemetry);
    }
  }
  if (trace.has_value() && !outputs.trace_path.empty()) {
    std::ofstream out;
    if (!open(outputs.trace_path, out)) return false;
    obs::WriteChromeTrace(out, *trace);
    std::cout << "Trace written to " << outputs.trace_path
              << " (load via chrome://tracing)\n";
  }
  return true;
}

/// Reads every line of `path` through the pipeline's chunk sources (mmap
/// for a regular file, the stream source otherwise), so streak mode
/// frames lines exactly as corpus mode does: a trailing '\r' is
/// stripped. False (after a message on stderr) if the file cannot be
/// opened.
bool ReadLines(const std::string& path, std::vector<std::string>& out) {
  using namespace sparqlog::pipeline;
  std::error_code stat_error;
  std::unique_ptr<ChunkSource> source;
  std::ifstream in;
  if (std::filesystem::is_regular_file(path, stat_error)) {
    auto opened = MmapChunkSource::Open(path);
    if (!opened.ok()) {
      std::cerr << "cannot open " << path << " ("
                << opened.status().ToString() << ")\n";
      return false;
    }
    source = std::move(opened.value());
  } else {
    in.open(path);
    if (!in) {
      std::cerr << "cannot open " << path << "\n";
      return false;
    }
    source = std::make_unique<IstreamChunkSource>(in);
  }
  LineChunk chunk;
  while (source->NextChunk(4096, chunk)) {
    out.insert(out.end(), chunk.lines.begin(), chunk.lines.end());
  }
  return true;
}

/// --streaks mode: the sharded streak stage end to end, with optional
/// bit-exact verification against the serial detector.
int RunStreakStage(const std::vector<std::string>& queries,
                   const std::string& source, int threads, size_t chunk_size,
                   bool verify, const sparqlog::obs::TelemetryOptions& telemetry,
                   const TelemetryOutputs& outputs) {
  using namespace sparqlog;
  pipeline::StreakStageOptions options;
  options.threads = threads;
  options.chunk_size = chunk_size;
  options.telemetry = telemetry;
  pipeline::StreakStage stage(options);

  auto start = std::chrono::steady_clock::now();
  pipeline::StreakStageResult result = stage.Run(queries);
  double elapsed = Seconds(start);

  std::cout << "Streak stage over " << source << " ("
            << util::WithThousands(
                   static_cast<long long>(result.report.queries_processed))
            << " queries, " << result.threads << " threads, "
            << result.chunks << " chunks)\n\n";

  util::Table table({"Streak length", "Count"});
  for (int b = 0; b < 11; ++b) {
    std::string label = b < 10 ? std::to_string(b * 10 + 1) + "-" +
                                     std::to_string(b * 10 + 10)
                               : ">100";
    table.AddRow({label, util::WithThousands(static_cast<long long>(
                             result.report.counts[b]))});
  }
  table.Print(std::cout);
  std::cout << "\nStreaks: "
            << util::WithThousands(
                   static_cast<long long>(result.report.total_streaks))
            << ", longest " << result.report.longest << "\n";
  const streaks::PrefilterStats& pf = result.prefilter;
  std::cout << "Prefilter cascade: "
            << util::WithThousands(static_cast<long long>(pf.pairs))
            << " pairs, Levenshtein calls avoided: "
            << util::WithThousands(static_cast<long long>(
                   pf.exact_hash_hits + pf.length_rejects +
                   pf.charmap_rejects + pf.histogram_rejects))
            << " (exact-hash "
            << util::WithThousands(static_cast<long long>(pf.exact_hash_hits))
            << ", length "
            << util::WithThousands(static_cast<long long>(pf.length_rejects))
            << ", charmap "
            << util::WithThousands(static_cast<long long>(pf.charmap_rejects))
            << ", histogram "
            << util::WithThousands(
                   static_cast<long long>(pf.histogram_rejects))
            << "), reached DP "
            << util::WithThousands(
                   static_cast<long long>(pf.levenshtein_calls))
            << " (block steps "
            << util::WithThousands(static_cast<long long>(pf.dp_block_steps))
            << ")\n";
  std::cout << "Throughput: "
            << util::WithThousands(static_cast<long long>(
                   elapsed > 0 ? static_cast<double>(queries.size()) / elapsed
                               : 0))
            << " queries/sec (" << elapsed << " s)\n";

  if (!ExportTelemetry(outputs, result.telemetry, result.trace)) return 2;

  if (verify) {
    streaks::StreakDetector detector;
    start = std::chrono::steady_clock::now();
    for (const std::string& q : queries) detector.Add(q);
    streaks::StreakReport serial = detector.Finish();
    double serial_elapsed = Seconds(start);
    bool ok = serial == result.report &&
              detector.prefilter_stats() == pf;
    std::cout << "\nSerial detector: " << serial_elapsed
              << " s; reports and prefilter counters "
              << (ok ? "MATCH" : "DIFFER") << "\n";
    if (result.telemetry.has_value()) {
      std::cout << obs::OneLineSummary(*result.telemetry) << "\n";
    }
    if (!ok) {
      std::cerr << "serial/sharded streak divergence: streaks "
                << serial.total_streaks << " vs "
                << result.report.total_streaks << ", longest "
                << serial.longest << " vs " << result.report.longest
                << ", DP block steps "
                << detector.prefilter_stats().dp_block_steps << " vs "
                << pf.dp_block_steps << "\n";
      return 1;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sparqlog;

  std::string generate;
  std::string logfile;
  uint64_t entries = 5000;
  bool verify = false;
  bool streaks_mode = false;
  bool chunk_size_set = false;
  const char* corpus_only_flag = nullptr;  // rejected with --streaks
  TelemetryOutputs outputs;
  pipeline::PipelineOptions options;
  pipeline::JournalOptions journal;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::cerr << flag << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    auto count = [&](const char* flag,
                     uint64_t max = std::numeric_limits<uint64_t>::max()) {
      std::optional<uint64_t> v = util::ParseCount(next(flag), max);
      if (!v) {
        std::cerr << "bad value for " << flag << "\n";
        std::exit(2);
      }
      return *v;
    };
    // "--flag=PATH" or bare "--flag" (falling back to `fallback`), for
    // the exporters whose value is an optional output path.
    auto path_flag = [&](const char* flag, const char* fallback,
                         std::string& out) {
      std::string prefix = std::string(flag) + "=";
      if (arg == flag) {
        out = fallback;
        return true;
      }
      if (arg.rfind(prefix, 0) == 0) {
        out = arg.substr(prefix.size());
        if (out.empty()) {
          std::cerr << flag << "= needs a path\n";
          std::exit(2);
        }
        return true;
      }
      return false;
    };
    if (arg == "--metrics") {
      options.telemetry.metrics = true;
      outputs.print_summary = true;
    } else if (path_flag("--metrics-json", "metrics.json", outputs.json_path)) {
      options.telemetry.metrics = true;
    } else if (path_flag("--metrics-prom", "metrics.prom", outputs.prom_path)) {
      options.telemetry.metrics = true;
    } else if (path_flag("--trace", "trace.json", outputs.trace_path)) {
      options.telemetry.trace = true;
    } else if (arg == "--generate") {
      generate = next("--generate");
    } else if (arg == "--entries") {
      entries = count("--entries");
    } else if (arg == "--threads") {
      options.threads = static_cast<int>(
          count("--threads", std::numeric_limits<int>::max()));
    } else if (arg == "--shards") {
      options.shards = count("--shards");
      corpus_only_flag = "--shards";
    } else if (arg == "--chunk-size") {
      options.chunk_size = count("--chunk-size");
      chunk_size_set = true;
    } else if (arg == "--budget") {
      uint64_t steps = count("--budget");
      options.analysis_limits.ghw_steps = steps;
      options.analysis_limits.treewidth_steps = steps;
      options.analysis_limits.girth_steps = steps;
      corpus_only_flag = "--budget";
    } else if (path_flag("--journal", "run.journal", journal.path)) {
      corpus_only_flag = "--journal";
    } else if (arg == "--max-segments") {
      journal.max_segments = count("--max-segments");
      corpus_only_flag = "--max-segments";
    } else if (arg == "--segment-chunks") {
      journal.chunks_per_segment = count("--segment-chunks");
      corpus_only_flag = "--segment-chunks";
    } else if (arg == "--verify") {
      verify = true;
    } else if (arg == "--streaks") {
      streaks_mode = true;
    } else if (!arg.empty() && arg[0] != '-') {
      logfile = arg;
    } else {
      std::cerr << "unknown flag: " << arg << "\n";
      return 2;
    }
  }
  if (generate.empty() && logfile.empty()) {
    generate = streaks_mode ? "DBpedia16" : "DBpedia15";
  }

  // ---- Streak mode: ordered queries through the sharded streak stage ----
  if (streaks_mode) {
    if (corpus_only_flag != nullptr) {
      std::cerr << corpus_only_flag << " is not supported with --streaks\n";
      return 2;
    }
    std::vector<std::string> queries;
    std::string source;
    if (!logfile.empty()) {
      if (!ReadLines(logfile, queries)) return 2;
      source = logfile;
    } else {
      auto profiles = corpus::PaperProfiles();
      std::string dataset = generate == "all" ? "DBpedia16" : generate;
      auto profile = std::find_if(
          profiles.begin(), profiles.end(),
          [&dataset](const corpus::DatasetProfile& p) {
            return p.name == dataset;
          });
      if (profile == profiles.end()) {
        std::cerr << "unknown dataset: " << generate << "\n";
        return 2;
      }
      queries = corpus::GenerateStreakLog(*profile, entries, 0.3, 2026);
      source = "synthetic:" + dataset;
    }
    // Unless the user pinned a chunk size, let the stage derive one
    // chunk per worker.
    return RunStreakStage(queries, source, options.threads,
                          chunk_size_set ? options.chunk_size : 0, verify,
                          options.telemetry, outputs);
  }

  // ---- Assemble the input (files are streamed, never slurped) ----
  std::vector<std::string> lines;
  std::string source;
  if (!generate.empty()) {
    auto profiles = corpus::PaperProfiles();
    uint64_t seed = 2017;
    for (const auto& profile : profiles) {
      if (generate != "all" && profile.name != generate) continue;
      corpus::GeneratorOptions gen_options;
      gen_options.scale = 0;
      gen_options.min_entries = entries;
      gen_options.seed = seed++;
      corpus::SyntheticLogGenerator gen(profile, gen_options);
      auto log = gen.GenerateLog();
      lines.insert(lines.end(), log.begin(), log.end());
    }
    if (lines.empty()) {
      std::cerr << "unknown dataset: " << generate << "\n";
      return 2;
    }
    source = "synthetic:" + generate;
  } else {
    source = logfile;
  }

  // ---- Run the pipeline ----
  // --verify reports the one-line telemetry digest (stall/skew/allocs)
  // alongside the equivalence verdict, so collection rides along.
  if (verify) options.telemetry.metrics = true;
  pipeline::ParallelLogPipeline pl(options);
  pipeline::PipelineResult result;
  std::optional<pipeline::JournalRunResult> journaled;
  bool used_mmap = false;
  uint64_t input_bytes = 0;
  // With --journal the source is consumed in checkpointed segments; the
  // journal layer rejects non-resumable sources, so a journaled logfile
  // always goes through MmapChunkSource and never the stream source.
  auto run_journaled = [&](pipeline::ChunkSource& src) -> bool {
    auto jr = pipeline::RunWithJournal(options, src, journal);
    if (!jr.ok()) {
      std::cerr << "journal run failed: " << jr.status().ToString() << "\n";
      return false;
    }
    journaled = std::move(jr.value());
    result = std::move(journaled->result);
    return true;
  };
  std::error_code stat_error;
  const bool regular_file =
      !logfile.empty() && std::filesystem::is_regular_file(logfile, stat_error);
  auto start = std::chrono::steady_clock::now();
  if (!logfile.empty()) {
    std::unique_ptr<pipeline::MmapChunkSource> mapped;
    if (regular_file || !journal.path.empty()) {
      auto opened = pipeline::MmapChunkSource::Open(logfile);
      if (opened.ok()) {
        mapped = std::move(opened.value());
      } else if (!journal.path.empty()) {
        std::cerr << "cannot open " << logfile << " for a journaled run ("
                  << opened.status().ToString() << ")\n";
        return 2;
      } else {
        std::cerr << "mmap failed (" << opened.status().ToString()
                  << "); falling back to stream source\n";
      }
    }
    if (mapped != nullptr) {
      used_mmap = true;
      input_bytes = mapped->size_bytes();
      if (!journal.path.empty()) {
        if (!run_journaled(*mapped)) return 2;
      } else {
        result = pl.Run(*mapped);
      }
    } else {
      std::ifstream in(logfile);
      if (!in) {
        std::cerr << "cannot open " << logfile << "\n";
        return 2;
      }
      pipeline::IstreamChunkSource file_source(in);
      result = pl.Run(file_source);
    }
  } else {
    for (const std::string& line : lines) input_bytes += line.size();
    if (!journal.path.empty()) {
      pipeline::VectorChunkSource vec(lines);
      if (!run_journaled(vec)) return 2;
    } else {
      result = pl.Run(lines);
    }
  }
  double elapsed = Seconds(start);

  std::cout << "Parallel pipeline over " << source << " ("
            << util::WithThousands(static_cast<long long>(result.lines))
            << " lines, " << pl.threads() << " threads, " << pl.shards()
            << " shards, chunk size " << options.chunk_size << ", "
            << (logfile.empty() ? "in-memory"
                                : (used_mmap ? "mmap" : "stream"))
            << " source)\n\n";

  util::Table table({"Stage", "Queries", "Share"});
  table.AddRow({"Total", util::WithThousands(result.stats.total), ""});
  table.AddRow({"Valid", util::WithThousands(result.stats.valid),
                util::Percent(result.stats.valid, result.stats.total)});
  table.AddRow({"Unique", util::WithThousands(result.stats.unique),
                util::Percent(result.stats.unique, result.stats.valid)});
  table.AddRow({"Malformed", util::WithThousands(result.stats.malformed),
                util::Percent(result.stats.malformed, result.stats.total)});
  if (result.stats.abandoned > 0) {
    table.AddRow({"Abandoned", util::WithThousands(result.stats.abandoned),
                  util::Percent(result.stats.abandoned, result.stats.total)});
  }
  if (result.stats.quarantined > 0) {
    table.AddRow({"Quarantined",
                  util::WithThousands(result.stats.quarantined),
                  util::Percent(result.stats.quarantined,
                                result.stats.total)});
  }
  table.Print(std::cout);
  if (result.telemetry.has_value()) {
    const std::string memo = obs::ParseMemoSummary(*result.telemetry);
    if (!memo.empty()) std::cout << memo << "\n";
  }

  if (journaled.has_value()) {
    std::cout << "\nJournal " << journal.path << ": "
              << journaled->segments << " segment"
              << (journaled->segments == 1 ? "" : "s") << " this run"
              << (journaled->resumed ? ", resumed from checkpoint" : "")
              << (journaled->complete ? ", input complete"
                                      : ", input remaining")
              << ", snapshot generation " << journaled->generation << "\n";
    if (journaled->recovered_previous_generation) {
      std::cout << "  recovered from previous generation ("
                << journaled->recovery_reason << ")\n";
    }
  }
  if (!result.source_status.ok()) {
    std::cerr << "source failed mid-run ("
              << result.source_status.ToString()
              << "); counters cover the lines read before the failure\n";
  }
  if (result.quarantine.count > 0) {
    std::cout << "\nQuarantined " << result.quarantine.count
              << " line(s); first reproducers:\n";
    size_t shown = 0;
    for (const auto& sample : result.quarantine.samples) {
      if (++shown > 3) break;
      std::cout << "  chunk " << sample.chunk << " line "
                << sample.line_index << " (" << sample.reason
                << "): " << sample.line.substr(0, 96)
                << (sample.line.size() > 96 ? "..." : "") << "\n";
    }
  }

  std::cout << "\n";
  pipeline::PrintQuerySummary(std::cout, result.analysis);
  std::cout << "\n";
  std::cout << "Throughput: "
            << util::WithThousands(static_cast<long long>(
                   elapsed > 0 ? result.stats.total / elapsed : 0))
            << " queries/sec, "
            << util::WithThousands(static_cast<long long>(
                   elapsed > 0 ? result.lines / elapsed : 0))
            << " lines/sec";
  if (input_bytes > 0 && elapsed > 0) {
    char mb_buf[32];
    std::snprintf(mb_buf, sizeof(mb_buf), "%.1f",
                  static_cast<double>(input_bytes) / (1e6 * elapsed));
    std::cout << ", " << mb_buf << " MB/s";
  }
  std::cout << " (" << elapsed << " s)\n";

  if (!ExportTelemetry(outputs, result.telemetry, result.trace)) return 2;

  // ---- Optional verification: cross-source, then serial ----
  if (verify && journaled.has_value() && !journaled->complete) {
    std::cout << "\nSkipping verification: the journaled run stopped "
                 "before exhausting the input (rerun with the same "
                 "--journal to finish, then verify)\n";
    verify = false;
  }
  if (verify && !logfile.empty() && !regular_file) {
    std::cout << "\nSkipping verification: " << logfile
              << " is not a regular file, so the run consumed it and it "
                 "cannot be read a second time\n";
    verify = false;
  }
  if (verify && used_mmap) {
    // Re-run a mapped file through the stream source; the two sources
    // must be indistinguishable down to the full statistics digest.
    std::ifstream in(logfile);
    if (in) {
      pipeline::IstreamChunkSource file_source(in);
      pipeline::PipelineResult other = pl.Run(file_source);
      bool ok = other.lines == result.lines &&
                other.stats.total == result.stats.total &&
                other.stats.valid == result.stats.valid &&
                other.stats.unique == result.stats.unique &&
                pipeline::StatisticsDigest(other.analysis) ==
                    pipeline::StatisticsDigest(result.analysis);
      std::cout << "\nCross-source (stream re-run): statistics "
                << (ok ? "MATCH" : "DIFFER") << "\n";
      if (!ok) {
        std::cerr << "mmap/stream source divergence: lines " << result.lines
                  << " vs " << other.lines << ", total "
                  << result.stats.total << " vs " << other.stats.total
                  << ", valid " << result.stats.valid << " vs "
                  << other.stats.valid << ", unique " << result.stats.unique
                  << " vs " << other.stats.unique << "\n";
        return 1;
      }
    }
  }
  if (verify && options.analysis_limits.any()) {
    std::cout << "\nSkipping serial verification: --budget moves "
                 "exhausted queries to Abandoned, which the unbudgeted "
                 "serial path cannot reproduce\n";
    verify = false;
  }
  if (verify) {
    start = std::chrono::steady_clock::now();
    testing::SerialResult serial;
    if (!logfile.empty()) {
      // Second pass over the file, streamed rather than loaded.
      std::ifstream in(logfile);
      pipeline::IstreamChunkSource file_source(in);
      serial = testing::RunSerial(file_source);
    } else {
      serial = testing::RunSerial(lines);
    }
    double serial_elapsed = Seconds(start);

    // Exact equality over every aggregate, not just the Table 1 counts.
    bool ok = serial.stats.total == result.stats.total &&
              serial.stats.valid == result.stats.valid &&
              serial.stats.unique == result.stats.unique &&
              pipeline::StatisticsDigest(serial.analysis) ==
                  pipeline::StatisticsDigest(result.analysis);
    std::cout << "\nSerial path: " << serial_elapsed << " s; statistics "
              << (ok ? "MATCH" : "DIFFER") << "\n";
    if (result.telemetry.has_value()) {
      std::cout << obs::OneLineSummary(*result.telemetry) << "\n";
    }
    if (!ok) {
      std::cerr << "serial/parallel divergence: total " << serial.stats.total
                << " vs " << result.stats.total << ", valid "
                << serial.stats.valid << " vs " << result.stats.valid
                << ", unique " << serial.stats.unique << " vs "
                << result.stats.unique << "\n";
      return 1;
    }
  }
  return 0;
}
