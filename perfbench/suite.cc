// bench_suite: the sparqlog benchmark. One process runs one workload:
//
//   bench_suite --workload <name> --seed <n> --seconds <s> --trace <0|1>
//               --tmp <dir> [--out-dir <dir>]
//
// Run shape. Set-up generates the workload's input from --seed (dataset
// i from seed + i) and, for the pipeline workloads, writes it as a log
// file into a private directory made under --tmp and removed on every
// exit path. The serial oracle (LogIngestor + CorpusAnalyzer, or the
// serial StreakDetector) then runs once, untimed, followed by one
// warm-up call; set-up is repeated three times and `setup_s` is the
// median of generation + file write + warm-up. Timed reps follow: each is
// one complete batch job over the whole input, run one at a time (a
// closed loop with one client) until --seconds have passed, and every
// rep's output is checked against the oracle. Each job starts as in a
// fresh process: the heap freed by the previous job is returned to the OS
// and VmHWM is reset through /proc/self/clear_refs, off the clock.
//
// --trace 0 reports the end-to-end metrics, each a median over the timed
// reps: lines_per_s, peak_rss_mb (the job's VmHWM) and setup_s (over the
// set-ups).
//
// --trace 1 runs the same set-up, oracle and untraced reps, then
// prices each layer from outside the library: a traced pipeline run and a
// traced streak-stage run (their obs::RunTelemetry and Chrome traces), a
// staged serial layer pass with spans around every layer (layers.h), a
// journal probe, and a fidelity gate proving the layer pass reproduces
// the production tables. Files go to --out-dir.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is non-zero when
// any output differs from its oracle.

#include "obs/alloc_hooks.h"  // allocation counters, once per binary

#include <malloc.h>
#include <stdlib.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "corpus/generator.h"
#include "corpus/ingest.h"
#include "corpus/profile.h"
#include "corpus/report.h"
#include "layers.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "pipeline/chunk_source.h"
#include "pipeline/journal.h"
#include "pipeline/merge.h"
#include "pipeline/pipeline.h"
#include "pipeline/streak_stage.h"
#include "streaks/streaks.h"
#include "util/crc32c.h"
#include "util/snapshot_io.h"
#include "util/strings.h"

namespace sparqlog::perfbench {
namespace {

namespace fs = std::filesystem;
namespace snap = util::snapshot;
using Clock = std::chrono::steady_clock;

// Input sizes: large enough that a rep is a real batch job (tenths of a
// second at three workers), small enough that three set-ups, the oracle
// and the timed reps fit well inside a three-minute run.
constexpr uint64_t kPaperMixEntries = 8000;     // per profile, 13 profiles
constexpr uint64_t kDeepShapesEntries = 30000;  // one profile
constexpr size_t kStreakQueries = 60000;
constexpr double kStreakSessionRate = 0.3;
constexpr size_t kChunkLines = 512;
// Streak-stage chunk: many more chunks than workers, claimed dynamically,
// so a core slowed by a neighbour delays the job by one chunk instead of
// a third of it (with one chunk per worker, rep times on a shared host
// spread about three times wider). The warm-up overlap costs
// window / chunk = 30 / 2048, about 1.5% extra work.
constexpr size_t kStreakChunk = 2048;
constexpr int kSetups = 3;
constexpr size_t kMinReps = 5;
constexpr int kProbeReps = 3;  // snapshot rounds, journal and traced calls
constexpr size_t kMaxErrors = 8;

enum class Kind { kPipeline, kJournal, kStreaks };

struct Workload {
  const char* name;
  Kind kind;
};

constexpr Workload kWorkloads[] = {
    {"paper-mix", Kind::kPipeline},
    {"deep-shapes", Kind::kPipeline},
    {"streak-sessions", Kind::kStreaks},
    {"journaled", Kind::kJournal},
};

struct Args {
  std::string workload;
  uint64_t seed = 2017;
  double seconds = 15;
  bool trace = false;
  std::string tmp_parent;
  std::string out_dir;
};

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double Ratio(double num, double den) { return den != 0 ? num / den : 0.0; }

struct Summary {
  double median = 0, p25 = 0, p75 = 0, min = 0, max = 0;
  size_t n = 0;
};

/// Order statistics with linear interpolation between ranks.
Summary Summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  auto q = [&v](double p) {
    double pos = p * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
  };
  s.median = q(0.5);
  s.p25 = q(0.25);
  s.p75 = q(0.75);
  s.min = v.front();
  s.max = v.back();
  return s;
}

struct Metric {
  std::string name;
  std::string unit;
  Summary s;
};

Metric Single(std::string name, std::string unit, double value) {
  Summary s;
  s.median = s.p25 = s.p75 = s.min = s.max = value;
  s.n = 1;
  return Metric{std::move(name), std::move(unit), s};
}

/// A private directory under `parent`, removed with everything in it
/// when the object dies.
class TempDir {
 public:
  explicit TempDir(const std::string& parent) {
    std::error_code ec;
    fs::create_directories(parent, ec);
    std::string tmpl = parent + "/suite-XXXXXX";
    if (mkdtemp(tmpl.data()) != nullptr) path_ = tmpl;
  }
  ~TempDir() {
    if (path_.empty()) return;
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  bool ok() const { return !path_.empty(); }
  std::string File(const char* name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

/// Byte count and CRC32C of the generated input, lines joined by '\n':
/// two runs that print the same identity measured the same bytes.
struct InputId {
  uint64_t lines = 0;
  uint64_t bytes = 0;
  uint32_t crc = 0;

  void Add(std::string_view line) {
    ++lines;
    bytes += line.size() + 1;
    crc = util::Crc32cExtend(crc, line);
    crc = util::Crc32cExtend(crc, "\n");
  }
  bool operator==(const InputId&) const = default;
};

// ---------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------

/// DBpedia16 reshaped so every entry is unique, valid and structurally
/// heavy: 6+ triples, mostly cyclic and flower shapes.
corpus::DatasetProfile DeepShapesProfile(
    const std::vector<corpus::DatasetProfile>& all) {
  corpus::DatasetProfile p = corpus::ProfileByName(all, "DBpedia16");
  p.valid_rate = 1;
  p.unique_rate = 1;
  p.triples_weights = {0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 3};
  p.shape_chain = 0.1;
  p.shape_star = 0.1;
  p.shape_tree = 0.2;
  p.shape_forest = 0.1;
  p.shape_cycle = 0.25;
  p.shape_flower = 0.25;
  p.w_select = 0.9;
  p.w_ask = 0.1;
  p.w_describe = 0;
  p.w_construct = 0;
  p.filter_rate = 0.1;
  p.optional_rate = 0.05;
  p.union_rate = 0.02;
  p.complex_rate = 0;
  return p;
}

std::vector<std::string> GenerateLog(Kind kind, const std::string& workload,
                                     uint64_t seed) {
  const std::vector<corpus::DatasetProfile> profiles = corpus::PaperProfiles();
  std::vector<std::string> lines;
  auto emit = [&lines](const corpus::DatasetProfile& profile, uint64_t entries,
                       uint64_t dataset_seed) {
    corpus::GeneratorOptions options;
    options.scale = 0;
    options.min_entries = entries;
    options.seed = dataset_seed;
    corpus::SyntheticLogGenerator gen(profile, options);
    std::vector<std::string> log = gen.GenerateLog();
    lines.insert(lines.end(), std::make_move_iterator(log.begin()),
                 std::make_move_iterator(log.end()));
  };
  if (kind == Kind::kStreaks) {
    return corpus::GenerateStreakLog(corpus::ProfileByName(profiles,
                                                           "DBpedia16"),
                                     kStreakQueries, kStreakSessionRate, seed);
  }
  if (workload == "deep-shapes") {
    emit(DeepShapesProfile(profiles), kDeepShapesEntries, seed);
  } else {
    for (size_t i = 0; i < profiles.size(); ++i) {
      emit(profiles[i], kPaperMixEntries, seed + i);
    }
  }
  return lines;
}

util::Status WriteLog(const std::vector<std::string>& lines,
                      const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  for (const std::string& line : lines) {
    out.write(line.data(), static_cast<std::streamsize>(line.size()));
    out.put('\n');
  }
  out.close();
  if (!out) return util::Status::Internal("cannot write " + path);
  return util::Status::OK();
}

// ---------------------------------------------------------------------
// Oracles and reps
// ---------------------------------------------------------------------

/// What every pipeline rep must reproduce.
struct PipelineOracle {
  uint64_t lines = 0;
  corpus::CorpusStats stats;
  std::vector<uint64_t> digest;
};

/// The serial path: LogIngestor + CorpusAnalyzer streaming the log file.
PipelineOracle SerialOracle(const std::string& path) {
  PipelineOracle o;
  corpus::LogIngestor ingestor;
  corpus::CorpusAnalyzer analyzer;
  ingestor.set_unique_sink(
      [&analyzer](const sparql::Query& q) { analyzer.AddQuery(q, "all"); });
  std::ifstream in(path, std::ios::binary);
  std::string line;
  while (std::getline(in, line)) {
    ++o.lines;
    ingestor.ProcessLine(line);
  }
  o.stats = ingestor.stats();
  o.digest = pipeline::StatisticsDigest(analyzer);
  return o;
}

/// Empty when `r` reproduces the oracle, else what differs.
std::string Diverges(const PipelineOracle& o,
                     const pipeline::PipelineResult& r) {
  if (!r.source_status.ok()) return r.source_status.ToString();
  if (r.lines != o.lines) return "line count differs from the oracle";
  const corpus::CorpusStats& a = o.stats;
  const corpus::CorpusStats& b = r.stats;
  if (a.total != b.total || a.valid != b.valid || a.unique != b.unique ||
      a.malformed != b.malformed || a.abandoned != b.abandoned ||
      a.quarantined != b.quarantined) {
    return "Table 1 counters differ from the oracle";
  }
  if (!b.Conserved()) return "entry accounting not conserved";
  if (pipeline::StatisticsDigest(r.analysis) != o.digest) {
    return "StatisticsDigest differs from the oracle";
  }
  return "";
}

/// Resets VmHWM to the current RSS; false where /proc/self/clear_refs
/// is not writable.
bool ResetPeakRss() {
  std::ofstream f("/proc/self/clear_refs");
  if (!f) return false;
  f << "5";
  f.close();
  return static_cast<bool>(f);
}

/// VmHWM in MB (10^6 bytes); 0 if unavailable.
double PeakRssMb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) * 1024.0 / 1e6;
    }
  }
  return 0;
}

/// Every batch job starts as it would in a fresh process: the heap the
/// previous job freed goes back to the OS (off the clock) and the peak-RSS
/// mark is reset, so VmHWM afterwards is this job's own peak.
void StartJob() {
  malloc_trim(0);
  ResetPeakRss();
}

struct Outcome {
  double seconds = 0;
  double peak_rss_mb = 0;
  uint64_t lines = 0;
  std::string error;  // empty = output matched the oracle
};

/// Stops the job's clock and takes its peak RSS.
void EndJob(Clock::time_point t0, Outcome& o) {
  o.seconds = SecondsSince(t0);
  o.peak_rss_mb = PeakRssMb();
}

/// Three parse workers leave the fourth core of a four-core machine to
/// the reader and the shard consumers; never more than the machine has.
int Workers() {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(hw, 1, 3);
}

pipeline::PipelineOptions PipelineOpts(bool traced) {
  pipeline::PipelineOptions options;
  options.threads = Workers();
  options.chunk_size = kChunkLines;
  options.telemetry.metrics = traced;
  options.telemetry.trace = traced;
  return options;
}

pipeline::StreakStageOptions StreakOpts(bool traced) {
  pipeline::StreakStageOptions options;
  options.threads = Workers();
  options.chunk_size = kStreakChunk;
  options.telemetry.metrics = traced;
  options.telemetry.trace = traced;
  return options;
}

Outcome PipelineRep(const std::string& log, const PipelineOracle& oracle,
                    bool traced, pipeline::PipelineResult* keep = nullptr) {
  Outcome o;
  o.lines = oracle.lines;
  StartJob();
  const Clock::time_point t0 = Clock::now();
  auto source = pipeline::MmapChunkSource::Open(log);
  if (!source.ok()) {
    o.error = source.status().ToString();
    return o;
  }
  pipeline::PipelineResult r =
      pipeline::ParallelLogPipeline(PipelineOpts(traced)).Run(*source.value());
  EndJob(t0, o);
  o.error = Diverges(oracle, r);
  if (keep != nullptr) *keep = std::move(r);
  return o;
}

/// One journaled run into a fresh store (the store is emptied off the
/// clock). `max_segments` 0 runs to completion; otherwise the run stops
/// there and is not checked against the oracle.
Outcome JournalRep(const std::string& log, const std::string& journal_path,
                   const PipelineOracle& oracle, bool traced,
                   bool fresh_store = true, uint64_t max_segments = 0,
                   pipeline::JournalRunResult* keep = nullptr) {
  Outcome o;
  o.lines = oracle.lines;
  if (fresh_store) snap::SnapshotStore(journal_path).Remove();
  pipeline::JournalOptions journal;  // default checkpoint cadence
  journal.path = journal_path;
  journal.max_segments = max_segments;
  StartJob();
  const Clock::time_point t0 = Clock::now();
  auto source = pipeline::MmapChunkSource::Open(log);
  if (!source.ok()) {
    o.error = source.status().ToString();
    return o;
  }
  auto jr = pipeline::RunWithJournal(PipelineOpts(traced), *source.value(),
                                     journal);
  EndJob(t0, o);
  if (!jr.ok()) {
    o.error = jr.status().ToString();
    return o;
  }
  if (max_segments == 0) {
    o.error = jr.value().complete ? Diverges(oracle, jr.value().result)
                                  : "journaled run did not complete";
  }
  if (keep != nullptr) *keep = std::move(jr).value();
  return o;
}

Outcome StreakRep(const std::vector<std::string>& queries,
                  const streaks::StreakReport& oracle, bool traced,
                  pipeline::StreakStageResult* keep = nullptr) {
  Outcome o;
  o.lines = queries.size();
  StartJob();
  const Clock::time_point t0 = Clock::now();
  pipeline::StreakStageResult r =
      pipeline::StreakStage(StreakOpts(traced)).Run(queries);
  EndJob(t0, o);
  if (!(r.report == oracle)) o.error = "StreakReport differs from the oracle";
  if (keep != nullptr) *keep = std::move(r);
  return o;
}

// ---------------------------------------------------------------------
// One workload
// ---------------------------------------------------------------------

/// One workload's input, oracle and main call.
struct Bench {
  Bench(const Workload& w, const Args& args, const TempDir& tmp)
      : w(w),
        args(args),
        tmp(tmp),
        log_path(tmp.File("input.log")),
        journal_path(tmp.File("journal.ckpt")) {}

  /// Generation + file write (the timed part of set-up, with the warm-up).
  util::Status BuildInput() {
    std::vector<std::string> lines = GenerateLog(w.kind, w.name, args.seed);
    id = InputId();
    for (const std::string& line : lines) id.Add(line);
    if (w.kind == Kind::kStreaks) {
      queries = std::move(lines);
      return util::Status::OK();
    }
    return WriteLog(lines, log_path);
  }

  /// The untimed serial oracle; returns its wall time.
  double RunOracle() {
    const Clock::time_point t0 = Clock::now();
    if (w.kind == Kind::kStreaks) {
      streaks::StreakDetector detector;
      for (const std::string& q : queries) detector.Add(q);
      streak_oracle = detector.Finish();
    } else {
      oracle = SerialOracle(log_path);
    }
    return SecondsSince(t0);
  }

  /// One batch job: the workload's main call.
  Outcome MainCall(bool traced = false) const {
    switch (w.kind) {
      case Kind::kPipeline:
        return PipelineRep(log_path, oracle, traced);
      case Kind::kJournal:
        return JournalRep(log_path, journal_path, oracle, traced);
      case Kind::kStreaks:
        return StreakRep(queries, streak_oracle, traced);
    }
    return Outcome();
  }

  const Workload& w;
  const Args& args;
  const TempDir& tmp;
  const std::string log_path;
  const std::string journal_path;
  InputId id;
  std::vector<std::string> queries;  // streak workload input
  PipelineOracle oracle;
  streaks::StreakReport streak_oracle;
};

/// Collects distinct failure messages (bounded) and decides `correct`.
class Errors {
 public:
  void Add(const std::string& what) {
    if (what.empty()) return;
    ++count_;
    if (messages_.size() < kMaxErrors &&
        std::find(messages_.begin(), messages_.end(), what) ==
            messages_.end()) {
      messages_.push_back(what);
      std::cerr << "FAIL: " << what << "\n";
    }
  }
  bool empty() const { return count_ == 0; }
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  uint64_t count_ = 0;
  std::vector<std::string> messages_;
};

/// Counts every batch job against the lines it was given.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Add(const Outcome& o, Errors& errors) {
    attempted += o.lines;
    if (!o.error.empty()) failed += o.lines;
    errors.Add(o.error);
  }
};

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

std::string Number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintTable(const std::vector<Metric>& metrics) {
  std::printf("%-34s %-13s %14s %14s %14s %14s %14s %5s\n", "metric", "unit",
              "median", "p25", "p75", "min", "max", "n");
  for (const Metric& m : metrics) {
    std::printf("%-34s %-13s %14.6g %14.6g %14.6g %14.6g %14.6g %5zu\n",
                m.name.c_str(), m.unit.c_str(), m.s.median, m.s.p25, m.s.p75,
                m.s.min, m.s.max, m.s.n);
  }
}

/// The result line: exactly correct / attempted / failed / metrics, each
/// metric as {"value", "unit"} with the value at full precision.
void PrintResultLine(bool correct, const Tally& tally,
                     const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(tally.attempted);
  line += ", \"failed\": " + std::to_string(tally.failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " +
            Number(metrics[i].s.median) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  line += "}}";
  std::cout << line << std::endl;
}

// ---------------------------------------------------------------------
// Traced run: per-layer metrics
// ---------------------------------------------------------------------

bool SameShapeCounts(const corpus::ShapeCounts& a,
                     const corpus::ShapeCounts& b) {
  return a.total == b.total && a.single_edge == b.single_edge &&
         a.chain == b.chain && a.chain_set == b.chain_set &&
         a.star == b.star && a.tree == b.tree && a.forest == b.forest &&
         a.cycle == b.cycle && a.flower == b.flower &&
         a.flower_set == b.flower_set && a.treewidth_le2 == b.treewidth_le2 &&
         a.treewidth_3 == b.treewidth_3 && a.treewidth_gt3 == b.treewidth_gt3 &&
         a.girth == b.girth &&
         a.single_edge_with_constants == b.single_edge_with_constants;
}

bool SameHypergraphStats(const corpus::HypergraphStats& a,
                         const corpus::HypergraphStats& b) {
  return a.total == b.total && a.ghw1 == b.ghw1 && a.ghw2 == b.ghw2 &&
         a.ghw3 == b.ghw3 && a.ghw_more == b.ghw_more &&
         a.decompositions_gt10_nodes == b.decompositions_gt10_nodes &&
         a.decompositions_gt100_nodes == b.decompositions_gt100_nodes;
}

/// Exact nearest-rank percentile of one stage's span durations (the
/// telemetry histograms only resolve powers of two).
double StagePercentileNs(const obs::TraceData& trace, int stage, double p) {
  std::vector<uint64_t> d;
  for (const obs::TraceTrack& track : trace.tracks) {
    for (const obs::TraceEvent& e : track.events) {
      if (e.stage == stage) d.push_back(e.end_ns - e.begin_ns);
    }
  }
  if (d.empty()) return 0;
  std::sort(d.begin(), d.end());
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(d.size())));
  return static_cast<double>(d[std::clamp<size_t>(rank, 1, d.size()) - 1]);
}

void WriteFile(const std::string& dir, const char* name,
               const std::function<void(std::ostream&)>& body) {
  std::ofstream out(dir + "/" + name);
  body(out);
}

/// Median wall time of kProbeReps calls, each tallied.
template <typename Call>
double MedianSeconds(Call&& call, Tally& tally, Errors& errors) {
  std::vector<double> seconds;
  for (int i = 0; i < kProbeReps; ++i) {
    const Outcome o = call();
    tally.Add(o, errors);
    seconds.push_back(o.seconds);
  }
  return Summarize(seconds).median;
}

struct JournalProbe {
  uint64_t checkpoints = 0;
  uint64_t snapshot_bytes = 0;
  double save_ms = 0;
  double load_ms = 0;
  double resume_ms = 0;
  double overhead_frac = 0;
};

/// Prices the journal and snapshot layers over the workload's log file:
/// a plain and a journaled run, snapshot save and load of the final
/// generation, and a resume after stopping one segment short.
JournalProbe ProbeJournal(const Bench& b, const PipelineOracle& ref,
                          Tally& tally, Errors& errors) {
  JournalProbe p;
  const double plain_s = MedianSeconds(
      [&] { return PipelineRep(b.log_path, ref, false); }, tally, errors);
  pipeline::JournalRunResult full;
  const double journaled_s = MedianSeconds(
      [&] {
        return JournalRep(b.log_path, b.journal_path, ref, false, true, 0,
                          &full);
      },
      tally, errors);
  p.checkpoints = full.segments;
  p.overhead_frac = Ratio(journaled_s, plain_s) - 1;

  snap::SnapshotStore store(b.journal_path);
  auto manifest = store.ReadManifest();
  if (!manifest.ok()) {
    errors.Add("journal manifest: " + manifest.status().ToString());
    return p;
  }
  const std::string gen_path = store.GenerationPath(manifest.value().current);
  std::string image;
  {
    std::ifstream in(gen_path, std::ios::binary);
    image.assign(std::istreambuf_iterator<char>(in), {});
  }
  p.snapshot_bytes = image.size();

  std::vector<double> save_ms, load_ms;
  for (int r = 0; r < kProbeReps; ++r) {
    Clock::time_point t0 = Clock::now();
    auto loaded = snap::Snapshot::Load(gen_path, snap::LoadMode::kStream);
    load_ms.push_back(SecondsSince(t0) * 1e3);
    if (!loaded.ok()) {
      errors.Add("snapshot load: " + loaded.status().ToString());
      return p;
    }
    // Save: rebuild the image from its sections (checksums included) and
    // publish it write-fsync-rename, as a checkpoint does.
    t0 = Clock::now();
    snap::SnapshotWriter writer;
    for (const auto& [id, payload] : loaded.value().sections()) {
      writer.AddSection(id, std::string(payload));
    }
    const std::string rebuilt = writer.Finish();
    util::Status st =
        snap::AtomicWriteFile(b.tmp.File("probe.snapshot"), rebuilt);
    save_ms.push_back(SecondsSince(t0) * 1e3);
    if (!st.ok()) errors.Add("snapshot save: " + st.ToString());
    if (rebuilt != image) errors.Add("rebuilt snapshot differs from the file");
  }
  p.save_ms = Summarize(save_ms).median;
  p.load_ms = Summarize(load_ms).median;

  // Resume: stop one segment short of the end, then time the call that
  // restores the checkpoint and finishes the input.
  const uint64_t stop = std::max<uint64_t>(1, full.segments - 1);
  errors.Add(
      JournalRep(b.log_path, b.journal_path, ref, false, true, stop).error);
  pipeline::JournalRunResult resumed;
  const Outcome resume = JournalRep(b.log_path, b.journal_path, ref, false,
                                    false, 0, &resumed);
  tally.Add(resume, errors);
  if (!resumed.resumed) errors.Add("journal did not resume from its checkpoint");
  p.resume_ms = resume.seconds * 1e3;
  return p;
}

std::vector<Metric> TracedRun(Bench& b, double oracle_seconds, Tally& tally,
                              Errors& errors) {
  const Args& args = b.args;
  const bool streak_kind = b.w.kind == Kind::kStreaks;

  // Untraced reps, as in an end-to-end run: the base for the tracing
  // overhead and the parallel speedup.
  std::vector<double> untraced;
  const Clock::time_point start = Clock::now();
  while (untraced.size() < kMinReps || SecondsSince(start) < args.seconds) {
    Outcome o = b.MainCall();
    tally.Add(o, errors);
    untraced.push_back(o.seconds);
  }
  const double untraced_s = Summarize(untraced).median;
  const double traced_s =
      MedianSeconds([&] { return b.MainCall(true); }, tally, errors);

  // The streak workload's queries also go through the ingest layers, as
  // `query=` log lines, so every layer is priced on every workload.
  if (streak_kind) {
    std::vector<std::string> lines;
    lines.reserve(b.queries.size());
    for (const std::string& q : b.queries) {
      lines.push_back("query=" + util::PercentEncode(q));
    }
    errors.Add(WriteLog(lines, b.log_path).message());
  }

  SpanLog spans;
  LayerPass lp;
  errors.Add(RunLayerPass(b.log_path, spans, lp).message());
  const std::vector<std::string>& texts =
      streak_kind ? b.queries : lp.query_texts;
  if (streak_kind && lp.query_texts != b.queries) {
    errors.Add("decoded streak log differs from the generated queries");
  }
  const StreakPass sp = RunStreakPass(texts, spans);

  // ---- Fidelity gate: the layer pass prices the production work. ----
  PipelineOracle ref;
  ref.lines = lp.lines;
  ref.stats = lp.stats;
  ref.digest = pipeline::StatisticsDigest(lp.analysis);
  if (!streak_kind) {
    if (ref.lines != b.oracle.lines || ref.digest != b.oracle.digest ||
        ref.stats.total != b.oracle.stats.total ||
        ref.stats.valid != b.oracle.stats.valid ||
        ref.stats.unique != b.oracle.stats.unique ||
        ref.stats.malformed != b.oracle.stats.malformed) {
      errors.Add("layer pass differs from the serial oracle");
    }
  }
  if (!SameShapeCounts(lp.cq_shapes, lp.analysis.cq_shapes()) ||
      !SameShapeCounts(lp.cqf_shapes, lp.analysis.cqf_shapes()) ||
      !SameShapeCounts(lp.cqof_shapes, lp.analysis.cqof_shapes()) ||
      !SameHypergraphStats(lp.hypergraphs, lp.analysis.hypergraphs())) {
    errors.Add("kernel pass differs from CorpusAnalyzer's shape tables");
  }

  pipeline::PipelineResult pr;
  const Outcome traced_pipeline = PipelineRep(b.log_path, ref, true, &pr);
  tally.Add(traced_pipeline, errors);
  pipeline::StreakStageResult sr;
  tally.Add(StreakRep(texts, sp.report, true, &sr), errors);
  if (streak_kind && !(sp.report == b.streak_oracle)) {
    errors.Add("streak pass differs from the serial oracle");
  }
  const JournalProbe jp = ProbeJournal(b, ref, tally, errors);

  // ---- Files ----
  const std::vector<SpanLog::Layer> layers = spans.Layers();
  std::error_code ec;
  fs::create_directories(args.out_dir, ec);
  if (pr.telemetry && pr.trace && sr.telemetry && sr.trace) {
    WriteFile(args.out_dir, "pipeline_telemetry.json", [&](std::ostream& o) {
      obs::WriteTelemetryJson(o, *pr.telemetry);
    });
    WriteFile(args.out_dir, "pipeline_trace.json", [&](std::ostream& o) {
      obs::WriteChromeTrace(o, *pr.trace);
    });
    WriteFile(args.out_dir, "streak_telemetry.json", [&](std::ostream& o) {
      obs::WriteTelemetryJson(o, *sr.telemetry);
    });
    WriteFile(args.out_dir, "streak_trace.json", [&](std::ostream& o) {
      obs::WriteChromeTrace(o, *sr.trace);
    });
  } else {
    errors.Add("traced runs returned no telemetry (built without it?)");
  }
  WriteFile(args.out_dir, "layer_trace.json",
            [&](std::ostream& o) { spans.WriteChromeTrace(o); });

  // ---- Self-time table ----
  uint64_t pass_ns = 0;
  for (const SpanLog::Span& s : spans.spans()) {
    if (s.parent < 0) pass_ns += s.end_ns - s.begin_ns;
  }
  std::printf("\n%-13s %8s %12s %12s %7s %12s\n", "layer", "spans",
              "total ms", "self ms", "self %", "self allocs");
  for (const SpanLog::Layer& l : layers) {
    std::printf("%-13s %8llu %12.3f %12.3f %6.2f%% %12llu\n", l.name.c_str(),
                static_cast<unsigned long long>(l.spans),
                static_cast<double>(l.total_ns) / 1e6,
                static_cast<double>(l.self_ns) / 1e6,
                100.0 * Ratio(static_cast<double>(l.self_ns),
                              static_cast<double>(pass_ns)),
                static_cast<unsigned long long>(l.self_allocs));
  }
  auto layer = [&layers](const char* name) {
    for (const SpanLog::Layer& l : layers) {
      if (l.name == name) return l;
    }
    return SpanLog::Layer{name};
  };
  auto self_ns = [&](const char* name) {
    return static_cast<double>(layer(name).self_ns);
  };
  auto self_allocs = [&](const char* name) {
    return static_cast<double>(layer(name).self_allocs);
  };

  // ---- Per-layer metrics ----
  const double lines = static_cast<double>(lp.lines);
  const double entries = static_cast<double>(lp.stats.total);
  const double valid = static_cast<double>(lp.stats.valid);
  const double unique = static_cast<double>(lp.stats.unique);
  const double ingest_ns = self_ns("url_decode") + self_ns("parse") +
                           self_ns("hash") + self_ns("dedup");
  const double ingest_allocs = self_allocs("url_decode") +
                               self_allocs("parse") + self_allocs("hash") +
                               self_allocs("dedup");
  const streaks::PrefilterStats& pf = sp.prefilter;
  const double pairs = static_cast<double>(pf.pairs);
  const double dp = static_cast<double>(pf.levenshtein_calls);
  const double serial_lines = streak_kind
                                  ? static_cast<double>(b.queries.size())
                                  : static_cast<double>(b.oracle.lines);
  std::vector<Metric> m;
  m.push_back(Single("chunk_source.ns_per_line", "ns/line",
                     Ratio(self_ns("chunk_source"), lines)));
  m.push_back(Single("url_decode.ns_per_line", "ns/line",
                     Ratio(self_ns("url_decode"), lines)));
  m.push_back(Single("url_decode.allocs_per_line", "allocs/line",
                     Ratio(self_allocs("url_decode"), lines)));
  m.push_back(Single("ingest.ns_per_line", "ns/line", Ratio(ingest_ns, lines)));
  m.push_back(Single("ingest.allocs_per_line", "allocs/line",
                     Ratio(ingest_allocs, lines)));
  m.push_back(Single("parse.ns_per_line", "ns/line",
                     Ratio(self_ns("parse"), lines)));
  m.push_back(Single("parse.allocs_per_line", "allocs/line",
                     Ratio(self_allocs("parse"), lines)));
  m.push_back(Single(
      "parse.bytes_per_line", "B/line",
      Ratio(static_cast<double>(layer("parse").self_alloc_bytes), lines)));
  m.push_back(Single("hash.ns_per_query", "ns/query",
                     Ratio(self_ns("hash"), valid)));
  m.push_back(Single("dedup.ns_per_entry", "ns/entry",
                     Ratio(self_ns("dedup"), entries)));
  m.push_back(Single("dedup.unique_ratio", "ratio", Ratio(unique, valid)));
  m.push_back(Single("analysis.ns_per_query", "ns/query",
                     Ratio(self_ns("analysis"), unique)));
  m.push_back(Single("analysis.allocs_per_query", "allocs/query",
                     Ratio(self_allocs("analysis"), unique)));
  m.push_back(Single("canonical.ns_per_query", "ns/query",
                     Ratio(self_ns("canonical"),
                           static_cast<double>(lp.canonical_queries))));
  m.push_back(Single(
      "shape.ns_per_query", "ns/query",
      Ratio(self_ns("shape"), static_cast<double>(lp.graph_queries))));
  m.push_back(Single("shape.girth_steps", "steps",
                     static_cast<double>(lp.girth_steps)));
  m.push_back(Single(
      "treewidth.ns_per_query", "ns/query",
      Ratio(self_ns("treewidth"), static_cast<double>(lp.graph_queries))));
  m.push_back(Single("treewidth.steps", "steps",
                     static_cast<double>(lp.treewidth_steps)));
  m.push_back(Single(
      "ghw.ns_per_query", "ns/query",
      Ratio(self_ns("ghw"), static_cast<double>(lp.hyper_queries))));
  m.push_back(Single("ghw.steps", "steps", static_cast<double>(lp.ghw_steps)));
  m.push_back(Single("ghw.decomposition_nodes", "count",
                     static_cast<double>(lp.ghw_decomposition_nodes)));
  m.push_back(Single("streaks.ns_per_query", "ns/query",
                     Ratio(self_ns("streaks"),
                           static_cast<double>(texts.size()))));
  m.push_back(Single("streaks.pairs", "count", pairs));
  m.push_back(Single("streaks.dp_calls", "count", dp));
  m.push_back(Single("streaks.settled_ratio", "ratio",
                     Ratio(pairs - dp, pairs)));
  m.push_back(Single("streaks.exact_hash", "count",
                     static_cast<double>(pf.exact_hash_hits)));
  m.push_back(Single("streaks.length", "count",
                     static_cast<double>(pf.length_rejects)));
  m.push_back(Single("streaks.charmap", "count",
                     static_cast<double>(pf.charmap_rejects)));
  m.push_back(Single("streaks.histogram", "count",
                     static_cast<double>(pf.histogram_rejects)));
  const obs::RunTelemetry pt = pr.telemetry.value_or(obs::RunTelemetry());
  const obs::TraceData ptrace = pr.trace.value_or(obs::TraceData());
  const obs::RunTelemetry st = sr.telemetry.value_or(obs::RunTelemetry());
  m.push_back(Single("pipeline.queue_stall_frac", "fraction",
                     pt.QueueStallFraction()));
  m.push_back(Single("pipeline.shard_skew", "ratio", pt.ShardSkewRatio()));
  m.push_back(Single("pipeline.parse_chunk_p50_ns", "ns",
                     StagePercentileNs(ptrace, obs::kStageParse, 0.50)));
  m.push_back(Single("pipeline.parse_chunk_p99_ns", "ns",
                     StagePercentileNs(ptrace, obs::kStageParse, 0.99)));
  m.push_back(Single("pipeline.shard_chunk_p99_ns", "ns",
                     StagePercentileNs(ptrace, obs::kStageShard, 0.99)));
  m.push_back(Single("pipeline.allocs_per_line", "allocs/line",
                     Ratio(static_cast<double>(pt.run_allocs), lines)));
  m.push_back(Single(
      "streak_stage.stitch_ns", "ns",
      static_cast<double>(st.stage(obs::kStageStitch).chunk_ns.total_ns())));
  m.push_back(Single(
      "streak_stage.worker_chunk_max_ns", "ns",
      static_cast<double>(st.stage(obs::kStageStreak).chunk_ns.max_ns())));
  m.push_back(Single("journal.checkpoints", "count",
                     static_cast<double>(jp.checkpoints)));
  m.push_back(Single("journal.snapshot_bytes", "B",
                     static_cast<double>(jp.snapshot_bytes)));
  m.push_back(Single("journal.bytes_per_query", "B/query",
                     Ratio(static_cast<double>(jp.snapshot_bytes), entries)));
  m.push_back(Single("snapshot.save_ms", "ms", jp.save_ms));
  m.push_back(Single("snapshot.load_ms", "ms", jp.load_ms));
  m.push_back(Single("journal.resume_ms", "ms", jp.resume_ms));
  m.push_back(Single("journal.overhead_frac", "fraction", jp.overhead_frac));
  m.push_back(Single("obs.trace_overhead_frac", "fraction",
                     Ratio(traced_s, untraced_s) - 1));
  m.push_back(Single("serial.lines_per_s", "lines/s",
                     Ratio(serial_lines, oracle_seconds)));
  m.push_back(Single("parallel.speedup", "x",
                     Ratio(oracle_seconds, untraced_s)));

  WriteFile(args.out_dir, "layers.json", [&](std::ostream& o) {
    obs::JsonWriter json(o);
    json.BeginObject();
    json.KV("workload", b.w.name);
    json.KV("seed", args.seed);
    json.Key("layers").BeginArray();
    for (const SpanLog::Layer& l : layers) {
      json.BeginObject();
      json.KV("name", l.name);
      json.KV("spans", l.spans);
      json.KV("total_ns", l.total_ns);
      json.KV("self_ns", l.self_ns);
      json.KV("self_allocs", l.self_allocs);
      json.KV("self_alloc_bytes", l.self_alloc_bytes);
      json.EndObject();
    }
    json.EndArray();
    json.Key("metrics").BeginObject();
    for (const Metric& metric : m) {
      json.Key(metric.name).BeginObject();
      json.KV("value", metric.s.median);
      json.KV("unit", metric.unit);
      json.EndObject();
    }
    json.EndObject();
    json.EndObject();
    json.Finish();
  });
  return m;
}

// ---------------------------------------------------------------------
// main
// ---------------------------------------------------------------------

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--tmp") {
      args.tmp_parent = value;
    } else if (key == "--out-dir") {
      args.out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && !args.tmp_parent.empty() &&
         args.seconds > 0 && (!args.trace || !args.out_dir.empty());
}

int Run(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::cerr << "usage: bench_suite --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> --tmp <dir> [--out-dir <dir>]\n";
    return 2;
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) {
    std::cerr << "unknown workload: " << args.workload << "\n";
    return 2;
  }
  TempDir tmp(args.tmp_parent);
  if (!tmp.ok()) {
    std::cerr << "cannot create a private directory under " << args.tmp_parent
              << "\n";
    return 2;
  }

  Bench b(*workload, args, tmp);
  Errors errors;
  Tally tally;

  // ---- Set-up, repeated; the oracle runs once, off the set-up clock.
  std::vector<double> setup_s;
  double oracle_seconds = 0;
  InputId first;
  const int setups = args.trace ? 1 : kSetups;
  for (int i = 0; i < setups; ++i) {
    const Clock::time_point t0 = Clock::now();
    util::Status st = b.BuildInput();
    const double build_s = SecondsSince(t0);
    if (!st.ok()) {
      std::cerr << "FAIL: " << st.ToString() << "\n";
      return 1;
    }
    if (i == 0) {
      first = b.id;
      oracle_seconds = b.RunOracle();
    } else if (!(b.id == first)) {
      errors.Add("set-up generated different input from the same seed");
    }
    const Clock::time_point t1 = Clock::now();
    const Outcome warm = b.MainCall();
    setup_s.push_back(build_s + SecondsSince(t1));
    errors.Add(warm.error);
  }
  std::printf("workload %s seed %llu: %llu lines, %llu bytes, crc32c "
              "%08x; %d workers, %.3f s serial oracle\n",
              workload->name, static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(first.lines),
              static_cast<unsigned long long>(first.bytes), first.crc,
              Workers(), oracle_seconds);

  if (!ResetPeakRss() || PeakRssMb() <= 0) {
    errors.Add("peak RSS unavailable: /proc/self/clear_refs or VmHWM missing");
  }
  std::vector<Metric> metrics;
  if (args.trace) {
    metrics = TracedRun(b, oracle_seconds, tally, errors);
  } else {
    std::vector<double> lines_per_s, peak_rss_mb;
    const Clock::time_point start = Clock::now();
    while (lines_per_s.size() < kMinReps ||
           SecondsSince(start) < args.seconds) {
      const Outcome o = b.MainCall();
      tally.Add(o, errors);
      lines_per_s.push_back(Ratio(static_cast<double>(o.lines), o.seconds));
      peak_rss_mb.push_back(o.peak_rss_mb);
    }
    metrics.push_back(Metric{"lines_per_s", "lines/s", Summarize(lines_per_s)});
    metrics.push_back(Metric{"peak_rss_mb", "MB", Summarize(peak_rss_mb)});
    metrics.push_back(Metric{"setup_s", "s", Summarize(setup_s)});
  }
  std::printf("\n");
  PrintTable(metrics);
  std::printf("failed_frac %.6g (%llu of %llu lines failed)\n",
              Ratio(static_cast<double>(tally.failed),
                    static_cast<double>(tally.attempted)),
              static_cast<unsigned long long>(tally.failed),
              static_cast<unsigned long long>(tally.attempted));
  std::fflush(stdout);
  PrintResultLine(errors.empty(), tally, metrics);
  return errors.empty() ? 0 : 1;
}

}  // namespace
}  // namespace sparqlog::perfbench

int main(int argc, char** argv) {
  return sparqlog::perfbench::Run(argc, argv);
}
