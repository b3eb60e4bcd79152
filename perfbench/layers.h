#ifndef SPARQLOG_PERFBENCH_LAYERS_H_
#define SPARQLOG_PERFBENCH_LAYERS_H_

// The per-layer half of the benchmark: an in-memory span log and the two
// staged serial passes that record into it. Every span is opened and
// closed here, around calls into the library's public functions; nothing
// inside src/ is instrumented.

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "corpus/ingest.h"
#include "corpus/report.h"
#include "streaks/streaks.h"
#include "util/status.h"

namespace sparqlog::perfbench {

/// Spans kept in memory and written out when the run ends. Each span
/// records its wall interval and the process-wide allocation count and
/// bytes over that interval (obs/alloc_tracker.h), so a layer's self cost
/// is its span minus its children, for time and allocations alike. The
/// passes that record here are single-threaded, so the process-wide
/// allocation deltas belong to the span.
class SpanLog {
 public:
  struct Span {
    const char* name = "";
    int parent = -1;  ///< index of the enclosing span, -1 for a root
    uint64_t begin_ns = 0;
    uint64_t end_ns = 0;
    uint64_t allocs = 0;
    uint64_t alloc_bytes = 0;
  };

  /// Aggregate of every span with one name.
  struct Layer {
    std::string name;
    uint64_t spans = 0;
    uint64_t total_ns = 0;
    uint64_t self_ns = 0;
    uint64_t self_allocs = 0;
    uint64_t self_alloc_bytes = 0;
  };

  /// Opens a span under `parent` (-1 for a root span) and returns its id.
  int Begin(const char* name, int parent = -1);
  void End(int id);

  const std::vector<Span>& spans() const { return spans_; }

  /// Per-name totals in first-seen order. Self figures subtract the
  /// children's totals; children never overlap because the passes are
  /// sequential.
  std::vector<Layer> Layers() const;

  /// Chrome trace-event JSON (chrome://tracing, ui.perfetto.dev): one
  /// complete event per span, microseconds from the first span.
  void WriteChromeTrace(std::ostream& out) const;

 private:
  std::vector<Span> spans_;
  std::vector<uint64_t> alloc_count0_, alloc_bytes0_;
};

/// Outcome of the staged ingest + analysis layer pass over one log file.
struct LayerPass {
  uint64_t lines = 0;
  corpus::CorpusStats stats;
  corpus::CorpusAnalyzer analysis;
  /// Decoded text of every query entry, in log order (the streak pass's
  /// input for workloads whose input is a log file).
  std::vector<std::string> query_texts;

  // Kernel pass over the unique corpus, mirroring CorpusAnalyzer's
  // shape/width analysis. Step counts come from unlimited-in-practice
  // util::StepBudget instances, so they repeat exactly for one input.
  uint64_t canonical_queries = 0;  ///< canonical graph or hypergraph built
  uint64_t graph_queries = 0;      ///< valid canonical graph, classified
  uint64_t hyper_queries = 0;      ///< var-predicate CQOF: hypergraph + GHW
  uint64_t girth_steps = 0;
  uint64_t treewidth_steps = 0;
  uint64_t ghw_steps = 0;
  uint64_t ghw_decomposition_nodes = 0;
  corpus::ShapeCounts cq_shapes, cqf_shapes, cqof_shapes;
  corpus::HypergraphStats hypergraphs;
};

/// Runs the log at `path` through the production ingest layers one
/// 512-line chunk at a time, each layer as its own span under a `chunk`
/// span: chunk_source (MmapChunkSource), url_decode (ExtractQueryText),
/// parse (arena Parser::Parse), hash (CanonicalHash), dedup
/// (LogIngestor::Ingest) and analysis (CorpusAnalyzer::AddQuery on the
/// chunk's unique queries). A `kernels` span per chunk then re-runs the
/// structural kernels on those queries in isolation: canonical, shape,
/// treewidth and ghw.
util::Status RunLayerPass(const std::string& path, SpanLog& spans,
                          LayerPass& out);

/// Runs the serial StreakDetector over `queries` with one `streaks` span
/// per 512 queries.
struct StreakPass {
  streaks::StreakReport report;
  streaks::PrefilterStats prefilter;
};
StreakPass RunStreakPass(const std::vector<std::string>& queries,
                         SpanLog& spans);

}  // namespace sparqlog::perfbench

#endif  // SPARQLOG_PERFBENCH_LAYERS_H_
