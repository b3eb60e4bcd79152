#include "layers.h"

#include <algorithm>
#include <optional>
#include <string_view>

#include "fragments/fragment.h"
#include "graph/canonical.h"
#include "graph/shapes.h"
#include "obs/alloc_tracker.h"
#include "obs/clock.h"
#include "obs/json_writer.h"
#include "pipeline/chunk_source.h"
#include "sparql/parser.h"
#include "sparql/serializer.h"
#include "util/budget.h"
#include "width/hypertree.h"
#include "width/treewidth.h"

namespace sparqlog::perfbench {

namespace {

constexpr size_t kChunkLines = 512;
// Budget handed to every kernel: large enough never to run out, so the
// kernels behave exactly as unbudgeted, while limit - remaining() counts
// the steps they charged.
constexpr uint64_t kUnlimitedSteps = uint64_t{1} << 62;

}  // namespace

int SpanLog::Begin(const char* name, int parent) {
  Span s;
  s.name = name;
  s.parent = parent;
  // Start counts are parked in the delta fields until End.
  s.allocs = obs::AllocationCount();
  s.alloc_bytes = obs::AllocatedBytes();
  s.begin_ns = obs::NowNs();
  spans_.push_back(s);
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::End(int id) {
  Span& s = spans_[static_cast<size_t>(id)];
  s.end_ns = obs::NowNs();
  s.allocs = obs::AllocationCount() - s.allocs;
  s.alloc_bytes = obs::AllocatedBytes() - s.alloc_bytes;
}

std::vector<SpanLog::Layer> SpanLog::Layers() const {
  const size_t n = spans_.size();
  std::vector<uint64_t> child_ns(n, 0), child_allocs(n, 0), child_bytes(n, 0);
  for (const Span& s : spans_) {
    if (s.parent < 0) continue;
    size_t p = static_cast<size_t>(s.parent);
    child_ns[p] += s.end_ns - s.begin_ns;
    child_allocs[p] += s.allocs;
    child_bytes[p] += s.alloc_bytes;
  }
  std::vector<Layer> layers;
  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    auto it = std::find_if(layers.begin(), layers.end(), [&](const Layer& l) {
      return l.name == s.name;
    });
    if (it == layers.end()) {
      layers.push_back(Layer{s.name});
      it = layers.end() - 1;
    }
    const uint64_t ns = s.end_ns - s.begin_ns;
    ++it->spans;
    it->total_ns += ns;
    it->self_ns += ns - std::min(ns, child_ns[i]);
    it->self_allocs += s.allocs - std::min(s.allocs, child_allocs[i]);
    it->self_alloc_bytes +=
        s.alloc_bytes - std::min(s.alloc_bytes, child_bytes[i]);
  }
  return layers;
}

void SpanLog::WriteChromeTrace(std::ostream& out) const {
  uint64_t origin = ~uint64_t{0};
  for (const Span& s : spans_) origin = std::min(origin, s.begin_ns);
  obs::JsonWriter json(out);
  json.BeginObject();
  json.Key("traceEvents").BeginArray();
  for (const Span& s : spans_) {
    json.BeginObject();
    json.KV("name", s.name);
    json.KV("cat", "layer");
    json.KV("ph", "X");
    json.KV("ts", static_cast<double>(s.begin_ns - origin) / 1e3);
    json.KV("dur", static_cast<double>(s.end_ns - s.begin_ns) / 1e3);
    json.KV("pid", 1);
    json.KV("tid", 1);
    json.Key("args").BeginObject();
    json.KV("parent", s.parent < 0
                          ? ""
                          : spans_[static_cast<size_t>(s.parent)].name);
    json.KV("allocs", s.allocs);
    json.KV("alloc_bytes", s.alloc_bytes);
    json.EndObject();
    json.EndObject();
  }
  json.EndArray();
  json.KV("displayTimeUnit", "ns");
  json.EndObject();
  json.Finish();
}

namespace {

/// Steps charged to a budget built with kUnlimitedSteps.
uint64_t StepsUsed(const util::StepBudget& b) {
  return kUnlimitedSteps - b.remaining();
}

/// The per-chunk kernel work list and its recycled output buffers.
struct KernelPass {
  struct Case {
    const sparql::Query* query = nullptr;
    fragments::FragmentClass fc;
  };
  std::vector<Case> cases;
  std::vector<graph::CanonicalGraph> graphs;
  std::vector<graph::Hypergraph> hypergraphs;
  std::vector<graph::ShapeClass> shapes;
  std::vector<width::TreewidthResult> treewidths;
  std::vector<width::GhwResult> ghws;
  corpus::AnalysisScratch scratch;

  void Run(const std::vector<const sparql::Query*>& fresh, SpanLog& spans,
           int parent, LayerPass& out);
  void Commit(LayerPass& out) const;
};

void KernelPass::Run(const std::vector<const sparql::Query*>& fresh,
                     SpanLog& spans, int parent, LayerPass& out) {
  // Select the queries CorpusAnalyzer::ComputeShapes analyzes.
  cases.clear();
  for (const sparql::Query* q : fresh) {
    bool select_ask = q->form == sparql::QueryForm::kSelect ||
                      q->form == sparql::QueryForm::kAsk;
    if (!select_ask || !q->has_body) continue;
    fragments::FragmentClass fc = fragments::ClassifyFragment(*q);
    if (!(fc.cq || fc.cqf || fc.cqof)) continue;
    if (fc.var_predicate && !fc.cqof) continue;
    cases.push_back(Case{q, fc});
  }
  const size_t n = cases.size();
  if (graphs.size() < n) {
    graphs.resize(n);
    hypergraphs.resize(n);
    shapes.resize(n);
    treewidths.resize(n);
    ghws.resize(n);
  }

  int s = spans.Begin("canonical", parent);
  for (size_t j = 0; j < n; ++j) {
    const Case& c = cases[j];
    scratch.triples.clear();
    scratch.filters.clear();
    graph::CollectTriplesAndFilters(c.query->where, scratch.triples,
                                    scratch.filters);
    if (c.fc.var_predicate) {
      graph::BuildCanonicalHypergraph(scratch.triples, scratch.filters,
                                      graph::CanonicalOptions(),
                                      scratch.canonical, hypergraphs[j]);
    } else {
      graph::BuildCanonicalGraph(scratch.triples, scratch.filters,
                                 graph::CanonicalOptions(), scratch.canonical,
                                 graphs[j]);
    }
  }
  spans.End(s);
  out.canonical_queries += n;

  s = spans.Begin("shape", parent);
  for (size_t j = 0; j < n; ++j) {
    if (cases[j].fc.var_predicate || !graphs[j].valid) continue;
    util::StepBudget budget(kUnlimitedSteps);
    shapes[j] = graph::ClassifyShape(graphs[j].graph, scratch.shape, &budget);
    out.girth_steps += StepsUsed(budget);
    ++out.graph_queries;
  }
  spans.End(s);

  s = spans.Begin("treewidth", parent);
  for (size_t j = 0; j < n; ++j) {
    if (cases[j].fc.var_predicate || !graphs[j].valid) continue;
    util::StepBudget budget(kUnlimitedSteps);
    treewidths[j] =
        width::Treewidth(graphs[j].graph, scratch.treewidth, &budget);
    out.treewidth_steps += StepsUsed(budget);
  }
  spans.End(s);

  s = spans.Begin("ghw", parent);
  for (size_t j = 0; j < n; ++j) {
    if (!cases[j].fc.var_predicate) continue;
    util::StepBudget budget(kUnlimitedSteps);
    ghws[j] = width::GeneralizedHypertreeWidth(hypergraphs[j], scratch.ghw,
                                               /*max_k=*/4, &budget);
    out.ghw_steps += StepsUsed(budget);
    out.ghw_decomposition_nodes +=
        static_cast<uint64_t>(ghws[j].decomposition_nodes);
    ++out.hyper_queries;
  }
  spans.End(s);

  Commit(out);
}

// The counting half of CorpusAnalyzer::CommitShapes, so the fidelity gate
// can compare the kernel pass's tables with the analyzer's.
void KernelPass::Commit(LayerPass& out) const {
  for (size_t j = 0; j < cases.size(); ++j) {
    const fragments::FragmentClass& fc = cases[j].fc;
    if (fc.var_predicate) {
      const width::GhwResult& ghw = ghws[j];
      corpus::HypergraphStats& h = out.hypergraphs;
      ++h.total;
      switch (ghw.width) {
        case 0:
        case 1: ++h.ghw1; break;
        case 2: ++h.ghw2; break;
        case 3: ++h.ghw3; break;
        default: ++h.ghw_more; break;
      }
      if (ghw.decomposition_nodes > 10) ++h.decompositions_gt10_nodes;
      if (ghw.decomposition_nodes > 100) ++h.decompositions_gt100_nodes;
      continue;
    }
    const graph::CanonicalGraph& cg = graphs[j];
    if (!cg.valid) continue;
    const graph::ShapeClass& shape = shapes[j];
    const int tw = treewidths[j].width;
    bool has_constant = false;
    if (shape.single_edge) {
      for (const rdf::Term* t : cg.node_terms) {
        if (t->is_constant()) has_constant = true;
      }
    }
    auto record = [&](corpus::ShapeCounts& sc) {
      ++sc.total;
      if (shape.single_edge) {
        ++sc.single_edge;
        if (has_constant) ++sc.single_edge_with_constants;
      }
      if (shape.chain) ++sc.chain;
      if (shape.chain_set) ++sc.chain_set;
      if (shape.star) ++sc.star;
      if (shape.tree) ++sc.tree;
      if (shape.forest) ++sc.forest;
      if (shape.cycle) ++sc.cycle;
      if (shape.flower) ++sc.flower;
      if (shape.flower_set) ++sc.flower_set;
      if (tw <= 2) {
        ++sc.treewidth_le2;
      } else if (tw == 3) {
        ++sc.treewidth_3;
      } else {
        ++sc.treewidth_gt3;
      }
      if (shape.girth > 0) ++sc.girth[shape.girth];
    };
    if (fc.cq) record(out.cq_shapes);
    if (fc.cqf) record(out.cqf_shapes);
    if (fc.cqof) record(out.cqof_shapes);
  }
}

}  // namespace

util::Status RunLayerPass(const std::string& path, SpanLog& spans,
                          LayerPass& out) {
  auto opened = pipeline::MmapChunkSource::Open(path);
  if (!opened.ok()) return opened.status();
  pipeline::MmapChunkSource& source = *opened.value();

  sparql::Parser parser;
  sparql::ParserScratch parser_scratch;
  corpus::LogIngestor ingestor;
  // Dedup hands each chunk's first occurrences to this list; the
  // analysis layer then consumes it, as the production unique gate does
  // (with unlimited budgets the gate never vetoes, so the split is exact).
  std::vector<const sparql::Query*> fresh;
  ingestor.set_unique_sink(
      [&fresh](const sparql::Query& q) { fresh.push_back(&q); });

  pipeline::LineChunk chunk;
  std::vector<std::string> decode_bufs(kChunkLines);
  std::vector<std::string_view> texts, raw_lines;
  std::vector<corpus::ParsedLine> parsed;
  KernelPass kernels;

  for (;;) {
    const int c = spans.Begin("chunk");
    int s = spans.Begin("chunk_source", c);
    const bool more = source.NextChunk(kChunkLines, chunk);
    spans.End(s);
    if (!more) {
      spans.End(c);
      break;
    }
    out.lines += chunk.lines.size();

    s = spans.Begin("url_decode", c);
    texts.clear();
    raw_lines.clear();
    for (size_t j = 0; j < chunk.lines.size(); ++j) {
      std::optional<std::string_view> text =
          corpus::ExtractQueryText(chunk.lines[j], decode_bufs[j]);
      if (!text.has_value()) continue;  // noise line
      texts.push_back(*text);
      raw_lines.push_back(chunk.lines[j]);
    }
    spans.End(s);

    // The arena parse of corpus::ParseLogLine, one layer at a time.
    s = spans.Begin("parse", c);
    for (size_t k = 0; k < texts.size(); ++k) {
      corpus::ParsedLine& p = parsed.emplace_back();
      p.is_query = true;
      util::Result<sparql::Query> q = parser.Parse(texts[k], parser_scratch);
      if (!q.ok()) {
        p.line_hash = corpus::HashBytes(raw_lines[k]);
        continue;
      }
      p.valid = true;
      p.query = std::move(q).value();
    }
    spans.End(s);

    s = spans.Begin("hash", c);
    for (corpus::ParsedLine& p : parsed) {
      if (p.valid) p.canonical_hash = sparql::CanonicalHash(*p.query);
    }
    spans.End(s);

    s = spans.Begin("dedup", c);
    fresh.clear();
    for (const corpus::ParsedLine& p : parsed) ingestor.Ingest(p);
    spans.End(s);

    s = spans.Begin("analysis", c);
    for (const sparql::Query* q : fresh) out.analysis.AddQuery(*q, "all");
    spans.End(s);
    spans.End(c);

    const int k = spans.Begin("kernels");
    kernels.Run(fresh, spans, k, out);
    spans.End(k);

    // Off every span: keep the decoded texts for the streak pass, then
    // release the chunk's ASTs before their arena.
    for (std::string_view t : texts) out.query_texts.emplace_back(t);
    parsed.clear();
    parser_scratch.Reset();
  }
  out.stats = ingestor.stats();
  return util::Status::OK();
}

StreakPass RunStreakPass(const std::vector<std::string>& queries,
                         SpanLog& spans) {
  StreakPass out;
  streaks::StreakDetector detector;
  for (size_t i = 0; i < queries.size(); i += kChunkLines) {
    const size_t end = std::min(queries.size(), i + kChunkLines);
    const int s = spans.Begin("streaks");
    for (size_t j = i; j < end; ++j) detector.Add(queries[j]);
    spans.End(s);
  }
  const int s = spans.Begin("streaks");
  out.report = detector.Finish();
  spans.End(s);
  out.prefilter = detector.prefilter_stats();
  return out;
}

}  // namespace sparqlog::perfbench
