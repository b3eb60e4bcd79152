// Workload runner: generates a gMark "Bib" graph and chain/star/cycle
// workloads, prints the generated SPARQL and SQL for one sample query,
// and compares both engines on each workload — a miniature of the
// Section 5.1 experiment.
//
// Usage: workload_runner [graph_nodes]

#include <chrono>
#include <cstdint>
#include <iostream>
#include <limits>
#include <optional>

#include "gmark/graph_gen.h"
#include "gmark/query_gen.h"
#include "sparql/serializer.h"
#include "store/engine.h"
#include "util/strings.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace sparqlog;
  using namespace std::chrono;

  std::optional<uint64_t> arg =
      argc > 1 ? util::ParseCount(argv[1], std::numeric_limits<uint64_t>::max())
               : 10000;
  if (!arg || argc > 2) {
    std::cerr << "usage: workload_runner [graph_nodes]\n";
    return 2;
  }
  const uint64_t nodes = *arg;
  gmark::Schema schema = gmark::Schema::Bib();
  store::TripleStore store;
  gmark::GraphGenOptions gopts;
  gopts.num_nodes = nodes;
  gmark::GenerateGraph(schema, gopts, store);
  std::cout << "Bib graph: " << store.size() << " triples over " << nodes
            << " nodes\n\n";

  // Show one sample query in both output languages.
  gmark::QueryGenOptions sample_opts;
  sample_opts.shape = gmark::QueryShape::kCycle;
  sample_opts.length = 4;
  sample_opts.workload_size = 1;
  auto sample = gmark::GenerateWorkload(schema, sample_opts);
  std::cout << "Sample cycle query (SPARQL):\n"
            << sparql::Serialize(sample[0].sparql) << "\n";
  std::cout << "Sample cycle query (SQL):\n" << sample[0].sql << "\n\n";

  store::GraphEngine bg(store);
  store::RelationalEngine pg(store);
  util::Table table({"Shape", "Len", "BG avg ms", "PG avg ms",
                     "BG match%", "timeouts PG"});
  for (auto shape : {gmark::QueryShape::kChain, gmark::QueryShape::kStar,
                     gmark::QueryShape::kCycle}) {
    const char* shape_name = shape == gmark::QueryShape::kChain  ? "chain"
                             : shape == gmark::QueryShape::kStar ? "star"
                                                                 : "cycle";
    for (int len : {3, 5}) {
      gmark::QueryGenOptions qopts;
      qopts.shape = shape;
      qopts.length = len;
      qopts.workload_size = 25;
      auto workload = gmark::GenerateWorkload(schema, qopts);
      double bg_ms = 0, pg_ms = 0;
      int matched = 0, evaluated = 0, pg_timeouts = 0;
      for (const auto& q : workload) {
        auto bgp = gmark::CompileForEngine(q, store, schema);
        if (!bgp.has_value()) continue;
        ++evaluated;
        store::EvalStats a =
            bg.Evaluate(*bgp, store::EvalMode::kAsk, milliseconds(100));
        store::EvalStats b =
            pg.Evaluate(*bgp, store::EvalMode::kAsk, milliseconds(100));
        bg_ms += a.elapsed_ns / 1e6;
        pg_ms += b.elapsed_ns / 1e6;
        if (a.matched) ++matched;
        if (b.timed_out) ++pg_timeouts;
      }
      if (evaluated == 0) continue;
      char bg_buf[32], pg_buf[32], m_buf[32];
      std::snprintf(bg_buf, sizeof(bg_buf), "%.3f", bg_ms / evaluated);
      std::snprintf(pg_buf, sizeof(pg_buf), "%.3f", pg_ms / evaluated);
      std::snprintf(m_buf, sizeof(m_buf), "%.0f%%",
                    100.0 * matched / evaluated);
      table.AddRow({shape_name, std::to_string(len), bg_buf, pg_buf,
                    m_buf, std::to_string(pg_timeouts)});
    }
  }
  table.Print(std::cout);
  return 0;
}
