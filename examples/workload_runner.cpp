// Workload runner: generates a gMark "Bib" graph and chain/star/cycle
// workloads, prints the generated SPARQL and SQL for one sample query,
// and compares both engines on each workload — a miniature of the
// Section 5.1 experiment. Work is counted in engine steps (one per
// tuple probed or materialized), each query capped at kStepCap.
//
// Usage: workload_runner [graph_nodes]

#include <cstdint>
#include <cstdio>
#include <iostream>
#include <limits>
#include <optional>

#include "gmark/graph_gen.h"
#include "gmark/query_gen.h"
#include "sparql/serializer.h"
#include "store/engine.h"
#include "util/budget.h"
#include "util/strings.h"
#include "util/table.h"

constexpr uint64_t kStepCap = 100000;

int main(int argc, char** argv) {
  using namespace sparqlog;

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
  util::Table table({"Shape", "Len", "BG mean steps", "PG mean steps",
                     "BG match%", "PG capped"});
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
      uint64_t bg_steps = 0, pg_steps = 0;
      int matched = 0, evaluated = 0, pg_capped = 0;
      for (const auto& q : workload) {
        auto bgp = gmark::CompileForEngine(q, store);
        if (!bgp.has_value()) continue;
        ++evaluated;
        util::StepBudget bg_budget(kStepCap), pg_budget(kStepCap);
        store::EvalStats a = bg.Evaluate(*bgp, store::EvalMode::kAsk,
                                         &bg_budget);
        store::EvalStats b = pg.Evaluate(*bgp, store::EvalMode::kAsk,
                                         &pg_budget);
        bg_steps += a.steps;
        pg_steps += b.steps;
        if (a.matched) ++matched;
        if (b.capped) ++pg_capped;
      }
      if (evaluated == 0) continue;
      char m_buf[32];
      std::snprintf(m_buf, sizeof(m_buf), "%.0f%%",
                    100.0 * matched / evaluated);
      table.AddRow({shape_name, std::to_string(len),
                    std::to_string(bg_steps / evaluated),
                    std::to_string(pg_steps / evaluated), m_buf,
                    std::to_string(pg_capped)});
    }
  }
  table.Print(std::cout);
  return 0;
}
