// Regenerates Figure 3: average runtime of chain vs cycle Ask workloads
// (lengths 3..8, 100 queries each) on the two engines — GraphEngine
// (Blazegraph stand-in) and RelationalEngine (PostgreSQL stand-in) —
// over a gMark "Bib" graph, plus the cycle-timeout table (Figure 3
// bottom). Scaled down: graph size, timeout and workload size via env
// vars SPARQLOG_GRAPH_NODES (default 20000), SPARQLOG_TIMEOUT_MS (300)
// and SPARQLOG_WORKLOAD (100); a set value that is not a positive count
// exits 2.

#include <chrono>
#include <iostream>
#include <limits>

#include "bench_common.h"
#include "gmark/graph_gen.h"
#include "gmark/query_gen.h"
#include "store/engine.h"
#include "util/strings.h"
#include "util/table.h"

int main() {
  using namespace sparqlog;
  using namespace std::chrono;

  constexpr uint64_t kIntMax = std::numeric_limits<int>::max();
  uint64_t nodes = bench::EnvCount("SPARQLOG_GRAPH_NODES", 20000);
  int timeout_ms =
      static_cast<int>(bench::EnvCount("SPARQLOG_TIMEOUT_MS", 300, kIntMax));
  int workload_size =
      static_cast<int>(bench::EnvCount("SPARQLOG_WORKLOAD", 100, kIntMax));

  std::cout << "Figure 3: chain vs cycle Ask workloads on BG-like and "
               "PG-like engines\n(gMark Bib graph, " << nodes
            << " nodes; timeout " << timeout_ms
            << "ms per query; workloads of " << workload_size
            << " queries; paper: 100k nodes, 300s timeout)\n\n";

  gmark::Schema schema = gmark::Schema::Bib();
  store::TripleStore store;
  gmark::GraphGenOptions gopts;
  gopts.num_nodes = nodes;
  gopts.seed = 42;
  gmark::GenerateGraph(schema, gopts, store);
  std::cout << "Graph: " << util::WithThousands(
                   static_cast<long long>(store.size()))
            << " triples\n\n";

  store::GraphEngine bg(store);
  store::RelationalEngine pg(store);
  nanoseconds timeout = milliseconds(timeout_ms);

  util::Table table({"Workload", "chainBG avg ns", "chainPG avg ns",
                     "cycleBG avg ns", "cyclePG avg ns", "cyclePG t/o"});
  util::Table timeouts({"W-x", "%t/o (cyclePG)", "Paper"});
  const char* paper_to[] = {"18%", "34%", "43%", "39%", "43%", "30%"};

  for (int len = 3; len <= 8; ++len) {
    double avg_ns[4] = {0, 0, 0, 0};
    int cycle_pg_to = 0;
    for (int shape = 0; shape < 2; ++shape) {
      gmark::QueryGenOptions qopts;
      qopts.shape =
          shape == 0 ? gmark::QueryShape::kChain : gmark::QueryShape::kCycle;
      qopts.length = len;
      qopts.workload_size = workload_size;
      qopts.seed = static_cast<uint64_t>(1000 + len);
      auto workload = gmark::GenerateWorkload(schema, qopts);
      int evaluated = 0;
      for (const auto& q : workload) {
        auto bgp = gmark::CompileForEngine(q, store, schema);
        if (!bgp.has_value()) continue;
        ++evaluated;
        store::EvalStats a = bg.Evaluate(*bgp, store::EvalMode::kAsk,
                                         timeout);
        store::EvalStats b = pg.Evaluate(*bgp, store::EvalMode::kAsk,
                                         timeout);
        avg_ns[shape * 2 + 0] += a.elapsed_ns;
        avg_ns[shape * 2 + 1] += b.elapsed_ns;
        if (shape == 1 && b.timed_out) ++cycle_pg_to;
      }
      if (evaluated > 0) {
        avg_ns[shape * 2 + 0] /= evaluated;
        avg_ns[shape * 2 + 1] /= evaluated;
      }
      if (shape == 1 && evaluated > 0) {
        char buf[16];
        std::snprintf(buf, sizeof(buf), "%.0f%%",
                      100.0 * cycle_pg_to / evaluated);
        timeouts.AddRow({"W-" + std::to_string(len), buf,
                         paper_to[len - 3]});
      }
    }
    auto fmt = [](double v) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.3e", v);
      return std::string(buf);
    };
    table.AddRow({"W-" + std::to_string(len), fmt(avg_ns[0]),
                  fmt(avg_ns[1]), fmt(avg_ns[2]), fmt(avg_ns[3]),
                  std::to_string(cycle_pg_to)});
  }
  table.Print(std::cout);
  std::cout << "\nTimeout rates for cyclePG (Figure 3 bottom):\n";
  timeouts.Print(std::cout);
  std::cout << "\nExpected shape: BG < PG overall; cycle > chain on both "
               "engines; cyclePG shows timeouts (times include the full "
               "timeout per timed-out query, as in the paper).\n";
  return 0;
}
