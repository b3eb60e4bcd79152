#include "pipeline/paper_report.h"

#include <cstdio>
#include <string>

#include "analysis/operator_set.h"
#include "corpus/generator.h"
#include "corpus/profile.h"
#include "gmark/graph_gen.h"
#include "gmark/query_gen.h"
#include "pipeline/chunk_source.h"
#include "pipeline/pipeline.h"
#include "pipeline/streak_stage.h"
#include "store/engine.h"
#include "util/budget.h"
#include "util/strings.h"
#include "util/table.h"

namespace sparqlog::pipeline {
namespace {

// Figure 3's scaled-down setup (paper: 100k nodes, 100 queries per
// workload, 300 s timeout). The cap was picked from 25k / 50k / 100k /
// 200k / 500k steps as the one whose cyclePG capped shares come closest
// to the paper's timeout shares in total.
constexpr uint64_t kFigure3GraphNodes = 500;
constexpr int kFigure3WorkloadSize = 100;
constexpr uint64_t kFigure3StepCap = 100000;

/// Records what a run lost to containment, so the report cannot quietly
/// print numbers over a partial corpus.
void NoteProblems(const std::string& run, const PipelineResult& result,
                  std::vector<std::string>& problems) {
  if (result.stats.quarantined > 0) {
    problems.push_back(run + ": " + std::to_string(result.stats.quarantined) +
                       " line(s) quarantined");
  }
  if (result.stats.abandoned > 0) {
    problems.push_back(run + ": " + std::to_string(result.stats.abandoned) +
                       " query(ies) abandoned");
  }
  if (!result.source_status.ok()) {
    problems.push_back(run + ": source failed (" +
                       result.source_status.ToString() + ")");
  }
}

// Table 1: "Sizes of query logs in our corpus" — Total / Valid / Unique
// query counts per dataset, via the full cleaning -> parsing ->
// deduplication pipeline over the calibrated synthetic logs (scaled;
// relative percentages match the paper).
void PrintTable1(std::ostream& out, const PaperReport& report) {
  out << "Table 1: sizes of query logs (synthetic corpus, scale="
      << report.scale << ")\n\n";

  util::Table table({"Source", "Total #Q", "Valid #Q", "Unique #Q",
                     "Valid%", "Unique/Valid%"});
  corpus::CorpusStats totals;
  for (const auto& run : report.datasets) {
    totals.total += run.stats.total;
    totals.valid += run.stats.valid;
    totals.unique += run.stats.unique;
    table.AddRow({run.name,
                  util::WithThousands(static_cast<long long>(run.stats.total)),
                  util::WithThousands(static_cast<long long>(run.stats.valid)),
                  util::WithThousands(static_cast<long long>(run.stats.unique)),
                  util::Percent(static_cast<double>(run.stats.valid),
                                static_cast<double>(run.stats.total)),
                  util::Percent(static_cast<double>(run.stats.unique),
                                static_cast<double>(run.stats.valid))});
  }
  table.AddSeparator();
  table.AddRow({"Total",
                util::WithThousands(static_cast<long long>(totals.total)),
                util::WithThousands(static_cast<long long>(totals.valid)),
                util::WithThousands(static_cast<long long>(totals.unique)),
                util::Percent(static_cast<double>(totals.valid),
                              static_cast<double>(totals.total)),
                util::Percent(static_cast<double>(totals.unique),
                              static_cast<double>(totals.valid))});
  table.Print(out);
  out << "\nPaper (Table 1): Total 180,653,910 / Valid 173,798,237 "
         "(96.2%) / Unique 56,164,661 (32.3% of valid)\n";
}

// Table 2 ("Keyword count in queries", unique corpus) plus the Section
// 4.4 subquery/projection numbers.
void PrintTable2(std::ostream& out, double scale,
                 const corpus::CorpusAnalyzer& analyzer) {
  const corpus::KeywordCounts& kw = analyzer.keywords();
  double total = static_cast<double>(kw.total);

  out << "Table 2: keyword counts, unique corpus (scale=" << scale << ", "
      << util::WithThousands(static_cast<long long>(kw.total))
      << " queries)\n\n";
  util::Table table({"Element", "Absolute", "Relative", "Paper"});
  auto row = [&](const char* name, uint64_t count, const char* paper) {
    table.AddRow({name,
                  util::WithThousands(static_cast<long long>(count)),
                  util::Percent(static_cast<double>(count), total), paper});
  };
  row("Select", kw.select, "87.97%");
  row("Ask", kw.ask, "4.97%");
  row("Describe", kw.describe, "4.49%");
  row("Construct", kw.construct, "2.47%");
  table.AddSeparator();
  row("Distinct", kw.distinct, "21.72%");
  row("Limit", kw.limit, "17.00%");
  row("Offset", kw.offset, "6.15%");
  row("Order By", kw.order_by, "2.06%");
  table.AddSeparator();
  row("Filter", kw.filter, "40.15%");
  row("And", kw.conj, "28.25%");
  row("Union", kw.union_, "18.63%");
  row("Opt", kw.optional, "16.21%");
  row("Graph", kw.graph, "2.71%");
  row("Not Exists", kw.not_exists, "1.65%");
  row("Minus", kw.minus, "1.36%");
  row("Exists", kw.exists, "0.01%");
  table.AddSeparator();
  row("Count", kw.count, "0.57%");
  row("Max", kw.max, "0.01%");
  row("Min", kw.min, "0.01%");
  row("Avg", kw.avg, "<0.01%");
  row("Sum", kw.sum, "<0.01%");
  row("Group By", kw.group_by, "0.30%");
  row("Having", kw.having, "0.02%");
  table.Print(out);

  const corpus::ProjectionStats& pj = analyzer.projection();
  out << "\nSection 4.4 (subqueries and projection):\n";
  out << "  subqueries: "
      << util::Percent(static_cast<double>(pj.with_subqueries), total)
      << " (paper: 0.54%)\n";
  out << "  projection: "
      << util::Percent(static_cast<double>(pj.with_projection), total)
      << " (paper: 14.98%; Select "
      << util::Percent(static_cast<double>(pj.select_with_projection), total)
      << " + Ask "
      << util::Percent(static_cast<double>(pj.ask_with_projection), total)
      << ")\n";
  out << "  indeterminate (Bind/AS): "
      << util::Percent(static_cast<double>(pj.indeterminate), total)
      << " (paper: 1.3%)\n";
}

// Table 3: sets of operators used in Select/Ask query bodies over
// O = {Filter, And, Opt, Graph, Union}, with the paper's CPF subtotal
// and CPF+O / CPF+G / CPF+U increments.
void PrintTable3(std::ostream& out, double scale,
                 const corpus::CorpusAnalyzer& analyzer) {
  using analysis::QueryFeatures;
  const analysis::OperatorSetDistribution& dist = analyzer.operator_sets();
  double total = static_cast<double>(dist.total);

  out << "Table 3: operator sets in Select/Ask queries (scale=" << scale
      << ", " << util::WithThousands(static_cast<long long>(dist.total))
      << " queries)\n\n";
  util::Table table({"Operator Set", "Absolute", "Relative", "Paper"});
  auto row = [&](uint8_t mask, const char* paper) {
    table.AddRow({analysis::OperatorSetName(mask),
                  util::WithThousands(
                      static_cast<long long>(dist.Exact(mask))),
                  util::Percent(static_cast<double>(dist.Exact(mask)), total),
                  paper});
  };
  constexpr uint8_t F = QueryFeatures::kOpF, A = QueryFeatures::kOpA,
                    O = QueryFeatures::kOpO, G = QueryFeatures::kOpG,
                    U = QueryFeatures::kOpU;
  row(0, "33.49%");
  row(F, "19.04%");
  row(A, "7.49%");
  row(A | F, "6.25%");
  table.AddRow({"CPF subtotal",
                util::WithThousands(
                    static_cast<long long>(dist.CpfSubtotal())),
                util::Percent(static_cast<double>(dist.CpfSubtotal()), total),
                "66.27%"});
  table.AddSeparator();
  row(O, "1.04%");
  row(O | F, "3.43%");
  row(A | O, "3.31%");
  row(A | O | F, "0.78%");
  table.AddRow({"CPF+O",
                "+" + util::WithThousands(
                          static_cast<long long>(dist.CpfPlus(O))),
                "+" + util::Percent(static_cast<double>(dist.CpfPlus(O)),
                                    total),
                "+8.56%"});
  table.AddSeparator();
  row(G, "2.65%");
  table.AddRow({"CPF+G",
                "+" + util::WithThousands(
                          static_cast<long long>(dist.CpfPlus(G))),
                "+" + util::Percent(static_cast<double>(dist.CpfPlus(G)),
                                    total),
                "+2.74%"});
  table.AddSeparator();
  row(U, "7.46%");
  row(U | F, "0.38%");
  row(A | U, "1.57%");
  row(A | U | F, "1.56%");
  table.AddRow({"CPF+U",
                "+" + util::WithThousands(
                          static_cast<long long>(dist.CpfPlus(U))),
                "+" + util::Percent(static_cast<double>(dist.CpfPlus(U)),
                                    total),
                "+10.97%"});
  table.AddSeparator();
  row(A | O | U | F, "7.82%");
  table.Print(out);

  out << "\nOther combinations from O: "
      << util::Percent(static_cast<double>(dist.OtherCombinations()), total)
      << " (paper: 0.30%); features outside O: "
      << util::Percent(static_cast<double>(dist.other), total)
      << " (paper: 3.33%)\n";
}

// Table 4 (cumulative shape analysis of CQ / CQF / CQOF), the girth
// statistics of Section 6.1, and the hypergraph widths of Section 6.2
// (variable-predicate CQOF queries).
void PrintTable4(std::ostream& out, const corpus::CorpusAnalyzer& analyzer) {
  out << "Table 4: cumulative shape analysis of CQ / CQF / CQOF "
         "(canonical graphs; variable-predicate queries excluded)\n\n";
  const corpus::ShapeCounts* cols[3] = {&analyzer.cq_shapes(),
                                        &analyzer.cqf_shapes(),
                                        &analyzer.cqof_shapes()};
  util::Table table({"Shape", "CQ", "CQ %", "CQF", "CQF %", "CQOF",
                     "CQOF %", "Paper CQ%"});
  auto row = [&](const char* name,
                 uint64_t corpus::ShapeCounts::*member, const char* paper) {
    std::vector<std::string> cells = {name};
    for (const corpus::ShapeCounts* sc : cols) {
      cells.push_back(
          util::WithThousands(static_cast<long long>(sc->*member)));
      cells.push_back(util::Percent(static_cast<double>(sc->*member),
                                    static_cast<double>(sc->total)));
    }
    cells.push_back(paper);
    table.AddRow(std::move(cells));
  };
  row("single edge", &corpus::ShapeCounts::single_edge, "77.98%");
  row("chain", &corpus::ShapeCounts::chain, "98.87%");
  row("chain set", &corpus::ShapeCounts::chain_set, "98.93%");
  row("star", &corpus::ShapeCounts::star, "0.94%");
  row("tree", &corpus::ShapeCounts::tree, "99.90%");
  row("forest", &corpus::ShapeCounts::forest, "99.95%");
  row("cycle", &corpus::ShapeCounts::cycle, "0.03%");
  row("flower", &corpus::ShapeCounts::flower, "99.94%");
  row("flower set", &corpus::ShapeCounts::flower_set, "100.00%");
  row("treewidth <= 2", &corpus::ShapeCounts::treewidth_le2, "100.00%");
  row("treewidth = 3", &corpus::ShapeCounts::treewidth_3, "1 query");
  {
    std::vector<std::string> cells = {"total"};
    for (const corpus::ShapeCounts* sc : cols) {
      cells.push_back(util::WithThousands(static_cast<long long>(sc->total)));
      cells.push_back("100.00%");
    }
    cells.push_back("");
    table.AddRow(std::move(cells));
  }
  table.Print(out);

  out << "\nConstants: "
      << util::Percent(
             static_cast<double>(
                 analyzer.cq_shapes().single_edge_with_constants),
             static_cast<double>(analyzer.cq_shapes().single_edge))
      << " of single-edge CQs use constants (paper: 78.70%)\n";

  out << "\nShortest cycles in cyclic queries (Section 6.1; paper: "
         "len 3: 39,471; len 4: 6,561; len 5: 5,733; max 14):\n";
  util::Table girth({"Cycle length", "CQOF queries"});
  for (const auto& [len, count] : analyzer.cqof_shapes().girth) {
    girth.AddRow({std::to_string(len),
                  util::WithThousands(static_cast<long long>(count))});
  }
  girth.Print(out);

  const corpus::HypergraphStats& hg = analyzer.hypergraphs();
  out << "\nSection 6.2: generalized hypertree width of "
         "variable-predicate CQOF queries (paper: all width 1 except "
         "86 with width 2 and 8 with width 3):\n";
  util::Table ghw({"ghw", "Queries"});
  ghw.AddRow({"1", util::WithThousands(static_cast<long long>(hg.ghw1))});
  ghw.AddRow({"2", util::WithThousands(static_cast<long long>(hg.ghw2))});
  ghw.AddRow({"3", util::WithThousands(static_cast<long long>(hg.ghw3))});
  ghw.AddRow({">3", util::WithThousands(static_cast<long long>(hg.ghw_more))});
  ghw.Print(out);
  out << "Decompositions with >10 nodes: " << hg.decompositions_gt10_nodes
      << ", >100 nodes: " << hg.decompositions_gt100_nodes
      << " (paper: several hundred with >100 nodes)\n";
}

// Table 5: structure of navigational property paths (expression-type
// taxonomy), the trivial !a / ^a counts, the reverse-navigation share,
// and the C_tract census of Section 7.
void PrintTable5(std::ostream& out, double scale,
                 const corpus::CorpusAnalyzer& analyzer) {
  const corpus::PathStats& ps = analyzer.paths();

  out << "Section 7: property paths in the corpus (scale=" << scale
      << ")\n\n";
  out << "Total property paths: "
      << util::WithThousands(static_cast<long long>(ps.total_paths))
      << " (paper: 247,404)\n";
  out << "Trivial !a: "
      << util::WithThousands(static_cast<long long>(ps.trivial_negated))
      << " (paper: 63,039), trivial ^a: "
      << util::WithThousands(static_cast<long long>(ps.trivial_inverse))
      << " (paper: 306)\n";
  out << "Navigational: "
      << util::WithThousands(static_cast<long long>(ps.navigational))
      << " (paper: 184,059), of which with reverse navigation: "
      << util::Percent(static_cast<double>(ps.with_inverse),
                       static_cast<double>(ps.navigational))
      << " (paper: 36%)\n\n";

  util::Table table({"Expression Type", "Absolute", "Relative", "Paper"});
  struct PaperRow {
    paths::PathType type;
    const char* paper;
  };
  const PaperRow rows[] = {
      {paths::PathType::kStarOfAlt, "39.12%"},
      {paths::PathType::kStar, "26.42%"},
      {paths::PathType::kSeq, "11.65%"},
      {paths::PathType::kStarSeqLink, "10.39%"},
      {paths::PathType::kAlt, "8.72%"},
      {paths::PathType::kPlus, "2.07%"},
      {paths::PathType::kSeqOfOpts, "1.55%"},
      {paths::PathType::kLinkSeqAlt, "0.02%"},
      {paths::PathType::kSeqLinkOpts, "0.02%"},
      {paths::PathType::kAltSeqStarLink, "0.01%"},
      {paths::PathType::kStarSeqOpt, "0.01%"},
      {paths::PathType::kSeqSeqStar, "0.01%"},
      {paths::PathType::kNegatedAlt, "0.01%"},
      {paths::PathType::kPlusOfAlt, "0.01%"},
      {paths::PathType::kAltAltSeq, "<0.01%"},
      {paths::PathType::kOptAltLink, "<0.01%"},
      {paths::PathType::kStarAltLink, "<0.01%"},
      {paths::PathType::kOptOfAlt, "<0.01%"},
      {paths::PathType::kLinkAltPlus, "<0.01%"},
      {paths::PathType::kPlusAltPlus, "<0.01%"},
      {paths::PathType::kStarOfSeq, "<0.01% (1 query)"},
  };
  double nav = static_cast<double>(ps.navigational);
  for (const PaperRow& r : rows) {
    auto it = ps.by_type.find(r.type);
    uint64_t count = it == ps.by_type.end() ? 0 : it->second;
    table.AddRow({paths::PathTypeName(r.type),
                  util::WithThousands(static_cast<long long>(count)),
                  util::Percent(static_cast<double>(count), nav), r.paper});
  }
  table.Print(out);

  out << "\nExpressions outside C_tract: "
      << util::WithThousands(static_cast<long long>(ps.not_ctract))
      << " (paper: exactly one, (a/b)*)\n";
}

// Figure 1: per-dataset distribution of the number of triples in
// Select/Ask queries (buckets 0..10, 11+), plus the S/A share and
// average triple count rows from the figure's bottom table.
void PrintFigure1(std::ostream& out, const corpus::CorpusAnalyzer& analyzer) {
  out << "Figure 1: #triples per Select/Ask query, per dataset "
         "(columns are % of the dataset's S/A queries)\n\n";
  std::vector<std::string> header = {"Dataset"};
  for (int b = 0; b <= 10; ++b) header.push_back(std::to_string(b));
  header.push_back("11+");
  header.push_back("S/A%");
  header.push_back("Avg#T");
  util::Table table(header);

  auto profiles = corpus::PaperProfiles();
  for (const auto& profile : profiles) {
    auto it = analyzer.per_dataset().find(profile.name);
    if (it == analyzer.per_dataset().end()) continue;
    const corpus::TripleStats& ts = it->second;
    std::vector<std::string> row = {profile.name};
    double sa = static_cast<double>(ts.select_ask);
    for (int b = 0; b <= 10; ++b) {
      row.push_back(
          util::Percent(static_cast<double>(ts.histogram.Count(b)), sa));
    }
    row.push_back(
        util::Percent(static_cast<double>(ts.histogram.Overflow()), sa));
    row.push_back(util::Percent(sa, static_cast<double>(ts.all_queries)));
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2f", ts.AvgTriples());
    row.push_back(buf);
    table.AddRow(std::move(row));
  }
  table.Print(out);

  // Aggregate cumulative claims from Section 4.2.
  uint64_t le1 = 0, le6 = 0, sa_total = 0;
  for (const auto& [name, ts] : analyzer.per_dataset()) {
    sa_total += ts.select_ask;
    for (int b = 0; b <= 6; ++b) {
      if (b <= 1) le1 += ts.histogram.Count(b);
      le6 += ts.histogram.Count(b);
    }
  }
  out << "\nSelect/Ask queries with <=1 triple: "
      << util::Percent(static_cast<double>(le1),
                       static_cast<double>(sa_total))
      << " (paper: 56.45%), <=6: "
      << util::Percent(static_cast<double>(le6),
                       static_cast<double>(sa_total))
      << " (paper: 90.76%)\n";
  out << "Paper bottom row Avg#T: DBpedia9/12 2.38, DBpedia13 3.98, "
         "DBpedia14 2.09, DBpedia15 2.94, DBpedia16 3.78, LGD13 3.19, "
         "LGD14 2.65, BioP13 1.16, BioP14 1.42, BioMed13 2.44, "
         "SWDF13 1.51, BritM14 5.47, WikiData17 3.94\n";
}

// Figure 5 ("Size of CQ-like queries with at least two triples") and the
// Section 5.2 fragment shares: CQ, CQF, CQOF as fractions of the AOF
// patterns, plus the 1-triple fractions.
void PrintFigure5(std::ostream& out, const corpus::CorpusAnalyzer& analyzer) {
  const corpus::FragmentStats& fs = analyzer.fragments();

  out << "Section 5.2 fragment shares (Select/Ask with body: "
      << util::WithThousands(static_cast<long long>(fs.select_ask))
      << ")\n\n";
  util::Table shares({"Fragment", "Absolute", "% of AOF", "Paper"});
  double aof = static_cast<double>(fs.aof);
  shares.AddRow({"AOF",
                 util::WithThousands(static_cast<long long>(fs.aof)),
                 "100%", "74.83% of Select/Ask"});
  shares.AddRow({"CQ", util::WithThousands(static_cast<long long>(fs.cq)),
                 util::Percent(static_cast<double>(fs.cq), aof), "54.58%"});
  shares.AddRow({"CQF", util::WithThousands(static_cast<long long>(fs.cqf)),
                 util::Percent(static_cast<double>(fs.cqf), aof), "84.08%"});
  shares.AddRow({"well-designed",
                 util::WithThousands(
                     static_cast<long long>(fs.well_designed)),
                 util::Percent(static_cast<double>(fs.well_designed), aof),
                 "98.53%"});
  shares.AddRow({"CQOF",
                 util::WithThousands(static_cast<long long>(fs.cqof)),
                 util::Percent(static_cast<double>(fs.cqof), aof),
                 "93.87%"});
  shares.AddRow({"interface width > 1",
                 util::WithThousands(
                     static_cast<long long>(fs.wide_interface)),
                 util::Percent(static_cast<double>(fs.wide_interface), aof),
                 "310 queries"});
  shares.Print(out);

  out << "\nFigure 5: size distribution of CQ-like queries with >= 2 "
         "triples (column = % of the fragment's >=2-triple "
         "queries)\n\n";
  util::Table table({"Size", "CQ", "CQF", "CQOF"});
  auto multi = [](const util::BucketHistogram& h) {
    uint64_t total = 0;
    for (int b = 2; b <= 10; ++b) total += h.Count(b);
    return total + h.Overflow();
  };
  uint64_t cq_multi = multi(fs.cq_sizes);
  uint64_t cqf_multi = multi(fs.cqf_sizes);
  uint64_t cqof_multi = multi(fs.cqof_sizes);
  for (int b = 2; b <= 10; ++b) {
    table.AddRow({std::to_string(b),
                  util::Percent(static_cast<double>(fs.cq_sizes.Count(b)),
                                static_cast<double>(cq_multi)),
                  util::Percent(static_cast<double>(fs.cqf_sizes.Count(b)),
                                static_cast<double>(cqf_multi)),
                  util::Percent(static_cast<double>(fs.cqof_sizes.Count(b)),
                                static_cast<double>(cqof_multi))});
  }
  table.AddRow({"11+",
                util::Percent(static_cast<double>(fs.cq_sizes.Overflow()),
                              static_cast<double>(cq_multi)),
                util::Percent(static_cast<double>(fs.cqf_sizes.Overflow()),
                              static_cast<double>(cqf_multi)),
                util::Percent(static_cast<double>(fs.cqof_sizes.Overflow()),
                              static_cast<double>(cqof_multi))});
  table.Print(out);

  auto one_share = [](const util::BucketHistogram& h) {
    return util::Percent(static_cast<double>(h.Count(1)),
                         static_cast<double>(h.Total()));
  };
  out << "\n1-triple fractions: CQ " << one_share(fs.cq_sizes)
      << " (paper 82%), CQF " << one_share(fs.cqf_sizes)
      << " (paper 83.45%), CQOF " << one_share(fs.cqof_sizes)
      << " (paper 75.52%)\n";
}

// The appendix results (Tables 7, 8, 9 and Figures 8, 9, 10): the same
// analyses as Tables 2-5 / Figures 1, 5 but over the *Valid* corpus
// (duplicates included). The paper observes that larger and more
// complex queries occur relatively more often in the duplicate-free
// (unique) corpus.
void PrintAppendix(std::ostream& out, double scale,
                   const corpus::CorpusAnalyzer& analyzer) {
  const corpus::KeywordCounts& kw = analyzer.keywords();
  double total = static_cast<double>(kw.total);

  out << "Appendix: analyses over the Valid corpus (duplicates "
         "included; scale=" << scale << ", "
      << util::WithThousands(static_cast<long long>(kw.total))
      << " queries)\n\n";

  out << "Table 7: keyword counts (valid corpus)\n";
  util::Table t7({"Element", "Absolute", "Relative"});
  auto row7 = [&](const char* name, uint64_t count) {
    t7.AddRow({name, util::WithThousands(static_cast<long long>(count)),
               util::Percent(static_cast<double>(count), total)});
  };
  row7("Select", kw.select);
  row7("Ask", kw.ask);
  row7("Describe", kw.describe);
  row7("Construct", kw.construct);
  row7("Distinct", kw.distinct);
  row7("Limit", kw.limit);
  row7("Offset", kw.offset);
  row7("Order By", kw.order_by);
  row7("Filter", kw.filter);
  row7("And", kw.conj);
  row7("Union", kw.union_);
  row7("Opt", kw.optional);
  row7("Graph", kw.graph);
  t7.Print(out);

  const analysis::OperatorSetDistribution& dist = analyzer.operator_sets();
  out << "\nTable 8: operator sets (valid corpus); CPF subtotal: "
      << util::Percent(static_cast<double>(dist.CpfSubtotal()),
                       static_cast<double>(dist.total))
      << " (paper: 44.17%)\n";

  out << "\nFigure 8: per-dataset Avg#T over the valid corpus:\n";
  util::Table f8({"Dataset", "Avg#T", "S/A%"});
  for (const auto& [name, ts] : analyzer.per_dataset()) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2f", ts.AvgTriples());
    f8.AddRow({name, buf,
               util::Percent(static_cast<double>(ts.select_ask),
                             static_cast<double>(ts.all_queries))});
  }
  f8.Print(out);

  const corpus::FragmentStats& fs = analyzer.fragments();
  out << "\nFigure 9: fragment shares (valid corpus): CQ "
      << util::Percent(static_cast<double>(fs.cq),
                       static_cast<double>(fs.aof))
      << ", CQF "
      << util::Percent(static_cast<double>(fs.cqf),
                       static_cast<double>(fs.aof))
      << ", CQOF "
      << util::Percent(static_cast<double>(fs.cqof),
                       static_cast<double>(fs.aof))
      << " of AOF\n";

  out << "\nTable 9: shape analysis (valid corpus, CQ column):\n";
  const corpus::ShapeCounts& cq = analyzer.cq_shapes();
  util::Table t9({"Shape", "#Queries", "Relative %", "Paper"});
  auto row9 = [&](const char* name, uint64_t v, const char* paper) {
    t9.AddRow({name, util::WithThousands(static_cast<long long>(v)),
               util::Percent(static_cast<double>(v),
                             static_cast<double>(cq.total)),
               paper});
  };
  row9("single edge", cq.single_edge, "82.79%");
  row9("chain", cq.chain, "98.40%");
  row9("chain set", cq.chain_set, "98.60%");
  row9("star", cq.star, "1.24%");
  row9("tree", cq.tree, "99.68%");
  row9("forest", cq.forest, "99.89%");
  row9("cycle", cq.cycle, "0.10%");
  row9("flower", cq.flower, "99.79%");
  row9("flower set", cq.flower_set, "99.99%");
  row9("treewidth <= 2", cq.treewidth_le2, "100.00%");
  t9.Print(out);

  const corpus::PathStats& ps = analyzer.paths();
  out << "\nFigure 10: property paths (valid corpus): total "
      << util::WithThousands(static_cast<long long>(ps.total_paths))
      << ", navigational "
      << util::WithThousands(static_cast<long long>(ps.navigational))
      << ", outside C_tract "
      << util::WithThousands(static_cast<long long>(ps.not_ctract))
      << " (paper: 1)\n";
}

// Table 6: streak-length histogram over three single-day DBpedia logs
// (window 30, normalized Levenshtein <= 25% after prefix removal).
void PrintTable6(std::ostream& out,
                 const std::array<streaks::StreakReport, 3>& reports) {
  out << "Table 6: streak lengths in three single-day logs "
         "(window 30, Levenshtein <= 25%)\n\n";
  util::Table table({"Streak length", "#DBP'14", "#DBP'15", "#DBP'16",
                     "Paper '16"});
  const char* paper16[] = {"199,375", "37,402", "17,749", "5,849", "1,998",
                           "711",     "357",    "129",    "54",    "27",
                           "24"};
  for (int b = 0; b < 11; ++b) {
    std::string label = b < 10 ? std::to_string(b * 10 + 1) + "-" +
                                     std::to_string(b * 10 + 10)
                               : ">100";
    table.AddRow({label,
                  util::WithThousands(
                      static_cast<long long>(reports[0].counts[b])),
                  util::WithThousands(
                      static_cast<long long>(reports[1].counts[b])),
                  util::WithThousands(
                      static_cast<long long>(reports[2].counts[b])),
                  paper16[b]});
  }
  table.Print(out);
  out << "\nLongest streaks: " << reports[0].longest << " / "
      << reports[1].longest << " / " << reports[2].longest
      << " (paper: longest 169, in the 2016 log)\n";
}

// Figure 3: mean work per query of chain and cycle Ask workloads on the
// BG-like and PG-like engines, and the share of cyclePG queries that
// reached the cap next to the paper's timeout share (Figure 3 bottom).
void PrintFigure3(std::ostream& out, const std::vector<Figure3Row>& rows) {
  out << "Figure 3: chain vs cycle Ask workloads on BG-like and PG-like "
         "engines\n(gMark Bib graph, "
      << kFigure3GraphNodes << " nodes; " << kFigure3WorkloadSize
      << " queries per workload; cap "
      << util::WithThousands(static_cast<long long>(kFigure3StepCap))
      << " steps per query; paper: 100k nodes, 300 s timeout)\n\n";
  util::Table table({"Workload", "chainBG", "chainPG", "cycleBG", "cyclePG",
                     "cyclePG capped", "Paper t/o"});
  const char* paper_timeouts[] = {"18%", "34%", "43%", "39%", "43%", "30%"};
  for (size_t i = 0; i < rows.size(); ++i) {
    const Figure3Row& row = rows[i];
    std::vector<std::string> cells = {"W-" + std::to_string(row.length)};
    for (size_t k = 0; k < row.steps.size(); ++k) {
      uint64_t queries = row.queries[k / 2];
      cells.push_back(util::WithThousands(static_cast<long long>(
          queries == 0 ? 0 : (row.steps[k] + queries / 2) / queries)));
    }
    cells.push_back(util::Percent(static_cast<double>(row.cycle_pg_capped),
                                  static_cast<double>(row.queries[1])));
    cells.push_back(paper_timeouts[i]);
    table.AddRow(std::move(cells));
  }
  table.Print(out);
  out << "\nMean steps per query (one step per tuple probed or "
         "materialized; a capped query counts the whole cap, as the paper "
         "counts the whole timeout). Paper: BG < PG and chain < cycle on "
         "both engines; cyclePG times out on 18-43% of each workload.\n";
}

}  // namespace

std::vector<std::vector<std::string>> Table6DayLogs(size_t base_queries) {
  struct Day {
    const char* dataset;
    size_t queries;
    double session_rate;
  };
  const Day days[] = {
      {"DBpedia14", base_queries, 0.20},
      {"DBpedia15", base_queries * 3, 0.25},
      {"DBpedia16", base_queries * 37 / 10, 0.35},
  };
  auto profiles = corpus::PaperProfiles();
  std::vector<std::vector<std::string>> logs;
  for (int d = 0; d < 3; ++d) {
    logs.push_back(corpus::GenerateStreakLog(
        corpus::ProfileByName(profiles, days[d].dataset), days[d].queries,
        days[d].session_rate, static_cast<uint64_t>(77 + d)));
  }
  return logs;
}

std::vector<Figure3Row> RunFigure3() {
  const gmark::Schema schema = gmark::Schema::Bib();
  store::TripleStore graph;
  gmark::GraphGenOptions graph_options;
  graph_options.num_nodes = kFigure3GraphNodes;
  gmark::GenerateGraph(schema, graph_options, graph);
  const store::GraphEngine bg(graph);
  const store::RelationalEngine pg(graph);

  std::vector<Figure3Row> rows;
  for (int length = 3; length <= 8; ++length) {
    Figure3Row row;
    row.length = length;
    for (size_t shape = 0; shape < 2; ++shape) {
      gmark::QueryGenOptions options;
      options.shape =
          shape == 0 ? gmark::QueryShape::kChain : gmark::QueryShape::kCycle;
      options.length = length;
      options.workload_size = kFigure3WorkloadSize;
      options.seed = static_cast<uint64_t>(1000 + length);
      for (const gmark::GeneratedQuery& q :
           gmark::GenerateWorkload(schema, options)) {
        auto bgp = gmark::CompileForEngine(q, graph);
        if (!bgp.has_value()) continue;
        ++row.queries[shape];
        util::StepBudget bg_budget(kFigure3StepCap), pg_budget(kFigure3StepCap);
        row.steps[shape * 2] +=
            bg.Evaluate(*bgp, store::EvalMode::kAsk, &bg_budget).steps;
        store::EvalStats pg_stats =
            pg.Evaluate(*bgp, store::EvalMode::kAsk, &pg_budget);
        row.steps[shape * 2 + 1] += pg_stats.steps;
        if (shape == 1 && pg_stats.capped) ++row.cycle_pg_capped;
      }
    }
    rows.push_back(row);
  }
  return rows;
}

PaperReport RunPaperReport(double scale, size_t streak_queries) {
  PaperReport report;
  report.scale = scale;
  auto profiles = corpus::PaperProfiles();
  for (size_t i = 0; i < profiles.size(); ++i) {
    corpus::GeneratorOptions gen_options;
    gen_options.scale = scale;
    gen_options.min_entries = 300;
    gen_options.seed = 2017 + i;
    const std::vector<std::string> log =
        corpus::SyntheticLogGenerator(profiles[i], gen_options).GenerateLog();
    for (bool use_valid_corpus : {false, true}) {
      PipelineOptions options;
      options.dataset = profiles[i].name;
      options.use_valid_corpus = use_valid_corpus;
      VectorChunkSource source(log);
      PipelineResult result = ParallelLogPipeline(options).Run(source);
      NoteProblems(profiles[i].name +
                       (use_valid_corpus ? " (valid corpus)" : ""),
                   result, report.problems);
      if (use_valid_corpus) {
        report.valid.MergeFrom(result.analysis);
      } else {
        report.unique.MergeFrom(result.analysis);
        report.datasets.push_back({profiles[i].name, result.stats});
      }
    }
  }

  std::vector<std::vector<std::string>> days = Table6DayLogs(streak_queries);
  for (size_t d = 0; d < days.size(); ++d) {
    report.days[d] = StreakStage().Run(days[d]).report;
  }
  report.figure3 = RunFigure3();
  return report;
}

void PrintPaperReport(std::ostream& out, const PaperReport& report) {
  PrintTable1(out, report);
  PrintTable2(out, report.scale, report.unique);
  PrintTable3(out, report.scale, report.unique);
  PrintTable4(out, report.unique);
  PrintTable5(out, report.scale, report.unique);
  PrintFigure1(out, report.unique);
  PrintFigure5(out, report.unique);
  PrintAppendix(out, report.scale, report.valid);
  PrintTable6(out, report.days);
  PrintFigure3(out, report.figure3);
}

void PrintQuerySummary(std::ostream& out, const corpus::CorpusAnalyzer& a) {
  const corpus::KeywordCounts& kw = a.keywords();
  double total = static_cast<double>(kw.total);
  util::Table forms({"Form", "Share"});
  forms.AddRow({"Select", util::Percent(static_cast<double>(kw.select), total)});
  forms.AddRow({"Ask", util::Percent(static_cast<double>(kw.ask), total)});
  forms.AddRow({"Describe",
                util::Percent(static_cast<double>(kw.describe), total)});
  forms.AddRow({"Construct",
                util::Percent(static_cast<double>(kw.construct), total)});
  forms.Print(out);

  const corpus::FragmentStats& fs = a.fragments();
  out << "\nFragments (of " << fs.select_ask << " Select/Ask): CQ " << fs.cq
      << ", CQF " << fs.cqf << ", AOF " << fs.aof << ", well-designed "
      << fs.well_designed << ", CQOF " << fs.cqof << "\n";

  const corpus::ShapeCounts& cq = a.cq_shapes();
  if (cq.total > 0) {
    out << "\nCQ shapes: " << cq.single_edge << " single-edge, " << cq.chain
        << " chains, " << cq.star << " stars, " << cq.tree << " trees, "
        << cq.cycle << " cycles, " << cq.flower << " flowers (of "
        << cq.total << ")\n";
    out << "Treewidth: <=2: " << cq.treewidth_le2
        << ", =3: " << cq.treewidth_3 << "\n";
  }

  const corpus::PathStats& ps = a.paths();
  out << "\nProperty paths: " << ps.total_paths << " (" << ps.navigational
      << " navigational, " << ps.not_ctract << " outside C_tract)\n";
}

}  // namespace sparqlog::pipeline
