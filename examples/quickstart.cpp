// Quickstart: parse a SPARQL query and run the full per-query analysis
// pipeline of the paper — features, fragment membership, canonical
// graph shape, treewidth, and hypergraph width.
//
// Usage: quickstart ["SPARQL query text"]

#include <iostream>
#include <string>

#include "analysis/features.h"
#include "fragments/fragment.h"
#include "graph/canonical.h"
#include "graph/shapes.h"
#include "sparql/parser.h"
#include "sparql/serializer.h"
#include "width/hypertree.h"
#include "width/treewidth.h"

int main(int argc, char** argv) {
  using namespace sparqlog;

  std::string text =
      argc > 1 ? argv[1]
               : "SELECT ?label ?coord ?subj WHERE { "
                 "?subj wdt:P31/wdt:P279* wd:Q839954 . "
                 "?subj wdt:P625 ?coord . "
                 "?subj rdfs:label ?label FILTER(LANG(?label) = \"en\") }";

  auto parsed = sparql::ParseQuery(text);
  if (!parsed.ok()) {
    std::cerr << "Parse failed: " << parsed.status().ToString() << "\n";
    return 1;
  }
  const sparql::Query& q = parsed.value();
  std::cout << "Canonical form:\n" << sparql::Serialize(q) << "\n\n";

  // Recycled working state: one per thread, reused across queries.
  fragments::FragmentScratch scratch;
  analysis::QueryFeatures f = analysis::ExtractFeatures(q, scratch.vars);
  std::cout << "Triples: " << f.num_triples
            << ", filter: " << (f.filter ? "yes" : "no")
            << ", optional: " << (f.optional ? "yes" : "no")
            << ", property path: " << (f.property_path ? "yes" : "no")
            << "\n";
  std::cout << "Projection: "
            << (f.projection == analysis::ProjectionUse::kYes ? "yes"
                : f.projection == analysis::ProjectionUse::kNo
                    ? "no"
                    : "indeterminate")
            << "\n";

  fragments::FragmentClass fc = fragments::ClassifyFragment(q, scratch);
  std::cout << "Fragments: CQ=" << fc.cq << " CPF=" << fc.cpf
            << " CQF=" << fc.cqf << " AOF=" << fc.aof
            << " well-designed=" << fc.well_designed
            << " CQOF=" << fc.cqof << "\n";

  if (q.has_body && !f.property_path && !fc.var_predicate) {
    graph::CanonicalGraph cg = graph::BuildCanonicalGraph(q.where);
    if (cg.valid) {
      graph::ShapeClass s = graph::ClassifyShape(cg.graph);
      std::cout << "Canonical graph: " << cg.graph.num_nodes()
                << " nodes, " << cg.graph.num_edges() << " edges; shape: "
                << (s.single_edge ? "single-edge"
                    : s.chain     ? "chain"
                    : s.star      ? "star"
                    : s.tree      ? "tree"
                    : s.forest    ? "forest"
                    : s.cycle     ? "cycle"
                    : s.flower    ? "flower"
                                  : "complex")
                << "\n";
      std::cout << "Treewidth: " << width::Treewidth(cg.graph).width
                << "\n";
    }
  } else if (q.has_body) {
    std::vector<const sparql::TriplePattern*> triples;
    std::vector<const sparql::Expr*> filters;
    graph::CollectTriplesAndFilters(q.where, triples, filters);
    graph::Hypergraph hg = graph::BuildCanonicalHypergraph(triples, filters);
    width::GhwResult ghw = width::GeneralizedHypertreeWidth(hg);
    std::cout << "Canonical hypergraph: " << hg.num_nodes() << " nodes, "
              << hg.num_edges() << " edges; generalized hypertree width "
              << ghw.width << " (" << ghw.decomposition_nodes
              << " decomposition nodes)\n";
  }
  return 0;
}
