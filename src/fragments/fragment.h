#ifndef SPARQLOG_FRAGMENTS_FRAGMENT_H_
#define SPARQLOG_FRAGMENTS_FRAGMENT_H_

#include "fragments/scratch.h"
#include "sparql/ast.h"

namespace sparqlog::fragments {

/// Membership of a query in the paper's CQ-like fragments (Section 5.2).
struct FragmentClass {
  /// Select or Ask query (the fragments are defined over these).
  bool select_or_ask = false;
  /// And/Opt/Filter pattern: body uses only triple patterns (no property
  /// paths), And, Opt, and Filter — no subqueries, Graph, Union, etc.
  bool aof = false;
  /// Conjunctive query: triples + And only (Definition 3.1).
  bool cq = false;
  /// Conjunctive pattern with filters: triples + And + Filter
  /// (Definition 4.1).
  bool cpf = false;
  /// CPF with only simple filters (Definition 5.2): each filter mentions
  /// at most one variable or is of the form ?x = ?y.
  bool cqf = false;
  /// Well-designed AOF pattern (Definition 5.3).
  bool well_designed = false;
  /// CQOF: well-designed pattern tree with interface width <= 1 and
  /// simple filters (Definition 5.5).
  bool cqof = false;

  /// All filters simple (meaningful when aof).
  bool simple_filters = false;
  /// Interface width of the pattern tree (meaningful when aof &&
  /// well_designed); -1 otherwise.
  int interface_width = -1;
  /// Number of triple patterns in the body.
  int num_triples = 0;
  /// Some triple uses a variable in predicate position (then only the
  /// hypergraph is meaningful; Section 6.2).
  bool var_predicate = false;
};

/// Classifies `q` against all fragments in one pass over the body plus,
/// for AOF bodies with OPTIONAL, one algebra translation on `scratch`
/// (pattern_tree.h). Allocates nothing once `scratch` is warm.
FragmentClass ClassifyFragment(const sparql::Query& q,
                               FragmentScratch& scratch);

/// The same, on the calling thread's scratch.
FragmentClass ClassifyFragment(const sparql::Query& q);

/// True iff the filter constraint is "simple" in the sense of
/// Definition 5.2.
bool IsSimpleFilter(const sparql::Expr& e);

}  // namespace sparqlog::fragments

#endif  // SPARQLOG_FRAGMENTS_FRAGMENT_H_
