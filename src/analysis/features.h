#ifndef SPARQLOG_ANALYSIS_FEATURES_H_
#define SPARQLOG_ANALYSIS_FEATURES_H_

#include <cstdint>

#include "fragments/scratch.h"
#include "sparql/ast.h"

namespace sparqlog::analysis {

/// How a query uses projection (paper Section 4.4, SPARQL rec. 18.2.1).
enum class ProjectionUse {
  kNo,
  kYes,
  /// BIND / `AS` makes the in-scope variable set ambiguous for the
  /// syntactic test; the paper reports these separately (1.3%).
  kIndeterminate,
};

/// Per-query syntactic features: everything the shallow analysis
/// (Section 4 / Tables 2, 3 and Figure 1) needs, extracted in one AST walk.
struct QueryFeatures {
  sparql::QueryForm form = sparql::QueryForm::kSelect;
  bool has_body = false;

  // Solution modifiers (Table 2, block 2).
  bool distinct = false;
  bool reduced = false;
  bool has_limit = false;
  bool has_offset = false;
  bool has_order_by = false;
  bool has_group_by = false;
  bool has_having = false;

  // Body operators (Table 2, block 3). Presence flags; `conj` is the
  // paper's "And" (a group joining >= 2 pattern elements).
  bool filter = false;
  bool conj = false;
  bool union_ = false;
  bool optional = false;
  bool graph = false;
  bool minus = false;
  bool not_exists = false;
  bool exists = false;
  bool service = false;
  bool bind = false;
  bool values = false;
  bool subquery = false;
  bool property_path = false;
  /// Property path other than the trivial `!a` / `^a` forms (Section 7).
  bool navigational_path = false;
  bool var_predicate = false;

  // Aggregates (Table 2, block 4).
  bool agg_count = false;
  bool agg_max = false;
  bool agg_min = false;
  bool agg_avg = false;
  bool agg_sum = false;
  bool agg_sample = false;
  bool agg_group_concat = false;

  /// Number of triple patterns anywhere in the query (including
  /// subqueries and EXISTS patterns), as counted in Section 4.2.
  int num_triples = 0;

  ProjectionUse projection = ProjectionUse::kNo;

  /// Operator-set bitmask over O = {Filter, And, Opt, Graph, Union}
  /// (Table 3). Only for the *body* operators reachable without entering
  /// subqueries.
  static constexpr uint8_t kOpF = 1;
  static constexpr uint8_t kOpA = 2;
  static constexpr uint8_t kOpO = 4;
  static constexpr uint8_t kOpG = 8;
  static constexpr uint8_t kOpU = 16;
  uint8_t opset = 0;
  /// The body uses features outside O (Bind, Minus, subqueries, property
  /// paths, Service, Values, EXISTS filters) — the paper's 3.33% bucket.
  bool opset_other = false;
};

/// Extracts all features in a single traversal; the projection check
/// runs on `vars` (recycled working state, see ClassifyProjection).
QueryFeatures ExtractFeatures(const sparql::Query& q,
                              fragments::VariableTable& vars);

}  // namespace sparqlog::analysis

#endif  // SPARQLOG_ANALYSIS_FEATURES_H_
