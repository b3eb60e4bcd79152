#include "fragments/fragment.h"

#include <string_view>

#include "fragments/pattern_tree.h"

namespace sparqlog::fragments {

using sparql::Expr;
using sparql::ExprKind;
using sparql::Pattern;
using sparql::PatternKind;
using sparql::Query;
using sparql::QueryForm;

namespace {

struct BodyScan {
  bool only_triples_and = true;    // CQ-shaped body
  bool only_triples_and_f = true;  // CPF-shaped body
  bool aof = true;                 // + OPTIONAL
  bool simple_filters = true;
  bool var_predicate = false;
  int num_triples = 0;
};

void Scan(const Pattern& p, BodyScan& s) {
  switch (p.kind()) {
    case PatternKind::kTriple:
      ++s.num_triples;
      if (p.triple().has_path()) {
        s.only_triples_and = s.only_triples_and_f = s.aof = false;
      } else if (p.triple().predicate.is_variable()) {
        s.var_predicate = true;
      }
      return;
    case PatternKind::kGroup:
      break;
    case PatternKind::kFilter:
      s.only_triples_and = false;
      if (!IsSimpleFilter(p.expr())) s.simple_filters = false;
      // EXISTS embeds patterns: not AOF.
      if (ExprUsesPatterns(p.expr())) s.only_triples_and_f = s.aof = false;
      return;
    case PatternKind::kOptional:
      s.only_triples_and = s.only_triples_and_f = false;
      break;
    default:
      s.only_triples_and = s.only_triples_and_f = s.aof = false;
      // Still count triples below for statistics.
      break;
  }
  for (const Pattern& c : p.children()) Scan(c, s);
}

}  // namespace

bool IsSimpleFilter(const Expr& e) {
  // At most one distinct variable: the walk stops at a second one.
  std::string_view first;
  bool seen = false;
  const bool at_most_one = sparql::ForEachVariable(
      e, [&first, &seen](std::string_view v) {
        if (!seen) {
          first = v;
          seen = true;
          return true;
        }
        return v == first;
      });
  if (at_most_one) return true;
  // The form ?x = ?y is allowed (footnote 20: such filters collapse
  // nodes in the canonical graph).
  return e.kind == ExprKind::kCompare && e.op == "=" && e.args.size() == 2 &&
         e.args[0].is_variable() && e.args[1].is_variable();
}

FragmentClass ClassifyFragment(const Query& q, FragmentScratch& scratch) {
  FragmentClass fc;
  fc.select_or_ask =
      q.form == QueryForm::kSelect || q.form == QueryForm::kAsk;
  if (!fc.select_or_ask || !q.has_body) return fc;
  // Subqueries in projection position or trailing VALUES disqualify AOF.
  bool modifiers_ok = !q.trailing_values.has_value();

  BodyScan s;
  Scan(q.where, s);
  fc.num_triples = s.num_triples;
  fc.var_predicate = s.var_predicate;
  fc.simple_filters = s.simple_filters;

  fc.aof = s.aof && modifiers_ok;
  fc.cq = s.only_triples_and && modifiers_ok;
  fc.cpf = s.only_triples_and_f && modifiers_ok;
  fc.cqf = fc.cpf && s.simple_filters;

  if (!fc.aof) return fc;
  if (s.only_triples_and_f) {
    // No OPTIONAL, so no LeftJoin: well designed, and the pattern tree
    // is one node (interface width 0, every variable connected).
    fc.well_designed = true;
    fc.interface_width = 0;
    fc.cqof = fc.simple_filters;
    return fc;
  }
  AofStructure aof = AnalyzeAof(q.where, scratch);
  fc.well_designed = aof.ok && aof.well_designed;
  if (fc.well_designed) {
    fc.interface_width = aof.interface_width;
    fc.cqof = fc.simple_filters && aof.connected_variables &&
              aof.interface_width <= 1;
  }
  return fc;
}

FragmentClass ClassifyFragment(const Query& q) {
  thread_local FragmentScratch scratch;
  return ClassifyFragment(q, scratch);
}

}  // namespace sparqlog::fragments
