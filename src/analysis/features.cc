#include "analysis/features.h"

#include "analysis/projection.h"

namespace sparqlog::analysis {

using sparql::Expr;
using sparql::ExprKind;
using sparql::PathExpr;
using sparql::PathKind;
using sparql::Pattern;
using sparql::PatternKind;
using sparql::Query;

namespace {

/// True iff the path is one of the trivial one-step forms `!a` or `^a`
/// (Section 7 excludes these from the navigational analysis).
bool IsTrivialPath(const PathExpr& p) {
  if (p.kind == PathKind::kInverse && p.children[0].IsSimpleLink()) {
    return true;
  }
  if (p.kind == PathKind::kNegated && p.children.size() == 1 &&
      p.children[0].IsSimpleLink()) {
    return true;
  }
  return false;
}

void WalkExpr(const Expr& e, QueryFeatures& f, bool in_body);

void WalkPattern(const Pattern& p, QueryFeatures& f, bool in_body) {
  switch (p.kind) {
    case PatternKind::kTriple:
      ++f.num_triples;
      if (p.triple.has_path) {
        f.property_path = true;
        if (!IsTrivialPath(p.triple.path)) f.navigational_path = true;
        if (in_body) f.opset_other = true;
      } else if (p.triple.predicate.is_variable()) {
        f.var_predicate = true;
      }
      return;
    case PatternKind::kFilter:
      f.filter = true;
      if (in_body) f.opset |= QueryFeatures::kOpF;
      WalkExpr(p.expr, f, in_body);
      return;
    case PatternKind::kUnion:
      f.union_ = true;
      if (in_body) f.opset |= QueryFeatures::kOpU;
      break;
    case PatternKind::kOptional:
      f.optional = true;
      if (in_body) f.opset |= QueryFeatures::kOpO;
      break;
    case PatternKind::kMinus:
      f.minus = true;
      if (in_body) f.opset_other = true;
      break;
    case PatternKind::kGraph:
      f.graph = true;
      if (in_body) f.opset |= QueryFeatures::kOpG;
      break;
    case PatternKind::kService:
      f.service = true;
      if (in_body) f.opset_other = true;
      break;
    case PatternKind::kBind:
      f.bind = true;
      if (in_body) f.opset_other = true;
      WalkExpr(p.expr, f, in_body);
      return;
    case PatternKind::kValues:
      f.values = true;
      if (in_body) f.opset_other = true;
      return;
    case PatternKind::kSubSelect:
      f.subquery = true;
      if (in_body) f.opset_other = true;
      if (p.subquery) {
        if (p.subquery->distinct) f.distinct = true;
        if (p.subquery->reduced) f.reduced = true;
        if (p.subquery->limit.has_value()) f.has_limit = true;
        if (p.subquery->offset.has_value()) f.has_offset = true;
        if (!p.subquery->order_by.empty()) f.has_order_by = true;
        if (!p.subquery->group_by.empty()) f.has_group_by = true;
        if (!p.subquery->having.empty()) f.has_having = true;
        for (const sparql::SelectItem& item : p.subquery->select_items) {
          if (item.expr.has_value()) WalkExpr(*item.expr, f, false);
        }
        for (const Expr& e : p.subquery->having) WalkExpr(e, f, false);
        for (const sparql::OrderCondition& oc : p.subquery->order_by) {
          WalkExpr(oc.expr, f, false);
        }
        if (p.subquery->has_body) {
          // Operators inside a subquery do not contribute to the outer
          // body's operator set (Table 3's "other" bucket), but they do
          // count for keyword statistics.
          WalkPattern(p.subquery->where, f, false);
        }
      }
      return;
    case PatternKind::kGroup: {
      // The paper's "And": a group joining two or more pattern elements.
      // Filters, optionals, minuses, and binds do not introduce a join
      // (they translate to Filter / LeftJoin / Minus / Extend).
      int joinable = 0;
      for (const Pattern& c : p.children) {
        switch (c.kind) {
          case PatternKind::kTriple:
          case PatternKind::kGroup:
          case PatternKind::kUnion:
          case PatternKind::kGraph:
          case PatternKind::kService:
          case PatternKind::kSubSelect:
          case PatternKind::kValues:
            ++joinable;
            break;
          default:
            break;
        }
      }
      if (joinable >= 2) {
        f.conj = true;
        if (in_body) f.opset |= QueryFeatures::kOpA;
      }
      break;
    }
  }
  for (const Pattern& c : p.children) WalkPattern(c, f, in_body);
}

void WalkExpr(const Expr& e, QueryFeatures& f, bool in_body) {
  switch (e.kind) {
    case ExprKind::kExists:
      f.exists = true;
      if (in_body) f.opset_other = true;
      if (e.pattern) WalkPattern(*e.pattern, f, false);
      return;
    case ExprKind::kNotExists:
      f.not_exists = true;
      if (in_body) f.opset_other = true;
      if (e.pattern) WalkPattern(*e.pattern, f, false);
      return;
    case ExprKind::kAggregate:
      if (e.op == "COUNT") f.agg_count = true;
      if (e.op == "MAX") f.agg_max = true;
      if (e.op == "MIN") f.agg_min = true;
      if (e.op == "AVG") f.agg_avg = true;
      if (e.op == "SUM") f.agg_sum = true;
      if (e.op == "SAMPLE") f.agg_sample = true;
      if (e.op == "GROUP_CONCAT") f.agg_group_concat = true;
      break;
    default:
      break;
  }
  for (const Expr& a : e.args) WalkExpr(a, f, in_body);
}

}  // namespace

QueryFeatures ExtractFeatures(const Query& q,
                              fragments::VariableTable& vars) {
  QueryFeatures f;
  f.form = q.form;
  f.has_body = q.has_body;
  f.distinct = q.distinct;
  f.reduced = q.reduced;
  f.has_limit = q.limit.has_value();
  f.has_offset = q.offset.has_value();
  f.has_order_by = !q.order_by.empty();
  f.has_group_by = !q.group_by.empty();
  f.has_having = !q.having.empty();

  if (q.has_body) WalkPattern(q.where, f, /*in_body=*/true);

  for (const sparql::SelectItem& item : q.select_items) {
    if (item.expr.has_value()) WalkExpr(*item.expr, f, false);
  }
  for (const sparql::GroupCondition& gc : q.group_by) {
    WalkExpr(gc.expr, f, false);
  }
  for (const Expr& e : q.having) WalkExpr(e, f, false);
  for (const sparql::OrderCondition& oc : q.order_by) {
    WalkExpr(oc.expr, f, false);
  }
  if (q.trailing_values.has_value()) f.values = true;

  f.projection = ClassifyProjection(q, vars);
  return f;
}

}  // namespace sparqlog::analysis
