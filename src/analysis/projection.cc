#include "analysis/projection.h"

#include <string_view>

namespace sparqlog::analysis {

using sparql::Pattern;
using sparql::PatternKind;
using sparql::Query;
using sparql::QueryForm;

namespace {

bool ContainsBind(const Pattern& p) {
  if (p.kind() == PatternKind::kBind) return true;
  if (p.kind() == PatternKind::kSubSelect) {
    const Query& sub = p.subquery();
    for (const sparql::SelectItem& item : sub.select_items) {
      if (item.expr.has_value()) return true;
    }
    if (sub.has_body && ContainsBind(sub.where)) return true;
  }
  for (const Pattern& c : p.children()) {
    if (ContainsBind(c)) return true;
  }
  return false;
}

}  // namespace

ProjectionUse ClassifyProjection(const Query& q,
                                 fragments::VariableTable& vars) {
  if (!q.has_body) return ProjectionUse::kNo;
  switch (q.form) {
    case QueryForm::kConstruct:
    case QueryForm::kDescribe:
      return ProjectionUse::kNo;
    case QueryForm::kAsk: {
      // The walk stops at the first variable.
      const bool no_variable = sparql::ForEachVariable(
          q.where, [](std::string_view) { return false; });
      return no_variable ? ProjectionUse::kNo : ProjectionUse::kYes;
    }
    case QueryForm::kSelect: {
      if (q.select_star) return ProjectionUse::kNo;
      bool has_as = false;
      for (const sparql::SelectItem& item : q.select_items) {
        if (item.expr.has_value()) has_as = true;
      }
      if (has_as || ContainsBind(q.where)) {
        return ProjectionUse::kIndeterminate;
      }
      vars.Clear();
      for (const sparql::SelectItem& item : q.select_items) {
        vars.Intern(item.var.value);
      }
      const int selected = vars.size();
      // Projection iff some in-scope variable is not selected.
      const bool all_selected = sparql::ForEachInScopeVariable(
          q.where,
          [&vars, selected](std::string_view v) {
            return vars.Intern(v) < selected;
          });
      return all_selected ? ProjectionUse::kNo : ProjectionUse::kYes;
    }
  }
  return ProjectionUse::kNo;
}

}  // namespace sparqlog::analysis
