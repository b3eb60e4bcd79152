#include "testing/reference_fragments.h"

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>

namespace sparqlog::testing::reference {

using analysis::ProjectionUse;
using fragments::FragmentClass;
using sparql::Expr;
using sparql::ExprKind;
using sparql::Pattern;
using sparql::PatternKind;
using sparql::Query;
using sparql::QueryForm;
using sparql::TriplePattern;

// ---------------------------------------------------------------------------
// Pre-change pattern trees and well-designedness (verbatim
// fragments/pattern_tree.cc)
// ---------------------------------------------------------------------------

namespace {

/// Internal SPARQL-algebra view of an AOF pattern: BGPs combined with
/// Join, LeftJoin (OPTIONAL), and Filter, per the standard translation
/// of group graph patterns.
struct AlgebraNode {
  enum class Kind { kBgp, kJoin, kLeftJoin };
  Kind kind = Kind::kBgp;
  std::vector<const TriplePattern*> triples;          // kBgp
  std::vector<const Expr*> filters;                   // applied here
  std::vector<std::unique_ptr<AlgebraNode>> children; // 2 for joins
  std::set<std::string> vars;                         // subtree variables
};

bool ExprUsesPatterns(const Expr& e) {
  if (e.kind == ExprKind::kExists || e.kind == ExprKind::kNotExists) {
    return true;
  }
  for (const Expr& a : e.args) {
    if (ExprUsesPatterns(a)) return true;
  }
  return false;
}

void ComputeVars(AlgebraNode& n) {
  for (const TriplePattern* tp : n.triples) tp->CollectVariables(n.vars);
  for (const Expr* f : n.filters) f->CollectVariables(n.vars);
  for (auto& c : n.children) {
    ComputeVars(*c);
    n.vars.insert(c->vars.begin(), c->vars.end());
  }
}

/// Translates an AOF group pattern into the algebra. Returns nullptr if
/// the body is not AOF (anything besides triples without paths, groups,
/// filters without EXISTS, and OPTIONAL).
std::unique_ptr<AlgebraNode> Translate(const Pattern& p) {
  if (p.kind == PatternKind::kTriple) {
    if (p.triple.has_path) return nullptr;
    auto node = std::make_unique<AlgebraNode>();
    node->triples.push_back(&p.triple);
    return node;
  }
  if (p.kind != PatternKind::kGroup) return nullptr;

  auto acc = std::make_unique<AlgebraNode>();  // empty BGP
  std::vector<const Expr*> filters;
  auto join = [](std::unique_ptr<AlgebraNode> a,
                 std::unique_ptr<AlgebraNode> b) {
    // Merge BGPs; Join otherwise. An empty BGP is the identity.
    if (a->kind == AlgebraNode::Kind::kBgp && a->triples.empty() &&
        a->filters.empty() && a->children.empty()) {
      return b;
    }
    if (a->kind == AlgebraNode::Kind::kBgp &&
        b->kind == AlgebraNode::Kind::kBgp && a->filters.empty() &&
        b->filters.empty()) {
      a->triples.insert(a->triples.end(), b->triples.begin(),
                        b->triples.end());
      return a;
    }
    auto j = std::make_unique<AlgebraNode>();
    j->kind = AlgebraNode::Kind::kJoin;
    j->children.push_back(std::move(a));
    j->children.push_back(std::move(b));
    return j;
  };

  for (const Pattern& c : p.children) {
    switch (c.kind) {
      case PatternKind::kTriple: {
        auto t = Translate(c);
        if (t == nullptr) return nullptr;
        acc = join(std::move(acc), std::move(t));
        break;
      }
      case PatternKind::kGroup: {
        auto g = Translate(c);
        if (g == nullptr) return nullptr;
        acc = join(std::move(acc), std::move(g));
        break;
      }
      case PatternKind::kFilter:
        if (ExprUsesPatterns(c.expr)) return nullptr;
        filters.push_back(&c.expr);
        break;
      case PatternKind::kOptional: {
        auto body = Translate(c.children[0]);
        if (body == nullptr) return nullptr;
        auto lj = std::make_unique<AlgebraNode>();
        lj->kind = AlgebraNode::Kind::kLeftJoin;
        lj->children.push_back(std::move(acc));
        lj->children.push_back(std::move(body));
        acc = std::move(lj);
        break;
      }
      default:
        return nullptr;  // not an AOF pattern
    }
  }
  // Filters of a group apply to the whole group.
  acc->filters.insert(acc->filters.end(), filters.begin(), filters.end());
  return acc;
}

/// Linearizes the atoms (triples/filters) of the algebra tree in DFS
/// order, recording for each LeftJoin node its subtree range. Used for
/// the Definition 5.3 check.
struct LeftJoinInfo {
  size_t lo = 0, hi = 0;                 // atom index range of the subtree
  size_t right_lo = 0, right_hi = 0;     // atom range of the right child
  std::set<std::string> left_vars;
  std::set<std::string> right_vars;
};

void Linearize(const AlgebraNode& n,
               std::vector<std::set<std::string>>& atoms,
               std::vector<LeftJoinInfo>& leftjoins) {
  size_t lo = atoms.size();
  size_t right_lo = 0, right_hi = 0;
  if (n.kind == AlgebraNode::Kind::kLeftJoin) {
    Linearize(*n.children[0], atoms, leftjoins);
    right_lo = atoms.size();
    Linearize(*n.children[1], atoms, leftjoins);
    right_hi = atoms.size();
  } else {
    for (auto& c : n.children) Linearize(*c, atoms, leftjoins);
  }
  for (const TriplePattern* tp : n.triples) {
    std::set<std::string> vars;
    tp->CollectVariables(vars);
    atoms.push_back(std::move(vars));
  }
  for (const Expr* f : n.filters) {
    std::set<std::string> vars;
    f->CollectVariables(vars);
    atoms.push_back(std::move(vars));
  }
  if (n.kind == AlgebraNode::Kind::kLeftJoin) {
    LeftJoinInfo info;
    info.lo = lo;
    info.hi = atoms.size();
    info.right_lo = right_lo;
    info.right_hi = right_hi;
    info.left_vars = n.children[0]->vars;
    info.right_vars = n.children[1]->vars;
    leftjoins.push_back(std::move(info));
  }
}

/// Pattern-tree construction from the algebra via OPT-normal form.
PatternTreeNode Normalize(const AlgebraNode& n) {
  switch (n.kind) {
    case AlgebraNode::Kind::kBgp: {
      PatternTreeNode t;
      t.triples = n.triples;
      t.filters = n.filters;
      return t;
    }
    case AlgebraNode::Kind::kJoin: {
      // (P1 OPT P2) AND P3 => (P1 AND P3) OPT P2: merge the mandatory
      // roots, hoist all optional children as siblings.
      PatternTreeNode a = Normalize(*n.children[0]);
      PatternTreeNode b = Normalize(*n.children[1]);
      PatternTreeNode t;
      t.triples = a.triples;
      t.triples.insert(t.triples.end(), b.triples.begin(), b.triples.end());
      t.filters = a.filters;
      t.filters.insert(t.filters.end(), b.filters.begin(), b.filters.end());
      t.filters.insert(t.filters.end(), n.filters.begin(), n.filters.end());
      t.children = std::move(a.children);
      for (auto& c : b.children) t.children.push_back(std::move(c));
      return t;
    }
    case AlgebraNode::Kind::kLeftJoin: {
      PatternTreeNode left = Normalize(*n.children[0]);
      PatternTreeNode right = Normalize(*n.children[1]);
      left.filters.insert(left.filters.end(), n.filters.begin(),
                          n.filters.end());
      left.children.push_back(std::move(right));
      return left;
    }
  }
  return PatternTreeNode{};
}

int InterfaceWidth(const PatternTreeNode& node) {
  int width = 0;
  std::set<std::string> vars = node.Vars();
  for (const PatternTreeNode& child : node.children) {
    std::set<std::string> child_vars = child.Vars();
    std::set<std::string> common;
    std::set_intersection(vars.begin(), vars.end(), child_vars.begin(),
                          child_vars.end(),
                          std::inserter(common, common.begin()));
    width = std::max(width, static_cast<int>(common.size()));
    width = std::max(width, InterfaceWidth(child));
  }
  return width;
}

void NumberNodes(const PatternTreeNode& node, int parent, int& next,
                 std::vector<int>& parents,
                 std::vector<const PatternTreeNode*>& nodes) {
  int id = next++;
  parents.push_back(parent);
  nodes.push_back(&node);
  for (const PatternTreeNode& c : node.children) {
    NumberNodes(c, id, next, parents, nodes);
  }
}

bool ConnectedVariables(const PatternTreeNode& root) {
  std::vector<int> parents;
  std::vector<const PatternTreeNode*> nodes;
  int next = 0;
  NumberNodes(root, -1, next, parents, nodes);
  // For every variable: the set of nodes whose CQ mentions it must form
  // a connected subtree, i.e. every such node except the topmost has a
  // parent chain to the topmost passing only through mention-nodes.
  std::map<std::string, std::vector<int>> occurrences;
  for (size_t i = 0; i < nodes.size(); ++i) {
    for (const std::string& v : nodes[i]->Vars()) {
      occurrences[v].push_back(static_cast<int>(i));
    }
  }
  for (const auto& [var, occ] : occurrences) {
    std::set<int> members(occ.begin(), occ.end());
    // Connectivity: all members must reach the shallowest member through
    // member-only parent chains; equivalently, each member's parent is a
    // member, except for exactly one root-most node.
    int roots = 0;
    for (int m : occ) {
      int parent = parents[static_cast<size_t>(m)];
      if (parent < 0 || members.count(parent) == 0) ++roots;
    }
    if (roots != 1) return false;
  }
  return true;
}

}  // namespace

std::set<std::string> PatternTreeNode::Vars() const {
  std::set<std::string> vars;
  for (const TriplePattern* tp : triples) tp->CollectVariables(vars);
  return vars;
}

bool IsWellDesigned(const Pattern& body) {
  std::unique_ptr<AlgebraNode> algebra = Translate(body);
  if (algebra == nullptr) return false;
  ComputeVars(*algebra);
  std::vector<std::set<std::string>> atoms;
  std::vector<LeftJoinInfo> leftjoins;
  Linearize(*algebra, atoms, leftjoins);
  for (const LeftJoinInfo& lj : leftjoins) {
    // W = vars(R) \ vars(L) must not occur outside [lo, hi).
    for (const std::string& w : lj.right_vars) {
      if (lj.left_vars.count(w) > 0) continue;
      for (size_t i = 0; i < atoms.size(); ++i) {
        if (i >= lj.lo && i < lj.hi) continue;
        if (atoms[i].count(w) > 0) return false;
      }
    }
  }
  return true;
}

PatternTreeResult BuildPatternTree(const Pattern& body) {
  PatternTreeResult result;
  std::unique_ptr<AlgebraNode> algebra = Translate(body);
  if (algebra == nullptr) return result;
  ComputeVars(*algebra);
  result.ok = true;
  result.root = Normalize(*algebra);
  result.interface_width = InterfaceWidth(result.root);
  result.connected_variables = ConnectedVariables(result.root);
  return result;
}

// ---------------------------------------------------------------------------
// Pre-change fragment classification (verbatim fragments/fragment.cc)
// ---------------------------------------------------------------------------

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
  switch (p.kind) {
    case PatternKind::kTriple:
      ++s.num_triples;
      if (p.triple.has_path) {
        s.only_triples_and = s.only_triples_and_f = s.aof = false;
      } else if (p.triple.predicate.is_variable()) {
        s.var_predicate = true;
      }
      return;
    case PatternKind::kGroup:
      break;
    case PatternKind::kFilter:
      s.only_triples_and = false;
      if (!IsSimpleFilter(p.expr)) s.simple_filters = false;
      // EXISTS embeds patterns: not AOF.
      {
        std::set<std::string> ignored;
        const Expr& e = p.expr;
        std::function<bool(const Expr&)> uses_pattern =
            [&](const Expr& x) -> bool {
          if (x.kind == ExprKind::kExists || x.kind == ExprKind::kNotExists) {
            return true;
          }
          for (const Expr& a : x.args) {
            if (uses_pattern(a)) return true;
          }
          return false;
        };
        if (uses_pattern(e)) {
          s.only_triples_and_f = s.aof = false;
        }
      }
      return;
    case PatternKind::kOptional:
      s.only_triples_and = s.only_triples_and_f = false;
      break;
    default:
      s.only_triples_and = s.only_triples_and_f = s.aof = false;
      // Still count triples below for statistics.
      break;
  }
  for (const Pattern& c : p.children) Scan(c, s);
}

}  // namespace

bool IsSimpleFilter(const Expr& e) {
  std::set<std::string> vars;
  e.CollectVariables(vars);
  if (vars.size() <= 1) return true;
  // The form ?x = ?y is allowed (footnote 20: such filters collapse
  // nodes in the canonical graph).
  return e.kind == ExprKind::kCompare && e.op == "=" && e.args.size() == 2 &&
         e.args[0].is_variable() && e.args[1].is_variable();
}

FragmentClass ClassifyFragment(const Query& q) {
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

  if (fc.aof) {
    fc.well_designed = IsWellDesigned(q.where);
    if (fc.well_designed) {
      PatternTreeResult tree = BuildPatternTree(q.where);
      if (tree.ok) {
        fc.interface_width = tree.interface_width;
        fc.cqof = fc.simple_filters && tree.connected_variables &&
                  tree.interface_width <= 1;
      }
    }
  }
  return fc;
}

// ---------------------------------------------------------------------------
// Pre-change projection classification (verbatim analysis/projection.cc)
// ---------------------------------------------------------------------------

namespace {

bool ContainsBind(const Pattern& p) {
  if (p.kind == PatternKind::kBind) return true;
  if (p.kind == PatternKind::kSubSelect && p.subquery) {
    for (const sparql::SelectItem& item : p.subquery->select_items) {
      if (item.expr.has_value()) return true;
    }
    if (p.subquery->has_body && ContainsBind(p.subquery->where)) return true;
  }
  for (const Pattern& c : p.children) {
    if (ContainsBind(c)) return true;
  }
  return false;
}

}  // namespace

ProjectionUse ClassifyProjection(const Query& q) {
  if (!q.has_body) return ProjectionUse::kNo;
  switch (q.form) {
    case QueryForm::kConstruct:
    case QueryForm::kDescribe:
      return ProjectionUse::kNo;
    case QueryForm::kAsk: {
      std::set<std::string> vars;
      q.where.CollectVariables(vars);
      return vars.empty() ? ProjectionUse::kNo : ProjectionUse::kYes;
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
      std::set<std::string> in_scope;
      q.where.CollectInScopeVariables(in_scope);
      std::set<std::string> selected;
      for (const sparql::SelectItem& item : q.select_items) {
        selected.insert(std::string(item.var.value));
      }
      // Projection iff some in-scope variable is not selected.
      for (const std::string& v : in_scope) {
        if (selected.find(v) == selected.end()) return ProjectionUse::kYes;
      }
      return ProjectionUse::kNo;
    }
  }
  return ProjectionUse::kNo;
}

}  // namespace sparqlog::testing::reference
