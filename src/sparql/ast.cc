#include "sparql/ast.h"

namespace sparqlog::sparql {

namespace {
// Factories build their result on the same memory_resource as their
// arguments, so arena-built sub-trees compose into arena-built parents
// (moves stay pointer steals; nothing silently deep-copies to the heap).
// pmr containers keep their allocator even when moved-from, so reading
// it off any argument member is always safe.
std::pmr::memory_resource* ResOf(const AstString& s) {
  return s.get_allocator().resource();
}
std::pmr::memory_resource* ResOf(const Term& t) { return ResOf(t.value); }
template <typename T>
std::pmr::memory_resource* ResOf(const AstVector<T>& v) {
  return v.get_allocator().resource();
}
}  // namespace

// ---------------------------------------------------------------------------
// PathExpr
// ---------------------------------------------------------------------------

PathExpr PathExpr::Link(std::string_view iri, std::pmr::memory_resource* mr) {
  PathExpr p(mr);
  p.kind = PathKind::kLink;
  p.iri = iri;
  return p;
}

PathExpr PathExpr::Unary(PathKind k, PathExpr child) {
  PathExpr p(ResOf(child.iri));
  p.kind = k;
  p.children.push_back(std::move(child));
  return p;
}

PathExpr PathExpr::Nary(PathKind k, AstVector<PathExpr> children) {
  PathExpr p(ResOf(children));
  p.kind = k;
  p.children = std::move(children);
  return p;
}

bool PathExpr::operator==(const PathExpr& o) const {
  return kind == o.kind && iri == o.iri && children == o.children;
}

namespace {
// Precedence for printing: alt < seq < unary/primary.
int PathPrec(PathKind k) {
  switch (k) {
    case PathKind::kAlt: return 0;
    case PathKind::kSeq: return 1;
    default: return 2;
  }
}

std::string PathChildString(const PathExpr& parent, const PathExpr& child) {
  std::string s = child.ToString();
  bool parent_unary = parent.kind == PathKind::kZeroOrMore ||
                      parent.kind == PathKind::kOneOrMore ||
                      parent.kind == PathKind::kZeroOrOne ||
                      parent.kind == PathKind::kInverse;
  // Unary path operators apply to a PathPrimary (a link or a negated
  // set); anything else must be bracketed. In particular `(^a)*` must
  // not print as `^a*`, which parses as `^(a*)`.
  bool child_primary =
      child.kind == PathKind::kLink || child.kind == PathKind::kNegated;
  if (PathPrec(child.kind) < PathPrec(parent.kind) ||
      (parent_unary && !child_primary)) {
    return "(" + s + ")";
  }
  return s;
}
}  // namespace

std::string PathExpr::ToString() const {
  switch (kind) {
    case PathKind::kLink:
      return "<" + std::string(iri) + ">";
    case PathKind::kInverse:
      return "^" + PathChildString(*this, children[0]);
    case PathKind::kNegated: {
      std::string out = "!(";
      for (size_t i = 0; i < children.size(); ++i) {
        if (i > 0) out += "|";
        out += children[i].ToString();
      }
      return out + ")";
    }
    case PathKind::kSeq:
    case PathKind::kAlt: {
      std::string out;
      const char* sep = kind == PathKind::kSeq ? "/" : "|";
      for (size_t i = 0; i < children.size(); ++i) {
        if (i > 0) out += sep;
        out += PathChildString(*this, children[i]);
      }
      return out;
    }
    case PathKind::kZeroOrMore:
      return PathChildString(*this, children[0]) + "*";
    case PathKind::kOneOrMore:
      return PathChildString(*this, children[0]) + "+";
    case PathKind::kZeroOrOne:
      return PathChildString(*this, children[0]) + "?";
  }
  return "";
}

// ---------------------------------------------------------------------------
// Expr
// ---------------------------------------------------------------------------

Expr::Expr(const Expr& o)
    : kind(o.kind),
      term(o.term),
      op(o.op),
      distinct(o.distinct),
      star(o.star),
      separator(o.separator),
      args(o.args),
      pattern(o.pattern ? std::make_shared<Pattern>(*o.pattern) : nullptr) {}

Expr& Expr::operator=(const Expr& o) {
  if (this != &o) {
    kind = o.kind;
    term = o.term;
    op = o.op;
    distinct = o.distinct;
    star = o.star;
    separator = o.separator;
    args = o.args;
    pattern = o.pattern ? std::make_shared<Pattern>(*o.pattern) : nullptr;
  }
  return *this;
}

Expr Expr::MakeTerm(Term t) {
  Expr e(ResOf(t));
  e.kind = ExprKind::kTerm;
  e.term = std::move(t);
  return e;
}

Expr Expr::MakeVar(std::string_view name, std::pmr::memory_resource* mr) {
  return MakeTerm(Term::Var(name, mr));
}

Expr Expr::Call(std::string_view name, AstVector<Expr> args) {
  Expr e(ResOf(args));
  e.kind = ExprKind::kFunction;
  e.op = name;
  e.args = std::move(args);
  return e;
}

Expr Expr::Binary(ExprKind k, std::string_view op, Expr lhs, Expr rhs) {
  Expr e(ResOf(lhs.args));
  e.kind = k;
  e.op = op;
  e.args.push_back(std::move(lhs));
  e.args.push_back(std::move(rhs));
  return e;
}

void Expr::CollectVariables(std::set<std::string>& out) const {
  ForEachVariable(*this, [&out](std::string_view v) {
    out.emplace(v);
    return true;
  });
}

// ---------------------------------------------------------------------------
// TriplePattern
// ---------------------------------------------------------------------------

TriplePattern TriplePattern::Make(Term s, Term p, Term o) {
  TriplePattern tp(ResOf(s));
  tp.subject = std::move(s);
  tp.predicate = std::move(p);
  tp.object = std::move(o);
  return tp;
}

TriplePattern TriplePattern::MakePath(Term s, PathExpr path, Term o) {
  TriplePattern tp(ResOf(s));
  tp.subject = std::move(s);
  tp.has_path = true;
  tp.path = std::move(path);
  tp.object = std::move(o);
  return tp;
}

void TriplePattern::CollectVariables(std::set<std::string>& out) const {
  ForEachVariable(*this, [&out](std::string_view v) {
    out.emplace(v);
    return true;
  });
}

// ---------------------------------------------------------------------------
// Pattern
// ---------------------------------------------------------------------------

Pattern::Pattern(const Pattern& o)
    : kind(o.kind),
      triple(o.triple),
      children(o.children),
      expr(o.expr),
      var(o.var),
      graph(o.graph),
      silent(o.silent),
      values_vars(o.values_vars),
      values_rows(o.values_rows),
      subquery(o.subquery ? std::make_shared<Query>(*o.subquery) : nullptr) {}

Pattern& Pattern::operator=(const Pattern& o) {
  if (this != &o) {
    kind = o.kind;
    triple = o.triple;
    children = o.children;
    expr = o.expr;
    var = o.var;
    graph = o.graph;
    silent = o.silent;
    values_vars = o.values_vars;
    values_rows = o.values_rows;
    subquery = o.subquery ? std::make_shared<Query>(*o.subquery) : nullptr;
  }
  return *this;
}

Pattern Pattern::Group(AstVector<Pattern> children) {
  Pattern p(ResOf(children));
  p.kind = PatternKind::kGroup;
  p.children = std::move(children);
  return p;
}

Pattern Pattern::Triple(TriplePattern tp) {
  Pattern p(ResOf(tp.subject));
  p.kind = PatternKind::kTriple;
  p.triple = std::move(tp);
  return p;
}

Pattern Pattern::Filter(Expr e) {
  Pattern p(ResOf(e.args));
  p.kind = PatternKind::kFilter;
  p.expr = std::move(e);
  return p;
}

Pattern Pattern::Union(AstVector<Pattern> branches) {
  Pattern p(ResOf(branches));
  p.kind = PatternKind::kUnion;
  p.children = std::move(branches);
  return p;
}

Pattern Pattern::Optional(Pattern body) {
  Pattern p(ResOf(body.children));
  p.kind = PatternKind::kOptional;
  p.children.push_back(std::move(body));
  return p;
}

Pattern Pattern::Minus(Pattern body) {
  Pattern p(ResOf(body.children));
  p.kind = PatternKind::kMinus;
  p.children.push_back(std::move(body));
  return p;
}

Pattern Pattern::Graph(Term iv, Pattern body) {
  Pattern p(ResOf(iv));
  p.kind = PatternKind::kGraph;
  p.graph = std::move(iv);
  p.children.push_back(std::move(body));
  return p;
}

void Pattern::CollectVariables(std::set<std::string>& out) const {
  ForEachVariable(*this, [&out](std::string_view v) {
    out.emplace(v);
    return true;
  });
}

void Pattern::CollectTriples(std::vector<const TriplePattern*>& out) const {
  if (kind == PatternKind::kTriple) {
    out.push_back(&triple);
    return;
  }
  if (kind == PatternKind::kSubSelect || kind == PatternKind::kFilter) {
    return;  // Subquery bodies and EXISTS patterns are counted separately.
  }
  for (const Pattern& c : children) c.CollectTriples(out);
}

void Pattern::CollectInScopeVariables(std::set<std::string>& out) const {
  ForEachInScopeVariable(*this, [&out](std::string_view v) {
    out.emplace(v);
    return true;
  });
}

// ---------------------------------------------------------------------------
// Query
// ---------------------------------------------------------------------------

std::set<std::string> Query::BodyVariables() const {
  std::set<std::string> out;
  if (has_body) where.CollectVariables(out);
  return out;
}

}  // namespace sparqlog::sparql
