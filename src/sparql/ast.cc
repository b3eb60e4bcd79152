#include "sparql/ast.h"

#include <cstdio>
#include <cstdlib>
#include <new>
#include <type_traits>
#include <utility>

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

namespace {
template <typename T>
T* NewOn(std::pmr::memory_resource* mr) {
  return new (mr->allocate(sizeof(T), alignof(T))) T(mr);
}
template <typename T>
void DeleteOn(std::pmr::memory_resource* mr, T* p) {
  p->~T();
  mr->deallocate(p, sizeof(T), alignof(T));
}
}  // namespace

TriplePattern::TriplePattern(const TriplePattern& o)
    : subject(o.subject), predicate(o.predicate), object(o.object) {
  if (o.path_ != nullptr) set_path(*o.path_);
}

TriplePattern& TriplePattern::operator=(const TriplePattern& o) {
  if (this != &o) {
    subject = o.subject;
    predicate = o.predicate;
    object = o.object;
    if (o.path_ == nullptr) {
      clear_path();
    } else {
      set_path(*o.path_);
    }
  }
  return *this;
}

TriplePattern& TriplePattern::operator=(TriplePattern&& o) {
  if (this == &o) return *this;
  // Across resources a move is a copy, as for the pmr members.
  if (!(*resource() == *o.resource())) return *this = o;
  clear_path();
  path_ = std::exchange(o.path_, nullptr);
  subject = std::move(o.subject);
  predicate = std::move(o.predicate);
  object = std::move(o.object);
  return *this;
}

PathExpr* TriplePattern::CheckedPath() const {
  if (path_ == nullptr) [[unlikely]] {
    std::fprintf(stderr, "TriplePattern::path() on a pattern without one\n");
    std::abort();
  }
  return path_;
}

void TriplePattern::set_path(PathExpr path) {
  if (path_ == nullptr) path_ = NewOn<PathExpr>(resource());
  *path_ = std::move(path);
}

void TriplePattern::clear_path() {
  if (path_ == nullptr) return;
  DeleteOn(resource(), path_);
  path_ = nullptr;
}

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
  tp.set_path(std::move(path));
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

template <typename F>
void Pattern::WithPayloadType(PatternKind kind, F&& f) {
  switch (kind) {
    case PatternKind::kTriple:
      return f(std::type_identity<TriplePattern>{});
    case PatternKind::kFilter:
      return f(std::type_identity<Expr>{});
    case PatternKind::kBind:
      return f(std::type_identity<BindNode>{});
    case PatternKind::kGraph:
    case PatternKind::kService:
      return f(std::type_identity<GraphNode>{});
    case PatternKind::kValues:
      return f(std::type_identity<ValuesTable>{});
    case PatternKind::kSubSelect:
      return f(std::type_identity<Query>{});
    default:
      return;  // groups, unions, OPTIONAL and MINUS have no payload
  }
}

template <typename F>
Pattern* Pattern::NewArray(size_t n, std::pmr::memory_resource* mr,
                           F&& make) {
  if (n == 0) return nullptr;
  Pattern* array = static_cast<Pattern*>(
      mr->allocate(n * sizeof(Pattern), alignof(Pattern)));
  size_t built = 0;
  try {
    for (; built < n; ++built) new (&array[built]) Pattern(make(built));
  } catch (...) {
    for (size_t i = 0; i < built; ++i) array[i].~Pattern();
    mr->deallocate(array, n * sizeof(Pattern), alignof(Pattern));
    throw;
  }
  return array;
}

Pattern::Pattern(PatternKind kind, std::pmr::memory_resource* mr)
    : mr_(mr), kind_(kind) {
  WithPayloadType(kind, [&]<typename T>(std::type_identity<T>) {
    payload_ = NewOn<T>(mr);
  });
}

void Pattern::ReleaseChildren() {
  for (uint32_t i = 0; i < num_children_; ++i) children_[i].~Pattern();
  if (children_ != nullptr) {
    mr_->deallocate(children_, num_children_ * sizeof(Pattern),
                    alignof(Pattern));
  }
  children_ = nullptr;
  num_children_ = 0;
}

void Pattern::Release() {
  ReleaseChildren();
  if (payload_ != nullptr) {
    WithPayloadType(kind_, [&]<typename T>(std::type_identity<T>) {
      DeleteOn(mr_, static_cast<T*>(payload_));
    });
  }
  Forget();
}

void Pattern::BadKind() const {
  std::fprintf(stderr, "Pattern: payload accessor on a node of kind %d\n",
               static_cast<int>(kind_));
  std::abort();
}

Pattern Pattern::Clone(const Pattern& o, std::pmr::memory_resource* mr) {
  Pattern p(o.kind_, mr);
  // Copy assignment keeps the target's resource, so the copy lands on mr.
  WithPayloadType(o.kind_, [&]<typename T>(std::type_identity<T>) {
    *static_cast<T*>(p.payload_) = *static_cast<const T*>(o.payload_);
  });
  p.children_ = NewArray(o.num_children_, mr,
                         [&](size_t i) { return Clone(o.children_[i], mr); });
  p.num_children_ = o.num_children_;
  return p;
}

Pattern& Pattern::operator=(const Pattern& o) {
  if (this != &o) {
    // Clone first: `o` may live inside this node's subtree.
    *this = Clone(o, mr_);
  }
  return *this;
}

Pattern& Pattern::operator=(Pattern&& o) {
  if (this == &o) return *this;
  if (!(*mr_ == *o.mr_)) return *this = static_cast<const Pattern&>(o);
  // Take `o` first: it may live inside this node's subtree.
  Pattern taken(std::move(o));
  Release();
  payload_ = taken.payload_;
  children_ = taken.children_;
  num_children_ = taken.num_children_;
  kind_ = taken.kind_;
  taken.Forget();
  return *this;
}

void Pattern::SetChildren(std::span<Pattern> from) {
  Pattern* array = NewArray(from.size(), mr_, [&](size_t i) {
    Pattern& c = from[i];
    return *c.mr_ == *mr_ ? Pattern(std::move(c)) : Clone(c, mr_);
  });
  ReleaseChildren();
  children_ = array;
  num_children_ = static_cast<uint32_t>(from.size());
}

Pattern Pattern::Group(AstVector<Pattern> children) {
  Pattern p(PatternKind::kGroup, ResOf(children));
  p.SetChildren(children);
  return p;
}

Pattern Pattern::Triple(TriplePattern tp) {
  Pattern p(PatternKind::kTriple, ResOf(tp.subject));
  p.triple() = std::move(tp);
  return p;
}

Pattern Pattern::Filter(Expr e) {
  Pattern p(PatternKind::kFilter, ResOf(e.args));
  p.expr() = std::move(e);
  return p;
}

Pattern Pattern::Union(AstVector<Pattern> branches) {
  Pattern p(PatternKind::kUnion, ResOf(branches));
  p.SetChildren(branches);
  return p;
}

Pattern Pattern::Optional(Pattern body) {
  Pattern p(PatternKind::kOptional, body.mr_);
  p.SetChildren({&body, 1});
  return p;
}

Pattern Pattern::Minus(Pattern body) {
  Pattern p(PatternKind::kMinus, body.mr_);
  p.SetChildren({&body, 1});
  return p;
}

Pattern Pattern::Graph(Term iv, Pattern body) {
  Pattern p(PatternKind::kGraph, ResOf(iv));
  p.graph() = std::move(iv);
  p.SetChildren({&body, 1});
  return p;
}

void Pattern::CollectVariables(std::set<std::string>& out) const {
  ForEachVariable(*this, [&out](std::string_view v) {
    out.emplace(v);
    return true;
  });
}

void Pattern::CollectTriples(std::vector<const TriplePattern*>& out) const {
  if (kind_ == PatternKind::kTriple) {
    out.push_back(&triple());
    return;
  }
  if (kind_ == PatternKind::kSubSelect || kind_ == PatternKind::kFilter) {
    return;  // Subquery bodies and EXISTS patterns are counted separately.
  }
  for (const Pattern& c : children()) c.CollectTriples(out);
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
