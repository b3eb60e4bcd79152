#ifndef SPARQLOG_SPARQL_AST_H_
#define SPARQLOG_SPARQL_AST_H_

#include <cstdint>
#include <memory>
#include <memory_resource>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "rdf/term.h"

namespace sparqlog::sparql {

using rdf::Term;

/// AST node storage types. Every string, child array and node payload in
/// the AST is allocator-aware: the parser's hot path constructs whole
/// queries on an epoch-reset arena (`util::ArenaResource`, zero heap
/// allocations once warm), while default-constructed nodes — tests, the
/// query generator, the fuzzer — land on the heap.
///
/// Memory discipline (see DESIGN.md "Parser memory discipline"):
///  * Nodes composed into one tree must share one memory_resource; the
///    `explicit X(memory_resource*)` constructors plus the factory
///    functions (which inherit the resource of their arguments) keep
///    this true by construction.
///  * Moves steal storage and keep the source's resource; a move
///    assignment between different resources copies instead, as pmr
///    containers do.
///  * Copies always land on the default (heap) resource — copying an
///    arena-built AST yields an independent, arena-free deep copy.
///    Copy assignment lands on the target's resource.
using AstString = std::pmr::string;
template <typename T>
using AstVector = std::pmr::vector<T>;

// ---------------------------------------------------------------------------
// Property paths (SPARQL 1.1). A property path is a regular expression over
// the alphabet of IRIs (Section 3 of the paper).
// ---------------------------------------------------------------------------

enum class PathKind {
  kLink,        ///< A single IRI step `a`.
  kInverse,     ///< `^p` — traverse an edge in reverse.
  kNegated,     ///< `!(a|^b|...)` — any edge not in the set.
  kSeq,         ///< `p1/p2/...` — concatenation.
  kAlt,         ///< `p1|p2|...` — alternation.
  kZeroOrMore,  ///< `p*`.
  kOneOrMore,   ///< `p+`.
  kZeroOrOne,   ///< `p?`.
};

/// AST of a property path expression.
struct PathExpr {
  PathKind kind = PathKind::kLink;
  /// IRI for kLink nodes.
  AstString iri;
  /// Sub-expressions: 1 for unary kinds, >= 2 for kSeq/kAlt, and the
  /// (kLink/kInverse) members of a kNegated set.
  AstVector<PathExpr> children;

  PathExpr() = default;
  explicit PathExpr(std::pmr::memory_resource* mr) : iri(mr), children(mr) {}

  static PathExpr Link(std::string_view iri,
                       std::pmr::memory_resource* mr =
                           std::pmr::get_default_resource());
  static PathExpr Unary(PathKind k, PathExpr child);
  static PathExpr Nary(PathKind k, AstVector<PathExpr> children);

  /// True iff the path is a bare IRI (then the triple pattern it occurs in
  /// is an ordinary triple).
  bool IsSimpleLink() const { return kind == PathKind::kLink; }

  bool operator==(const PathExpr& o) const;

  /// Surface syntax, fully parenthesized where needed.
  std::string ToString() const;
};

// ---------------------------------------------------------------------------
// Expressions: filter constraints, projection expressions, HAVING, ORDER BY.
// ---------------------------------------------------------------------------

class Pattern;  // forward declaration; Expr can hold EXISTS { Pattern }

enum class ExprKind {
  kTerm,        ///< A variable or RDF term.
  kOr,          ///< `a || b` (n-ary).
  kAnd,         ///< `a && b` (n-ary).
  kNot,         ///< `!a`.
  kCompare,     ///< `a OP b`, OP in {=, !=, <, >, <=, >=}.
  kIn,          ///< `a IN (b, c, ...)`.
  kNotIn,       ///< `a NOT IN (b, c, ...)`.
  kArith,       ///< `a OP b`, OP in {+, -, *, /}.
  kUnaryMinus,  ///< `-a`.
  kUnaryPlus,   ///< `+a`.
  kFunction,    ///< Builtin or extension function call `f(args...)`.
  kAggregate,   ///< COUNT/SUM/MIN/MAX/AVG/SAMPLE/GROUP_CONCAT.
  kExists,      ///< `EXISTS { P }`.
  kNotExists,   ///< `NOT EXISTS { P }`.
};

/// A SPARQL expression tree.
struct Expr {
  ExprKind kind = ExprKind::kTerm;
  /// For kTerm: the term.
  Term term;
  /// Operator symbol (kCompare/kArith) or (upper-cased) function or
  /// aggregate name (kFunction/kAggregate).
  AstString op;
  /// DISTINCT inside an aggregate, e.g. COUNT(DISTINCT ?x).
  bool distinct = false;
  /// COUNT(*).
  bool star = false;
  /// SEPARATOR for GROUP_CONCAT ("" if absent).
  AstString separator;
  AstVector<Expr> args;
  /// Pattern argument of kExists/kNotExists. shared_ptr keeps Expr
  /// copyable despite the recursive type; the copy path deep-copies it
  /// so no two Exprs ever share a payload.
  std::shared_ptr<Pattern> pattern;

  Expr() = default;
  explicit Expr(std::pmr::memory_resource* mr)
      : term(mr), op(mr), separator(mr), args(mr) {}
  /// Deep copy: clones the EXISTS pattern payload instead of aliasing
  /// it, so mutating a copied expression never edits the original.
  Expr(const Expr& o);
  Expr& operator=(const Expr& o);
  Expr(Expr&&) noexcept = default;
  Expr& operator=(Expr&&) = default;
  ~Expr() = default;

  static Expr MakeTerm(Term t);
  static Expr MakeVar(std::string_view name,
                      std::pmr::memory_resource* mr =
                          std::pmr::get_default_resource());
  static Expr Call(std::string_view name, AstVector<Expr> args);
  static Expr Binary(ExprKind k, std::string_view op, Expr lhs, Expr rhs);

  bool is_variable() const {
    return kind == ExprKind::kTerm && term.is_variable();
  }

  /// Appends all variables occurring in the expression (including inside
  /// EXISTS patterns) to `out`.
  void CollectVariables(std::set<std::string>& out) const;
};

// ---------------------------------------------------------------------------
// Graph patterns.
// ---------------------------------------------------------------------------

/// A triple pattern or property-path pattern. The path, when there is
/// one, lives out of line on the triple's memory resource: most triples
/// have a plain predicate and pay one pointer for the rare path.
struct TriplePattern {
  Term subject;
  /// The predicate term (IRI or variable); unused iff has_path().
  Term predicate;
  Term object;

  TriplePattern() = default;
  explicit TriplePattern(std::pmr::memory_resource* mr)
      : subject(mr), predicate(mr), object(mr) {}
  /// Deep copy onto the heap (the path too).
  TriplePattern(const TriplePattern& o);
  /// Deep copy onto this triple's resource.
  TriplePattern& operator=(const TriplePattern& o);
  TriplePattern(TriplePattern&& o) noexcept
      : subject(std::move(o.subject)),
        predicate(std::move(o.predicate)),
        object(std::move(o.object)),
        path_(o.path_) {
    o.path_ = nullptr;
  }
  TriplePattern& operator=(TriplePattern&& o);
  ~TriplePattern() { clear_path(); }

  static TriplePattern Make(Term s, Term p, Term o);
  static TriplePattern MakePath(Term s, PathExpr path, Term o);

  bool has_path() const { return path_ != nullptr; }
  /// The property path; only valid when has_path().
  const PathExpr& path() const { return *CheckedPath(); }
  PathExpr& path() { return *CheckedPath(); }
  /// Makes this a path pattern (on this triple's resource).
  void set_path(PathExpr path);
  /// Drops the path: the pattern reads `predicate` again.
  void clear_path();

  /// True iff the predicate position holds a variable (these queries have
  /// no meaningful canonical *graph*; Section 5 of the paper).
  bool has_variable_predicate() const {
    return !has_path() && predicate.is_variable();
  }

  void CollectVariables(std::set<std::string>& out) const;

 private:
  std::pmr::memory_resource* resource() const {
    return subject.value.get_allocator().resource();
  }
  PathExpr* CheckedPath() const;

  PathExpr* path_ = nullptr;
};

struct Query;  // forward declaration (subqueries)

enum class PatternKind {
  kGroup,      ///< Conjunction (And) of children, in syntactic order.
  kTriple,     ///< A single triple/path pattern.
  kFilter,     ///< FILTER constraint (scoped to the enclosing group).
  kUnion,      ///< Union of >= 2 children.
  kOptional,   ///< OPTIONAL { child } — binds to the preceding group part.
  kMinus,      ///< MINUS { child }.
  kGraph,      ///< GRAPH iv { child }.
  kService,    ///< SERVICE [SILENT] iv { child }.
  kBind,       ///< BIND(expr AS var).
  kValues,     ///< Inline data.
  kSubSelect,  ///< A nested SELECT query.
};

/// The payload of a VALUES pattern: the variables and one row of
/// values per solution (nullopt for UNDEF).
struct ValuesTable {
  AstVector<Term> vars;
  AstVector<AstVector<std::optional<Term>>> rows;

  ValuesTable() = default;
  explicit ValuesTable(std::pmr::memory_resource* mr) : vars(mr), rows(mr) {}
};

/// A node of a SPARQL graph-pattern tree: its kind, its children (one
/// exact-size array) and the one payload its kind needs, out of line on
/// the node's memory resource. The queries of the paper's corpus are
/// small (> 55% have one triple) but a log holds hundreds of millions of
/// them, so a node is four words whatever its kind.
///
/// Payloads by kind, each read through an accessor that checks the kind:
///   kTriple              triple()
///   kFilter              expr()
///   kBind                expr(), var()
///   kGraph, kService     graph(), silent()
///   kValues              values()
///   kSubSelect           subquery()
/// Groups, unions, OPTIONAL and MINUS carry children only; OPTIONAL,
/// MINUS, GRAPH and SERVICE have exactly one.
class Pattern {
 public:
  /// An empty group on the heap.
  Pattern() = default;
  /// An empty node of `kind` on `mr`, its payload default-constructed.
  explicit Pattern(PatternKind kind,
                   std::pmr::memory_resource* mr =
                       std::pmr::get_default_resource());
  /// Deep copy onto the heap: the children and the payload (a subquery
  /// too), so mutating a copy (e.g. the AST shrinker) never edits the
  /// original.
  Pattern(const Pattern& o)
      : Pattern(Clone(o, std::pmr::get_default_resource())) {}
  /// Deep copy onto this node's resource.
  Pattern& operator=(const Pattern& o);
  Pattern(Pattern&& o) noexcept
      : mr_(o.mr_),
        payload_(o.payload_),
        children_(o.children_),
        num_children_(o.num_children_),
        kind_(o.kind_) {
    o.Forget();
  }
  Pattern& operator=(Pattern&& o);
  ~Pattern() { Release(); }

  static Pattern Group(AstVector<Pattern> children);
  static Pattern Triple(TriplePattern tp);
  static Pattern Filter(Expr e);
  static Pattern Union(AstVector<Pattern> branches);
  static Pattern Optional(Pattern body);
  static Pattern Minus(Pattern body);
  static Pattern Graph(Term iv, Pattern body);

  PatternKind kind() const { return kind_; }
  std::pmr::memory_resource* resource() const { return mr_; }

  /// Group members, union branches, or the single body of
  /// optional/minus/graph/service.
  std::span<const Pattern> children() const {
    return {children_, num_children_};
  }
  std::span<Pattern> children() { return {children_, num_children_}; }
  /// Replaces the children by `from`'s elements, moved (copied if they
  /// sit on another resource) into one exact-size array on this node's
  /// resource. `from` may alias the current children.
  void SetChildren(std::span<Pattern> from);

  const TriplePattern& triple() const {
    return *Payload<TriplePattern>(kind_ == PatternKind::kTriple);
  }
  TriplePattern& triple() {
    return *Payload<TriplePattern>(kind_ == PatternKind::kTriple);
  }
  /// kFilter constraint or kBind source expression.
  const Expr& expr() const { return const_cast<Pattern*>(this)->expr(); }
  Expr& expr() {
    if (kind_ == PatternKind::kBind) return Payload<BindNode>(true)->expr;
    return *Payload<Expr>(kind_ == PatternKind::kFilter);
  }
  /// kBind target variable.
  const Term& var() const { return const_cast<Pattern*>(this)->var(); }
  Term& var() { return Payload<BindNode>(kind_ == PatternKind::kBind)->var; }
  /// kGraph / kService: the IRI or variable `iv`.
  const Term& graph() const { return const_cast<Pattern*>(this)->graph(); }
  Term& graph() { return Payload<GraphNode>(IsGraphOrService())->iv; }
  /// SERVICE SILENT (always false for GRAPH).
  bool silent() const {
    return const_cast<Pattern*>(this)->Payload<GraphNode>(IsGraphOrService())
        ->silent;
  }
  void set_silent(bool silent) {
    Payload<GraphNode>(kind_ == PatternKind::kService)->silent = silent;
  }
  const ValuesTable& values() const {
    return const_cast<Pattern*>(this)->values();
  }
  ValuesTable& values() {
    return *Payload<ValuesTable>(kind_ == PatternKind::kValues);
  }
  const Query& subquery() const {
    return const_cast<Pattern*>(this)->subquery();
  }
  Query& subquery() {
    return *Payload<Query>(kind_ == PatternKind::kSubSelect);
  }

  /// Appends all variables in the pattern (not descending into
  /// subqueries' SELECT clauses, but into their bodies) to `out`.
  void CollectVariables(std::set<std::string>& out) const;

  /// Appends every triple pattern in this subtree (not descending into
  /// subqueries or EXISTS filters) to `out`.
  void CollectTriples(std::vector<const TriplePattern*>& out) const;

  /// In-scope variables per SPARQL 1.1 Section 18.2.1: variables visible
  /// to the enclosing projection (excludes MINUS bodies and variables
  /// only mentioned in FILTER constraints).
  void CollectInScopeVariables(std::set<std::string>& out) const;

 private:
  struct BindNode {
    Expr expr;
    Term var;
    explicit BindNode(std::pmr::memory_resource* mr) : expr(mr), var(mr) {}
  };
  struct GraphNode {
    Term iv;
    bool silent = false;
    explicit GraphNode(std::pmr::memory_resource* mr) : iv(mr) {}
  };

  /// Calls `f(std::type_identity<T>{})` with the payload type T of
  /// `kind`; not at all for the kinds without a payload.
  template <typename F>
  static void WithPayloadType(PatternKind kind, F&& f);
  /// An exact-size array of `n` nodes on `mr`, node i built from
  /// `make(i)`; nullptr for n == 0. A throw frees what was built.
  template <typename F>
  static Pattern* NewArray(size_t n, std::pmr::memory_resource* mr, F&& make);
  /// A deep copy of `o` with every node, child array and payload on `mr`.
  static Pattern Clone(const Pattern& o, std::pmr::memory_resource* mr);
  [[noreturn]] void BadKind() const;

  template <typename T>
  T* Payload(bool kind_matches) const {
    if (!kind_matches) [[unlikely]] BadKind();
    return static_cast<T*>(payload_);
  }
  bool IsGraphOrService() const {
    return kind_ == PatternKind::kGraph || kind_ == PatternKind::kService;
  }
  /// Destroys the children and the payload, leaving an empty group.
  void Release();
  /// Destroys the children and frees their array.
  void ReleaseChildren();
  /// Drops ownership without destroying: the node reads as an empty
  /// group (after its contents moved elsewhere).
  void Forget() {
    payload_ = nullptr;
    children_ = nullptr;
    num_children_ = 0;
    kind_ = PatternKind::kGroup;
  }

  std::pmr::memory_resource* mr_ = std::pmr::get_default_resource();
  void* payload_ = nullptr;
  Pattern* children_ = nullptr;
  uint32_t num_children_ = 0;
  PatternKind kind_ = PatternKind::kGroup;
};

// ---------------------------------------------------------------------------
// Queries.
// ---------------------------------------------------------------------------

/// The four SPARQL query forms (Section 3 of the paper).
enum class QueryForm { kSelect, kAsk, kConstruct, kDescribe };

/// One ORDER BY condition.
struct OrderCondition {
  bool descending = false;
  Expr expr;

  OrderCondition() = default;
  explicit OrderCondition(std::pmr::memory_resource* mr) : expr(mr) {}
};

/// One SELECT projection item: a plain variable or `(expr AS ?var)`.
struct SelectItem {
  Term var;
  std::optional<Expr> expr;

  SelectItem() = default;
  explicit SelectItem(std::pmr::memory_resource* mr) : var(mr) {}
};

/// One GROUP BY condition: an expression, optionally bound `AS ?var`.
struct GroupCondition {
  Expr expr;
  std::optional<Term> as_var;

  GroupCondition() = default;
  explicit GroupCondition(std::pmr::memory_resource* mr) : expr(mr) {}
};

/// One FROM / FROM NAMED dataset clause.
struct DatasetClause {
  bool named = false;
  AstString iri;

  DatasetClause() = default;
  explicit DatasetClause(std::pmr::memory_resource* mr) : iri(mr) {}
};

/// A parsed SPARQL query: (query-type, pattern, solution-modifier) as in
/// Section 3 of the paper, plus the prologue.
struct Query {
  QueryForm form = QueryForm::kSelect;

  // Prologue.
  AstString base;
  AstVector<std::pair<AstString, AstString>> prefixes;

  // Projection (Select) / template (Construct) / targets (Describe).
  bool distinct = false;
  bool reduced = false;
  bool select_star = false;
  AstVector<SelectItem> select_items;
  AstVector<TriplePattern> construct_template;
  AstVector<Term> describe_targets;  ///< empty with describe_all for `*`.
  bool describe_all = false;

  AstVector<DatasetClause> dataset;

  /// Whether the query has a WHERE clause (Describe queries may not; the
  /// paper: 4.47% of the corpus has no body).
  bool has_body = false;
  Pattern where;  ///< Root group; valid iff has_body.

  // Solution modifiers.
  AstVector<GroupCondition> group_by;
  AstVector<Expr> having;
  AstVector<OrderCondition> order_by;
  std::optional<uint64_t> limit;
  std::optional<uint64_t> offset;

  /// Trailing VALUES clause, if any.
  std::optional<Pattern> trailing_values;

  Query() = default;
  explicit Query(std::pmr::memory_resource* mr)
      : base(mr),
        prefixes(mr),
        select_items(mr),
        construct_template(mr),
        describe_targets(mr),
        dataset(mr),
        where(PatternKind::kGroup, mr),
        group_by(mr),
        having(mr),
        order_by(mr) {}

  /// All variables appearing in the body.
  std::set<std::string> BodyVariables() const;
};

// ---------------------------------------------------------------------------
// Variable walks. Each calls `f(name)` (a std::string_view without the
// leading '?') once per variable occurrence, in tree order, until `f`
// returns false; the walk returns false iff `f` stopped it. The
// CollectVariables / CollectInScopeVariables members are these walks
// into a set; callers that need no set (early exits, dense variable ids)
// walk directly.
// ---------------------------------------------------------------------------

template <typename F>
bool ForEachVariable(const Expr& e, F&& f);
template <typename F>
bool ForEachVariable(const Pattern& p, F&& f);

/// The variables of a triple pattern (a path's predicate has none).
template <typename F>
bool ForEachVariable(const TriplePattern& t, F&& f) {
  if (t.subject.is_variable() && !f(std::string_view(t.subject.value))) {
    return false;
  }
  if (!t.has_path() && t.predicate.is_variable() &&
      !f(std::string_view(t.predicate.value))) {
    return false;
  }
  return !t.object.is_variable() || f(std::string_view(t.object.value));
}

/// Every variable of an expression, including inside EXISTS patterns.
template <typename F>
bool ForEachVariable(const Expr& e, F&& f) {
  if (e.kind == ExprKind::kTerm) {
    return !e.term.is_variable() || f(std::string_view(e.term.value));
  }
  for (const Expr& a : e.args) {
    if (!ForEachVariable(a, f)) return false;
  }
  return !e.pattern || ForEachVariable(*e.pattern, f);
}

/// Every variable of a pattern (into subquery bodies, not their SELECT
/// clauses).
template <typename F>
bool ForEachVariable(const Pattern& p, F&& f) {
  auto term = [&f](const Term& t) {
    return !t.is_variable() || f(std::string_view(t.value));
  };
  switch (p.kind()) {
    case PatternKind::kTriple:
      return ForEachVariable(p.triple(), f);
    case PatternKind::kFilter:
      return ForEachVariable(p.expr(), f);
    case PatternKind::kBind:
      return ForEachVariable(p.expr(), f) && term(p.var());
    case PatternKind::kValues:
      for (const Term& v : p.values().vars) {
        if (!term(v)) return false;
      }
      return true;
    case PatternKind::kGraph:
    case PatternKind::kService:
      if (!term(p.graph())) return false;
      break;
    case PatternKind::kSubSelect:
      return !p.subquery().has_body ||
             ForEachVariable(p.subquery().where, f);
    default:
      break;
  }
  for (const Pattern& c : p.children()) {
    if (!ForEachVariable(c, f)) return false;
  }
  return true;
}

/// The in-scope variables of a pattern per SPARQL 1.1 Section 18.2.1:
/// no FILTER constraints, no MINUS bodies, and of a subquery only what
/// it projects.
template <typename F>
bool ForEachInScopeVariable(const Pattern& p, F&& f) {
  auto term = [&f](const Term& t) {
    return !t.is_variable() || f(std::string_view(t.value));
  };
  switch (p.kind()) {
    case PatternKind::kTriple:
      return ForEachVariable(p.triple(), f);
    case PatternKind::kFilter:
    case PatternKind::kMinus:
      return true;
    case PatternKind::kBind:
      return term(p.var());
    case PatternKind::kValues:
      for (const Term& v : p.values().vars) {
        if (!term(v)) return false;
      }
      return true;
    case PatternKind::kGraph:
    case PatternKind::kService:
      if (!term(p.graph())) return false;
      break;
    case PatternKind::kSubSelect: {
      const Query& sub = p.subquery();
      if (sub.select_star && sub.has_body) {
        return ForEachInScopeVariable(sub.where, f);
      }
      for (const SelectItem& item : sub.select_items) {
        if (!f(std::string_view(item.var.value))) return false;
      }
      return true;
    }
    default:
      break;
  }
  for (const Pattern& c : p.children()) {
    if (!ForEachInScopeVariable(c, f)) return false;
  }
  return true;
}

}  // namespace sparqlog::sparql

#endif  // SPARQLOG_SPARQL_AST_H_
