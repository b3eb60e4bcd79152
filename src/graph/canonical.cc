#include "graph/canonical.h"

#include <algorithm>
#include <string_view>

namespace sparqlog::graph {

using rdf::Term;
using rdf::TermKind;
using sparql::Expr;
using sparql::ExprKind;
using sparql::Pattern;
using sparql::PatternKind;
using sparql::TriplePattern;

namespace {

// The interner key is the pre-change NodeKey string — kind-tag char +
// value, literals extended with "^datatype@lang" — hashed and compared
// as a virtual byte stream so the string never exists. Keeping the
// exact concatenation semantics (not field-wise comparison) preserves
// the old builder's behavior bit for bit, including its conflation of
// literal field boundaries across the separators.

constexpr uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

inline uint64_t FnvByte(uint64_t h, unsigned char c) {
  return (h ^ c) * kFnvPrime;
}

inline uint64_t FnvBytes(uint64_t h, std::string_view s) {
  for (unsigned char c : s) h = FnvByte(h, c);
  return h;
}

char KindTag(TermKind kind) {
  switch (kind) {
    case TermKind::kVariable: return '?';
    case TermKind::kBlank: return '_';
    case TermKind::kIri: return '<';
    case TermKind::kLiteral: return '"';
  }
  return '\0';
}

uint64_t NodeKeyHash(const Term& t) {
  uint64_t h = FnvByte(kFnvOffset, static_cast<unsigned char>(KindTag(t.kind)));
  h = FnvBytes(h, t.value);
  if (t.kind == TermKind::kLiteral) {
    h = FnvByte(h, '^');
    h = FnvBytes(h, t.datatype);
    h = FnvByte(h, '@');
    h = FnvBytes(h, t.lang);
  }
  return h;
}

/// Equality of the virtual NodeKey streams (segment-boundary-agnostic,
/// exactly like comparing the concatenated strings).
bool NodeKeyEquals(const Term& a, const Term& b) {
  if (a.kind != b.kind) return false;
  if (a.kind != TermKind::kLiteral) return a.value == b.value;
  if (a.value.size() + a.datatype.size() + a.lang.size() !=
      b.value.size() + b.datatype.size() + b.lang.size()) {
    return false;
  }
  const std::string_view as[5] = {a.value, "^", a.datatype, "@", a.lang};
  const std::string_view bs[5] = {b.value, "^", b.datatype, "@", b.lang};
  size_t ai = 0, aj = 0, bi = 0, bj = 0;
  for (;;) {
    while (ai < 5 && aj == as[ai].size()) {
      ++ai;
      aj = 0;
    }
    while (bi < 5 && bj == bs[bi].size()) {
      ++bi;
      bj = 0;
    }
    if (ai == 5 || bi == 5) return ai == 5 && bi == 5;
    if (as[ai][aj] != bs[bi][bj]) return false;
    ++aj;
    ++bj;
  }
}

void CollectEqualityPairs(
    const Expr& e,
    std::vector<std::pair<const Term*, const Term*>>& out) {
  if (IsVarEqualityFilter(e)) {
    out.emplace_back(&e.args[0].term, &e.args[1].term);
    return;
  }
  // Conjunctions of simple filters distribute; other contexts (||, !)
  // do not force equality, so we only descend through kAnd.
  if (e.kind == ExprKind::kAnd) {
    for (const Expr& a : e.args) CollectEqualityPairs(a, out);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// TermInterner
// ---------------------------------------------------------------------------

int TermInterner::Intern(const Term& t) {
  if (slots_.empty()) slots_.resize(16);
  uint64_t h = NodeKeyHash(t);
  size_t mask = slots_.size() - 1;
  size_t i = static_cast<size_t>(h) & mask;
  while (slots_[i].epoch == epoch_) {
    if (slots_[i].hash == h &&
        NodeKeyEquals(*terms_[static_cast<size_t>(slots_[i].id)], t)) {
      return slots_[i].id;
    }
    i = (i + 1) & mask;
  }
  int id = static_cast<int>(terms_.size());
  terms_.push_back(&t);
  slots_[i].hash = h;
  slots_[i].epoch = epoch_;
  slots_[i].id = id;
  if ((terms_.size() + 1) * 4 > slots_.size() * 3) Grow();
  return id;
}

void TermInterner::Grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.size() * 2, Slot{});
  size_t mask = slots_.size() - 1;
  for (const Slot& s : old) {
    if (s.epoch != epoch_) continue;
    size_t i = static_cast<size_t>(s.hash) & mask;
    while (slots_[i].epoch == epoch_) i = (i + 1) & mask;
    slots_[i] = s;
  }
}

void TermInterner::Clear() {
  terms_.clear();
  // Bumping the epoch invalidates every slot in O(1); on the (rare)
  // wraparound, really wipe the table so stale epochs cannot alias.
  if (++epoch_ == 0) {
    std::fill(slots_.begin(), slots_.end(), Slot{});
    epoch_ = 1;
  }
}

// ---------------------------------------------------------------------------
// CanonicalScratch
// ---------------------------------------------------------------------------

void CanonicalScratch::Clear() {
  interner.Clear();
  uf_parent.clear();
  class_to_node.clear();
  eq_pairs.clear();
}

int CanonicalScratch::UfAdd() {
  uf_parent.push_back(static_cast<int>(uf_parent.size()));
  return static_cast<int>(uf_parent.size()) - 1;
}

int CanonicalScratch::UfFind(int x) {
  while (uf_parent[static_cast<size_t>(x)] != x) {
    uf_parent[static_cast<size_t>(x)] =
        uf_parent[static_cast<size_t>(uf_parent[static_cast<size_t>(x)])];
    x = uf_parent[static_cast<size_t>(x)];
  }
  return x;
}

// ---------------------------------------------------------------------------
// Canonical graph
// ---------------------------------------------------------------------------

bool IsVarEqualityFilter(const Expr& e) {
  return e.kind == ExprKind::kCompare && e.op == "=" && e.args.size() == 2 &&
         e.args[0].is_variable() && e.args[1].is_variable();
}

void CollectTriplesAndFilters(const Pattern& body,
                              std::vector<const TriplePattern*>& triples,
                              std::vector<const Expr*>& filters) {
  switch (body.kind()) {
    case PatternKind::kTriple:
      triples.push_back(&body.triple());
      return;
    case PatternKind::kFilter:
      filters.push_back(&body.expr());
      return;
    case PatternKind::kSubSelect:
      return;
    default:
      break;
  }
  for (const Pattern& c : body.children()) {
    CollectTriplesAndFilters(c, triples, filters);
  }
}

void BuildCanonicalGraph(const std::vector<const TriplePattern*>& triples,
                         const std::vector<const Expr*>& filters,
                         const CanonicalOptions& options,
                         CanonicalScratch& scratch, CanonicalGraph& out) {
  out.graph.Reset(0);
  out.node_terms.clear();
  out.owned_terms.clear();
  out.valid = true;
  for (const TriplePattern* tp : triples) {
    if (tp->has_path() || tp->predicate.is_variable()) {
      out.valid = false;
      return;
    }
  }

  scratch.Clear();
  // Interner ids and union-find elements are allocated in lockstep, so
  // an interned id doubles as its union-find element.
  auto intern = [&scratch](const Term& t) {
    int before = scratch.interner.size();
    int id = scratch.interner.Intern(t);
    if (id == before) scratch.UfAdd();
    return id;
  };

  // Collapse ?x = ?y equality filters first (footnote 20).
  if (options.collapse_equality_filters) {
    for (const Expr* f : filters) CollectEqualityPairs(*f, scratch.eq_pairs);
    for (const auto& [a, b] : scratch.eq_pairs) {
      scratch.UfUnion(intern(*a), intern(*b));
    }
  }

  auto keep = [&options](const Term& t) {
    return options.include_constants || t.is_unknown();
  };

  // Map union-find classes to graph nodes lazily; the class
  // representative's first-seen term names the node.
  auto node_of = [&](const Term& t) {
    int cls = scratch.UfFind(intern(t));
    if (static_cast<size_t>(cls) >= scratch.class_to_node.size()) {
      scratch.class_to_node.resize(
          static_cast<size_t>(scratch.interner.size()), -1);
    }
    int node = scratch.class_to_node[static_cast<size_t>(cls)];
    if (node >= 0) return node;
    node = out.graph.AddNode();
    out.node_terms.push_back(scratch.interner.term(cls));
    scratch.class_to_node[static_cast<size_t>(cls)] = node;
    return node;
  };

  for (const TriplePattern* tp : triples) {
    bool ks = keep(tp->subject);
    bool ko = keep(tp->object);
    if (ks && ko) {
      out.graph.AddEdge(node_of(tp->subject), node_of(tp->object));
    } else if (ks) {
      node_of(tp->subject);
    } else if (ko) {
      node_of(tp->object);
    }
  }
}

namespace {

/// Re-points node_terms at owned copies so a value-returning result is
/// self-contained (safe after the query AST is gone).
void OwnTerms(CanonicalGraph& out) {
  out.owned_terms.reserve(out.node_terms.size());
  for (const Term* t : out.node_terms) out.owned_terms.push_back(*t);
  for (size_t i = 0; i < out.node_terms.size(); ++i) {
    out.node_terms[i] = &out.owned_terms[i];
  }
}

}  // namespace

CanonicalGraph BuildCanonicalGraph(
    const std::vector<const TriplePattern*>& triples,
    const std::vector<const Expr*>& filters, const CanonicalOptions& options) {
  CanonicalScratch scratch;
  CanonicalGraph out;
  BuildCanonicalGraph(triples, filters, options, scratch, out);
  OwnTerms(out);
  return out;
}

CanonicalGraph BuildCanonicalGraph(const Pattern& body,
                                   const CanonicalOptions& options) {
  std::vector<const TriplePattern*> triples;
  std::vector<const Expr*> filters;
  CollectTriplesAndFilters(body, triples, filters);
  return BuildCanonicalGraph(triples, filters, options);
}

// ---------------------------------------------------------------------------
// Canonical hypergraph
// ---------------------------------------------------------------------------

void BuildCanonicalHypergraph(const std::vector<const TriplePattern*>& triples,
                              const std::vector<const Expr*>& filters,
                              const CanonicalOptions& options,
                              CanonicalScratch& scratch, Hypergraph& out) {
  out.Reset();
  scratch.Clear();
  auto intern = [&scratch](const Term& t) {
    int before = scratch.interner.size();
    int id = scratch.interner.Intern(t);
    if (id == before) scratch.UfAdd();
    return id;
  };

  if (options.collapse_equality_filters) {
    for (const Expr* f : filters) CollectEqualityPairs(*f, scratch.eq_pairs);
    for (const auto& [a, b] : scratch.eq_pairs) {
      scratch.UfUnion(intern(*a), intern(*b));
    }
  }

  int next_node = 0;
  auto node_of = [&](const Term& t) {
    int cls = scratch.UfFind(intern(t));
    if (static_cast<size_t>(cls) >= scratch.class_to_node.size()) {
      scratch.class_to_node.resize(
          static_cast<size_t>(scratch.interner.size()), -1);
    }
    int node = scratch.class_to_node[static_cast<size_t>(cls)];
    if (node >= 0) return node;
    node = next_node++;
    scratch.class_to_node[static_cast<size_t>(cls)] = node;
    return node;
  };

  for (const TriplePattern* tp : triples) {
    int e[3];
    int count = 0;
    if (tp->subject.is_unknown()) e[count++] = node_of(tp->subject);
    if (!tp->has_path() && tp->predicate.is_unknown()) {
      e[count++] = node_of(tp->predicate);
    }
    if (tp->object.is_unknown()) e[count++] = node_of(tp->object);
    // Sort the (at most 3) ids and drop duplicates: set semantics
    // within a hyperedge, like the old std::set-based edge.
    std::sort(e, e + count);
    count = static_cast<int>(std::unique(e, e + count) - e);
    if (count > 0) out.AddEdgeSorted(e, e + count);
  }
}

Hypergraph BuildCanonicalHypergraph(
    const std::vector<const TriplePattern*>& triples,
    const std::vector<const Expr*>& filters, const CanonicalOptions& options) {
  CanonicalScratch scratch;
  Hypergraph out;
  BuildCanonicalHypergraph(triples, filters, options, scratch, out);
  return out;
}

}  // namespace sparqlog::graph
