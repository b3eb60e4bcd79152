#include "testing/query_fuzzer.h"

#include <cstddef>
#include <string>
#include <utility>

#include "gmark/schema.h"

namespace sparqlog::testing {

using rdf::Term;
using sparql::Expr;
using sparql::ExprKind;
using sparql::PathExpr;
using sparql::PathKind;
using sparql::Pattern;
using sparql::PatternKind;
using sparql::Query;
using sparql::QueryForm;
using sparql::TriplePattern;
namespace termgen = sparql::termgen;

// Coverage arrays must track the AST enums exactly: a new enumerator
// without a matching slot would either index out of bounds here or let
// the coverage test pass vacuously.
static_assert(static_cast<size_t>(QueryForm::kDescribe) + 1 ==
              std::tuple_size_v<decltype(FuzzCoverage::forms)>);
static_assert(static_cast<size_t>(PatternKind::kSubSelect) + 1 ==
              std::tuple_size_v<decltype(FuzzCoverage::patterns)>);
static_assert(static_cast<size_t>(PathKind::kZeroOrOne) + 1 ==
              std::tuple_size_v<decltype(FuzzCoverage::paths)>);
static_assert(static_cast<size_t>(ExprKind::kNotExists) + 1 ==
              std::tuple_size_v<decltype(FuzzCoverage::exprs)>);
static_assert(static_cast<size_t>(rdf::TermKind::kVariable) + 1 ==
              std::tuple_size_v<decltype(FuzzCoverage::terms)>);
static_assert(static_cast<size_t>(gmark::QueryShape::kChainStar) + 1 ==
              std::tuple_size_v<decltype(FuzzCoverage::shapes)>);

namespace {

/// Builtin function names the parser accepts as `NAME(args)`. Stored
/// upper-case because the parser canonicalizes call names to upper.
constexpr const char* kBuiltins[] = {
    "STR",      "LANG",     "DATATYPE", "BOUND",      "IRI",
    "ABS",      "CEIL",     "FLOOR",    "ROUND",      "STRLEN",
    "UCASE",    "LCASE",    "CONTAINS", "STRSTARTS",  "STRENDS",
    "CONCAT",   "SUBSTR",   "REPLACE",  "REGEX",      "YEAR",
    "ISIRI",    "ISBLANK",  "ISLITERAL", "ISNUMERIC", "LANGMATCHES",
    "SAMETERM", "IF",       "COALESCE", "MD5",        "NOW",
};

constexpr const char* kCompareOps[] = {"=", "!=", "<", ">", "<=", ">="};
constexpr const char* kArithOps[] = {"+", "-", "*", "/"};

bool NeedsLiteralEscape(std::string_view body) {
  return body.find_first_of(termgen::EscapedLiteralChars()) !=
         std::string::npos;
}

}  // namespace

QueryFuzzer::QueryFuzzer(const QueryFuzzOptions& options)
    : options_(options), rng_(options.seed) {
  // Pre-generate skeletons for all four paper shapes and several
  // lengths. Seeded off the fuzzer seed so the whole sequence is one
  // deterministic function of QueryFuzzOptions.
  gmark::Schema schema = gmark::Schema::Bib();
  const gmark::QueryShape shapes[] = {
      gmark::QueryShape::kChain, gmark::QueryShape::kStar,
      gmark::QueryShape::kCycle, gmark::QueryShape::kChainStar};
  for (gmark::QueryShape shape : shapes) {
    for (int length : {2, 3, 5}) {
      gmark::QueryGenOptions gen;
      gen.shape = shape;
      gen.length = length;
      gen.workload_size = 6;
      gen.ask_form = false;
      gen.seed = options_.seed ^ (static_cast<uint64_t>(shape) << 8 |
                                  static_cast<uint64_t>(length));
      for (gmark::GeneratedQuery& q : gmark::GenerateWorkload(schema, gen)) {
        skeletons_.push_back(std::move(q));
      }
    }
  }
}

Term QueryFuzzer::GenTerm(const termgen::TermGenOptions& options) {
  Term t = termgen::RandomTerm(rng_, options);
  ++coverage_.terms[static_cast<size_t>(t.kind)];
  if (t.is_literal() && NeedsLiteralEscape(t.value)) {
    ++coverage_.escaped_literals;
  }
  return t;
}

Term QueryFuzzer::GenVarOrIri() {
  Term t = rng_.Chance(0.5) ? Term::Var(termgen::VariableName(rng_))
                            : Term::Iri(termgen::IriString(rng_));
  ++coverage_.terms[static_cast<size_t>(t.kind)];
  return t;
}

PathExpr QueryFuzzer::GenPath(int depth) {
  auto link = [this] {
    ++coverage_.paths[static_cast<size_t>(PathKind::kLink)];
    return PathExpr::Link(termgen::IriString(rng_));
  };
  if (depth <= 0) return link();
  PathKind kind;
  switch (rng_.Below(8)) {
    case 0: kind = PathKind::kLink; break;
    case 1: kind = PathKind::kInverse; break;
    case 2: kind = PathKind::kNegated; break;
    case 3: kind = PathKind::kSeq; break;
    case 4: kind = PathKind::kAlt; break;
    case 5: kind = PathKind::kZeroOrMore; break;
    case 6: kind = PathKind::kOneOrMore; break;
    default: kind = PathKind::kZeroOrOne; break;
  }
  ++coverage_.paths[static_cast<size_t>(kind)];
  switch (kind) {
    case PathKind::kLink:
      return PathExpr::Link(termgen::IriString(rng_));
    case PathKind::kInverse:
    case PathKind::kZeroOrMore:
    case PathKind::kOneOrMore:
    case PathKind::kZeroOrOne:
      return PathExpr::Unary(kind, GenPath(depth - 1));
    case PathKind::kNegated: {
      // Members are links or inverted links, per the grammar.
      sparql::AstVector<PathExpr> members;
      size_t n = 1 + rng_.Below(3);
      for (size_t i = 0; i < n; ++i) {
        PathExpr member = PathExpr::Link(termgen::IriString(rng_));
        if (rng_.Chance(0.3)) {
          member = PathExpr::Unary(PathKind::kInverse, std::move(member));
        }
        members.push_back(std::move(member));
      }
      return PathExpr::Nary(PathKind::kNegated, std::move(members));
    }
    case PathKind::kSeq:
    case PathKind::kAlt: {
      // N-ary nodes need >= 2 children to survive a reparse.
      sparql::AstVector<PathExpr> children;
      size_t n = 2 + rng_.Below(2);
      for (size_t i = 0; i < n; ++i) children.push_back(GenPath(depth - 1));
      return PathExpr::Nary(kind, std::move(children));
    }
  }
  return link();
}

Expr QueryFuzzer::GenAggregate(int depth) {
  static constexpr const char* kAggregates[] = {
      "COUNT", "SUM", "MIN", "MAX", "AVG", "SAMPLE", "GROUP_CONCAT"};
  Expr e;
  e.kind = ExprKind::kAggregate;
  ++coverage_.exprs[static_cast<size_t>(e.kind)];
  e.op = kAggregates[rng_.Below(std::size(kAggregates))];
  e.distinct = rng_.Chance(0.3);
  if (e.op == "COUNT" && rng_.Chance(0.4)) {
    e.star = true;
  } else {
    e.args.push_back(GenExpr(depth - 1, false));
  }
  if (e.op == "GROUP_CONCAT" && rng_.Chance(0.5)) {
    e.separator = termgen::LiteralBody(rng_, 0.3);
  }
  return e;
}

Expr QueryFuzzer::GenExpr(int depth, bool allow_aggregate) {
  if (depth <= 0) {
    // Leaf: a term usable in expression position (no blank nodes — the
    // expression grammar has no blank node production).
    termgen::TermGenOptions term_options;
    term_options.allow_blanks = false;
    Expr e = Expr::MakeTerm(GenTerm(term_options));
    ++coverage_.exprs[static_cast<size_t>(ExprKind::kTerm)];
    return e;
  }
  ExprKind kind;
  switch (rng_.Below(14)) {
    case 0: kind = ExprKind::kTerm; break;
    case 1: kind = ExprKind::kOr; break;
    case 2: kind = ExprKind::kAnd; break;
    case 3: kind = ExprKind::kNot; break;
    case 4: kind = ExprKind::kCompare; break;
    case 5: kind = ExprKind::kIn; break;
    case 6: kind = ExprKind::kNotIn; break;
    case 7: kind = ExprKind::kArith; break;
    case 8: kind = ExprKind::kUnaryMinus; break;
    case 9: kind = ExprKind::kUnaryPlus; break;
    case 10: kind = ExprKind::kFunction; break;
    case 11: kind = allow_aggregate ? ExprKind::kAggregate
                                    : ExprKind::kFunction; break;
    case 12: kind = ExprKind::kExists; break;
    default: kind = ExprKind::kNotExists; break;
  }
  if (kind == ExprKind::kTerm) return GenExpr(0, allow_aggregate);
  if (kind == ExprKind::kAggregate) return GenAggregate(depth);
  Expr e;
  e.kind = kind;
  ++coverage_.exprs[static_cast<size_t>(kind)];
  switch (kind) {
    case ExprKind::kOr:
    case ExprKind::kAnd: {
      size_t n = 2 + rng_.Below(2);
      for (size_t i = 0; i < n; ++i) {
        e.args.push_back(GenExpr(depth - 1, allow_aggregate));
      }
      break;
    }
    case ExprKind::kNot:
    case ExprKind::kUnaryMinus:
    case ExprKind::kUnaryPlus:
      e.args.push_back(GenExpr(depth - 1, allow_aggregate));
      break;
    case ExprKind::kCompare:
      e.op = kCompareOps[rng_.Below(std::size(kCompareOps))];
      e.args.push_back(GenExpr(depth - 1, allow_aggregate));
      e.args.push_back(GenExpr(depth - 1, allow_aggregate));
      break;
    case ExprKind::kArith:
      e.op = kArithOps[rng_.Below(std::size(kArithOps))];
      e.args.push_back(GenExpr(depth - 1, allow_aggregate));
      e.args.push_back(GenExpr(depth - 1, allow_aggregate));
      break;
    case ExprKind::kIn:
    case ExprKind::kNotIn: {
      e.args.push_back(GenExpr(depth - 1, allow_aggregate));  // lhs
      size_t n = rng_.Below(3);                               // may be empty
      for (size_t i = 0; i < n; ++i) {
        e.args.push_back(GenExpr(depth - 1, allow_aggregate));
      }
      break;
    }
    case ExprKind::kFunction: {
      if (rng_.Chance(0.2)) {
        // Extension function: called by IRI (must contain ':' so the
        // serializer renders the <iri>(args) form).
        e.op = "http://example.org/fn/" + termgen::VariableName(rng_);
      } else {
        e.op = kBuiltins[rng_.Below(std::size(kBuiltins))];
      }
      size_t n = rng_.Below(3);
      for (size_t i = 0; i < n; ++i) {
        e.args.push_back(GenExpr(depth - 1, allow_aggregate));
      }
      break;
    }
    case ExprKind::kExists:
    case ExprKind::kNotExists:
      e.pattern = std::make_shared<Pattern>(GenGroup(1));
      break;
    default:
      break;
  }
  return e;
}

Pattern QueryFuzzer::GenTriple() {
  ++coverage_.patterns[static_cast<size_t>(PatternKind::kTriple)];
  termgen::TermGenOptions subject_options;
  subject_options.allow_literals = false;  // keep subjects realistic
  Term subject = GenTerm(subject_options);
  Term object = GenTerm({});
  if (rng_.Chance(0.25)) {
    PathExpr path = GenPath(2);
    if (!path.IsSimpleLink()) {
      return Pattern::Triple(
          TriplePattern::MakePath(std::move(subject), std::move(path),
                                  std::move(object)));
    }
    // A bare link is an ordinary triple; fall through so the AST matches
    // what a reparse produces.
    return Pattern::Triple(TriplePattern::Make(
        std::move(subject), Term::Iri(path.iri), std::move(object)));
  }
  Term predicate = GenVarOrIri();
  return Pattern::Triple(TriplePattern::Make(
      std::move(subject), std::move(predicate), std::move(object)));
}

Pattern QueryFuzzer::GenValues() {
  ++coverage_.patterns[static_cast<size_t>(PatternKind::kValues)];
  Pattern p(PatternKind::kValues);
  size_t vars = 1 + rng_.Below(3);
  for (size_t i = 0; i < vars; ++i) {
    p.values().vars.push_back(Term::Var(termgen::VariableName(rng_)));
  }
  size_t rows = rng_.Below(3);
  termgen::TermGenOptions cell_options;
  cell_options.allow_variables = false;  // data block values are ground
  cell_options.allow_blanks = false;
  for (size_t r = 0; r < rows; ++r) {
    sparql::AstVector<std::optional<Term>> row;
    for (size_t c = 0; c < vars; ++c) {
      if (rng_.Chance(0.2)) {
        row.push_back(std::nullopt);  // UNDEF
      } else {
        row.push_back(GenTerm(cell_options));
      }
    }
    p.values().rows.push_back(std::move(row));
  }
  return p;
}

Pattern QueryFuzzer::GenSubSelect(int depth) {
  ++coverage_.patterns[static_cast<size_t>(PatternKind::kSubSelect)];
  Pattern p(PatternKind::kSubSelect);
  Query& sub = p.subquery();
  sub.form = QueryForm::kSelect;
  if (rng_.Chance(0.3)) {
    sub.select_star = true;
  } else {
    size_t n = 1 + rng_.Below(2);
    for (size_t i = 0; i < n; ++i) {
      sparql::SelectItem item;
      item.var = Term::Var(termgen::VariableName(rng_));
      if (rng_.Chance(0.3)) item.expr = GenExpr(1, true);
      sub.select_items.push_back(std::move(item));
    }
  }
  if (rng_.Chance(0.3)) sub.distinct = true;
  sub.has_body = true;
  sub.where = GenGroup(depth - 1);
  if (rng_.Chance(0.3)) sub.limit = rng_.Below(1000);
  if (rng_.Chance(0.2)) sub.offset = rng_.Below(100);
  return p;
}

Pattern QueryFuzzer::GenGroupChild(int depth) {
  // Weighted toward triples so patterns look like real queries.
  uint64_t roll = rng_.Below(depth > 0 ? 16 : 6);
  switch (roll) {
    case 0:
    case 1:
    case 2:
    case 3:
      return GenTriple();
    case 4: {
      ++coverage_.patterns[static_cast<size_t>(PatternKind::kFilter)];
      return Pattern::Filter(GenExpr(options_.max_expr_depth, false));
    }
    case 5: {
      ++coverage_.patterns[static_cast<size_t>(PatternKind::kBind)];
      Pattern p(PatternKind::kBind);
      p.expr() = GenExpr(2, false);
      p.var() = Term::Var(termgen::VariableName(rng_));
      return p;
    }
    case 6:
    case 7: {
      ++coverage_.patterns[static_cast<size_t>(PatternKind::kOptional)];
      return Pattern::Optional(GenGroup(depth - 1));
    }
    case 8: {
      ++coverage_.patterns[static_cast<size_t>(PatternKind::kMinus)];
      return Pattern::Minus(GenGroup(depth - 1));
    }
    case 9:
    case 10: {
      ++coverage_.patterns[static_cast<size_t>(PatternKind::kUnion)];
      sparql::AstVector<Pattern> branches;
      size_t n = 2 + rng_.Below(2);
      for (size_t i = 0; i < n; ++i) branches.push_back(GenGroup(depth - 1));
      return Pattern::Union(std::move(branches));
    }
    case 11: {
      ++coverage_.patterns[static_cast<size_t>(PatternKind::kGraph)];
      return Pattern::Graph(GenVarOrIri(), GenGroup(depth - 1));
    }
    case 12: {
      ++coverage_.patterns[static_cast<size_t>(PatternKind::kService)];
      Pattern p(PatternKind::kService);
      p.graph() = GenVarOrIri();
      p.set_silent(rng_.Chance(0.3));
      Pattern body = GenGroup(depth - 1);
      p.SetChildren({&body, 1});
      return p;
    }
    case 13:
      return GenValues();
    case 14:
      return GenSubSelect(depth);
    default: {
      // A nested plain group.
      ++coverage_.patterns[static_cast<size_t>(PatternKind::kGroup)];
      return GenGroup(depth - 1);
    }
  }
}

Pattern QueryFuzzer::GenGroup(int depth) {
  ++coverage_.patterns[static_cast<size_t>(PatternKind::kGroup)];
  sparql::AstVector<Pattern> children;
  size_t n = rng_.Below(4);  // empty groups are legal
  if (depth <= 0 && n == 0) n = 1;
  for (size_t i = 0; i < n; ++i) {
    children.push_back(GenGroupChild(depth));
  }
  return Pattern::Group(std::move(children));
}

sparql::AstVector<Pattern> QueryFuzzer::GenBaseTriples() {
  if (!skeletons_.empty() &&
      rng_.Chance(options_.gmark_skeleton_probability)) {
    const gmark::GeneratedQuery& skeleton =
        skeletons_[rng_.Below(skeletons_.size())];
    ++coverage_.gmark_skeletons;
    ++coverage_.shapes[static_cast<size_t>(skeleton.shape)];
    const std::span<const Pattern> skeleton_children =
        skeleton.sparql.where.children();
    sparql::AstVector<Pattern> children(skeleton_children.begin(),
                                        skeleton_children.end());
    for (Pattern& child : children) {
      if (child.kind() == PatternKind::kTriple) {
        ++coverage_.patterns[static_cast<size_t>(PatternKind::kTriple)];
        // Occasionally upgrade a skeleton edge to a property path so
        // shaped BGPs also exercise the path serializer.
        if (!child.triple().has_path() && rng_.Chance(0.15)) {
          PathExpr path = GenPath(2);
          if (!path.IsSimpleLink()) child.triple().set_path(std::move(path));
        }
      }
    }
    return children;
  }
  sparql::AstVector<Pattern> children;
  size_t n = 1 + rng_.Below(3);
  for (size_t i = 0; i < n; ++i) children.push_back(GenTriple());
  return children;
}

void QueryFuzzer::GenSolutionModifiers(Query& q) {
  if (rng_.Chance(0.2)) {
    size_t n = 1 + rng_.Below(2);
    for (size_t i = 0; i < n; ++i) {
      sparql::GroupCondition gc;
      switch (rng_.Below(3)) {
        case 0:
          gc.expr = Expr::MakeVar(termgen::VariableName(rng_));
          break;
        case 1:
          gc.expr = GenExpr(2, false);
          gc.as_var = Term::Var(termgen::VariableName(rng_));
          break;
        default:
          gc.expr = GenExpr(2, false);
          break;
      }
      q.group_by.push_back(std::move(gc));
    }
    if (rng_.Chance(0.5)) {
      q.having.push_back(GenExpr(2, true));
    }
  }
  if (rng_.Chance(0.25)) {
    size_t n = 1 + rng_.Below(2);
    for (size_t i = 0; i < n; ++i) {
      sparql::OrderCondition oc;
      oc.descending = rng_.Chance(0.4);
      oc.expr = rng_.Chance(0.6) ? Expr::MakeVar(termgen::VariableName(rng_))
                                 : GenExpr(2, true);
      q.order_by.push_back(std::move(oc));
    }
  }
  if (rng_.Chance(0.35)) q.limit = rng_.Below(100000);
  if (rng_.Chance(0.2)) q.offset = rng_.Below(10000);
}

Query QueryFuzzer::Next() {
  ++coverage_.queries;
  Query q;
  switch (rng_.Below(10)) {
    case 0:
    case 1:
      q.form = QueryForm::kAsk;
      break;
    case 2:
      q.form = QueryForm::kConstruct;
      break;
    case 3:
      q.form = QueryForm::kDescribe;
      break;
    default:
      q.form = QueryForm::kSelect;
      break;
  }
  ++coverage_.forms[static_cast<size_t>(q.form)];

  // Body: everything except some DESCRIBE queries has one (the parser
  // requires WHERE for SELECT/ASK/CONSTRUCT).
  bool body = q.form != QueryForm::kDescribe || rng_.Chance(0.7);
  if (body) {
    sparql::AstVector<Pattern> children = GenBaseTriples();
    // Decorations beyond the BGP.
    size_t extra = rng_.Below(3);
    for (size_t i = 0; i < extra; ++i) {
      children.push_back(GenGroupChild(options_.max_pattern_depth));
    }
    q.has_body = true;
    q.where = Pattern::Group(std::move(children));
  }

  switch (q.form) {
    case QueryForm::kSelect: {
      if (rng_.Chance(0.3)) {
        q.distinct = true;
      } else if (rng_.Chance(0.1)) {
        q.reduced = true;
      }
      if (rng_.Chance(0.4)) {
        q.select_star = true;
      } else {
        size_t n = 1 + rng_.Below(3);
        for (size_t i = 0; i < n; ++i) {
          sparql::SelectItem item;
          item.var = Term::Var(termgen::VariableName(rng_));
          if (rng_.Chance(0.25)) item.expr = GenExpr(2, true);
          q.select_items.push_back(std::move(item));
        }
      }
      break;
    }
    case QueryForm::kAsk:
      break;
    case QueryForm::kConstruct: {
      size_t n = rng_.Below(4);
      termgen::TermGenOptions node_options;
      node_options.allow_literals = false;
      for (size_t i = 0; i < n; ++i) {
        // Template triples: no property paths (parser rejects them).
        q.construct_template.push_back(TriplePattern::Make(
            GenTerm(node_options), GenVarOrIri(), GenTerm({})));
      }
      break;
    }
    case QueryForm::kDescribe: {
      if (rng_.Chance(0.25)) {
        q.describe_all = true;
      } else {
        size_t n = 1 + rng_.Below(2);
        for (size_t i = 0; i < n; ++i) q.describe_targets.push_back(GenVarOrIri());
      }
      break;
    }
  }

  if (rng_.Chance(0.15)) {
    size_t n = 1 + rng_.Below(2);
    for (size_t i = 0; i < n; ++i) {
      sparql::DatasetClause dc;
      dc.named = rng_.Chance(0.4);
      dc.iri = termgen::IriString(rng_);
      q.dataset.push_back(std::move(dc));
    }
  }

  GenSolutionModifiers(q);

  if (rng_.Chance(0.1)) {
    q.trailing_values = GenValues();
  }
  return q;
}

}  // namespace sparqlog::testing
