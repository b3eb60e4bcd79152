#include "corpus/generator.h"

#include <algorithm>
#include <set>

#include "sparql/serializer.h"
#include "util/strings.h"

namespace sparqlog::corpus {

using rdf::Term;
using sparql::Expr;
using sparql::ExprKind;
using sparql::PathExpr;
using sparql::PathKind;
using sparql::Pattern;
using sparql::PatternKind;
using sparql::Query;
using sparql::QueryForm;
using sparql::SelectItem;
using sparql::TriplePattern;

namespace {

std::string VarName(int i) { return "v" + std::to_string(i); }

}  // namespace

SyntheticLogGenerator::SyntheticLogGenerator(const DatasetProfile& profile,
                                             const GeneratorOptions& options)
    : profile_(profile), options_(options), rng_(options.seed) {}

std::string SyntheticLogGenerator::FreshIri(const std::string& kind) {
  return profile_.ns + kind + "/" + std::to_string(fresh_counter_++);
}

int SyntheticLogGenerator::SampleTripleCount() {
  std::vector<double> weights(profile_.triples_weights.begin(),
                              profile_.triples_weights.end());
  size_t bucket = rng_.Weighted(weights);
  if (bucket < 11) return static_cast<int>(bucket);
  // 11+ tail: geometric decay, occasionally very large (the paper found
  // queries with up to 229 triples).
  int n = 11;
  while (n < 229 && rng_.Chance(0.72)) ++n;
  return n;
}

std::vector<TriplePattern> SyntheticLogGenerator::GenerateTriples(int n) {
  std::vector<TriplePattern> out;
  if (n <= 0) return out;
  // Pool of predicate IRIs: a modest per-dataset vocabulary makes joins
  // on predicates realistic.
  auto pred = [&] {
    return Term::Iri(profile_.ns + "prop/p" +
                     std::to_string(rng_.Below(40)));
  };
  auto var = [&](int i) { return Term::Var(VarName(i)); };
  auto constant = [&] {
    if (rng_.Chance(0.3)) {
      // Fresh literals: accidental constant collisions would create
      // spurious cycles in the canonical graph.
      return Term::Literal("lit" + std::to_string(fresh_counter_++));
    }
    return Term::Iri(FreshIri("resource"));
  };
  auto endpoint = [&](int i) {
    return rng_.Chance(profile_.constant_rate) ? constant() : var(i);
  };

  // Choose a shape for the variable skeleton (Table 4 marginals).
  std::vector<double> shape_weights = {
      profile_.shape_chain, profile_.shape_star,  profile_.shape_tree,
      profile_.shape_forest, profile_.shape_cycle, profile_.shape_flower};
  size_t shape = n >= 2 ? rng_.Weighted(shape_weights) : 0;
  int next_var = 0;
  auto fresh_var = [&] { return next_var++; };

  switch (shape) {
    case 0: {  // chain (single edge when n == 1)
      int v = fresh_var();
      for (int i = 0; i < n; ++i) {
        int w = fresh_var();
        Term s = i == 0 ? endpoint(v) : var(v);
        Term o = i == n - 1 ? endpoint(w) : var(w);
        out.push_back(TriplePattern::Make(s, pred(), o));
        v = w;
      }
      break;
    }
    case 1: {  // star
      int center = fresh_var();
      for (int i = 0; i < n; ++i) {
        out.push_back(
            TriplePattern::Make(var(center), pred(), endpoint(fresh_var())));
      }
      break;
    }
    case 2: {  // random tree
      std::vector<int> nodes = {fresh_var()};
      for (int i = 0; i < n; ++i) {
        int parent = nodes[rng_.Below(nodes.size())];
        int child = fresh_var();
        nodes.push_back(child);
        out.push_back(TriplePattern::Make(var(parent), pred(), var(child)));
      }
      break;
    }
    case 3: {  // forest: two chains
      int first = n / 2 == 0 ? 1 : n / 2;
      int v = fresh_var();
      for (int i = 0; i < first; ++i) {
        int w = fresh_var();
        out.push_back(TriplePattern::Make(var(v), pred(), var(w)));
        v = w;
      }
      v = fresh_var();
      for (int i = first; i < n; ++i) {
        int w = fresh_var();
        out.push_back(TriplePattern::Make(var(v), pred(), var(w)));
        v = w;
      }
      break;
    }
    case 4: {  // cycle
      int start = fresh_var();
      int v = start;
      for (int i = 0; i < n; ++i) {
        int w = i == n - 1 ? start : fresh_var();
        out.push_back(TriplePattern::Make(var(v), pred(), var(w)));
        v = w;
      }
      break;
    }
    case 5: {  // flower: petals + stamens around a center
      int center = fresh_var();
      int remaining = n;
      // One or two petals (cycles through the center) if room.
      while (remaining >= 3 && rng_.Chance(0.6)) {
        int len = 3 + static_cast<int>(rng_.Below(
                          static_cast<uint64_t>(remaining - 2)));
        len = std::min(len, remaining);
        int v = center;
        for (int i = 0; i < len; ++i) {
          int w = i == len - 1 ? center : fresh_var();
          out.push_back(TriplePattern::Make(var(v), pred(), var(w)));
          v = w;
        }
        remaining -= len;
      }
      // Stamens: chains hanging off the center.
      while (remaining > 0) {
        int len = 1 + static_cast<int>(
                          rng_.Below(static_cast<uint64_t>(remaining)));
        int v = center;
        for (int i = 0; i < len; ++i) {
          int w = fresh_var();
          out.push_back(TriplePattern::Make(var(v), pred(), var(w)));
          v = w;
        }
        remaining -= len;
      }
      break;
    }
    default:
      break;
  }

  // Variable predicates on some triples.
  if (!out.empty() && rng_.Chance(profile_.var_predicate_rate)) {
    size_t idx = rng_.Below(out.size());
    out[idx].predicate = Term::Var("p" + std::to_string(idx));
  }
  return out;
}

PathExpr SyntheticLogGenerator::GeneratePath() {
  auto link = [&] {
    PathExpr atom = PathExpr::Link(profile_.ns + "prop/p" +
                                   std::to_string(rng_.Below(40)));
    // 36% of navigational paths use reverse steps somewhere; make some
    // atoms inverse.
    if (rng_.Chance(0.12)) {
      return PathExpr::Unary(PathKind::kInverse, std::move(atom));
    }
    return atom;
  };
  auto alt_of = [&](int k) {
    sparql::AstVector<PathExpr> links;
    for (int i = 0; i < k; ++i) links.push_back(link());
    return PathExpr::Nary(PathKind::kAlt, std::move(links));
  };
  auto seq_of = [&](int k) {
    sparql::AstVector<PathExpr> links;
    for (int i = 0; i < k; ++i) links.push_back(link());
    return PathExpr::Nary(PathKind::kSeq, std::move(links));
  };
  // Weights from Table 5 (plus the trivial !a and ^a forms, which
  // dominate the raw counts).
  static const std::vector<double> kWeights = {
      63039,  // 0: !a
      306,    // 1: ^a
      72009,  // 2: (a1|...|ak)*
      48636,  // 3: a*
      21435,  // 4: a1/.../ak
      19126,  // 5: a*/b
      16053,  // 6: a1|...|ak
      3805,   // 7: a+
      2855,   // 8: a1?/.../ak?
      37,     // 9: a(b1|...|bk)
      31,     // 10: a1/a2?/.../ak?
      15,     // 11: (a/b*)|c
      13,     // 12: a*/b?
      11,     // 13: a/b/c*
      10,     // 14: !(a|b)
      10,     // 15: (a1|...|ak)+
      5,      // 16: (a1|..)(a1|..)
      2,      // 17: a?|b
      2,      // 18: a*|b
      2,      // 19: (a|b)?
      1,      // 20: a|b+
      1,      // 21: a+|b+
      1,      // 22: (a/b)*
  };
  size_t type = rng_.Weighted(kWeights);
  int k = 2 + static_cast<int>(rng_.Below(3));
  auto opt = [&](PathExpr e) {
    return PathExpr::Unary(PathKind::kZeroOrOne, std::move(e));
  };
  auto star = [&](PathExpr e) {
    return PathExpr::Unary(PathKind::kZeroOrMore, std::move(e));
  };
  auto plus = [&](PathExpr e) {
    return PathExpr::Unary(PathKind::kOneOrMore, std::move(e));
  };
  switch (type) {
    case 0:
      return PathExpr::Nary(PathKind::kNegated, {PathExpr::Link(
          profile_.ns + "prop/p" + std::to_string(rng_.Below(40)))});
    case 1:
      return PathExpr::Unary(PathKind::kInverse,
                             PathExpr::Link(profile_.ns + "prop/p" +
                                            std::to_string(rng_.Below(40))));
    case 2: return star(alt_of(k));
    case 3: return star(link());
    case 4: return seq_of(2 + static_cast<int>(rng_.Below(5)));
    case 5:
      return PathExpr::Nary(PathKind::kSeq, {star(link()), link()});
    case 6: return alt_of(2 + static_cast<int>(rng_.Below(5)));
    case 7: return plus(link());
    case 8: {
      sparql::AstVector<PathExpr> parts;
      int kk = 1 + static_cast<int>(rng_.Below(5));
      for (int i = 0; i < kk; ++i) parts.push_back(opt(link()));
      if (kk == 1) return parts[0];
      return PathExpr::Nary(PathKind::kSeq, std::move(parts));
    }
    case 9:
      return PathExpr::Nary(PathKind::kSeq, {link(), alt_of(2)});
    case 10: {
      sparql::AstVector<PathExpr> parts{link()};
      int kk = 1 + static_cast<int>(rng_.Below(3));
      for (int i = 0; i < kk; ++i) parts.push_back(opt(link()));
      return PathExpr::Nary(PathKind::kSeq, std::move(parts));
    }
    case 11:
      return PathExpr::Nary(
          PathKind::kAlt,
          {PathExpr::Nary(PathKind::kSeq, {link(), star(link())}), link()});
    case 12:
      return PathExpr::Nary(PathKind::kSeq, {star(link()), opt(link())});
    case 13:
      return PathExpr::Nary(PathKind::kSeq, {link(), link(), star(link())});
    case 14: {
      sparql::AstVector<PathExpr> members;
      for (int i = 0; i < 2; ++i) {
        members.push_back(PathExpr::Link(profile_.ns + "prop/p" +
                                         std::to_string(rng_.Below(40))));
      }
      return PathExpr::Nary(PathKind::kNegated, std::move(members));
    }
    case 15: return plus(alt_of(2));
    case 16: {
      PathExpr a = alt_of(k);
      PathExpr b = a;
      return PathExpr::Nary(PathKind::kSeq, {std::move(a), std::move(b)});
    }
    case 17:
      return PathExpr::Nary(PathKind::kAlt, {opt(link()), link()});
    case 18:
      return PathExpr::Nary(PathKind::kAlt, {star(link()), link()});
    case 19: return opt(alt_of(2));
    case 20:
      return PathExpr::Nary(PathKind::kAlt, {link(), plus(link())});
    case 21:
      return PathExpr::Nary(PathKind::kAlt, {plus(link()), plus(link())});
    case 22:
      return star(seq_of(2));
    default:
      return link();
  }
}

Query SyntheticLogGenerator::GenerateQueryOfForm(QueryForm form) {
  Query q;
  q.form = form;

  if (form == QueryForm::kDescribe) {
    q.describe_targets.push_back(Term::Iri(FreshIri("resource")));
    if (!rng_.Chance(profile_.describe_nobody_rate)) {
      q.has_body = true;
      sparql::AstVector<Pattern> children;
      for (const TriplePattern& t : GenerateTriples(1)) {
        children.push_back(Pattern::Triple(t));
      }
      q.where = Pattern::Group(std::move(children));
    }
    return q;
  }

  int n = SampleTripleCount();
  bool concrete_ask =
      form == QueryForm::kAsk && rng_.Chance(profile_.ask_concrete_rate);
  std::vector<TriplePattern> triples;
  if (concrete_ask) {
    triples.push_back(TriplePattern::Make(
        Term::Iri(FreshIri("resource")),
        Term::Iri(profile_.ns + "prop/p" + std::to_string(rng_.Below(40))),
        Term::Iri(FreshIri("resource"))));
    n = 1;
  } else {
    triples = GenerateTriples(n);
  }

  // Property paths (replace a random triple's predicate).
  if (!triples.empty() && rng_.Chance(profile_.property_path_rate)) {
    size_t idx = rng_.Below(triples.size());
    triples[idx] = TriplePattern::MakePath(triples[idx].subject,
                                           GeneratePath(),
                                           triples[idx].object);
  }

  sparql::AstVector<Pattern> children;
  std::set<std::string> body_vars;
  for (const TriplePattern& t : triples) t.CollectVariables(body_vars);

  // "Kitchen-sink" queries combine And, Opt, Union, and Filter — the
  // {A, O, U, F} row of Table 3.
  bool complex = !concrete_ask && !body_vars.empty() &&
                 rng_.Chance(profile_.complex_rate);

  // UNION: mostly standalone bodies (pure {U} dominates {A, U} in the
  // paper), otherwise alongside the base triples.
  bool use_union =
      !concrete_ask && (complex || rng_.Chance(profile_.union_rate));
  bool union_standalone = use_union && !complex &&
                          rng_.Chance(profile_.union_standalone);

  // OPTIONAL: move a suffix of the triples into an OPTIONAL block
  // sharing a variable with the mandatory part (well-designed by
  // construction, occasionally violated on purpose).
  size_t optional_from = triples.size();
  bool use_optional =
      !concrete_ask && !union_standalone && !body_vars.empty() &&
      (complex || rng_.Chance(profile_.optional_rate));
  std::vector<TriplePattern> opt_extra;
  if (use_optional) {
    if (triples.size() >= 2) {
      optional_from = 1 + rng_.Below(triples.size() - 1);
    } else {
      // One base triple: generate a fresh optional extension on its
      // first variable.
      std::string shared = *body_vars.begin();
      opt_extra.push_back(TriplePattern::Make(
          Term::Var(shared),
          Term::Iri(profile_.ns + "prop/p" + std::to_string(rng_.Below(40))),
          Term::Var("opt0")));
    }
  }
  if (union_standalone) {
    // Replace the body by a two-branch union; each branch holds one of
    // the generated triples (or a fresh one).
    sparql::AstVector<Pattern> left, right;
    if (triples.empty()) {
      for (const TriplePattern& t : GenerateTriples(1)) {
        left.push_back(Pattern::Triple(t));
      }
    } else {
      left.push_back(Pattern::Triple(triples[0]));
    }
    if (triples.size() >= 2) {
      for (size_t i = 1; i < triples.size(); ++i) {
        right.push_back(Pattern::Triple(triples[i]));
      }
    } else {
      for (const TriplePattern& t : GenerateTriples(1)) {
        right.push_back(Pattern::Triple(t));
      }
    }
    children.push_back(Pattern::Union(
        {Pattern::Group(std::move(left)), Pattern::Group(std::move(right))}));
  } else {
    for (size_t i = 0; i < std::min(optional_from, triples.size()); ++i) {
      children.push_back(Pattern::Triple(triples[i]));
    }
  }
  if (use_optional) {
    sparql::AstVector<Pattern> opt_children;
    for (size_t i = optional_from; i < triples.size(); ++i) {
      opt_children.push_back(Pattern::Triple(triples[i]));
    }
    for (const TriplePattern& t : opt_extra) {
      opt_children.push_back(Pattern::Triple(t));
    }
    if (rng_.Chance(profile_.non_well_designed_rate)) {
      // Violate Definition 5.3: introduce a variable that occurs in two
      // sibling OPTIONAL blocks but not in the mandatory part.
      TriplePattern extra = TriplePattern::Make(
          Term::Var("wd_violation"),
          Term::Iri(profile_.ns + "prop/p0"), Term::Var("wd_other"));
      opt_children.push_back(Pattern::Triple(extra));
      sparql::AstVector<Pattern> second_opt;
      second_opt.push_back(Pattern::Triple(TriplePattern::Make(
          Term::Var("wd_violation"), Term::Iri(profile_.ns + "prop/p1"),
          Term::Var("wd_third"))));
      children.push_back(
          Pattern::Optional(Pattern::Group(std::move(opt_children))));
      children.push_back(
          Pattern::Optional(Pattern::Group(std::move(second_opt))));
    } else if (!opt_children.empty()) {
      children.push_back(
          Pattern::Optional(Pattern::Group(std::move(opt_children))));
    }
  }
  // Union alongside the base triples ({A, U} style).
  if (use_union && !union_standalone) {
    sparql::AstVector<Pattern> left, right;
    for (const TriplePattern& t : GenerateTriples(1)) {
      left.push_back(Pattern::Triple(t));
    }
    for (const TriplePattern& t : GenerateTriples(1)) {
      right.push_back(Pattern::Triple(t));
    }
    children.push_back(Pattern::Union(
        {Pattern::Group(std::move(left)), Pattern::Group(std::move(right))}));
  }

  // Refresh the variable pool (standalone unions replaced the triples).
  body_vars.clear();
  for (const Pattern& c : children) c.CollectVariables(body_vars);

  // FILTER.
  if (!body_vars.empty() && (complex || rng_.Chance(profile_.filter_rate))) {
    std::string v = *body_vars.begin();
    double pick = rng_.NextDouble();
    Expr f;
    if (pick < 0.55) {
      // lang(?v) = "en" — a simple filter.
      f = Expr::Binary(ExprKind::kCompare, "=",
                       Expr::Call("LANG", {Expr::MakeVar(v)}),
                       Expr::MakeTerm(Term::Literal("en")));
    } else if (pick < 0.8) {
      f = Expr::Call("REGEX", {Expr::MakeVar(v),
                               Expr::MakeTerm(Term::Literal("^A.*"))});
    } else if (pick < 0.92 && body_vars.size() >= 2) {
      auto it = body_vars.begin();
      std::string v2 = *++it;
      f = Expr::Binary(ExprKind::kCompare, "=", Expr::MakeVar(v),
                       Expr::MakeVar(v2));
    } else if (body_vars.size() >= 2) {
      // Non-simple filter: two variables under <.
      auto it = body_vars.begin();
      std::string v2 = *++it;
      f = Expr::Binary(ExprKind::kCompare, "<", Expr::MakeVar(v),
                       Expr::MakeVar(v2));
    } else {
      f = Expr::Call("BOUND", {Expr::MakeVar(v)});
    }
    children.push_back(Pattern::Filter(std::move(f)));
  }

  // MINUS / BIND / VALUES / SERVICE / subquery.
  if (rng_.Chance(profile_.minus_rate)) {
    sparql::AstVector<Pattern> body;
    for (const TriplePattern& t : GenerateTriples(1)) {
      body.push_back(Pattern::Triple(t));
    }
    children.push_back(Pattern::Minus(Pattern::Group(std::move(body))));
  }
  if (rng_.Chance(profile_.not_exists_rate) && !body_vars.empty()) {
    Expr ne;
    ne.kind = ExprKind::kNotExists;
    sparql::AstVector<Pattern> body;
    for (const TriplePattern& t : GenerateTriples(1)) {
      body.push_back(Pattern::Triple(t));
    }
    ne.pattern = std::make_shared<Pattern>(Pattern::Group(std::move(body)));
    children.push_back(Pattern::Filter(std::move(ne)));
  }
  if (rng_.Chance(profile_.bind_rate) && !body_vars.empty()) {
    Pattern bind(PatternKind::kBind);
    bind.expr() = Expr::Call("STR", {Expr::MakeVar(*body_vars.begin())});
    bind.var() = Term::Var("bound");
    children.push_back(std::move(bind));
  }
  if (rng_.Chance(profile_.values_rate)) {
    Pattern values(PatternKind::kValues);
    values.values().vars.push_back(Term::Var("vv"));
    values.values().rows.push_back(
        {std::optional<Term>(Term::Iri(FreshIri("resource")))});
    children.push_back(std::move(values));
  }
  if (rng_.Chance(profile_.service_rate)) {
    Pattern service(PatternKind::kService);
    service.graph() = Term::Iri("http://wikiba.se/ontology#label");
    sparql::AstVector<Pattern> body;
    for (const TriplePattern& t : GenerateTriples(1)) {
      body.push_back(Pattern::Triple(t));
    }
    Pattern group = Pattern::Group(std::move(body));
    service.SetChildren({&group, 1});
    children.push_back(std::move(service));
  }
  if (rng_.Chance(profile_.subquery_rate)) {
    Pattern subp(PatternKind::kSubSelect);
    Query& sub = subp.subquery();
    sub.form = QueryForm::kSelect;
    SelectItem item;
    item.var = Term::Var("sq");
    sub.select_items.push_back(item);
    sub.has_body = true;
    sparql::AstVector<Pattern> body;
    body.push_back(Pattern::Triple(TriplePattern::Make(
        Term::Var("sq"), Term::Iri(profile_.ns + "prop/p0"),
        Term::Var("sqo"))));
    sub.where = Pattern::Group(std::move(body));
    sub.limit = 10;
    children.push_back(std::move(subp));
  }

  // GRAPH: wrap the whole body.
  Pattern body = Pattern::Group(std::move(children));
  if (rng_.Chance(profile_.graph_rate)) {
    body = Pattern::Group({Pattern::Graph(
        rng_.Chance(0.5) ? Term::Var("g") : Term::Iri(FreshIri("graph")),
        std::move(body))});
  }
  q.has_body = true;
  q.where = std::move(body);

  // Projection and modifiers.
  std::set<std::string> vars;
  q.where.CollectInScopeVariables(vars);
  if (form == QueryForm::kSelect) {
    bool project =
        !vars.empty() && vars.size() >= 2 && rng_.Chance(profile_.projection_rate);
    if (project) {
      size_t keep = 1 + rng_.Below(vars.size() - 1);
      size_t i = 0;
      for (const std::string& v : vars) {
        if (i++ >= keep) break;
        SelectItem item;
        item.var = Term::Var(v);
        q.select_items.push_back(item);
      }
    } else {
      q.select_star = true;
    }
    if (rng_.Chance(profile_.count_rate)) {
      q.select_items.clear();
      q.select_star = false;
      SelectItem item;
      item.var = Term::Var("cnt");
      Expr agg;
      agg.kind = ExprKind::kAggregate;
      agg.op = "COUNT";
      agg.star = true;
      item.expr = std::move(agg);
      q.select_items.push_back(item);
    }
    if (rng_.Chance(profile_.group_by_rate) && !vars.empty()) {
      sparql::GroupCondition gc;
      gc.expr = Expr::MakeVar(*vars.begin());
      q.group_by.push_back(std::move(gc));
    }
    if (rng_.Chance(profile_.other_agg_rate) && !vars.empty()) {
      SelectItem item;
      item.var = Term::Var("agg");
      Expr agg;
      agg.kind = ExprKind::kAggregate;
      agg.op = rng_.Chance(0.5) ? "MAX" : "MIN";
      agg.args.push_back(Expr::MakeVar(*vars.begin()));
      item.expr = std::move(agg);
      q.select_items.push_back(item);
      q.select_star = false;
    }
  }
  q.distinct = rng_.Chance(profile_.distinct_rate);
  if (rng_.Chance(profile_.limit_rate)) q.limit = 10 + rng_.Below(1000);
  if (rng_.Chance(profile_.offset_rate)) q.offset = rng_.Below(1000);
  if (rng_.Chance(profile_.order_by_rate) && !vars.empty()) {
    sparql::OrderCondition oc;
    oc.descending = rng_.Chance(0.5);
    oc.expr = Expr::MakeVar(*vars.begin());
    q.order_by.push_back(std::move(oc));
  }
  return q;
}

Query SyntheticLogGenerator::GenerateQuery() {
  std::vector<double> weights = {profile_.w_select, profile_.w_ask,
                                 profile_.w_describe, profile_.w_construct};
  size_t pick = rng_.Weighted(weights);
  QueryForm form = pick == 0   ? QueryForm::kSelect
                   : pick == 1 ? QueryForm::kAsk
                   : pick == 2 ? QueryForm::kDescribe
                               : QueryForm::kConstruct;
  if (form == QueryForm::kConstruct) {
    // Construct: template == body (the short form).
    Query q = GenerateQueryOfForm(QueryForm::kSelect);
    q.form = QueryForm::kConstruct;
    q.select_items.clear();
    q.select_star = false;
    q.group_by.clear();
    q.order_by.clear();
    std::vector<const TriplePattern*> triples;
    if (q.has_body) q.where.CollectTriples(triples);
    for (const TriplePattern* t : triples) {
      if (!t->has_path()) q.construct_template.push_back(*t);
    }
    if (q.construct_template.empty()) {
      q.construct_template.push_back(TriplePattern::Make(
          Term::Var("s"), Term::Var("p"), Term::Var("o")));
      q.has_body = true;
      q.where = Pattern::Group({Pattern::Triple(q.construct_template[0])});
    }
    return q;
  }
  return GenerateQueryOfForm(form);
}

std::vector<std::string> SyntheticLogGenerator::GenerateLog() {
  uint64_t total = std::max<uint64_t>(
      options_.min_entries,
      static_cast<uint64_t>(static_cast<double>(profile_.total_queries) *
                            options_.scale));
  uint64_t valid = static_cast<uint64_t>(static_cast<double>(total) *
                                         profile_.valid_rate);
  uint64_t unique = std::max<uint64_t>(
      1, static_cast<uint64_t>(static_cast<double>(valid) *
                               profile_.unique_rate));

  // Distinct valid queries.
  std::vector<std::string> uniques;
  std::set<std::string> seen;
  uniques.reserve(unique);
  while (uniques.size() < unique) {
    std::string text = sparql::Serialize(GenerateQuery());
    if (seen.insert(text).second) uniques.push_back(std::move(text));
  }

  // Emit with duplication: every unique query at least once, remaining
  // mass distributed zipf-style (few queries repeated very often, the
  // typical endpoint pattern).
  std::vector<std::string> log;
  log.reserve(total + total / 10);
  for (const std::string& q : uniques) {
    log.push_back("query=" + util::PercentEncode(q));
  }
  for (uint64_t i = uniques.size(); i < valid; ++i) {
    size_t idx = static_cast<size_t>(rng_.Zipf(uniques.size(), 1.3) - 1);
    log.push_back("query=" + util::PercentEncode(uniques[idx]));
  }
  // Malformed queries (fail the parser) for the Total - Valid gap.
  for (uint64_t i = valid; i < total; ++i) {
    switch (rng_.Below(3)) {
      case 0:
        log.push_back("query=" + util::PercentEncode(
            "SELECT ?x WHERE { ?x <" + FreshIri("p") + "> "));
        break;
      case 1:
        log.push_back("query=" + util::PercentEncode(
            "PREFIX broken SELECT * WHERE { ?s ?p ?o }"));
        break;
      default:
        log.push_back("query=" + util::PercentEncode(
            "INSERT DATA { <a> <b> <c> }"));
        break;
    }
  }
  // Non-query noise (http requests etc.) that cleaning must drop.
  uint64_t noise = total / 20;
  for (uint64_t i = 0; i < noise; ++i) {
    log.push_back("GET /resource/" + std::to_string(rng_.Below(10000)) +
                  " HTTP/1.1 200");
  }
  // Shuffle to interleave.
  for (size_t i = log.size(); i > 1; --i) {
    size_t j = rng_.Below(i);
    std::swap(log[i - 1], log[j]);
  }
  return log;
}

std::vector<std::string> GenerateStreakLog(const DatasetProfile& profile,
                                           size_t num_queries,
                                           double session_rate,
                                           uint64_t seed) {
  GeneratorOptions options;
  options.seed = seed;
  SyntheticLogGenerator gen(profile, options);
  util::Rng rng(seed ^ 0xABCDEF);
  std::vector<std::string> log;
  log.reserve(num_queries);
  while (log.size() < num_queries) {
    if (rng.Chance(session_rate)) {
      // A refinement session: a seed query gradually modified. Gaps
      // between successive refinements are small (< window).
      std::string seed_query = sparql::Serialize(gen.GenerateQuery());
      size_t refinements = 1 + rng.Below(25);
      std::string current = seed_query;
      for (size_t r = 0; r < refinements && log.size() < num_queries; ++r) {
        log.push_back(current);
        // Interleave unrelated queries (other users) with small gaps.
        size_t gap = rng.Below(4);
        for (size_t g = 0; g < gap && log.size() < num_queries; ++g) {
          log.push_back(sparql::Serialize(gen.GenerateQuery()));
        }
        // Modify ~10% of the query: append/change a small suffix.
        std::string tweak = " # v" + std::to_string(r);
        if (current.size() > 40 && rng.Chance(0.5)) {
          current[current.size() / 2] = 'x';
        }
        current += tweak;
      }
    } else {
      log.push_back(sparql::Serialize(gen.GenerateQuery()));
    }
  }
  log.resize(num_queries);
  return log;
}

}  // namespace sparqlog::corpus
