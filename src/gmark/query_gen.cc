#include "gmark/query_gen.h"

#include <map>
#include <string>

namespace sparqlog::gmark {

using rdf::Term;
using sparql::Pattern;
using sparql::Query;
using sparql::QueryForm;
using sparql::TriplePattern;

namespace {

std::string VarName(int i) { return "x" + std::to_string(i); }

/// Typed random walk of `length` steps; steps may traverse predicates in
/// reverse. Returns the step list and the node types visited (length+1).
bool RandomWalk(const Schema& schema, int length, bool must_close,
                util::Rng& rng, std::vector<std::pair<int, bool>>& steps,
                std::vector<int>& types) {
  for (int attempt = 0; attempt < 200; ++attempt) {
    steps.clear();
    types.clear();
    int type = static_cast<int>(rng.Below(schema.types.size()));
    types.push_back(type);
    bool ok = true;
    for (int i = 0; i < length; ++i) {
      std::vector<std::pair<int, bool>> moves;
      for (int p : schema.PredicatesFrom(type)) moves.emplace_back(p, false);
      for (int p : schema.PredicatesInto(type)) moves.emplace_back(p, true);
      if (moves.empty()) {
        ok = false;
        break;
      }
      // For the closing step of a cycle, restrict to moves returning to
      // the start type if possible.
      if (must_close && i == length - 1) {
        std::vector<std::pair<int, bool>> closing;
        for (const auto& [p, inv] : moves) {
          int next = inv ? schema.predicates[static_cast<size_t>(p)].source_type
                         : schema.predicates[static_cast<size_t>(p)].target_type;
          if (next == types[0]) closing.push_back({p, inv});
        }
        if (closing.empty()) {
          ok = false;
          break;
        }
        moves = std::move(closing);
      }
      auto [p, inv] = moves[rng.Below(moves.size())];
      steps.emplace_back(p, inv);
      type = inv ? schema.predicates[static_cast<size_t>(p)].source_type
                 : schema.predicates[static_cast<size_t>(p)].target_type;
      types.push_back(type);
    }
    if (ok && (!must_close || types.back() == types.front())) return true;
  }
  return false;
}

sparql::Query BuildSparql(const std::vector<TriplePattern>& triples,
                          int num_vars, bool ask_form) {
  Query q;
  q.form = ask_form ? QueryForm::kAsk : QueryForm::kSelect;
  if (!ask_form) {
    for (int i = 0; i < num_vars; ++i) {
      sparql::SelectItem item;
      item.var = Term::Var(VarName(i));
      q.select_items.push_back(item);
    }
  }
  sparql::AstVector<Pattern> children;
  children.reserve(triples.size());
  for (const TriplePattern& t : triples) {
    children.push_back(Pattern::Triple(t));
  }
  q.has_body = true;
  q.where = Pattern::Group(std::move(children));
  return q;
}

std::string BuildSql(const Schema& schema,
                     const std::vector<std::pair<int, bool>>& steps,
                     const std::vector<std::pair<int, int>>& endpoint_vars,
                     bool ask_form) {
  // Per-predicate binary tables pred(s, o); variables map to columns.
  std::string sql = ask_form ? "SELECT 1" : "SELECT *";
  sql += " FROM ";
  for (size_t i = 0; i < steps.size(); ++i) {
    if (i > 0) sql += ", ";
    sql += schema.predicates[static_cast<size_t>(steps[i].first)].name +
           " AS e" + std::to_string(i);
  }
  // Equality conditions: shared variables across step endpoints.
  std::vector<std::string> conds;
  // endpoint_vars[i] = (subject var, object var) of step i (already
  // direction-resolved).
  std::map<int, std::vector<std::string>> columns_of_var;
  for (size_t i = 0; i < steps.size(); ++i) {
    columns_of_var[endpoint_vars[i].first].push_back(
        "e" + std::to_string(i) + ".s");
    columns_of_var[endpoint_vars[i].second].push_back(
        "e" + std::to_string(i) + ".o");
  }
  for (const auto& [var, cols] : columns_of_var) {
    for (size_t i = 1; i < cols.size(); ++i) {
      conds.push_back(cols[0] + " = " + cols[i]);
    }
  }
  if (!conds.empty()) {
    sql += " WHERE ";
    for (size_t i = 0; i < conds.size(); ++i) {
      if (i > 0) sql += " AND ";
      sql += conds[i];
    }
  }
  if (ask_form) sql += " LIMIT 1";
  return sql + ";";
}

GeneratedQuery FromSteps(const Schema& schema, QueryShape shape,
                         const std::vector<std::pair<int, bool>>& steps,
                         const std::vector<std::pair<int, int>>& endpoints,
                         int num_vars, bool ask_form) {
  GeneratedQuery out;
  out.shape = shape;
  out.length = static_cast<int>(steps.size());
  out.steps = steps;
  std::vector<TriplePattern> triples;
  for (size_t i = 0; i < steps.size(); ++i) {
    const PredicateSpec& spec =
        schema.predicates[static_cast<size_t>(steps[i].first)];
    Term pred = Term::Iri(schema.namespace_iri + spec.name);
    Term subj = Term::Var(VarName(endpoints[i].first));
    Term obj = Term::Var(VarName(endpoints[i].second));
    triples.push_back(TriplePattern::Make(subj, pred, obj));
  }
  out.sparql = BuildSparql(triples, num_vars, ask_form);
  out.sql = BuildSql(schema, steps, endpoints, ask_form);
  return out;
}

}  // namespace

std::vector<GeneratedQuery> GenerateWorkload(const Schema& schema,
                                             const QueryGenOptions& options) {
  util::Rng rng(options.seed);
  std::vector<GeneratedQuery> out;
  out.reserve(static_cast<size_t>(options.workload_size));
  while (out.size() < static_cast<size_t>(options.workload_size)) {
    std::vector<std::pair<int, bool>> steps;
    std::vector<int> types;
    std::vector<std::pair<int, int>> endpoints;
    switch (options.shape) {
      case QueryShape::kChain:
      case QueryShape::kCycle: {
        bool close = options.shape == QueryShape::kCycle;
        if (!RandomWalk(schema, options.length, close, rng, steps, types)) {
          continue;
        }
        int n = static_cast<int>(steps.size());
        for (int i = 0; i < n; ++i) {
          int from = i;
          int to = (close && i == n - 1) ? 0 : i + 1;
          if (steps[static_cast<size_t>(i)].second) {
            endpoints.emplace_back(to, from);  // inverse step
          } else {
            endpoints.emplace_back(from, to);
          }
        }
        out.push_back(FromSteps(schema, options.shape, steps, endpoints,
                                close ? n : n + 1, options.ask_form));
        break;
      }
      case QueryShape::kStar: {
        // k predicates incident to a common center type.
        int center_type = static_cast<int>(rng.Below(schema.types.size()));
        std::vector<std::pair<int, bool>> moves;
        for (int p : schema.PredicatesFrom(center_type)) {
          moves.emplace_back(p, false);
        }
        for (int p : schema.PredicatesInto(center_type)) {
          moves.emplace_back(p, true);
        }
        if (moves.empty()) continue;
        for (int i = 0; i < options.length; ++i) {
          auto [p, inv] = moves[rng.Below(moves.size())];
          steps.emplace_back(p, inv);
          if (inv) {
            endpoints.emplace_back(i + 1, 0);
          } else {
            endpoints.emplace_back(0, i + 1);
          }
        }
        out.push_back(FromSteps(schema, options.shape, steps, endpoints,
                                options.length + 1, options.ask_form));
        break;
      }
      case QueryShape::kChainStar: {
        // A chain of length l1 with a star of the remaining conjuncts
        // attached at the chain's midpoint.
        int chain_len = std::max(1, options.length / 2);
        int star_len = options.length - chain_len;
        if (!RandomWalk(schema, chain_len, false, rng, steps, types)) {
          continue;
        }
        int n = static_cast<int>(steps.size());
        for (int i = 0; i < n; ++i) {
          if (steps[static_cast<size_t>(i)].second) {
            endpoints.emplace_back(i + 1, i);
          } else {
            endpoints.emplace_back(i, i + 1);
          }
        }
        int mid = chain_len / 2;
        int mid_type = types[static_cast<size_t>(mid)];
        std::vector<std::pair<int, bool>> moves;
        for (int p : schema.PredicatesFrom(mid_type)) {
          moves.emplace_back(p, false);
        }
        for (int p : schema.PredicatesInto(mid_type)) {
          moves.emplace_back(p, true);
        }
        if (moves.empty()) continue;
        int next_var = n + 1;
        for (int i = 0; i < star_len; ++i) {
          auto [p, inv] = moves[rng.Below(moves.size())];
          steps.emplace_back(p, inv);
          if (inv) {
            endpoints.emplace_back(next_var, mid);
          } else {
            endpoints.emplace_back(mid, next_var);
          }
          ++next_var;
        }
        out.push_back(FromSteps(schema, options.shape, steps, endpoints,
                                next_var, options.ask_form));
        break;
      }
    }
  }
  return out;
}

std::optional<store::BgpQuery> CompileForEngine(
    const GeneratedQuery& q, const store::TripleStore& store) {
  store::BgpQuery out;
  // Recover endpoints from the SPARQL AST (triples are in step order).
  std::vector<const sparql::TriplePattern*> triples;
  q.sparql.where.CollectTriples(triples);
  std::map<std::string, int64_t> var_ids;
  for (const sparql::TriplePattern* tp : triples) {
    store::BgpPattern bp;
    auto position = [&](const Term& t) -> std::optional<int64_t> {
      if (t.is_variable()) {
        auto it = var_ids.find(std::string(t.value));
        if (it != var_ids.end()) return it->second;
        int64_t id = out.AddVar();
        var_ids.emplace(t.value, id);
        return id;
      }
      rdf::TermId tid = store.dict().Lookup(t.value);
      if (tid == 0) return std::nullopt;
      return static_cast<int64_t>(tid);
    };
    auto s = position(tp->subject);
    auto p = position(tp->predicate);
    auto o = position(tp->object);
    if (!s || !p || !o) return std::nullopt;
    bp.s = *s;
    bp.p = *p;
    bp.o = *o;
    out.triples.push_back(bp);
  }
  return out;
}

}  // namespace sparqlog::gmark
