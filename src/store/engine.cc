#include "store/engine.h"

#include <algorithm>
#include <unordered_map>

namespace sparqlog::store {

namespace {

/// Estimated-cardinality threshold under which the relational engine
/// picks a nested-loop join over a hash join. Single-variable joins
/// estimate in the thousands and pick hash joins; the closing join of a
/// cycle shares two variables, its independence-assumption estimate
/// collapses below this threshold, and the engine picks a nested loop
/// over the huge materialized intermediate — the classic correlated-
/// selectivity failure.
constexpr double kNljEstimateThreshold = 500.0;

/// Bindings: variable id (1-based positive index) -> TermId (0 unbound).
using Binding = std::vector<TermId>;

size_t VarIndex(int64_t v) { return static_cast<size_t>(-v) - 1; }

/// Resolves a pattern position under a binding: constant, bound
/// variable value, or 0 (wildcard).
TermId Resolve(int64_t pos, const Binding& b) {
  if (pos >= 1) return static_cast<TermId>(pos);
  TermId bound = b[VarIndex(pos)];
  return bound;
}

/// Counts one evaluation's work into its stats and charges it to the
/// caller's budget (nullptr: unlimited).
struct StepMeter {
  util::StepBudget* budget;
  EvalStats& stats;

  /// One tuple probed or materialized; false once the budget is spent.
  bool Charge() {
    if (budget != nullptr && !budget->Charge()) {
      stats.capped = true;
      return false;
    }
    ++stats.steps;
    return true;
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// GraphEngine: pipelined index nested loops with greedy join ordering.
// ---------------------------------------------------------------------------

namespace {

/// Estimated matches of a pattern given which variables are bound.
double EstimatePattern(const TripleStore& store, const BgpPattern& t,
                       const std::vector<bool>& bound) {
  auto is_bound = [&](int64_t pos) {
    return pos >= 1 || (pos <= -1 && bound[VarIndex(pos)]);
  };
  double card = t.p >= 1
                    ? static_cast<double>(store.CountPredicate(
                          static_cast<TermId>(t.p)))
                    : static_cast<double>(store.size());
  if (is_bound(t.s)) {
    double distinct = t.p >= 1 ? static_cast<double>(store.DistinctSubjects(
                                     static_cast<TermId>(t.p)))
                               : card;
    card /= std::max(1.0, distinct);
  }
  if (is_bound(t.o)) {
    double distinct = t.p >= 1 ? static_cast<double>(store.DistinctObjects(
                                     static_cast<TermId>(t.p)))
                               : card;
    card /= std::max(1.0, distinct);
  }
  return std::max(card, 0.001);
}

bool SharesBoundVar(const BgpPattern& t, const std::vector<bool>& bound) {
  for (int64_t pos : {t.s, t.p, t.o}) {
    if (pos <= -1 && bound[VarIndex(pos)]) return true;
  }
  return false;
}

struct PipelineContext {
  const TripleStore& store;
  const std::vector<BgpPattern>& order;
  EvalMode mode;
  StepMeter meter;
  uint64_t results = 0;
};

bool Backtrack(PipelineContext& ctx, size_t depth, Binding& binding) {
  if (depth == ctx.order.size()) {
    ++ctx.results;
    return ctx.mode == EvalMode::kAsk;  // stop at first witness
  }
  const BgpPattern& t = ctx.order[depth];
  TermId s = Resolve(t.s, binding);
  TermId p = Resolve(t.p, binding);
  TermId o = Resolve(t.o, binding);
  std::vector<rdf::EncodedTriple> matches;
  ctx.store.Match(s, p, o, matches);
  for (const rdf::EncodedTriple& m : matches) {
    if (!ctx.meter.Charge()) return true;  // abort
    // Bind unbound variables; verify consistency for repeated vars.
    TermId saved_s = 0, saved_p = 0, saved_o = 0;
    bool ok = true;
    auto bind = [&](int64_t pos, TermId value, TermId& saved) {
      if (pos >= 1) return true;
      size_t idx = VarIndex(pos);
      if (binding[idx] == 0) {
        binding[idx] = value;
        saved = static_cast<TermId>(idx) + 1;  // remember to unbind
        return true;
      }
      return binding[idx] == value;
    };
    ok = bind(t.s, m.s, saved_s) && bind(t.p, m.p, saved_p) &&
         bind(t.o, m.o, saved_o);
    if (ok) {
      if (Backtrack(ctx, depth + 1, binding)) {
        // Unbind before unwinding.
        if (saved_s != 0) binding[saved_s - 1] = 0;
        if (saved_p != 0) binding[saved_p - 1] = 0;
        if (saved_o != 0) binding[saved_o - 1] = 0;
        return true;
      }
    }
    if (saved_s != 0) binding[saved_s - 1] = 0;
    if (saved_p != 0) binding[saved_p - 1] = 0;
    if (saved_o != 0) binding[saved_o - 1] = 0;
  }
  return false;
}

}  // namespace

EvalStats GraphEngine::Evaluate(const BgpQuery& q, EvalMode mode,
                                util::StepBudget* budget) const {
  EvalStats stats;

  // Greedy ordering: start from the most selective pattern; repeatedly
  // add the connected pattern with the lowest conditional estimate.
  std::vector<BgpPattern> order;
  std::vector<bool> used(q.triples.size(), false);
  std::vector<bool> bound(static_cast<size_t>(q.num_vars), false);
  for (size_t step = 0; step < q.triples.size(); ++step) {
    double best = 0;
    int best_idx = -1;
    for (size_t i = 0; i < q.triples.size(); ++i) {
      if (used[i]) continue;
      bool connected = step == 0 || SharesBoundVar(q.triples[i], bound);
      double est = EstimatePattern(store_, q.triples[i], bound);
      if (!connected) est *= 1e6;  // avoid cartesian products
      if (best_idx < 0 || est < best) {
        best = est;
        best_idx = static_cast<int>(i);
      }
    }
    used[static_cast<size_t>(best_idx)] = true;
    const BgpPattern& t = q.triples[static_cast<size_t>(best_idx)];
    order.push_back(t);
    for (int64_t pos : {t.s, t.p, t.o}) {
      if (pos <= -1) bound[VarIndex(pos)] = true;
    }
  }

  PipelineContext ctx{store_, order, mode, StepMeter{budget, stats}};
  Binding binding(static_cast<size_t>(q.num_vars), 0);
  Backtrack(ctx, 0, binding);

  stats.num_results = ctx.results;
  stats.matched = ctx.results > 0;
  return stats;
}

// ---------------------------------------------------------------------------
// RelationalEngine: left-deep materializing joins in syntactic order.
// ---------------------------------------------------------------------------

namespace {

/// A materialized relation: schema = list of variable indexes, rows =
/// flat tuples.
struct Relation {
  std::vector<size_t> schema;  // variable index per column
  std::vector<TermId> rows;    // row-major
  size_t width() const { return schema.size(); }
  size_t size() const { return schema.empty() ? 0 : rows.size() / width(); }
};

/// Materializes the rows matching `t`; false once the budget is spent.
bool ScanPattern(const TripleStore& store, const BgpPattern& t,
                 StepMeter& meter, Relation& rel) {
  std::vector<rdf::EncodedTriple> matches;
  store.Match(t.s >= 1 ? static_cast<TermId>(t.s) : 0,
              t.p >= 1 ? static_cast<TermId>(t.p) : 0,
              t.o >= 1 ? static_cast<TermId>(t.o) : 0, matches);
  // Schema: distinct variables, in s,p,o order.
  std::vector<int64_t> var_pos;
  for (int64_t pos : {t.s, t.p, t.o}) {
    if (pos <= -1 &&
        std::find(var_pos.begin(), var_pos.end(), pos) == var_pos.end()) {
      var_pos.push_back(pos);
    }
  }
  for (int64_t pos : var_pos) rel.schema.push_back(VarIndex(pos));
  for (const rdf::EncodedTriple& m : matches) {
    if (!meter.Charge()) return false;
    // Repeated-variable consistency within the triple.
    TermId values[3] = {m.s, m.p, m.o};
    int64_t positions[3] = {t.s, t.p, t.o};
    bool ok = true;
    std::unordered_map<int64_t, TermId> seen;
    for (int i = 0; i < 3 && ok; ++i) {
      if (positions[i] > -1) continue;
      auto [it, inserted] = seen.emplace(positions[i], values[i]);
      if (!inserted && it->second != values[i]) ok = false;
    }
    if (!ok) continue;
    for (int64_t pos : var_pos) {
      for (int i = 0; i < 3; ++i) {
        if (positions[i] == pos) {
          rel.rows.push_back(values[i]);
          break;
        }
      }
    }
  }
  return true;
}

std::vector<std::pair<size_t, size_t>> SharedColumns(const Relation& a,
                                                     const Relation& b) {
  std::vector<std::pair<size_t, size_t>> shared;
  for (size_t i = 0; i < a.schema.size(); ++i) {
    for (size_t j = 0; j < b.schema.size(); ++j) {
      if (a.schema[i] == b.schema[j]) shared.emplace_back(i, j);
    }
  }
  return shared;
}

void EmitJoined(const Relation& a, const Relation& b, size_t row_a,
                size_t row_b,
                const std::vector<std::pair<size_t, size_t>>& shared,
                Relation& out) {
  const TermId* ra = a.rows.data() + row_a * a.width();
  const TermId* rb = b.rows.data() + row_b * b.width();
  for (size_t i = 0; i < a.width(); ++i) out.rows.push_back(ra[i]);
  for (size_t j = 0; j < b.width(); ++j) {
    bool is_shared = false;
    for (const auto& [ai, bj] : shared) {
      if (bj == j) is_shared = true;
    }
    if (!is_shared) out.rows.push_back(rb[j]);
  }
}

Relation JoinSchema(const Relation& a, const Relation& b,
                    const std::vector<std::pair<size_t, size_t>>& shared) {
  Relation out;
  out.schema = a.schema;
  for (size_t j = 0; j < b.schema.size(); ++j) {
    bool is_shared = false;
    for (const auto& [ai, bj] : shared) {
      if (bj == j) is_shared = true;
    }
    if (!is_shared) out.schema.push_back(b.schema[j]);
  }
  return out;
}

bool RowsMatch(const Relation& a, const Relation& b, size_t ra, size_t rb,
               const std::vector<std::pair<size_t, size_t>>& shared) {
  for (const auto& [i, j] : shared) {
    if (a.rows[ra * a.width() + i] != b.rows[rb * b.width() + j]) {
      return false;
    }
  }
  return true;
}

/// Nested-loop join (quadratic) — what the planner picks when it
/// *believes* inputs are small.
bool NestedLoopJoin(const Relation& a, const Relation& b,
                    const std::vector<std::pair<size_t, size_t>>& shared,
                    StepMeter& meter, Relation& out) {
  out = JoinSchema(a, b, shared);
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t j = 0; j < b.size(); ++j) {
      if (!meter.Charge()) return false;
      if (RowsMatch(a, b, i, j, shared)) EmitJoined(a, b, i, j, shared, out);
    }
  }
  return true;
}

/// Hash join on the first shared column (residual equality on the rest).
bool HashJoin(const Relation& a, const Relation& b,
              const std::vector<std::pair<size_t, size_t>>& shared,
              StepMeter& meter, Relation& out) {
  out = JoinSchema(a, b, shared);
  if (shared.empty()) {
    return NestedLoopJoin(a, b, shared, meter, out);
  }
  auto [key_a, key_b] = shared[0];
  std::unordered_multimap<TermId, size_t> table;
  table.reserve(b.size());
  for (size_t j = 0; j < b.size(); ++j) {
    if (!meter.Charge()) return false;
    table.emplace(b.rows[j * b.width() + key_b], j);
  }
  for (size_t i = 0; i < a.size(); ++i) {
    auto range = table.equal_range(a.rows[i * a.width() + key_a]);
    for (auto it = range.first; it != range.second; ++it) {
      if (!meter.Charge()) return false;
      if (RowsMatch(a, b, i, it->second, shared)) {
        EmitJoined(a, b, i, it->second, shared, out);
      }
    }
  }
  return true;
}

double EstimateScan(const TripleStore& store, const BgpPattern& t) {
  double card = t.p >= 1 ? static_cast<double>(store.CountPredicate(
                               static_cast<TermId>(t.p)))
                         : static_cast<double>(store.size());
  if (t.s >= 1) card /= std::max<double>(
      1.0, static_cast<double>(
               t.p >= 1 ? store.DistinctSubjects(static_cast<TermId>(t.p))
                        : store.size()));
  if (t.o >= 1) card /= std::max<double>(
      1.0, static_cast<double>(
               t.p >= 1 ? store.DistinctObjects(static_cast<TermId>(t.p))
                        : store.size()));
  return std::max(card, 1.0);
}

}  // namespace

EvalStats RelationalEngine::Evaluate(const BgpQuery& q, EvalMode mode,
                                     util::StepBudget* budget) const {
  (void)mode;  // relational plans materialize fully even under EXISTS
  EvalStats stats;
  StepMeter meter{budget, stats};

  // Left-deep pipeline in syntactic order; independence-assumption
  // estimates drive the operator choice per step.
  Relation acc;
  double est = 0;
  double distinct_guess = 0;
  bool first = true;
  for (const BgpPattern& t : q.triples) {
    Relation next;
    if (!ScanPattern(store_, t, meter, next)) return stats;
    if (first) {
      acc = std::move(next);
      est = EstimateScan(store_, t);
      distinct_guess =
          t.p >= 1 ? static_cast<double>(std::max<size_t>(
                         1, store_.DistinctObjects(static_cast<TermId>(t.p))))
                   : est;
      first = false;
      continue;
    }
    auto shared = SharedColumns(acc, next);
    // Independence-assumption estimate: |L|*|R| / prod(max distinct).
    double right_est = EstimateScan(store_, t);
    double join_est = est * right_est;
    for (size_t k = 0; k < shared.size(); ++k) {
      join_est /= std::max(1.0, distinct_guess);
    }
    Relation out;
    stats.intermediate_tuples += acc.size() + next.size();
    bool finished = join_est <= kNljEstimateThreshold
                        ? NestedLoopJoin(acc, next, shared, meter, out)
                        : HashJoin(acc, next, shared, meter, out);
    if (!finished) return stats;
    acc = std::move(out);
    est = join_est;
    distinct_guess = std::max(
        distinct_guess,
        t.p >= 1 ? static_cast<double>(std::max<size_t>(
                       1, store_.DistinctObjects(static_cast<TermId>(t.p))))
                 : 1.0);
  }
  stats.num_results = acc.size();
  stats.matched = acc.size() > 0;
  stats.intermediate_tuples += acc.size();
  return stats;
}

}  // namespace sparqlog::store
