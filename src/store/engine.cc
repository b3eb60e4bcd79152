#include "store/engine.h"

#include <algorithm>

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

  /// `n` tuples probed or materialized; false once the budget is spent.
  /// A charge the budget cannot cover credits what it had left, so the
  /// totals are those of `n` charges of one step.
  bool Charge(uint64_t n = 1) {
    if (budget != nullptr && n > 0) {
      const uint64_t left = budget->remaining();
      if (!budget->Charge(n)) {
        stats.steps += left;
        stats.capped = true;
        return false;
      }
    }
    stats.steps += n;
    return true;
  }
};

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

}  // namespace

// ---------------------------------------------------------------------------
// GraphEngine: pipelined index nested loops with greedy join ordering.
// ---------------------------------------------------------------------------

namespace {

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
  for (const rdf::EncodedTriple& m :
       ctx.store.Match(Resolve(t.s, binding), Resolve(t.p, binding),
                       Resolve(t.o, binding))) {
    if (!ctx.meter.Charge()) return true;  // abort
    // Bind unbound variables; verify consistency for repeated vars.
    TermId saved_s = 0, saved_p = 0, saved_o = 0;
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
    const bool stop = bind(t.s, m.s, saved_s) && bind(t.p, m.p, saved_p) &&
                      bind(t.o, m.o, saved_o) &&
                      Backtrack(ctx, depth + 1, binding);
    if (saved_s != 0) binding[saved_s - 1] = 0;
    if (saved_p != 0) binding[saved_p - 1] = 0;
    if (saved_o != 0) binding[saved_o - 1] = 0;
    if (stop) return true;
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
/// flat tuples. The row count is kept explicitly: a relation without
/// variables (a ground pattern) has rows but no columns.
struct Relation {
  std::vector<size_t> schema;  // variable index per column
  std::vector<TermId> rows;    // row-major
  size_t count = 0;            // number of rows
  size_t width() const { return schema.size(); }
  size_t size() const { return count; }
  const TermId* Row(size_t i) const { return rows.data() + i * width(); }
};

/// Materializes the rows matching `t`; false once the budget is spent.
bool ScanPattern(const TripleStore& store, const BgpPattern& t,
                 StepMeter& meter, Relation& rel) {
  const std::span<const EncodedTriple> matches =
      store.Match(t.s >= 1 ? static_cast<TermId>(t.s) : 0,
                  t.p >= 1 ? static_cast<TermId>(t.p) : 0,
                  t.o >= 1 ? static_cast<TermId>(t.o) : 0);
  if (!meter.Charge(matches.size())) return false;
  // One column per distinct variable, at its first position in s,p,o
  // order; `first[i]` is the first position holding position i's term.
  const int64_t positions[3] = {t.s, t.p, t.o};
  int first[3];
  std::vector<int> columns;
  for (int i = 0; i < 3; ++i) {
    first[i] = static_cast<int>(
        std::find(positions, positions + i, positions[i]) - positions);
    if (positions[i] <= -1 && first[i] == i) {
      columns.push_back(i);
      rel.schema.push_back(VarIndex(positions[i]));
    }
  }
  rel.rows.reserve(matches.size() * columns.size());
  for (const EncodedTriple& m : matches) {
    const TermId values[3] = {m.s, m.p, m.o};
    // A repeated variable must bind one value.
    if (values[first[1]] != values[1] || values[first[2]] != values[2]) {
      continue;
    }
    for (int c : columns) rel.rows.push_back(values[c]);
    ++rel.count;
  }
  return true;
}

/// (column of a, column of b) per variable the two relations share, in
/// column order of a.
using SharedColumns = std::vector<std::pair<size_t, size_t>>;

SharedColumns Shared(const Relation& a, const Relation& b) {
  SharedColumns shared;
  for (size_t i = 0; i < a.width(); ++i) {
    for (size_t j = 0; j < b.width(); ++j) {
      if (a.schema[i] == b.schema[j]) shared.emplace_back(i, j);
    }
  }
  return shared;
}

/// Joins `a` with `b` on their `shared` columns into `out`, in (row of
/// a, row of b) order: each row of `a` probes the rows of `b` sorted by
/// the first shared column, then checks the others. The operator the
/// planner picked only sets the charge, made in bulk with the totals of
/// one step per tuple: a nested loop charges |b| per row of `a`, all
/// before it starts; a hash join charges |b| to build, then the
/// candidates of each probe. False once the budget is spent.
bool Join(const Relation& a, const Relation& b, const SharedColumns& shared,
          bool nested_loop, StepMeter& meter, Relation& out) {
  std::vector<size_t> kept;  // the columns of b that are not shared
  out.schema = a.schema;
  for (size_t j = 0; j < b.width(); ++j) {
    if (std::none_of(shared.begin(), shared.end(),
                     [j](const auto& c) { return c.second == j; })) {
      kept.push_back(j);
      out.schema.push_back(b.schema[j]);
    }
  }
  if (!meter.Charge(nested_loop ? a.size() * b.size() : b.size())) {
    return false;
  }
  // (key, row) per row of b; without a shared column every key is 0.
  std::vector<std::pair<TermId, size_t>> keyed(b.size());
  for (size_t j = 0; j < b.size(); ++j) {
    keyed[j] = {shared.empty() ? 0 : b.Row(j)[shared[0].second], j};
  }
  std::sort(keyed.begin(), keyed.end());
  for (size_t i = 0; i < a.size(); ++i) {
    const TermId* ra = a.Row(i);
    const std::pair<TermId, size_t> key{
        shared.empty() ? 0 : ra[shared[0].first], 0};
    auto [begin, end] = std::equal_range(
        keyed.begin(), keyed.end(), key,
        [](const auto& x, const auto& y) { return x.first < y.first; });
    if (!nested_loop && !meter.Charge(static_cast<size_t>(end - begin))) {
      return false;
    }
    for (auto it = begin; it != end; ++it) {
      const TermId* rb = b.Row(it->second);
      if (std::all_of(shared.begin(), shared.end(), [&](const auto& c) {
            return ra[c.first] == rb[c.second];
          })) {
        out.rows.insert(out.rows.end(), ra, ra + a.width());
        for (size_t j : kept) out.rows.push_back(rb[j]);
        ++out.count;
      }
    }
  }
  return true;
}

}  // namespace

EvalStats RelationalEngine::Evaluate(const BgpQuery& q, EvalMode mode,
                                     util::StepBudget* budget) const {
  (void)mode;  // relational plans materialize fully even under EXISTS
  EvalStats stats;
  StepMeter meter{budget, stats};
  const std::vector<bool> nothing_bound(static_cast<size_t>(q.num_vars),
                                        false);

  // Left-deep pipeline in syntactic order; independence-assumption
  // estimates drive the operator choice per step.
  Relation acc;
  double est = 0;
  double distinct_guess = 0;
  bool first = true;
  for (const BgpPattern& t : q.triples) {
    Relation next;
    if (!ScanPattern(store_, t, meter, next)) return stats;
    const double scan_est =
        std::max(1.0, EstimatePattern(store_, t, nothing_bound));
    if (first) {
      acc = std::move(next);
      est = scan_est;
      distinct_guess =
          t.p >= 1 ? static_cast<double>(std::max<size_t>(
                         1, store_.DistinctObjects(static_cast<TermId>(t.p))))
                   : est;
      first = false;
      continue;
    }
    const SharedColumns shared = Shared(acc, next);
    // Independence-assumption estimate: |L|*|R| / prod(max distinct).
    double join_est = est * scan_est;
    for (size_t k = 0; k < shared.size(); ++k) {
      join_est /= std::max(1.0, distinct_guess);
    }
    Relation out;
    stats.intermediate_tuples += acc.size() + next.size();
    const bool nested_loop =
        shared.empty() || join_est <= kNljEstimateThreshold;
    if (!Join(acc, next, shared, nested_loop, meter, out)) return stats;
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
