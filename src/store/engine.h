#ifndef SPARQLOG_STORE_ENGINE_H_
#define SPARQLOG_STORE_ENGINE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "store/store.h"
#include "util/budget.h"

namespace sparqlog::store {

/// A conjunctive (BGP) query over the store: each pattern position is
/// either a constant TermId or a variable (negative ids -1, -2, ...).
struct BgpPattern {
  /// >= 1: constant TermId; <= -1: variable id.
  int64_t s = 0, p = 0, o = 0;
};

struct BgpQuery {
  std::vector<BgpPattern> triples;
  int num_vars = 0;

  /// Declares a fresh variable; returns its (negative) id.
  int64_t AddVar() { return -(++num_vars); }
};

/// Execution mode: the Section 5.1 experiment runs Ask workloads; Select
/// mode counts all results.
enum class EvalMode { kAsk, kSelect };

/// Execution statistics for one query.
struct EvalStats {
  bool matched = false;          ///< Ask answer / result-set non-empty
  uint64_t num_results = 0;      ///< Select result count (Ask: 0 or 1)
  uint64_t intermediate_tuples = 0;  ///< total materialized tuples
  uint64_t steps = 0;    ///< tuples probed or materialized (work done)
  bool capped = false;   ///< budget ran out: the other fields are partial
};

/// Abstract query engine interface over a shared TripleStore.
class Engine {
 public:
  virtual ~Engine() = default;
  virtual std::string name() const = 0;

  /// Evaluates `q`, charging `budget` one step per tuple probed or
  /// materialized. A null budget is unlimited, as in the analysis
  /// kernels; steps are counted either way.
  virtual EvalStats Evaluate(const BgpQuery& q, EvalMode mode,
                             util::StepBudget* budget = nullptr) const = 0;
};

/// Blazegraph stand-in: pipelined index nested-loop joins with greedy
/// selectivity-based ordering over variable-connected patterns, early
/// exit in Ask mode, no intermediate materialization.
class GraphEngine : public Engine {
 public:
  explicit GraphEngine(const TripleStore& store) : store_(store) {}
  std::string name() const override { return "GraphEngine(BG)"; }
  EvalStats Evaluate(const BgpQuery& q, EvalMode mode,
                     util::StepBudget* budget = nullptr) const override;

 private:
  const TripleStore& store_;
};

/// PostgreSQL stand-in: left-deep pairwise joins in syntactic order with
/// full materialization of every intermediate relation. Join operators
/// are chosen from independence-assumption cardinality estimates — on
/// cyclic join graphs those estimates collapse (the classic correlated-
/// selectivity failure) and the engine picks nested-loop joins on huge
/// actual inputs, which is what produces the timeout behaviour the paper
/// observes for PG cycle workloads (Figure 3 bottom).
class RelationalEngine : public Engine {
 public:
  explicit RelationalEngine(const TripleStore& store) : store_(store) {}
  std::string name() const override { return "RelationalEngine(PG)"; }
  EvalStats Evaluate(const BgpQuery& q, EvalMode mode,
                     util::StepBudget* budget = nullptr) const override;

 private:
  const TripleStore& store_;
};

}  // namespace sparqlog::store

#endif  // SPARQLOG_STORE_ENGINE_H_
