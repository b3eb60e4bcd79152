#ifndef SPARQLOG_GMARK_QUERY_GEN_H_
#define SPARQLOG_GMARK_QUERY_GEN_H_

#include <optional>
#include <string>
#include <vector>

#include "gmark/schema.h"
#include "sparql/ast.h"
#include "store/engine.h"
#include "util/rng.h"

namespace sparqlog::gmark {

/// The query shapes gMark generates (Section 5.1 / footnote 18: chain,
/// star, chain-star ("star-chain"), and cycle).
enum class QueryShape { kChain, kStar, kCycle, kChainStar };

/// One generated conjunctive query, in three equivalent forms: the step
/// list (schema predicates with directions), a SPARQL AST, and SQL text
/// over per-predicate binary tables (the PostgreSQL encoding used in the
/// paper's experiment).
struct GeneratedQuery {
  QueryShape shape = QueryShape::kChain;
  int length = 0;
  /// Predicate index + direction per step (false = forward).
  std::vector<std::pair<int, bool>> steps;
  sparql::Query sparql;
  std::string sql;
};

/// Workload generation options.
struct QueryGenOptions {
  QueryShape shape = QueryShape::kChain;
  int length = 3;          ///< number of conjuncts (paper: 3..8)
  int workload_size = 100; ///< queries per workload (paper: 100)
  bool ask_form = true;    ///< the paper converts workloads to Ask
  uint64_t seed = 7;
};

/// Generates a workload of `workload_size` queries of the given shape
/// and length over `schema`, by typed random walks (chains/cycles) or
/// typed fan-outs (stars).
std::vector<GeneratedQuery> GenerateWorkload(const Schema& schema,
                                             const QueryGenOptions& options);

/// Compiles a generated query to the engine IR against a store's
/// dictionary. Returns nullopt when a predicate IRI is absent from the
/// store (then the query trivially has no results).
std::optional<store::BgpQuery> CompileForEngine(
    const GeneratedQuery& q, const store::TripleStore& store);

}  // namespace sparqlog::gmark

#endif  // SPARQLOG_GMARK_QUERY_GEN_H_
